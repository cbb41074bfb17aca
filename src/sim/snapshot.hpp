// Deterministic simulation checkpoints.
//
// save_snapshot() serializes the complete mid-run state of a paused
// SimStepper - router flit planes and ring metadata, input/output VC
// state, NI FIFOs, reply queues, pre-drawn injections and RNG streams,
// the traffic generator's per-run state, RC-unit state, the pending NI
// events, the fault surgeon's cursor and window metrics, the interned
// route/packet planes, and the in-progress results counters - into a
// versioned, checksummed binary image. restore_snapshot() rebuilds that
// state inside a fresh Simulator + SimWorkspace such that
//
//   restore_snapshot(...); stepper.advance(); stepper.finish();
//
// is bit-identical to the uninterrupted run (same SimResults, same golden
// digests).
//
// An image holds no execution shape. Every shard count gives the same
// results, so the image stores what the run is, not how it is split: the
// shards' event heaps as one list in (cycle, NI) order, and their
// measurement slices as one (counters summed, latency samples sorted).
// Restore rebuilds every per-shard structure for the partition of the run
// that restores. The worklists are derived, as at every pause each
// shard's wake words are zero, an NI is busy iff NetworkInterface::busy(),
// a router is marked iff it buffers flits, a lane's flit count is its
// routers' fill, and the next step resets its moves. So an image saved at
// any shard count restores at any other, and a paused run writes the
// same bytes at every shard count (tests/test_snapshot.cpp).
//
// A snapshot is only meaningful against the exact run configuration it
// was taken from, so the image embeds a configuration fingerprint (knobs,
// topology shape, algorithm name and DeFT's VL strategy, traffic name and
// rate, the application mix's codes and core counts, initial fault set,
// fault timeline, in-flight policy) and
// restore_snapshot() rejects any mismatch. Corrupt, truncated or
// version-mismatched images are rejected with a SnapshotError diagnostic -
// never restored into a wrong result.
//
// One walk per struct (snapshot.cpp): each checkpointed struct has a
// single template that names its fields in image order, run once against
// a Writer to save and once against a bounds-checked Reader to restore,
// so no field can be saved but not restored, or restored out of order.
// To change the image, edit the walk, bump kSnapshotVersion and re-pin
// Snapshot.ImageBytesArePinned (tests/test_snapshot.cpp). Struct reset()
// methods stay separate: they restore constructor defaults while keeping
// capacity, which a field walk cannot say without a second table.
//
// Run state left out of the image on purpose, besides the execution shape:
//   - the fault surgeon's order_, which reset() rebuilds from the
//     timeline, and its per-event scratch (doomed_, doomed_list_,
//     pinned_empty_), reassigned at every event;
//   - each NI's counter-stream key, a pure function of (seed, node) that
//     start() rebuilds, and its prepared_ routes, empty at every pause
//     (the back step before a pause draws nothing, so prepares nothing);
//   - the network's staged outboxes, empty at every pause (save refuses
//     an image otherwise);
//   - RouteStore's hash index, which re-interning the routes rebuilds;
//   - the SimResults fields that finish() fills at the end of the run.
#pragma once

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace deft {

/// Raised on any invalid snapshot image (bad magic, unsupported version,
/// truncation, checksum failure, configuration fingerprint mismatch).
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Snapshot format version written by save_snapshot().
/// v2: per-NI counter-based route-stream draw counts (rng_mode).
/// v3: fault sets past 64 channels (the set's 2,048-bit words), per-NI
/// reply FIFOs and own-event cycles, application burst flags, DeFT's VL
/// strategy and the traffic rate in the fingerprint; no injection-mode or
/// primed byte.
/// v4: no execution shape (one sorted event list, one merged measurement
/// slice, no NI or router worklist), so an image restores at any shard
/// count; the application mix's codes and core counts in the fingerprint.
inline constexpr std::uint32_t kSnapshotVersion = 4;

/// Serializes the state of `stepper`'s paused run, at any shard count. The
/// stepper must be started and not finished; the cycle boundary it is
/// paused on is a serial point (all staged network state committed),
/// which start()/advance() guarantee.
std::vector<std::uint8_t> save_snapshot(const SimStepper& stepper);

/// Restores a snapshot into `stepper`/`ws`. `sim` must be a fresh (never
/// run) Simulator constructed with a configuration identical to the one
/// the snapshot was taken from - same topology, algorithm, traffic,
/// knobs, initial faults, timeline and policy, at any shard count; the
/// embedded fingerprint is checked and any mismatch rejected. On return
/// the stepper is paused exactly where the saved run was: advance()/
/// finish() continue it bit-identically. Throws SnapshotError on any
/// invalid image - also when the algorithm or traffic generator rejects
/// its saved stream state - leaving no partial state behind that could
/// produce a wrong result (the stepper must simply not be used after a
/// failed restore).
void restore_snapshot(const std::vector<std::uint8_t>& data, Simulator& sim,
                      SimStepper& stepper, SimWorkspace& ws);

/// Durably writes a snapshot image: temp file + fsync + atomic rename,
/// so a crash mid-write can never leave a truncated image under `path`
/// (a reader sees the old snapshot or the new one, never a half one).
void write_snapshot_file(const std::filesystem::path& path,
                         const std::vector<std::uint8_t>& data);

/// Reads a snapshot image; throws SnapshotError when the file cannot be
/// read (restore_snapshot() then validates the content).
std::vector<std::uint8_t> read_snapshot_file(
    const std::filesystem::path& path);

}  // namespace deft
