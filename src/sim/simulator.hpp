// Simulation driver: warmup -> measurement -> drain, with a deadlock
// watchdog.
//
// Packets created inside the measurement window are tagged; the run ends
// when all of them have been delivered (drained) or when the drain budget
// is exhausted (reported as drained=false, which near/past saturation is
// the expected outcome). Traffic generation continues during the drain so
// the network stays loaded, as in standard open-loop methodology.
//
// One entry point. SimStepper is the only way to run a simulation:
// start() resets the workspace, advance(cap) executes cycles up to a cap
// and finish() fills in the results; Simulator::run(ws) is start +
// advance() + finish at every shard count. Every active-set run executes
// the same partitioned cycle (simulator.cpp): serial begin and end steps
// around a per-shard front step (NI injection, router step) and back
// step (commit, RC permission delivery, the next cycle's wake-ups). At
// one shard advance() calls the steps inline on the calling thread; with
// SimKnobs::shards > 1 on the active-set core, start() splits the system
// into 2.5D columns (a chiplet and the interposer beneath it) and
// advance() calls them from one worker thread per shard. Both loops
// stop at the cap, so a sharded run pauses like a serial one. Results
// are bit-identical for any shard count (tests/test_sim_sharded.cpp); the
// full-scan core and one-column systems silently execute at one shard.
//
// One injection path: each NI pre-draws its next injection
// (TrafficGenerator::next_injection) into its shard's event heap, and a
// request that carries a reply (PacketRequest::reply_at) queues the reply
// at the responder's NI with a wake-up at its due cycle. The cycle visits
// an NI only when it holds undelivered packets or an event comes due, so
// idle endpoints cost zero per cycle. The stats sink is a compile-time
// template chosen by the measurement-window flag, so per-flit statistics
// vanish from warmup and drain cycles. SimCore::full_scan runs the
// original walk-everything loop instead, calling TrafficGenerator::tick
// at every NI every cycle - the semantic reference the equivalence tests
// compare against; both cores are bit-identical for a fixed seed.
//
// All per-run state lives in a SimWorkspace arena. run() builds a private
// one; run(SimWorkspace&) reuses the caller's across runs, which is what
// makes sweeps of many short runs cheap: after the first run on a given
// topology the workspace's buffers are warm and a steady-state run
// performs zero heap allocations (asserted by tests/test_workspace.cpp).
//
// Pausing: snapshots and campaign checkpoints pause a stepper between
// advance() calls without touching its results. A pause before cycle c
// leaves c's injection draw to c's begin step; the draw is idempotent, so
// a paused and resumed run executes exactly the cycles of an unpaused one
// (bit-identical by construction; see docs/architecture.md).
#pragma once

#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "core/worker_pool.hpp"
#include "sim/fault_events.hpp"
#include "sim/ni.hpp"
#include "stats/stats.hpp"

namespace deft {

/// Upper bound on SimKnobs::shards (the back step's RC request merge uses
/// fixed per-shard cursors).
inline constexpr int kMaxSimShards = 64;

/// Where per-packet routing randomness (DeFT-Random's VL draws) comes
/// from. `serial` is the historical shared xoshiro stream consumed in
/// ascending NI order - every golden digest is pinned to it - which
/// forces packet materialization into the cycle's serial begin step.
/// `counter` gives each NI a private counter-based stream keyed by
/// (seed, endpoint node): draw k of a stream is a pure function of the
/// key and k, so route preparation moves into the parallel shard phases
/// and results are bit-identical across shard counts (but differ from
/// `serial` for randomness-consuming configurations).
enum class RngMode : std::uint8_t { serial, counter };

const char* rng_mode_name(RngMode m);

struct SimKnobs {
  int num_vcs = 2;       ///< paper: two VCs for all algorithms
  int buffer_depth = 4;  ///< paper: four flits per VC
  int packet_size = 8;   ///< paper: eight 32-bit flits
  /// Vertical-link serialization factor (1 = full-width VLs, the paper's
  /// baseline; higher values model the narrower serialized vertical
  /// interconnects of [18] at 1/S bandwidth).
  int vl_serialization = 1;
  Cycle warmup = 10'000;
  Cycle measure = 30'000;
  Cycle drain_max = 100'000;
  Cycle watchdog_cycles = 20'000;  ///< no-progress cycles before deadlock
  std::uint64_t seed = 1;
  /// Simulation core: the active-set worklists (default) or the reference
  /// full scan. Results are bit-identical; only wall clock differs.
  SimCore core = SimCore::active_set;
  /// Shard / worker-thread count for the partitioned core: > 1 splits the
  /// run across that many threads (capped by the system's 2.5D column
  /// count). Results are bit-identical for every value; only wall clock
  /// differs. The full-scan core ignores it and runs serially.
  int shards = 1;
  /// Routing-randomness mode (see RngMode). `serial` preserves every
  /// historical digest; `counter` unlocks parallel packet materialization
  /// and is the recommended mode for many-chiplet sharded runs.
  RngMode rng_mode = RngMode::serial;
};

/// One shard's slice of the per-run state: the NI worklist, the staged RC
/// permission requests, and the shard's private measurement accumulators
/// (merged order-insensitively - latency summaries sort their samples,
/// every counter is additive). A serial run uses slice 0 alone.
/// Cache-line aligned so that one shard's per-ejection counter updates
/// never share a line with a neighbouring shard's slice.
struct alignas(64) ShardRun {
  /// NI worklist over the global NI index space: `busy` mirrors
  /// NetworkInterface::busy() for the shard's NIs, `wake` marks NIs with
  /// an event due this cycle, and `events` is a binary min-heap over
  /// (cycle, NI index) holding each NI's pre-drawn next injection and a
  /// wake-up per queued reply, managed with std::push_heap/std::pop_heap
  /// (a std::priority_queue would own - and reallocate - its container
  /// privately).
  std::vector<std::uint64_t> busy;
  std::vector<std::uint64_t> wake;
  std::vector<std::pair<Cycle, std::size_t>> events;
  std::vector<RcPermissionRequest> rc_requests;
  /// Units this shard moved out of rest while delivering permission
  /// requests in the back step; folded into RcUnitManager::busy_units_
  /// at the cycle's end (the counter itself is global state no parallel
  /// step may touch).
  int rc_busy_delta = 0;

  // Measurement slice.
  std::vector<std::uint32_t> net_latencies;
  std::vector<std::uint32_t> total_latencies;
  std::vector<std::array<std::uint64_t, kMaxVcsStats>> region_vc_flits;
  std::vector<std::uint64_t> vl_channel_flits;
  std::uint64_t flits_ejected_in_window = 0;
  std::uint64_t delivered_measured = 0;

  /// Adds `other`'s measurement slice: counters summed, samples appended.
  void merge_measurements(const ShardRun& other);
};

/// Loop state carried from cycle to cycle: the clock, the watchdog's idle
/// count, the terminal flags and the injection counters. A stepper keeps
/// it between advance() calls; snapshots save it.
struct RunCursor {
  Cycle measure_end = 0;
  Cycle hard_end = 0;
  Cycle now = 0;
  Cycle idle_cycles = 0;
  bool deadlock = false;
  bool drained = false;
  NiCounters counters;
};

/// The cycle's shared state (simulator.cpp).
struct CycleEngine;

/// Reusable arena owning every piece of per-run simulation state: the
/// PacketTable planes (hot/cold records plus the interned RouteStore),
/// the Network's router/credit storage, the RC units, the NI vector, the
/// per-shard slices (NI worklists, staged RC requests, latency samples and
/// counters), and the SimResults the run fills in.
///
/// Contract: a run through a workspace produces SimResults bit-identical
/// to a run through a freshly constructed one (Simulator::run(ws) resets
/// every plane before the first cycle), but reuses all prior allocations.
/// Reusing one workspace across differing topologies, algorithms or knobs
/// is supported - buffers grow to the high-water mark and stay there.
/// A workspace serves one run at a time; for a thread pool, keep one
/// workspace per worker.
class SimWorkspace {
 public:
  SimWorkspace() = default;
  SimWorkspace(SimWorkspace&&) = default;
  SimWorkspace& operator=(SimWorkspace&&) = default;

  /// Results of the last completed run (also returned by reference from
  /// Simulator::run(SimWorkspace&)); valid until the next run starts.
  const SimResults& results() const { return results_; }

  /// Distinct interned routes after the last run (observability: the hot
  /// route plane's residency is why the route stage stays in cache).
  std::size_t distinct_routes() const { return packets_.distinct_routes(); }

 private:
  friend class Simulator;
  friend class SimStepper;
  friend class SnapshotAccess;
  friend struct CycleEngine;

  PacketTable packets_;
  Network net_;
  RcUnitManager rc_units_;
  FaultSurgeon surgeon_;
  std::vector<NetworkInterface> nis_;
  /// The run's router partition (trivial for a serial run), one ShardRun
  /// slice per shard, and the persistent worker pool
  /// (threads survive across runs, so a workspace reused for many sharded
  /// runs spawns them once; serial runs never build it).
  Partition partition_;
  std::vector<ShardRun> shard_runs_;
  std::unique_ptr<WorkerPool> pool_;
  SimResults results_;
};

class Simulator {
 public:
  /// The topology, algorithm, traffic - and, when given, timeline -
  /// objects must outlive run(). `faults` is the fault set active at
  /// cycle 0 and must match the set `algorithm` currently holds. A
  /// non-null `timeline` (validated against `faults` here) schedules
  /// dynamic fault events: the run applies them at their cycle boundary
  /// through the algorithm's set_faults() - which therefore ends the run
  /// holding the timeline's final fault set - and resolves affected
  /// in-flight packets under `policy` (see FaultSurgeon).
  Simulator(const Topology& topo, RoutingAlgorithm& algorithm,
            TrafficGenerator& traffic, SimKnobs knobs, VlFaultSet faults = {},
            const FaultTimeline* timeline = nullptr,
            InFlightPolicy policy = InFlightPolicy::drop);

  /// Runs the full simulation and returns its statistics. Can be called
  /// once per Simulator instance. Allocating wrapper over run(ws).
  SimResults run();

  /// Runs the full simulation inside `ws`, reusing its buffers, and
  /// returns a reference to the workspace-owned results (valid until the
  /// workspace's next run). Bit-identical to run() for equal inputs; on a
  /// warm workspace a serial run performs no heap allocation.
  const SimResults& run(SimWorkspace& ws);

 private:
  friend class SimStepper;
  friend class SnapshotAccess;
  friend struct CycleEngine;

  const Topology* topo_;
  RoutingAlgorithm* algorithm_;
  TrafficGenerator* traffic_;
  SimKnobs knobs_;
  VlFaultSet faults_;
  const FaultTimeline* timeline_;
  InFlightPolicy policy_;
  bool ran_ = false;
};

/// Resumable execution of one simulation, the only way to run one:
/// start() performs the run prologue, advance(cap) executes cycles until
/// `cap` (exclusive) or the run's natural end, finish() finalizes and
/// returns the workspace-owned SimResults. Simulator::run(ws) is exactly
/// start + advance(unbounded) + finish, so a stepped run is bit-identical
/// to an unstepped one by construction: the same cycle code executes the
/// same cycles in the same order, merely pausing at advance() boundaries,
/// where the only deferred work - the next cycle's injection draw - is
/// what that cycle's begin step performs anyway. The run cursor lives
/// here; everything heavier stays in the SimWorkspace.
///
/// The stepper runs at the configuration's shard count; between advance()
/// calls the shard workers wait idle in the workspace's pool. Snapshots
/// (sim/snapshot.hpp) save and restore a stepper paused between advance()
/// calls, at any shard count on either side.
class SimStepper {
 public:
  SimStepper() = default;

  /// Binds the stepper to `sim`'s configuration and `ws`, consuming
  /// `sim`'s single run() permit, building the shard partition and worker
  /// pool a sharded run needs and resetting the workspace planes. The
  /// Simulator, its referenced objects, and the workspace must outlive
  /// the stepper's last call.
  void start(Simulator& sim, SimWorkspace& ws);

  /// Runs cycles [now(), cap) - fewer when the run ends first. Returns
  /// done(). A cap at or below now() is a no-op; pass no argument to run
  /// to the natural end of the simulation.
  bool advance(Cycle cap = kNoCycleCap);

  /// True once the run reached a terminal state (drained, deadlocked, or
  /// the hard cycle budget); advance() is a no-op from then on.
  bool done() const { return done_; }

  /// The next cycle advance() would execute.
  Cycle now() const { return cur_.now; }

  /// Finalizes the run's statistics into the workspace and returns them
  /// (valid until the workspace's next run). Requires done(); call once.
  const SimResults& finish();

  static constexpr Cycle kNoCycleCap = std::numeric_limits<Cycle>::max();

 private:
  friend class SnapshotAccess;

  Simulator* sim_ = nullptr;
  SimWorkspace* ws_ = nullptr;
  RunCursor cur_;
  bool done_ = false;
  bool finished_ = false;
};

}  // namespace deft
