// Per-router microarchitectural state.
//
// The router is input-queued with per-port virtual-channel buffers and
// credit-based wormhole flow control, processed in three stages per cycle
// (route computation, VC allocation, switch allocation + traversal),
// matching the one-cycle-per-hop model of the Noxim simulator the paper
// builds on. Round-robin pointers make every arbiter fair; the output-VC
// round-robin doubles as DeFT's round-robin VN (re)assignment wherever the
// routing function admits both VNs.
//
// Buffer layout is structure-of-arrays over lanes: every input VC is a
// fixed "lane" (lane = port * kMaxVcs + vc, the same index the occupancy
// bitmask uses), and what used to be one array of fat InputVc objects is
// split into parallel lane-indexed arrays - a flat flit-slot plane
// (lane-major rings), the ring metadata (head_, count_: two 32-byte
// arrays that stay resident while a router is hot), the head-of-line
// route state, and the output-VC state. The pipeline stages stream the
// array they need: the switch stage streams (dst lane, vc, kind) through
// the slot plane and the owned-output bitmask without touching route
// state, the route stage reads one 8-byte head slot per occupied lane
// plus the packet's interned route (PacketTable::route_of), and the
// head/tail kind byte stamped at injection keeps the packet table out
// of the traversal loop entirely.
#pragma once

#include <array>

#include "sim/packet.hpp"

namespace deft {

/// Maximum supported buffer depth in flits (configured depth may be less).
inline constexpr int kMaxBufferDepth = 8;
static_assert((kMaxBufferDepth & (kMaxBufferDepth - 1)) == 0,
              "FlitStore indexing relies on power-of-two masking");

/// One buffer lane per (input port, VC) pair.
inline constexpr int kNumLanes = kNumPorts * kMaxVcs;

/// Flit storage for one router: per-lane ring buffers over one flat
/// lane-major slot plane, with the ring metadata held in separate dense
/// arrays (head_ and count_ each cover all 32 lanes in half a cache
/// line, so the occupancy-driven scans never touch a lane's slots just
/// to learn its fill level). Ring indices wrap with a power-of-two mask,
/// keeping division out of the per-flit path; capacity checks are the
/// caller's job - the flow-control credits guarantee a `push` never
/// overflows the configured buffer depth.
class FlitStore {
 public:
  static constexpr int lane_of(int port, int vc) {
    return port * kMaxVcs + vc;
  }

  bool empty(int lane) const { return count_[static_cast<std::size_t>(lane)] == 0; }
  int size(int lane) const {
    return static_cast<int>(count_[static_cast<std::size_t>(lane)]);
  }

  /// Bitmask of non-empty lanes (bit = lane index), read straight off the
  /// dense count_ array. Ground truth - unlike RouterState::occupancy it
  /// cannot go stale - and iterating its set bits ascending visits lanes
  /// in (port, VC) order. Lanes above the configured VC count are never
  /// pushed to, so their bits are always clear.
  std::uint32_t occupied_mask() const {
    static_assert(kNumLanes <= 32,
                  "occupied_mask packs one bit per lane into a uint32");
    std::uint32_t mask = 0;
    for (int lane = 0; lane < kNumLanes; ++lane) {
      if (count_[static_cast<std::size_t>(lane)] != 0) {
        mask |= std::uint32_t{1} << lane;
      }
    }
    return mask;
  }

  void push(int lane, const Flit& flit) {
    const std::size_t l = static_cast<std::size_t>(lane);
    slots_[slot(l, count_[l])] = flit;
    ++count_[l];
  }

  /// Head-of-lane field reads (one 8-byte slot; kind and packet share it).
  PacketId front_packet(int lane) const {
    const std::size_t l = static_cast<std::size_t>(lane);
    return slots_[slot(l, 0)].packet;
  }
  FlitKind front_kind(int lane) const {
    const std::size_t l = static_cast<std::size_t>(lane);
    return slots_[slot(l, 0)].kind;
  }

  /// Reads the flit at ring `offset` behind the front (0 = front) without
  /// popping; `offset` must be < size(lane). Off the per-cycle path: fault
  /// surgery scans lanes for in-flight packet heads.
  Flit peek(int lane, int offset) const {
    const std::size_t l = static_cast<std::size_t>(lane);
    return slots_[slot(l, static_cast<std::uint32_t>(offset))];
  }

  Flit pop(int lane) {
    const std::size_t l = static_cast<std::size_t>(lane);
    const Flit flit = slots_[slot(l, 0)];
    head_[l] = static_cast<std::uint8_t>((head_[l] + 1) & kMask);
    --count_[l];
    return flit;
  }

 private:
  static constexpr std::uint32_t kMask =
      static_cast<std::uint32_t>(kMaxBufferDepth - 1);
  static constexpr std::size_t kSlots =
      static_cast<std::size_t>(kNumLanes) * kMaxBufferDepth;

  std::size_t slot(std::size_t lane, std::uint32_t offset) const {
    return lane * kMaxBufferDepth + ((head_[lane] + offset) & kMask);
  }

  std::array<Flit, kSlots> slots_{};
  std::array<std::uint8_t, kNumLanes> head_{};
  std::array<std::uint8_t, kNumLanes> count_{};
};

/// Head-of-line routing state of one input VC (wormhole: the route and
/// downstream VC are held until the tail flit leaves). The flits
/// themselves live in the router's FlitStore lane of the same index.
struct InputVcState {
  bool route_ready = false;  ///< head-of-line route has been computed
  RouteDecision decision;
  std::int8_t out_vc = -1;  ///< allocated downstream VC, -1 = none
};

/// One output virtual channel: which input (port, vc) currently owns it
/// (wormhole allocation, released at the tail flit) and the credit count
/// mirroring the downstream input buffer.
struct OutputVc {
  std::int8_t owner_port = -1;  ///< input (port, vc) holding this output VC
  std::int8_t owner_vc = -1;
  std::int16_t credits = 0;  ///< free downstream buffer slots
};

/// The complete per-router microarchitectural state, advanced one cycle
/// at a time by Network::step()/apply().
struct RouterState {
  FlitStore flits;
  /// Lane-indexed (FlitStore::lane_of) input-VC routing state.
  std::array<InputVcState, kNumLanes> in;
  /// Lane-indexed output VCs: out[lane_of(port, vc)].
  std::array<OutputVc, kNumLanes> out;
  /// Round-robin pointers: VC allocation (per output port, over input VC
  /// index space), output-VC choice (per output port), switch allocation
  /// (per output port).
  std::array<std::uint8_t, kNumPorts> va_ptr{};
  std::array<std::uint8_t, kNumPorts> ovc_ptr{};
  std::array<std::uint8_t, kNumPorts> sa_ptr{};
  /// Occupancy bitmask: bit (port * kMaxVcs + vc) - the lane index - set
  /// when the input VC's buffer lane is non-empty. The active-router
  /// worklist in Network keys off this word: a router is scanned only
  /// while some bit is set.
  std::uint64_t occupancy = 0;
  static_assert(kNumLanes <= 64,
                "RouterState::occupancy packs one bit per (port, vc)");
  /// Owned-output bitmask: bit lane_of(out_port, out_vc) set iff that
  /// output VC has an owner (owner_port >= 0). The switch allocator
  /// visits only the set groups - in (port, vc) order, so arbitration is
  /// bit-identical to the scan over all kNumPorts x num_vcs output VCs -
  /// instead of walking every output VC of every active router.
  std::uint32_t owned = 0;
  static_assert(kNumLanes <= 32,
                "RouterState::owned packs one bit per output (port, vc)");
};

}  // namespace deft
