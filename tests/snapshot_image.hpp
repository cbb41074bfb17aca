// Hand edits of snapshot images (sim/snapshot.hpp, format v4) for the
// rejection tests: the header framing, the payload offsets the tests poke
// at, and reseal(), which makes an edited image checksum-valid again so
// that only the restore walk's own checks can turn it away.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace deft {

/// Header bytes before the payload: magic (8), version (4), payload length
/// (8), FNV-1a of the payload (8).
inline constexpr std::size_t kSnapshotPayloadOffset = 28;

inline std::uint64_t snapshot_fnv1a(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

inline std::uint64_t image_u64(const std::vector<std::uint8_t>& image,
                               std::size_t at) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(image.at(at + i)) << (8 * i);
  }
  return v;
}

inline void set_image_u64(std::vector<std::uint8_t>& image, std::size_t at,
                          std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    image.at(at + i) = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

inline void set_image_u32(std::vector<std::uint8_t>& image, std::size_t at,
                          std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    image.at(at + i) = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// Rewrites the header's payload length and checksum to match the payload
/// `image` now holds (after a truncation or an in-place edit).
inline void reseal(std::vector<std::uint8_t>& image) {
  const std::size_t payload = image.size() - kSnapshotPayloadOffset;
  set_image_u64(image, 12, payload);
  set_image_u64(image, 20,
                snapshot_fnv1a(image.data() + kSnapshotPayloadOffset,
                               payload));
}

/// Offset of the stepper's loop state: the payload opens with the
/// length-prefixed configuration fingerprint.
inline std::size_t loop_state_offset(const std::vector<std::uint8_t>& image) {
  return kSnapshotPayloadOffset + 8 +
         static_cast<std::size_t>(image_u64(image, kSnapshotPayloadOffset));
}

/// Offset of the routing algorithm's stream word count, after the loop
/// state (four 8-byte cycles, three bools, four 8-byte counters).
inline std::size_t algorithm_stream_count_offset(
    const std::vector<std::uint8_t>& image) {
  return loop_state_offset(image) + 4 * 8 + 3 + 4 * 8;
}

/// Offset of the traffic generator's stream word count, after the
/// algorithm's words.
inline std::size_t traffic_stream_count_offset(
    const std::vector<std::uint8_t>& image) {
  const std::size_t at = algorithm_stream_count_offset(image);
  return at + 8 + 8 * image_u64(image, at);
}

/// One router record in an image with an empty network (a run paused at
/// cycle 1, before its first packet): 32 lane fill counts, all 0, 32
/// input-VC records (route-ready flag, decision port, decision VC mask,
/// allocated output VC), 32 output-VC records (owner port, owner VC,
/// 2-byte credits), the three 8-port round-robin pointer arrays, the
/// 8-byte occupancy word and the 4-byte owned-output word. A buffered
/// flit adds 7 bytes after its lane's count (4-byte packet id, 2-byte
/// sequence number, kind byte).
inline constexpr std::size_t kRouterInputVcs = 32;
inline constexpr std::size_t kRouterOutputVcs = kRouterInputVcs + 32 * 4;
inline constexpr std::size_t kRouterOccupancy =
    kRouterOutputVcs + 32 * 4 + 3 * 8;
inline constexpr std::size_t kRouterOwned = kRouterOccupancy + 8;
inline constexpr std::size_t kEmptyRouterBytes = kRouterOwned + 4;
inline constexpr std::size_t kFlitBytes = 7;

/// Offset of the router plane's count. The loop state is followed by the
/// algorithm's and the traffic generator's stream words and the packet
/// table: 22-byte routes, 8-byte hot records and 24-byte timestamp
/// records, one per packet (the timestamp plane has no count of its own).
inline std::size_t router_plane_offset(const std::vector<std::uint8_t>& image) {
  std::size_t at = traffic_stream_count_offset(image);
  at += 8 + 8 * image_u64(image, at);
  at += 8 + 22 * image_u64(image, at);
  return at + 8 + (8 + 24) * image_u64(image, at);
}

/// Offset of router 0's record in an empty-network image.
inline std::size_t first_router_record(const std::vector<std::uint8_t>& image) {
  const std::size_t at = router_plane_offset(image);
  if (image_u64(image, at - 16) != 0 || image_u64(image, at - 8) != 0) {
    throw std::runtime_error("snapshot image holds packets");
  }
  return at + 8;
}

/// Offset of the first flit buffered in any router lane; a flit opens
/// with its 4-byte packet id.
inline std::size_t first_router_flit(const std::vector<std::uint8_t>& image) {
  std::size_t at = router_plane_offset(image);
  const std::uint64_t routers = image_u64(image, at);
  at += 8;
  for (std::uint64_t r = 0; r < routers; ++r) {
    for (std::size_t lane = 0; lane < kRouterInputVcs; ++lane, ++at) {
      if (image.at(at) != 0) {
        return at + 1;
      }
    }
    at += kEmptyRouterBytes - kRouterInputVcs;
  }
  throw std::runtime_error("snapshot image buffers no flit in a router");
}

/// Offsets of the fields of one NI record the rejection tests edit.
struct NiRecord {
  /// The queued packet count, then 4-byte packet ids; the 4-byte active
  /// packet id follows the last.
  std::size_t queue;
  std::size_t injection_at;  ///< the own injection event's 8-byte cycle
  /// The pre-drawn request count, then 13-byte records: 4-byte
  /// destination, app byte, 8-byte reply cycle.
  std::size_t drawn;
  /// The queued reply count, then 13-byte records: 8-byte due cycle,
  /// 4-byte requester, app byte.
  std::size_t replies;
};

/// Walks an image from its router plane to the end of its NI plane,
/// appending each NI's record to `nis`, and returns the offset past the
/// plane. The routers (each lane's fill count followed by its 7-byte
/// flits, then the fixed rest of kEmptyRouterBytes) are followed by four
/// length-prefixed network planes - channel fault marks of 1 byte, then
/// VL next-free cycles, NI credits and RC credits of 8 bytes - and the
/// NI count. Each NI opens with its node, RNG state and route draws (44
/// bytes), its queue (count, 4-byte ids) and 15 bytes of active-packet
/// state.
inline std::size_t walk_ni_plane(const std::vector<std::uint8_t>& image,
                                 std::vector<NiRecord>& nis) {
  std::size_t at = router_plane_offset(image);
  const std::uint64_t routers = image_u64(image, at);
  at += 8;
  for (std::uint64_t r = 0; r < routers; ++r) {
    for (std::size_t lane = 0; lane < kRouterInputVcs; ++lane) {
      at += 1 + kFlitBytes * image.at(at);
    }
    at += kEmptyRouterBytes - kRouterInputVcs;
  }
  at += 8 + image_u64(image, at);
  for (int plane = 0; plane < 3; ++plane) {
    at += 8 + 8 * image_u64(image, at);
  }
  nis.resize(static_cast<std::size_t>(image_u64(image, at)));
  at += 8;
  for (NiRecord& ni : nis) {
    at += 44;
    ni.queue = at;
    at += 8 + 4 * image_u64(image, at);
    at += 15;
    ni.injection_at = at;
    at += 8;
    ni.drawn = at;
    at += 8 + 13 * image_u64(image, at);
    ni.replies = at;
    at += 8 + 13 * image_u64(image, at);
  }
  return at;
}

inline std::vector<NiRecord> ni_records(
    const std::vector<std::uint8_t>& image) {
  std::vector<NiRecord> nis;
  walk_ni_plane(image, nis);
  return nis;
}

/// Offsets of the parts of one RC unit record the rejection tests edit.
struct RcUnitRecord {
  /// The request count, then 16-byte requests: 4-byte requester, 4-byte
  /// packet id, 8-byte arrival cycle.
  std::size_t requests;
  /// 17 bytes: the reserved flag, 4-byte grantee, 4-byte granted packet
  /// id (-1 for none) and 8-byte grant arrival cycle.
  std::size_t grant;
  /// The buffered flit count, then 7-byte flits.
  std::size_t buffer;
};

/// Walks an image's RC unit plane, which follows the NI plane, appending
/// each unit's record to `units`, and returns the offset past the plane.
/// Each unit holds its requests, grant and buffer and 5 bytes of
/// re-injection state; the manager's two 8-byte counters and 4-byte busy
/// count follow.
inline std::size_t walk_rc_plane(const std::vector<std::uint8_t>& image,
                                 std::vector<RcUnitRecord>& units) {
  std::vector<NiRecord> nis;
  std::size_t at = walk_ni_plane(image, nis);
  units.resize(static_cast<std::size_t>(image_u64(image, at)));
  at += 8;
  for (RcUnitRecord& unit : units) {
    unit.requests = at;
    at += 8 + 16 * image_u64(image, at);
    unit.grant = at;
    at += 17;
    unit.buffer = at;
    at += 8 + kFlitBytes * image_u64(image, at);
    at += 5;
  }
  return at + 20;
}

inline std::vector<RcUnitRecord> rc_unit_records(
    const std::vector<std::uint8_t>& image) {
  std::vector<RcUnitRecord> units;
  walk_rc_plane(image, units);
  return units;
}

/// Offset of the fault surgeon's section (its 8-byte event cursor, then
/// the fault set's 32 words), after the RC units.
inline std::size_t surgeon_offset(const std::vector<std::uint8_t>& image) {
  std::vector<RcUnitRecord> units;
  return walk_rc_plane(image, units);
}

/// Offset of the pending NI events' count, followed by 16-byte (cycle,
/// NI) events. The surgeon's section before it holds its cursor, the
/// fault set's 32 words, three 8-byte metrics, the fault-window
/// intervals (count, 16-byte pairs) and the affected-route marks (count,
/// 1 byte each).
inline std::size_t events_offset(const std::vector<std::uint8_t>& image) {
  std::size_t at = surgeon_offset(image) + 8 + 32 * 8 + 3 * 8;
  at += 8 + 16 * image_u64(image, at);
  return at + 8 + image_u64(image, at);
}

}  // namespace deft
