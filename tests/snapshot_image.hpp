// Hand edits of snapshot images (sim/snapshot.hpp) for the rejection
// tests: the header framing, the payload offsets the tests poke at, and
// reseal(), which makes an edited image checksum-valid again so that only
// the restore walk's own checks can turn it away.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
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

/// Rewrites the header's payload length and checksum to match the payload
/// `image` now holds (after a truncation or an in-place edit).
inline void reseal(std::vector<std::uint8_t>& image) {
  const std::size_t payload = image.size() - kSnapshotPayloadOffset;
  set_image_u64(image, 12, payload);
  set_image_u64(image, 20,
                snapshot_fnv1a(image.data() + kSnapshotPayloadOffset,
                               payload));
}

/// Offset of the routing algorithm's stream word count: the payload opens
/// with the length-prefixed configuration fingerprint and the stepper's
/// loop state (four 8-byte cycles, five bools, four 8-byte counters).
inline std::size_t algorithm_stream_count_offset(
    const std::vector<std::uint8_t>& image) {
  const std::size_t fingerprint = image_u64(image, kSnapshotPayloadOffset);
  return kSnapshotPayloadOffset + 8 + fingerprint + 4 * 8 + 5 + 4 * 8;
}

}  // namespace deft
