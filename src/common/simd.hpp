// Portable SIMD lane kernels for the hot SoA scans.
//
// Three fixed-shape kernels back the simulator's lane-major data planes
// (sim/router.hpp): summing a port's output-VC credits, finding the
// occupied lanes of a FlitStore, and finding the resolvable entries of an
// MTR distance-table row. Each has a scalar reference implementation and,
// where the target provides them, an SSE2 or NEON variant; the dispatch
// is compile-time, so the chosen backend inlines into the call sites.
//
// Backend selection, first match wins:
//   DEFT_FORCE_SCALAR   scalar everywhere (the CI fallback job compiles
//                       and tests the full suite this way)
//   __SSE2__            x86-64 baseline (always little-endian)
//   __ARM_NEON          AArch64/ARMv7, little-endian only
//   otherwise           scalar
//
// Equivalence invariants (docs/performance.md spells out the arguments;
// tests/test_simd.cpp checks every kernel against the scalar reference):
//  * Every kernel is a pure element-wise predicate/reduction - no
//    floating point, no reassociation of anything order-sensitive - so
//    vector and scalar answers are exactly equal, and consumers that
//    iterate result masks bit-by-bit (ascending lane index) visit lanes
//    in precisely the order of the scalar (port, VC) nested loops.
//  * port_credit_sums sums all kMaxVcs record slots per port, including
//    lanes above the configured VC count; that equals the VC-bounded
//    scalar sum because unconfigured lanes hold zero credits for the
//    whole run (Network::reset zeroes them and nothing ever writes them).
//  * The mask kernels report exactly the non-zero bytes / the uint16
//    values outside {0, 0xffff}; lanes the scalar loops never visited
//    (above the configured VC count) are empty/unroutable by the same
//    reset argument, so the wider masks add no bits.
#pragma once

#include <cstdint>
#include <cstring>

#if !defined(DEFT_FORCE_SCALAR) && defined(__SSE2__)
#include <emmintrin.h>
#define DEFT_SIMD_BACKEND_SSE2 1
#elif !defined(DEFT_FORCE_SCALAR) && defined(__ARM_NEON) && \
    !defined(__ARM_BIG_ENDIAN)
#include <arm_neon.h>
#define DEFT_SIMD_BACKEND_NEON 1
#else
#define DEFT_SIMD_BACKEND_SCALAR 1
#endif

namespace deft::simd {

/// Name of the compiled backend (observability: the perf harness records
/// it next to its timings).
inline constexpr const char* kBackendName =
#if defined(DEFT_SIMD_BACKEND_SSE2)
    "sse2";
#elif defined(DEFT_SIMD_BACKEND_NEON)
    "neon";
#else
    "scalar";
#endif

namespace scalar {

/// Reference: 32 consecutive 4-byte records, each with a little-endian
/// int16 at byte offset 2 (sim/router.hpp's OutputVc); sums[p] receives
/// the total over records 4p .. 4p+3.
inline void port_credit_sums(const void* records, int* sums) {
  const unsigned char* bytes = static_cast<const unsigned char*>(records);
  for (int p = 0; p < 8; ++p) {
    int total = 0;
    for (int v = 0; v < 4; ++v) {
      std::int16_t credits;
      std::memcpy(&credits, bytes + (p * 4 + v) * 4 + 2, sizeof(credits));
      total += credits;
    }
    sums[p] = total;
  }
}

/// Reference: bit i of the result set iff bytes[i] != 0, over 32 bytes.
inline std::uint32_t nonzero_mask32(const std::uint8_t* bytes) {
  std::uint32_t mask = 0;
  for (int i = 0; i < 32; ++i) {
    if (bytes[i] != 0) {
      mask |= std::uint32_t{1} << i;
    }
  }
  return mask;
}

/// Reference: bit i of the result set iff row[i] is neither 0 nor 0xffff
/// (MtrPlan::kUnreachable), over 8 uint16 values.
inline std::uint32_t routable_mask8(const std::uint16_t* row) {
  std::uint32_t mask = 0;
  for (int i = 0; i < 8; ++i) {
    if (row[i] != 0 && row[i] != 0xffff) {
      mask |= std::uint32_t{1} << i;
    }
  }
  return mask;
}

}  // namespace scalar

#if defined(DEFT_SIMD_BACKEND_SSE2)

/// 32 OutputVc-shaped records -> per-port credit totals. One 16-byte
/// vector is exactly one port's four records; the arithmetic right shift
/// drops the two owner bytes and sign-extends the credit field.
inline void port_credit_sums(const void* records, int* sums) {
  const char* bytes = static_cast<const char*>(records);
  for (int p = 0; p < 8; ++p) {
    const __m128i v = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(bytes + p * 16));
    const __m128i credits = _mm_srai_epi32(v, 16);
    const __m128i hi = _mm_add_epi32(
        credits, _mm_shuffle_epi32(credits, _MM_SHUFFLE(1, 0, 3, 2)));
    const __m128i total =
        _mm_add_epi32(hi, _mm_shuffle_epi32(hi, _MM_SHUFFLE(2, 3, 0, 1)));
    sums[p] = _mm_cvtsi128_si32(total);
  }
}

inline std::uint32_t nonzero_mask32(const std::uint8_t* bytes) {
  const __m128i zero = _mm_setzero_si128();
  const __m128i lo =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes));
  const __m128i hi =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + 16));
  const std::uint32_t lo_zero = static_cast<std::uint32_t>(
      _mm_movemask_epi8(_mm_cmpeq_epi8(lo, zero)));
  const std::uint32_t hi_zero = static_cast<std::uint32_t>(
      _mm_movemask_epi8(_mm_cmpeq_epi8(hi, zero)));
  return ~(lo_zero | (hi_zero << 16));
}

inline std::uint32_t routable_mask8(const std::uint16_t* row) {
  const __m128i v =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(row));
  const __m128i skip =
      _mm_or_si128(_mm_cmpeq_epi16(v, _mm_setzero_si128()),
                   _mm_cmpeq_epi16(v, _mm_set1_epi16(-1)));
  // packs: one byte per uint16 comparison result; movemask then yields
  // one bit per element in the low 8 bits.
  const std::uint32_t skip_mask = static_cast<std::uint32_t>(
      _mm_movemask_epi8(_mm_packs_epi16(skip, _mm_setzero_si128())));
  return ~skip_mask & 0xffu;
}

#elif defined(DEFT_SIMD_BACKEND_NEON)

inline void port_credit_sums(const void* records, int* sums) {
  const std::uint8_t* bytes = static_cast<const std::uint8_t*>(records);
  for (int p = 0; p < 8; ++p) {
    const int32x4_t v = vreinterpretq_s32_u8(vld1q_u8(bytes + p * 16));
    // Credits sit in the high half of each little-endian 32-bit record;
    // the arithmetic shift drops the owner bytes and sign-extends.
    const int32x4_t credits = vshrq_n_s32(v, 16);
#if defined(__aarch64__)
    sums[p] = vaddvq_s32(credits);
#else
    const int32x2_t half =
        vadd_s32(vget_low_s32(credits), vget_high_s32(credits));
    sums[p] = vget_lane_s32(vpadd_s32(half, half), 0);
#endif
  }
}

inline std::uint32_t nonzero_mask32(const std::uint8_t* bytes) {
  static const std::uint8_t kBitsInit[16] = {1, 2, 4, 8, 16, 32, 64, 128,
                                             1, 2, 4, 8, 16, 32, 64, 128};
  const uint8x16_t bits = vld1q_u8(kBitsInit);
  std::uint32_t mask = 0;
  for (int half = 0; half < 2; ++half) {
    const uint8x16_t v = vld1q_u8(bytes + half * 16);
    const uint8x16_t nz = vtstq_u8(v, v);  // 0xff where the byte != 0
    const uint8x16_t sel = vandq_u8(nz, bits);
    // Three pairwise adds fold 16 selected bit-bytes into two bytes: the
    // low/high 8-lane masks.
    uint8x8_t fold = vpadd_u8(vget_low_u8(sel), vget_high_u8(sel));
    fold = vpadd_u8(fold, fold);
    fold = vpadd_u8(fold, fold);
    const std::uint32_t lo = vget_lane_u8(fold, 0);
    const std::uint32_t hi = vget_lane_u8(fold, 1);
    mask |= (lo | (hi << 8)) << (half * 16);
  }
  return mask;
}

inline std::uint32_t routable_mask8(const std::uint16_t* row) {
  static const std::uint16_t kBitsInit[8] = {1, 2, 4, 8, 16, 32, 64, 128};
  const uint16x8_t v = vld1q_u16(row);
  const uint16x8_t skip = vorrq_u16(vceqq_u16(v, vdupq_n_u16(0)),
                                    vceqq_u16(v, vdupq_n_u16(0xffff)));
  const uint16x8_t sel = vbicq_u16(vld1q_u16(kBitsInit), skip);
#if defined(__aarch64__)
  return vaddvq_u16(sel);
#else
  const uint16x4_t half = vadd_u16(vget_low_u16(sel), vget_high_u16(sel));
  const uint16x4_t fold = vpadd_u16(half, half);
  return vget_lane_u16(vpadd_u16(fold, fold), 0);
#endif
}

#else  // scalar backend

using scalar::nonzero_mask32;
using scalar::port_credit_sums;
using scalar::routable_mask8;

#endif

}  // namespace deft::simd
