// AVX2 backend for the batch kernels.
//
// This is the ONLY translation unit compiled with -mavx2 (see
// src/kernels/CMakeLists.txt); everything else in the tree stays plain
// x86-64 so the binaries run on any machine and only ever execute these
// functions after the CPUID check in dispatch.cc.
//
// Bit-identity with the scalar reference is a design constraint, not an
// accident:
//   * the Feistel and hash kernels are pure 64-bit integer arithmetic —
//     the vector lanes compute exactly the scalar operations;
//   * the entropy kernel does its floating-point accumulation per lane in
//     the same order as the scalar loop (nibble-value 0, 1, ..., 15) with
//     the same IEEE operations, and the two terms the scalar loop skips
//     (count 0 and count 1) contribute exactly +0.0, which is a bitwise
//     no-op on the non-negative partial sums involved;
//   * classification derives from the entropy values plus exact integer
//     tests, so it inherits identity.
// tests/test_kernels.cpp asserts all of this with std::bit_cast compares,
// and bench_kernels re-asserts it per benchmark row.
#include "kernels/batch.h"

#include <cmath>
#include <cstring>

#include "net/entropy.h"

// util/rng.h defines its draw primitives inline; compiled here they would
// be AVX2 code the linker may hand to every scalar caller.
#ifdef V6_UTIL_RNG_H
#error "util/rng.h must stay out of the -mavx2 translation unit"
#endif

#if defined(__x86_64__) || defined(_M_X64)
#define V6_KERNELS_HAVE_AVX2 1
#include <immintrin.h>
#else
#define V6_KERNELS_HAVE_AVX2 0
#endif

namespace v6::kernels::detail {

#if V6_KERNELS_HAVE_AVX2

namespace {

// --- 64-bit lane arithmetic ------------------------------------------------

// Low 64 bits of a*b per lane (AVX2 has no vpmullq; synthesize it from
// 32x32->64 products: a*b mod 2^64 = alo*blo + ((alo*bhi + ahi*blo) << 32)).
inline __m256i mul64(__m256i a, __m256i b) {
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a_hi, b),
                                         _mm256_mul_epu32(a, b_hi));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

// util::mix64 / feistel_mix64, four lanes at a time. Same constants, same
// operations: integer arithmetic has one answer per lane.
inline __m256i mix64_vec(__m256i x) {
  __m256i z = _mm256_add_epi64(
      x, _mm256_set1_epi64x(static_cast<long long>(0x9e3779b97f4a7c15ULL)));
  z = mul64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)),
            _mm256_set1_epi64x(static_cast<long long>(0xbf58476d1ce4e5b9ULL)));
  z = mul64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)),
            _mm256_set1_epi64x(static_cast<long long>(0x94d049bb133111ebULL)));
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
}

inline std::uint64_t load_be64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return __builtin_bswap64(v);
}

// --- Feistel over four lanes -----------------------------------------------

inline __m256i feistel_encrypt_once_vec(const FeistelSpec& spec, __m256i x) {
  const __m256i half_mask =
      _mm256_set1_epi64x(static_cast<long long>(spec.half_mask));
  const __m128i shift = _mm_cvtsi32_si128(spec.half_bits);
  __m256i left = _mm256_and_si256(_mm256_srl_epi64(x, shift), half_mask);
  __m256i right = _mm256_and_si256(x, half_mask);
  for (int r = 0; r < spec.rounds; ++r) {
    const __m256i key = _mm256_set1_epi64x(static_cast<long long>(
        spec.key ^ (static_cast<std::uint64_t>(r) << 56)));
    const __m256i f = _mm256_and_si256(
        mix64_vec(_mm256_xor_si256(right, key)), half_mask);
    const __m256i next = _mm256_xor_si256(left, f);
    left = right;
    right = next;
  }
  return _mm256_or_si256(_mm256_sll_epi64(left, shift), right);
}

inline __m256i feistel_decrypt_once_vec(const FeistelSpec& spec, __m256i y) {
  const __m256i half_mask =
      _mm256_set1_epi64x(static_cast<long long>(spec.half_mask));
  const __m128i shift = _mm_cvtsi32_si128(spec.half_bits);
  __m256i left = _mm256_and_si256(_mm256_srl_epi64(y, shift), half_mask);
  __m256i right = _mm256_and_si256(y, half_mask);
  for (int r = spec.rounds - 1; r >= 0; --r) {
    const __m256i key = _mm256_set1_epi64x(static_cast<long long>(
        spec.key ^ (static_cast<std::uint64_t>(r) << 56)));
    const __m256i f = _mm256_and_si256(
        mix64_vec(_mm256_xor_si256(left, key)), half_mask);
    const __m256i prev = _mm256_xor_si256(right, f);
    right = left;
    left = prev;
  }
  return _mm256_or_si256(_mm256_sll_epi64(left, shift), right);
}

// Cycle-walks in[0..n) into out[0..n) with lane refill: a lane whose value
// lands in the domain stores its result and loads the next input, so no
// lane idles waiting for the slowest walk of a fixed group of four. Each
// round steps every lane once, a fresh input's first encryption included,
// so each input walks exactly the sequence the scalar loop walks. Three
// independent vectors are in flight, so their round latencies overlap.
// Lanes retire once the inputs run out. Values never exceed
// 2^(2*half_bits) <= 2^62, so plain signed 64-bit compares are correct.
template <typename StepFn>
inline void cycle_walk_batch(const FeistelSpec& spec, const std::uint64_t* in,
                             std::size_t n, std::uint64_t* out,
                             StepFn&& step) {
  constexpr int kVecs = 3;
  constexpr int kLanes = 4 * kVecs;
  const __m256i domain =
      _mm256_set1_epi64x(static_cast<long long>(spec.domain_size));
  // lane_mask[l] selects 64-bit lane l of a vector in a blend.
  const __m256i lane_mask[4] = {_mm256_set_epi64x(0, 0, 0, -1),
                                _mm256_set_epi64x(0, 0, -1, 0),
                                _mm256_set_epi64x(0, -1, 0, 0),
                                _mm256_set_epi64x(-1, 0, 0, 0)};
  alignas(32) std::uint64_t lane[kLanes] = {};
  std::size_t dest[kLanes];
  std::size_t next = 0;
  int live = 0;
  for (int l = 0; l < kLanes && next < n; ++l) {
    dest[l] = next;
    lane[l] = in[next++];
    live |= 1 << l;
  }
  __m256i y[kVecs];
  for (int v = 0; v < kVecs; ++v) {
    y[v] = _mm256_load_si256(reinterpret_cast<const __m256i*>(lane + 4 * v));
  }
  while (live != 0) {
    for (int v = 0; v < kVecs; ++v) y[v] = step(y[v]);
    for (int v = 0; v < kVecs; ++v) {
      const int done = _mm256_movemask_pd(_mm256_castsi256_pd(
                           _mm256_cmpgt_epi64(domain, y[v]))) &
                       (live >> (4 * v)) & 0xf;
      if (done == 0) continue;
      // Results leave through memory; fresh inputs enter by blend, so the
      // vector never reloads what scalar code just stored.
      std::uint64_t* const vlane = lane + 4 * v;
      _mm256_store_si256(reinterpret_cast<__m256i*>(vlane), y[v]);
      for (int l = 0; l < 4; ++l) {
        if (((done >> l) & 1) == 0) continue;
        out[dest[4 * v + l]] = vlane[l];
        if (next < n) {
          dest[4 * v + l] = next;
          y[v] = _mm256_blendv_epi8(
              y[v], _mm256_set1_epi64x(static_cast<long long>(in[next++])),
              lane_mask[l]);
        } else {
          live &= ~(1 << (4 * v + l));
        }
      }
    }
  }
}

// --- Entropy weight table --------------------------------------------------

// wtab[c] = c * log2(c), built with the same std::log2 the scalar table in
// net/entropy.cc uses, so the per-term products match bitwise. Entries 0
// and 1 are +0.0: the scalar loop skips them, the vector loop adds them —
// a bitwise no-op on non-negative partial sums.
struct WeightTable {
  double w[17];
  WeightTable() {
    w[0] = 0.0;
    for (int c = 1; c <= 16; ++c) {
      w[c] = static_cast<double>(c) * std::log2(static_cast<double>(c));
    }
  }
};
const WeightTable kWeights;

// Expands the 16 nibbles of two IIDs into the two 16-byte halves of a ymm
// (one byte per nibble; order within a half is irrelevant — only counts
// matter).
inline __m256i nibble_bytes_pair(const std::uint64_t* iids) {
  const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(iids));
  const __m128i nib_mask = _mm_set1_epi8(0x0f);
  const __m128i lo = _mm_and_si128(v, nib_mask);
  const __m128i hi = _mm_and_si128(_mm_srli_epi64(v, 4), nib_mask);
  return _mm256_set_m128i(_mm_unpackhi_epi8(lo, hi),
                          _mm_unpacklo_epi8(lo, hi));
}

}  // namespace

void iid_entropy_batch_avx2(const std::uint64_t* iids, std::size_t n,
                            double* out) {
  const __m256d four = _mm256_set1_pd(4.0);
  const __m256d sixteen = _mm256_set1_pd(16.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i nib01 = nibble_bytes_pair(iids + i);
    const __m256i nib23 = nibble_bytes_pair(iids + i + 2);
    // weighted[k] = sum over nibble value v (ascending, as in the scalar
    // loop) of wtab[count of v in IID k]; vaddpd lanes are independent,
    // so each lane reproduces the scalar accumulation order exactly.
    __m256d weighted = _mm256_setzero_pd();
    for (int v = 0; v < 16; ++v) {
      const __m256i needle = _mm256_set1_epi8(static_cast<char>(v));
      const unsigned m01 = static_cast<unsigned>(
          _mm256_movemask_epi8(_mm256_cmpeq_epi8(nib01, needle)));
      const unsigned m23 = static_cast<unsigned>(
          _mm256_movemask_epi8(_mm256_cmpeq_epi8(nib23, needle)));
      weighted = _mm256_add_pd(
          weighted,
          _mm256_set_pd(kWeights.w[__builtin_popcount(m23 >> 16)],
                        kWeights.w[__builtin_popcount(m23 & 0xffffu)],
                        kWeights.w[__builtin_popcount(m01 >> 16)],
                        kWeights.w[__builtin_popcount(m01 & 0xffffu)]));
    }
    // Same trailing IEEE ops as the scalar path: (4 - w/16) / 4.
    const __m256d h = _mm256_div_pd(
        _mm256_sub_pd(four, _mm256_div_pd(weighted, sixteen)), four);
    _mm256_storeu_pd(out + i, h);
  }
  if (i < n) iid_entropy_batch_scalar(iids + i, n - i, out + i);
}

void classify_iid_batch_avx2(const std::uint64_t* iids,
                             const std::uint8_t* ipv4_accepted, std::size_t n,
                             net::AddressCategory* out) {
  // Entropy dominates classification cost; the structural tests are exact
  // integer compares. Computing entropy for the few special-form IIDs the
  // scalar path would skip changes nothing: the value is simply unused.
  constexpr std::size_t kChunk = 256;
  double entropy[kChunk];
  for (std::size_t base = 0; base < n; base += kChunk) {
    const std::size_t m = n - base < kChunk ? n - base : kChunk;
    iid_entropy_batch_avx2(iids + base, m, entropy);
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint64_t iid = iids[base + i];
      net::AddressCategory c;
      if (iid == 0) {
        c = net::AddressCategory::kZeroes;
      } else if ((iid & ~std::uint64_t{0xff}) == 0) {
        c = net::AddressCategory::kLowByte;
      } else if ((iid & ~std::uint64_t{0xffff}) == 0) {
        c = net::AddressCategory::kLow2Bytes;
      } else if (ipv4_accepted != nullptr && ipv4_accepted[base + i]) {
        c = net::AddressCategory::kIpv4Mapped;
      } else {
        switch (net::entropy_band(entropy[i])) {
          case net::EntropyBand::kHigh:
            c = net::AddressCategory::kHighEntropy;
            break;
          case net::EntropyBand::kMedium:
            c = net::AddressCategory::kMediumEntropy;
            break;
          case net::EntropyBand::kLow:
          default:
            c = net::AddressCategory::kLowEntropy;
            break;
        }
      }
      out[base + i] = c;
    }
  }
}

void ipv6_hash_batch_avx2(const std::uint8_t* bytes, std::size_t stride_bytes,
                          std::size_t n, std::uint64_t* out) {
  const __m256i seed =
      _mm256_set1_epi64x(static_cast<long long>(0x9e3779b97f4a7c15ULL));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const std::uint8_t* p0 = bytes + i * stride_bytes;
    const std::uint8_t* p1 = p0 + stride_bytes;
    const std::uint8_t* p2 = p1 + stride_bytes;
    const std::uint8_t* p3 = p2 + stride_bytes;
    const __m256i hi = _mm256_set_epi64x(
        static_cast<long long>(load_be64(p3)),
        static_cast<long long>(load_be64(p2)),
        static_cast<long long>(load_be64(p1)),
        static_cast<long long>(load_be64(p0)));
    const __m256i lo = _mm256_set_epi64x(
        static_cast<long long>(load_be64(p3 + 8)),
        static_cast<long long>(load_be64(p2 + 8)),
        static_cast<long long>(load_be64(p1 + 8)),
        static_cast<long long>(load_be64(p0 + 8)));
    // net::Ipv6AddressHash: mix64(hi ^ seed) ^ mix64(lo).
    const __m256i h = _mm256_xor_si256(mix64_vec(_mm256_xor_si256(hi, seed)),
                                       mix64_vec(lo));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), h);
  }
  if (i < n) {
    ipv6_hash_batch_scalar(bytes + i * stride_bytes, stride_bytes, n - i,
                           out + i);
  }
}

void feistel_apply_batch_avx2(const FeistelSpec& spec, const std::uint64_t* in,
                              std::size_t n, std::uint64_t* out) {
  cycle_walk_batch(spec, in, n, out, [&](__m256i v) {
    return feistel_encrypt_once_vec(spec, v);
  });
}

void feistel_invert_batch_avx2(const FeistelSpec& spec,
                               const std::uint64_t* in, std::size_t n,
                               std::uint64_t* out) {
  cycle_walk_batch(spec, in, n, out, [&](__m256i v) {
    return feistel_decrypt_once_vec(spec, v);
  });
}

#else  // !V6_KERNELS_HAVE_AVX2

// Non-x86 builds: the dispatcher never selects kAvx2 (detected_backend()
// is scalar-only there), but keep the symbols defined so the library
// links identically everywhere.
void iid_entropy_batch_avx2(const std::uint64_t* iids, std::size_t n,
                            double* out) {
  iid_entropy_batch_scalar(iids, n, out);
}
void classify_iid_batch_avx2(const std::uint64_t* iids,
                             const std::uint8_t* ipv4_accepted, std::size_t n,
                             net::AddressCategory* out) {
  classify_iid_batch_scalar(iids, ipv4_accepted, n, out);
}
void ipv6_hash_batch_avx2(const std::uint8_t* bytes, std::size_t stride_bytes,
                          std::size_t n, std::uint64_t* out) {
  ipv6_hash_batch_scalar(bytes, stride_bytes, n, out);
}
void feistel_apply_batch_avx2(const FeistelSpec& spec, const std::uint64_t* in,
                              std::size_t n, std::uint64_t* out) {
  feistel_apply_batch_scalar(spec, in, n, out);
}
void feistel_invert_batch_avx2(const FeistelSpec& spec,
                               const std::uint64_t* in, std::size_t n,
                               std::uint64_t* out) {
  feistel_invert_batch_scalar(spec, in, n, out);
}

#endif  // V6_KERNELS_HAVE_AVX2

}  // namespace v6::kernels::detail
