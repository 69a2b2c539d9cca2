/**
 * @file
 * Portable SIMD vector of doubles (rtr::simd::VecD).
 *
 * One backend is selected at compile time:
 *
 *   AVX2 (width 4)  when the translation unit is compiled with -mavx2
 *   SSE2 (width 2)  on any x86-64 target (SSE2 is baseline)
 *   NEON (width 2)  on AArch64
 *   scalar (width 1) everywhere else, or when RTR_FORCE_SCALAR_SIMD is
 *                    defined (the CMake option of the same name; the CI
 *                    matrix builds one tree with it so the fallback
 *                    cannot rot on x86 hosts)
 *
 * Design rule: every operation maps to exactly one IEEE-754 double
 * operation per lane — there is deliberately NO fused-multiply-add.
 * mulAdd()/mulSub() are a separate multiply followed by a separate
 * add/subtract in every backend, so a vectorized loop produces bitwise
 * the same values as the equivalent scalar loop (compiled with fp
 * contraction off, as src/linalg/ is). That property is what lets the
 * dense-linalg micro-kernels guarantee bitwise identity against their
 * preserved scalar reference paths.
 *
 * Branches vectorize through cmpGT/select: cmpGT yields a per-lane
 * all-ones/all-zeros bit mask and select is a pure bitwise blend, so
 * `select(cmpGT(a, b), x, y)` is bitwise the scalar `a > b ? x : y`
 * in every lane — including the sign of zero and NaN payloads, which
 * an arithmetic masking trick (adding a masked 0.0) would not preserve.
 * select requires each mask lane to be such a cmp result (all-ones or
 * all-zeros); feeding it arbitrary doubles is undefined by contract.
 */

#ifndef RTR_UTIL_SIMD_H
#define RTR_UTIL_SIMD_H

#include <cstddef>

#if !defined(RTR_FORCE_SCALAR_SIMD)
#  if defined(__AVX2__)
#    define RTR_SIMD_BACKEND_AVX2 1
#  elif defined(__SSE2__) || defined(_M_X64) || \
      (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#    define RTR_SIMD_BACKEND_SSE2 1
#  elif defined(__aarch64__) && defined(__ARM_NEON)
#    define RTR_SIMD_BACKEND_NEON 1
#  endif
#endif

#if defined(RTR_SIMD_BACKEND_AVX2) || defined(RTR_SIMD_BACKEND_SSE2)
#  include <immintrin.h>
#elif defined(RTR_SIMD_BACKEND_NEON)
#  include <arm_neon.h>
#else
#  include <bit>
#  include <cmath>
#  include <cstdint>
#endif

namespace rtr {
namespace simd {

#if defined(RTR_SIMD_BACKEND_AVX2)

inline constexpr const char *kBackendName = "avx2";

/** Vector of 4 doubles (one AVX2 ymm register). */
struct VecD
{
    static constexpr std::size_t kWidth = 4;
    __m256d v;

    static VecD zero() { return {_mm256_setzero_pd()}; }
    static VecD broadcast(double x) { return {_mm256_set1_pd(x)}; }
    static VecD load(const double *p) { return {_mm256_loadu_pd(p)}; }
    void store(double *p) const { _mm256_storeu_pd(p, v); }

    friend VecD operator+(VecD a, VecD b) { return {_mm256_add_pd(a.v, b.v)}; }
    friend VecD operator-(VecD a, VecD b) { return {_mm256_sub_pd(a.v, b.v)}; }
    friend VecD operator*(VecD a, VecD b) { return {_mm256_mul_pd(a.v, b.v)}; }
    friend VecD operator/(VecD a, VecD b) { return {_mm256_div_pd(a.v, b.v)}; }

    /** acc + a*b as a separate multiply and add (never an FMA). */
    static VecD mulAdd(VecD acc, VecD a, VecD b)
    {
        return {_mm256_add_pd(acc.v, _mm256_mul_pd(a.v, b.v))};
    }
    /** acc - a*b as a separate multiply and subtract (never an FMA). */
    static VecD mulSub(VecD acc, VecD a, VecD b)
    {
        return {_mm256_sub_pd(acc.v, _mm256_mul_pd(a.v, b.v))};
    }
    static VecD min(VecD a, VecD b) { return {_mm256_min_pd(a.v, b.v)}; }
    static VecD max(VecD a, VecD b) { return {_mm256_max_pd(a.v, b.v)}; }
    static VecD sqrt(VecD a) { return {_mm256_sqrt_pd(a.v)}; }

    /** Lane mask: all-ones where a > b, all-zeros elsewhere. */
    static VecD cmpGT(VecD a, VecD b)
    {
        return {_mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ)};
    }
    /** Bitwise blend: lanes of a where mask is all-ones, else b. */
    static VecD select(VecD mask, VecD a, VecD b)
    {
        return {_mm256_blendv_pd(b.v, a.v, mask.v)};
    }
    /** |a| per lane (clears the sign bit, NaN payloads intact). */
    static VecD abs(VecD a)
    {
        return {_mm256_andnot_pd(_mm256_set1_pd(-0.0), a.v)};
    }
    /** -a per lane (flips the sign bit, exactly like scalar -x). */
    static VecD neg(VecD a)
    {
        return {_mm256_xor_pd(_mm256_set1_pd(-0.0), a.v)};
    }
};

#elif defined(RTR_SIMD_BACKEND_SSE2)

inline constexpr const char *kBackendName = "sse2";

/** Vector of 2 doubles (one SSE2 xmm register). */
struct VecD
{
    static constexpr std::size_t kWidth = 2;
    __m128d v;

    static VecD zero() { return {_mm_setzero_pd()}; }
    static VecD broadcast(double x) { return {_mm_set1_pd(x)}; }
    static VecD load(const double *p) { return {_mm_loadu_pd(p)}; }
    void store(double *p) const { _mm_storeu_pd(p, v); }

    friend VecD operator+(VecD a, VecD b) { return {_mm_add_pd(a.v, b.v)}; }
    friend VecD operator-(VecD a, VecD b) { return {_mm_sub_pd(a.v, b.v)}; }
    friend VecD operator*(VecD a, VecD b) { return {_mm_mul_pd(a.v, b.v)}; }
    friend VecD operator/(VecD a, VecD b) { return {_mm_div_pd(a.v, b.v)}; }

    static VecD mulAdd(VecD acc, VecD a, VecD b)
    {
        return {_mm_add_pd(acc.v, _mm_mul_pd(a.v, b.v))};
    }
    static VecD mulSub(VecD acc, VecD a, VecD b)
    {
        return {_mm_sub_pd(acc.v, _mm_mul_pd(a.v, b.v))};
    }
    static VecD min(VecD a, VecD b) { return {_mm_min_pd(a.v, b.v)}; }
    static VecD max(VecD a, VecD b) { return {_mm_max_pd(a.v, b.v)}; }
    static VecD sqrt(VecD a) { return {_mm_sqrt_pd(a.v)}; }

    /** Lane mask: all-ones where a > b, all-zeros elsewhere. */
    static VecD cmpGT(VecD a, VecD b)
    {
        return {_mm_cmpgt_pd(a.v, b.v)};
    }
    /** Bitwise blend: lanes of a where mask is all-ones, else b. */
    static VecD select(VecD mask, VecD a, VecD b)
    {
        return {_mm_or_pd(_mm_and_pd(mask.v, a.v),
                          _mm_andnot_pd(mask.v, b.v))};
    }
    /** |a| per lane (clears the sign bit, NaN payloads intact). */
    static VecD abs(VecD a)
    {
        return {_mm_andnot_pd(_mm_set1_pd(-0.0), a.v)};
    }
    /** -a per lane (flips the sign bit, exactly like scalar -x). */
    static VecD neg(VecD a)
    {
        return {_mm_xor_pd(_mm_set1_pd(-0.0), a.v)};
    }
};

#elif defined(RTR_SIMD_BACKEND_NEON)

inline constexpr const char *kBackendName = "neon";

/** Vector of 2 doubles (one AArch64 NEON q register). */
struct VecD
{
    static constexpr std::size_t kWidth = 2;
    float64x2_t v;

    static VecD zero() { return {vdupq_n_f64(0.0)}; }
    static VecD broadcast(double x) { return {vdupq_n_f64(x)}; }
    static VecD load(const double *p) { return {vld1q_f64(p)}; }
    void store(double *p) const { vst1q_f64(p, v); }

    friend VecD operator+(VecD a, VecD b) { return {vaddq_f64(a.v, b.v)}; }
    friend VecD operator-(VecD a, VecD b) { return {vsubq_f64(a.v, b.v)}; }
    friend VecD operator*(VecD a, VecD b) { return {vmulq_f64(a.v, b.v)}; }
    friend VecD operator/(VecD a, VecD b) { return {vdivq_f64(a.v, b.v)}; }

    // vmlaq_f64 fuses on most cores; keep multiply and add separate.
    static VecD mulAdd(VecD acc, VecD a, VecD b)
    {
        return {vaddq_f64(acc.v, vmulq_f64(a.v, b.v))};
    }
    static VecD mulSub(VecD acc, VecD a, VecD b)
    {
        return {vsubq_f64(acc.v, vmulq_f64(a.v, b.v))};
    }
    static VecD min(VecD a, VecD b) { return {vminq_f64(a.v, b.v)}; }
    static VecD max(VecD a, VecD b) { return {vmaxq_f64(a.v, b.v)}; }
    static VecD sqrt(VecD a) { return {vsqrtq_f64(a.v)}; }

    /** Lane mask: all-ones where a > b, all-zeros elsewhere. */
    static VecD cmpGT(VecD a, VecD b)
    {
        return {vreinterpretq_f64_u64(vcgtq_f64(a.v, b.v))};
    }
    /** Bitwise blend: lanes of a where mask is all-ones, else b. */
    static VecD select(VecD mask, VecD a, VecD b)
    {
        return {vbslq_f64(vreinterpretq_u64_f64(mask.v), a.v, b.v)};
    }
    /** |a| per lane (clears the sign bit, NaN payloads intact). */
    static VecD abs(VecD a) { return {vabsq_f64(a.v)}; }
    /** -a per lane (flips the sign bit, exactly like scalar -x). */
    static VecD neg(VecD a) { return {vnegq_f64(a.v)}; }
};

#else

inline constexpr const char *kBackendName = "scalar";

/** Scalar fallback: a "vector" of one double. */
struct VecD
{
    static constexpr std::size_t kWidth = 1;
    double v;

    static VecD zero() { return {0.0}; }
    static VecD broadcast(double x) { return {x}; }
    static VecD load(const double *p) { return {*p}; }
    void store(double *p) const { *p = v; }

    friend VecD operator+(VecD a, VecD b) { return {a.v + b.v}; }
    friend VecD operator-(VecD a, VecD b) { return {a.v - b.v}; }
    friend VecD operator*(VecD a, VecD b) { return {a.v * b.v}; }
    friend VecD operator/(VecD a, VecD b) { return {a.v / b.v}; }

    static VecD mulAdd(VecD acc, VecD a, VecD b)
    {
        double p = a.v * b.v;
        return {acc.v + p};
    }
    static VecD mulSub(VecD acc, VecD a, VecD b)
    {
        double p = a.v * b.v;
        return {acc.v - p};
    }
    static VecD min(VecD a, VecD b) { return {b.v < a.v ? b.v : a.v}; }
    static VecD max(VecD a, VecD b) { return {a.v < b.v ? b.v : a.v}; }
    static VecD sqrt(VecD a) { return {std::sqrt(a.v)}; }

    /** Lane mask: all-ones where a > b, all-zeros elsewhere. */
    static VecD cmpGT(VecD a, VecD b)
    {
        return {std::bit_cast<double>(
            a.v > b.v ? ~std::uint64_t{0} : std::uint64_t{0})};
    }
    /** Bitwise blend: lanes of a where mask is all-ones, else b. */
    static VecD select(VecD mask, VecD a, VecD b)
    {
        const std::uint64_t m = std::bit_cast<std::uint64_t>(mask.v);
        return {std::bit_cast<double>(
            (std::bit_cast<std::uint64_t>(a.v) & m) |
            (std::bit_cast<std::uint64_t>(b.v) & ~m))};
    }
    /** |a| per lane (clears the sign bit, NaN payloads intact). */
    static VecD abs(VecD a) { return {std::fabs(a.v)}; }
    /** -a per lane (flips the sign bit, exactly like scalar -x). */
    static VecD neg(VecD a)
    {
        return {std::bit_cast<double>(
            std::bit_cast<std::uint64_t>(a.v) ^
            (std::uint64_t{1} << 63))};
    }
};

#endif

} // namespace simd
} // namespace rtr

#endif // RTR_UTIL_SIMD_H
