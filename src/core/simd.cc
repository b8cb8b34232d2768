#include "core/simd.h"

#include "core/simd_generic.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RINGCNN_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace ringcnn::simd {

namespace {

void
axpy_generic(float* dst, const float* src, float a, int64_t len)
{
    for (int64_t i = 0; i < len; ++i) dst[i] += a * src[i];
}

void
scale_generic(float* dst, const float* src, float a, int64_t len)
{
    for (int64_t i = 0; i < len; ++i) dst[i] = a * src[i];
}

// The reductions keep 8 independent lane accumulators and combine them
// with a fixed tree (see simd.h); the AVX2 versions perform the exact
// same additions on real lanes, so the two dispatch targets agree bit
// for bit.
float
reduce8(const float* lanes)
{
    return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
           ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

float
dot_generic(const float* a, const float* b, int64_t len)
{
    float lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    int64_t i = 0;
    for (; i + 8 <= len; i += 8) {
        for (int j = 0; j < 8; ++j) lanes[j] += a[i + j] * b[i + j];
    }
    float acc = reduce8(lanes);
    for (; i < len; ++i) acc += a[i] * b[i];
    return acc;
}

float
sum_generic(const float* src, int64_t len)
{
    float lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    int64_t i = 0;
    for (; i + 8 <= len; i += 8) {
        for (int j = 0; j < 8; ++j) lanes[j] += src[i + j];
    }
    float acc = reduce8(lanes);
    for (; i < len; ++i) acc += src[i];
    return acc;
}

// Blocked plane reduction (see simd.h): 8 float lanes per 256-element
// block, block results accumulated in double. The AVX2 version runs
// the same lanes on real vectors and the same reduce8 tree per block.
void
plane_sums_generic(const float* src, int64_t len, double* sum, double* asum)
{
    double ts = 0.0, ta = 0.0;
    int64_t i = 0;
    while (i < len) {
        const int64_t blk = len - i < 256 ? len - i : 256;
        float lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
        float alanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
        int64_t j = 0;
        for (; j + 8 <= blk; j += 8) {
            for (int l = 0; l < 8; ++l) {
                const float v = src[i + j + l];
                lanes[l] += v;
                alanes[l] += std::fabs(v);
            }
        }
        float s = reduce8(lanes);
        float a = reduce8(alanes);
        for (; j < blk; ++j) {
            const float v = src[i + j];
            s += v;
            a += std::fabs(v);
        }
        ts += static_cast<double>(s);
        ta += static_cast<double>(a);
        i += blk;
    }
    *sum = ts;
    *asum = ta;
}

// std::fabs clears the sign bit (also of -0.0 and NaN), matching the
// AVX2 andnot mask lane for lane.
float
asum_generic(const float* src, int64_t len)
{
    float lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    int64_t i = 0;
    for (; i + 8 <= len; i += 8) {
        for (int j = 0; j < 8; ++j) lanes[j] += std::fabs(src[i + j]);
    }
    float acc = reduce8(lanes);
    for (; i < len; ++i) acc += std::fabs(src[i]);
    return acc;
}

// The fused multi-source kernels perform, per element, exactly the
// operation sequence of the equivalent axpy/scale call chain (ascending
// term order, mul then add, no FMA), so every build and dispatch target
// produces identical bits — and identical bits to the unfused chain.
void
axpy_rows_generic(float* dst, const float* const* srcs, const float* coeffs,
                  int ntaps, int64_t len)
{
    for (int64_t i = 0; i < len; ++i) {
        float acc = dst[i];
        for (int t = 0; t < ntaps; ++t) acc += coeffs[t] * srcs[t][i];
        dst[i] = acc;
    }
}

void
matvec_rows_generic(float* dst, const float* const* srcs,
                    const float* coeffs, int ntaps, int64_t len)
{
    for (int64_t i = 0; i < len; ++i) {
        float acc = coeffs[0] * srcs[0][i];
        for (int t = 1; t < ntaps; ++t) acc += coeffs[t] * srcs[t][i];
        dst[i] = acc;
    }
}

// ---- int8 datapath helpers --------------------------------------------------
//
// Integer lanes compute through uint32 so overflow wraps mod 2^32 in
// every build (signed overflow is UB), matching the AVX2 lanes bit for
// bit; right shifts are arithmetic on int32, as vpsrad.

/** One shift/round/saturate stage in the branch-free form the AVX2
 *  lanes use: add the rounding half, arithmetic right shift, left
 *  shift (one of the two shifts is by 0). */
struct SrsStage
{
    uint32_t rnd;
    int rsh, lsh;

    int32_t apply(int32_t v, int32_t lo, int32_t hi) const
    {
        int32_t r = static_cast<int32_t>(static_cast<uint32_t>(v) + rnd) >> rsh;
        r = static_cast<int32_t>(static_cast<uint32_t>(r) << lsh);
        return r < lo ? lo : (r > hi ? hi : r);
    }
};

SrsStage
srs_stage(int s)
{
    return {s > 0 ? 1u << (s - 1) : 0u, s > 0 ? s : 0, s < 0 ? -s : 0};
}

int32_t
sat_hi(int bits)
{
    return static_cast<int32_t>((1u << (bits - 1)) - 1u);
}

/** Sylvester-order Hadamard butterfly over an int32 tuple (the
 *  traversal of quant::wht_inplace), wrapping. */
void
wht_i32(int32_t* x, int n)
{
    for (int len = 1; len < n; len <<= 1) {
        for (int i = 0; i < n; i += len << 1) {
            for (int j = i; j < i + len; ++j) {
                const uint32_t a = static_cast<uint32_t>(x[j]);
                const uint32_t b = static_cast<uint32_t>(x[j + len]);
                x[j] = static_cast<int32_t>(a + b);
                x[j + len] = static_cast<int32_t>(a - b);
            }
        }
    }
}

/**
 * shift_round_saturate(v, s, bits) exact in int32 for any int32 v,
 * s >= -31, bits <= 31: q = (v >> s) + bit (s-1) of v is the rounded
 * right shift without the overflowing add (shift counts clamp to 31,
 * where both terms are sign fills and q is 0, as in int64), and a left
 * shift by k saturates whenever v lies outside [bot, top] =
 * [ceil(lo / 2^k), floor(hi / 2^k)], inside which v << k is exact.
 */
struct ExactSrs
{
    int rsh, rbit, lsh;
    int32_t rmask, top, bot, hi, lo;

    int32_t apply(int32_t v) const
    {
        const int32_t q = (v >> rsh) + ((v >> rbit) & rmask);
        if (q > top) return hi;
        if (q < bot) return lo;
        return static_cast<int32_t>(static_cast<uint32_t>(q) << lsh);
    }
};

ExactSrs
exact_srs(int s, int bits)
{
    ExactSrs e;
    e.rsh = s > 0 ? (s < 31 ? s : 31) : 0;
    e.rbit = s > 0 ? (s - 1 < 31 ? s - 1 : 31) : 0;
    e.rmask = s > 0 ? 1 : 0;
    e.lsh = s < 0 ? -s : 0;
    e.hi = sat_hi(bits);
    e.lo = -e.hi - 1;
    e.top = e.hi >> e.lsh;
    e.bot = static_cast<int32_t>(-((-static_cast<int64_t>(e.lo)) >> e.lsh));
    return e;
}

constexpr int kMaxLanesTuple = 16;  ///< widest tuple the epilogues take

}  // namespace

// ---- int8 datapath, generic builds (declared in simd_generic.h) ----------

namespace generic {

void
pack_pairs_i16(int16_t* dst, const int32_t* a, const int32_t* b, int64_t len)
{
    for (int64_t i = 0; i < len; ++i) {
        dst[2 * i] = static_cast<int16_t>(a[i]);
        dst[2 * i + 1] = b != nullptr ? static_cast<int16_t>(b[i]) : 0;
    }
}

void
conv_pairs_i16(int32_t* dst, int64_t dst_stride, const int16_t* src,
               int64_t src_stride, const PairTap* taps, int ntaps,
               int32_t bias, int rows, int64_t len)
{
    for (int r = 0; r < rows; ++r) {
        int32_t* row = dst + r * dst_stride;
        const int16_t* base = src + r * src_stride;
        for (int64_t i = 0; i < len; ++i) row[i] = bias;
        for (int t = 0; t < ntaps; ++t) {
            const int32_t lo = static_cast<int16_t>(taps[t].w & 0xffff);
            const int32_t hi = static_cast<int16_t>(
                static_cast<uint32_t>(taps[t].w) >> 16);
            const int16_t* s = base + taps[t].off;
            for (int64_t i = 0; i < len; ++i) {
                // Each product and their sum fit int32 (|x| <= 2^15,
                // |w| <= 2^7), exactly as in one vpmaddwd lane.
                const int32_t m = lo * s[2 * i] + hi * s[2 * i + 1];
                row[i] = static_cast<int32_t>(static_cast<uint32_t>(row[i]) +
                                              static_cast<uint32_t>(m));
            }
        }
    }
}

void
requant_i32(int32_t* dst, const int32_t* src, int64_t len, int shift,
            int bits, bool relu_first)
{
    const SrsStage st = srs_stage(shift);
    const int32_t hi = sat_hi(bits), lo = -hi - 1;
    for (int64_t i = 0; i < len; ++i) {
        const int32_t v = relu_first && src[i] < 0 ? 0 : src[i];
        dst[i] = st.apply(v, lo, hi);
    }
}

void
dir_relu_otf_i32(int32_t* const* dst, const int32_t* const* src, int n,
                 const int* align, const int* out_shift, int bits,
                 int64_t len)
{
    SrsStage out[kMaxLanesTuple];
    for (int j = 0; j < n; ++j) out[j] = srs_stage(out_shift[j]);
    const int32_t hi = sat_hi(bits), lo = -hi - 1;
    for (int64_t i = 0; i < len; ++i) {
        int32_t t[kMaxLanesTuple];
        for (int j = 0; j < n; ++j) {
            t[j] = static_cast<int32_t>(static_cast<uint32_t>(src[j][i])
                                        << align[j]);
        }
        wht_i32(t, n);
        for (int j = 0; j < n; ++j) t[j] = t[j] < 0 ? 0 : t[j];
        wht_i32(t, n);
        for (int j = 0; j < n; ++j) dst[j][i] = out[j].apply(t[j], lo, hi);
    }
}

void
dir_relu_qfirst_i32(int32_t* const* dst, const int32_t* const* src, int n,
                    const int* in_shift, const int* mid_shift,
                    const int* out_shift, int bits, int64_t len)
{
    SrsStage in[kMaxLanesTuple], mid[kMaxLanesTuple], out[kMaxLanesTuple];
    for (int j = 0; j < n; ++j) {
        in[j] = srs_stage(in_shift[j]);
        mid[j] = srs_stage(mid_shift[j]);
        out[j] = srs_stage(out_shift[j]);
    }
    const int32_t hi = sat_hi(bits), lo = -hi - 1;
    for (int64_t i = 0; i < len; ++i) {
        int32_t y[kMaxLanesTuple];
        for (int j = 0; j < n; ++j) y[j] = in[j].apply(src[j][i], lo, hi);
        wht_i32(y, n);
        for (int j = 0; j < n; ++j) {
            const int32_t v = mid[j].apply(y[j], lo, hi);
            y[j] = v > 0 ? v : 0;
        }
        wht_i32(y, n);
        for (int j = 0; j < n; ++j) dst[j][i] = out[j].apply(y[j], lo, hi);
    }
}

void
add_aligned_i32(int32_t* dst, const int32_t* a, const int32_t* b,
                int64_t len, int sa, int sb, int bits)
{
    const ExactSrs ea = exact_srs(sa, bits + 2), eb = exact_srs(sb, bits + 2);
    const int32_t hi = sat_hi(bits), lo = -hi - 1;
    for (int64_t i = 0; i < len; ++i) {
        const int32_t v = ea.apply(a[i]) + eb.apply(b[i]);
        dst[i] = v < lo ? lo : (v > hi ? hi : v);
    }
}

}  // namespace generic

namespace {

// Max over |a-b| is exact arithmetic (fabs and max introduce no
// rounding), so the reduction order is free and the dispatch targets
// agree bit for bit on NaN-free inputs with no lane contract.
float
max_abs_diff_f32_generic(const float* a, const float* b, int64_t len)
{
    float m = 0.0f;
    for (int64_t i = 0; i < len; ++i) {
        const float d = std::fabs(a[i] - b[i]);
        if (d > m) m = d;
    }
    return m;
}

int
max_abs_diff_i8_generic(const int8_t* a, const int8_t* b, int64_t len)
{
    int m = 0;
    for (int64_t i = 0; i < len; ++i) {
        int d = static_cast<int>(a[i]) - static_cast<int>(b[i]);
        if (d < 0) d = -d;
        if (d > m) m = d;
    }
    return m;
}

#ifdef RINGCNN_X86_DISPATCH

// Explicit 8-wide AVX2 rows. Deliberately mul+add rather than FMA: the
// x86-64 baseline scalar/SSE code cannot fuse, so keeping the same
// rounding here makes the fp32 path produce identical bits no matter
// which implementation the runtime dispatch picks.
__attribute__((target("avx2"))) void
axpy_avx2(float* dst, const float* src, float a, int64_t len)
{
    const __m256 va = _mm256_set1_ps(a);
    int64_t i = 0;
    for (; i + 8 <= len; i += 8) {
        const __m256 s = _mm256_loadu_ps(src + i);
        const __m256 d = _mm256_loadu_ps(dst + i);
        _mm256_storeu_ps(dst + i, _mm256_add_ps(d, _mm256_mul_ps(va, s)));
    }
    for (; i < len; ++i) dst[i] += a * src[i];
}

__attribute__((target("avx2"))) void
scale_avx2(float* dst, const float* src, float a, int64_t len)
{
    const __m256 va = _mm256_set1_ps(a);
    int64_t i = 0;
    for (; i + 8 <= len; i += 8) {
        _mm256_storeu_ps(dst + i,
                         _mm256_mul_ps(va, _mm256_loadu_ps(src + i)));
    }
    for (; i < len; ++i) dst[i] = a * src[i];
}

// The vector accumulator's 8 lanes are exactly the 8 generic lanes
// (lane j holds elements j, j+8, ...); mul+add, no FMA, and the same
// reduce8 tree on the extracted lanes keep the bits identical to the
// generic build.
__attribute__((target("avx2"))) float
dot_avx2(const float* a, const float* b, int64_t len)
{
    __m256 vacc = _mm256_setzero_ps();
    int64_t i = 0;
    for (; i + 8 <= len; i += 8) {
        vacc = _mm256_add_ps(vacc, _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                                 _mm256_loadu_ps(b + i)));
    }
    float lanes[8];
    _mm256_storeu_ps(lanes, vacc);
    float acc = reduce8(lanes);
    for (; i < len; ++i) acc += a[i] * b[i];
    return acc;
}

__attribute__((target("avx2"))) float
sum_avx2(const float* src, int64_t len)
{
    __m256 vacc = _mm256_setzero_ps();
    int64_t i = 0;
    for (; i + 8 <= len; i += 8) {
        vacc = _mm256_add_ps(vacc, _mm256_loadu_ps(src + i));
    }
    float lanes[8];
    _mm256_storeu_ps(lanes, vacc);
    float acc = reduce8(lanes);
    for (; i < len; ++i) acc += src[i];
    return acc;
}

__attribute__((target("avx2"))) void
plane_sums_avx2(const float* src, int64_t len, double* sum, double* asum)
{
    const __m256 sign = _mm256_set1_ps(-0.0f);
    double ts = 0.0, ta = 0.0;
    int64_t i = 0;
    while (i < len) {
        const int64_t blk = len - i < 256 ? len - i : 256;
        __m256 vs = _mm256_setzero_ps();
        __m256 va = _mm256_setzero_ps();
        int64_t j = 0;
        for (; j + 8 <= blk; j += 8) {
            const __m256 v = _mm256_loadu_ps(src + i + j);
            vs = _mm256_add_ps(vs, v);
            va = _mm256_add_ps(va, _mm256_andnot_ps(sign, v));
        }
        float lanes[8], alanes[8];
        _mm256_storeu_ps(lanes, vs);
        _mm256_storeu_ps(alanes, va);
        float s = reduce8(lanes);
        float a = reduce8(alanes);
        for (; j < blk; ++j) {
            const float v = src[i + j];
            s += v;
            a += std::fabs(v);
        }
        ts += static_cast<double>(s);
        ta += static_cast<double>(a);
        i += blk;
    }
    *sum = ts;
    *asum = ta;
}

__attribute__((target("avx2"))) float
asum_avx2(const float* src, int64_t len)
{
    const __m256 sign = _mm256_set1_ps(-0.0f);
    __m256 vacc = _mm256_setzero_ps();
    int64_t i = 0;
    for (; i + 8 <= len; i += 8) {
        vacc = _mm256_add_ps(vacc,
                             _mm256_andnot_ps(sign, _mm256_loadu_ps(src + i)));
    }
    float lanes[8];
    _mm256_storeu_ps(lanes, vacc);
    float acc = reduce8(lanes);
    for (; i < len; ++i) acc += std::fabs(src[i]);
    return acc;
}

// 64 elements per iteration: each tap's broadcast is reused across 8
// vectors, and the 8 independent accumulator chains cover the FP-add
// latency (each chain sees one add per tap; with fewer chains the
// serial add chain, not port throughput, bounds the loop). Same
// elementwise mul+add sequence as the generic loop.
__attribute__((target("avx2"))) void
axpy_rows_avx2(float* dst, const float* const* srcs, const float* coeffs,
               int ntaps, int64_t len)
{
    int64_t i = 0;
    for (; i + 64 <= len; i += 64) {
        __m256 a0 = _mm256_loadu_ps(dst + i);
        __m256 a1 = _mm256_loadu_ps(dst + i + 8);
        __m256 a2 = _mm256_loadu_ps(dst + i + 16);
        __m256 a3 = _mm256_loadu_ps(dst + i + 24);
        __m256 a4 = _mm256_loadu_ps(dst + i + 32);
        __m256 a5 = _mm256_loadu_ps(dst + i + 40);
        __m256 a6 = _mm256_loadu_ps(dst + i + 48);
        __m256 a7 = _mm256_loadu_ps(dst + i + 56);
        for (int t = 0; t < ntaps; ++t) {
            const __m256 c = _mm256_set1_ps(coeffs[t]);
            const float* s = srcs[t] + i;
            a0 = _mm256_add_ps(a0, _mm256_mul_ps(c, _mm256_loadu_ps(s)));
            a1 = _mm256_add_ps(a1, _mm256_mul_ps(c, _mm256_loadu_ps(s + 8)));
            a2 = _mm256_add_ps(a2, _mm256_mul_ps(c, _mm256_loadu_ps(s + 16)));
            a3 = _mm256_add_ps(a3, _mm256_mul_ps(c, _mm256_loadu_ps(s + 24)));
            a4 = _mm256_add_ps(a4, _mm256_mul_ps(c, _mm256_loadu_ps(s + 32)));
            a5 = _mm256_add_ps(a5, _mm256_mul_ps(c, _mm256_loadu_ps(s + 40)));
            a6 = _mm256_add_ps(a6, _mm256_mul_ps(c, _mm256_loadu_ps(s + 48)));
            a7 = _mm256_add_ps(a7, _mm256_mul_ps(c, _mm256_loadu_ps(s + 56)));
        }
        _mm256_storeu_ps(dst + i, a0);
        _mm256_storeu_ps(dst + i + 8, a1);
        _mm256_storeu_ps(dst + i + 16, a2);
        _mm256_storeu_ps(dst + i + 24, a3);
        _mm256_storeu_ps(dst + i + 32, a4);
        _mm256_storeu_ps(dst + i + 40, a5);
        _mm256_storeu_ps(dst + i + 48, a6);
        _mm256_storeu_ps(dst + i + 56, a7);
    }
    for (; i + 32 <= len; i += 32) {
        __m256 a0 = _mm256_loadu_ps(dst + i);
        __m256 a1 = _mm256_loadu_ps(dst + i + 8);
        __m256 a2 = _mm256_loadu_ps(dst + i + 16);
        __m256 a3 = _mm256_loadu_ps(dst + i + 24);
        for (int t = 0; t < ntaps; ++t) {
            const __m256 c = _mm256_set1_ps(coeffs[t]);
            const float* s = srcs[t] + i;
            a0 = _mm256_add_ps(a0, _mm256_mul_ps(c, _mm256_loadu_ps(s)));
            a1 = _mm256_add_ps(a1, _mm256_mul_ps(c, _mm256_loadu_ps(s + 8)));
            a2 = _mm256_add_ps(a2, _mm256_mul_ps(c, _mm256_loadu_ps(s + 16)));
            a3 = _mm256_add_ps(a3, _mm256_mul_ps(c, _mm256_loadu_ps(s + 24)));
        }
        _mm256_storeu_ps(dst + i, a0);
        _mm256_storeu_ps(dst + i + 8, a1);
        _mm256_storeu_ps(dst + i + 16, a2);
        _mm256_storeu_ps(dst + i + 24, a3);
    }
    for (; i + 8 <= len; i += 8) {
        __m256 acc = _mm256_loadu_ps(dst + i);
        for (int t = 0; t < ntaps; ++t) {
            acc = _mm256_add_ps(acc,
                                _mm256_mul_ps(_mm256_set1_ps(coeffs[t]),
                                              _mm256_loadu_ps(srcs[t] + i)));
        }
        _mm256_storeu_ps(dst + i, acc);
    }
    if (i < len) {
        if (len >= 8) {
            // Tail via ONE overlapping 8-wide block anchored at len-8:
            // the lanes that were already accumulated by the main loop
            // recompute garbage that is simply not stored; the true
            // tail lanes see exactly the scalar op sequence. With many
            // taps this replaces tail*ntaps scalar ops per row.
            const int64_t base = len - 8;
            __m256 acc = _mm256_loadu_ps(dst + base);
            for (int t = 0; t < ntaps; ++t) {
                acc = _mm256_add_ps(
                    acc, _mm256_mul_ps(_mm256_set1_ps(coeffs[t]),
                                       _mm256_loadu_ps(srcs[t] + base)));
            }
            float tmp[8];
            _mm256_storeu_ps(tmp, acc);
            for (; i < len; ++i) dst[i] = tmp[i - base];
        } else {
            for (; i < len; ++i) {
                float acc = dst[i];
                for (int t = 0; t < ntaps; ++t) acc += coeffs[t] * srcs[t][i];
                dst[i] = acc;
            }
        }
    }
}

__attribute__((target("avx2"))) void
matvec_rows_avx2(float* dst, const float* const* srcs, const float* coeffs,
                 int ntaps, int64_t len)
{
    int64_t i = 0;
    for (; i + 8 <= len; i += 8) {
        __m256 acc = _mm256_mul_ps(_mm256_set1_ps(coeffs[0]),
                                   _mm256_loadu_ps(srcs[0] + i));
        for (int t = 1; t < ntaps; ++t) {
            acc = _mm256_add_ps(acc,
                                _mm256_mul_ps(_mm256_set1_ps(coeffs[t]),
                                              _mm256_loadu_ps(srcs[t] + i)));
        }
        _mm256_storeu_ps(dst + i, acc);
    }
    if (i < len) {
        if (len >= 8) {
            // Overwrite semantics read no dst lanes, so the whole
            // overlapping block at len-8 can simply be stored: the
            // overlapped lanes recompute the exact values the main
            // loop already wrote (a pure function of the sources).
            const int64_t base = len - 8;
            __m256 acc = _mm256_mul_ps(_mm256_set1_ps(coeffs[0]),
                                       _mm256_loadu_ps(srcs[0] + base));
            for (int t = 1; t < ntaps; ++t) {
                acc = _mm256_add_ps(
                    acc, _mm256_mul_ps(_mm256_set1_ps(coeffs[t]),
                                       _mm256_loadu_ps(srcs[t] + base)));
            }
            _mm256_storeu_ps(dst + base, acc);
        } else {
            for (; i < len; ++i) {
                float acc = coeffs[0] * srcs[0][i];
                for (int t = 1; t < ntaps; ++t) acc += coeffs[t] * srcs[t][i];
                dst[i] = acc;
            }
        }
    }
}

// ---- int8 datapath, AVX2 ----------------------------------------------------

__attribute__((target("avx2"))) void
pack_pairs_i16_avx2(int16_t* dst, const int32_t* a, const int32_t* b,
                    int64_t len)
{
    // One int32 lane per pixel: low half a, high half b — little-endian
    // memory order a, b, a, b, ... as int16.
    const __m256i low = _mm256_set1_epi32(0xffff);
    int64_t i = 0;
    for (; i + 8 <= len; i += 8) {
        const __m256i va = _mm256_and_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)), low);
        const __m256i vb =
            b != nullptr
                ? _mm256_slli_epi32(_mm256_loadu_si256(
                                        reinterpret_cast<const __m256i*>(b + i)),
                                    16)
                : _mm256_setzero_si256();
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 2 * i),
                            _mm256_or_si256(va, vb));
    }
    generic::pack_pairs_i16(dst + 2 * i, a + i,
                            b != nullptr ? b + i : nullptr, len - i);
}

/** Lane mask of the first `count` (0..8) int32 lanes. */
__attribute__((target("avx2"))) inline __m256i
first_lanes(int64_t count)
{
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int32_t>(count)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/** R rows (1..4) x the whole row length, 8 pixels per register. */
template <int R>
__attribute__((target("avx2"))) inline void
conv_pairs_rows_avx2(int32_t* dst, int64_t dst_stride, const int16_t* src,
                     int64_t src_stride, const PairTap* taps, int ntaps,
                     int32_t bias, int64_t len)
{
    const __m256i vbias = _mm256_set1_epi32(bias);
    for (int64_t x = 0; x < len; x += 8) {
        __m256i acc[R];
        for (int r = 0; r < R; ++r) acc[r] = vbias;
        const int16_t* base = src + 2 * x;
        for (int t = 0; t < ntaps; ++t) {
            const __m256i w = _mm256_set1_epi32(taps[t].w);
            const int16_t* p = base + taps[t].off;
            for (int r = 0; r < R; ++r) {
                acc[r] = _mm256_add_epi32(
                    acc[r],
                    _mm256_madd_epi16(
                        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                            p + r * src_stride)),
                        w));
            }
        }
        if (x + 8 <= len) {
            for (int r = 0; r < R; ++r) {
                _mm256_storeu_si256(
                    reinterpret_cast<__m256i*>(dst + r * dst_stride + x),
                    acc[r]);
            }
        } else {
            const __m256i m = first_lanes(len - x);
            for (int r = 0; r < R; ++r) {
                _mm256_maskstore_epi32(dst + r * dst_stride + x, m, acc[r]);
            }
        }
    }
}

__attribute__((target("avx2"))) void
conv_pairs_i16_avx2(int32_t* dst, int64_t dst_stride, const int16_t* src,
                    int64_t src_stride, const PairTap* taps, int ntaps,
                    int32_t bias, int rows, int64_t len)
{
    int r = 0;
    for (; r + 4 <= rows; r += 4) {
        conv_pairs_rows_avx2<4>(dst + r * dst_stride, dst_stride,
                                src + r * src_stride, src_stride, taps, ntaps,
                                bias, len);
    }
    const int64_t d = r * dst_stride, s = r * src_stride;
    switch (rows - r) {
    case 3:
        conv_pairs_rows_avx2<3>(dst + d, dst_stride, src + s, src_stride,
                                taps, ntaps, bias, len);
        break;
    case 2:
        conv_pairs_rows_avx2<2>(dst + d, dst_stride, src + s, src_stride,
                                taps, ntaps, bias, len);
        break;
    case 1:
        conv_pairs_rows_avx2<1>(dst + d, dst_stride, src + s, src_stride,
                                taps, ntaps, bias, len);
        break;
    default:
        break;
    }
}

/** SrsStage on 8 lanes: rounding half, vpsrad, vpslld, saturate. */
struct SrsStageAvx2
{
    __m256i rnd;
    __m128i rsh, lsh;

    __attribute__((target("avx2"))) __m256i
    apply(__m256i v, __m256i lo, __m256i hi) const
    {
        v = _mm256_sll_epi32(_mm256_sra_epi32(_mm256_add_epi32(v, rnd), rsh),
                             lsh);
        return _mm256_min_epi32(_mm256_max_epi32(v, lo), hi);
    }
};

__attribute__((target("avx2"))) SrsStageAvx2
srs_stage_avx2(int s)
{
    const SrsStage g = srs_stage(s);
    return {_mm256_set1_epi32(static_cast<int32_t>(g.rnd)),
            _mm_cvtsi32_si128(g.rsh), _mm_cvtsi32_si128(g.lsh)};
}

/** The Sylvester butterfly of wht_i32, unrolled at compile time so the
 *  tuple stays in registers: two half-size transforms, then the
 *  cross stage — the same additions in the same order. */
template <int N>
__attribute__((target("avx2"))) inline void
wht_avx2(__m256i* x)
{
    if constexpr (N > 1) {
        wht_avx2<N / 2>(x);
        wht_avx2<N / 2>(x + N / 2);
#pragma GCC unroll 16
        for (int j = 0; j < N / 2; ++j) {
            const __m256i a = x[j], b = x[j + N / 2];
            x[j] = _mm256_add_epi32(a, b);
            x[j + N / 2] = _mm256_sub_epi32(a, b);
        }
    }
}

__attribute__((target("avx2"))) void
requant_i32_avx2(int32_t* dst, const int32_t* src, int64_t len, int shift,
                 int bits, bool relu_first)
{
    const SrsStageAvx2 st = srs_stage_avx2(shift);
    const __m256i hi = _mm256_set1_epi32(sat_hi(bits));
    const __m256i lo = _mm256_set1_epi32(-sat_hi(bits) - 1);
    const __m256i min_in = relu_first ? _mm256_setzero_si256()
                                      : _mm256_set1_epi32(INT32_MIN);
    int64_t i = 0;
    for (; i + 8 <= len; i += 8) {
        const __m256i v = _mm256_max_epi32(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i)),
            min_in);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                            st.apply(v, lo, hi));
    }
    generic::requant_i32(dst + i, src + i, len - i, shift, bits, relu_first);
}

template <int N>
__attribute__((target("avx2"))) void
dir_relu_otf_avx2(int32_t* const* dst, const int32_t* const* src,
                  const int* align, const int* out_shift, int bits,
                  int64_t len)
{
    __m128i al[N];
    SrsStageAvx2 out[N];
    for (int j = 0; j < N; ++j) {
        al[j] = _mm_cvtsi32_si128(align[j]);
        out[j] = srs_stage_avx2(out_shift[j]);
    }
    const __m256i hi = _mm256_set1_epi32(sat_hi(bits));
    const __m256i lo = _mm256_set1_epi32(-sat_hi(bits) - 1);
    const __m256i zero = _mm256_setzero_si256();
    int64_t i = 0;
    for (; i + 8 <= len; i += 8) {
        __m256i t[N];
#pragma GCC unroll 16
        for (int j = 0; j < N; ++j) {
            t[j] = _mm256_sll_epi32(
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(src[j] + i)),
                al[j]);
        }
        wht_avx2<N>(t);
#pragma GCC unroll 16
        for (int j = 0; j < N; ++j) t[j] = _mm256_max_epi32(t[j], zero);
        wht_avx2<N>(t);
#pragma GCC unroll 16
        for (int j = 0; j < N; ++j) {
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst[j] + i),
                                out[j].apply(t[j], lo, hi));
        }
    }
    if (i < len) {
        const int32_t* s[N];
        int32_t* d[N];
#pragma GCC unroll 16
        for (int j = 0; j < N; ++j) {
            s[j] = src[j] + i;
            d[j] = dst[j] + i;
        }
        generic::dir_relu_otf_i32(d, s, N, align, out_shift, bits, len - i);
    }
}

template <int N>
__attribute__((target("avx2"))) void
dir_relu_qfirst_avx2(int32_t* const* dst, const int32_t* const* src,
                     const int* in_shift, const int* mid_shift,
                     const int* out_shift, int bits, int64_t len)
{
    SrsStageAvx2 in[N], mid[N], out[N];
    for (int j = 0; j < N; ++j) {
        in[j] = srs_stage_avx2(in_shift[j]);
        mid[j] = srs_stage_avx2(mid_shift[j]);
        out[j] = srs_stage_avx2(out_shift[j]);
    }
    const __m256i hi = _mm256_set1_epi32(sat_hi(bits));
    const __m256i lo = _mm256_set1_epi32(-sat_hi(bits) - 1);
    const __m256i zero = _mm256_setzero_si256();
    int64_t i = 0;
    for (; i + 8 <= len; i += 8) {
        __m256i y[N];
#pragma GCC unroll 16
        for (int j = 0; j < N; ++j) {
            y[j] = in[j].apply(
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(src[j] + i)),
                lo, hi);
        }
        wht_avx2<N>(y);
#pragma GCC unroll 16
        for (int j = 0; j < N; ++j) {
            y[j] = _mm256_max_epi32(mid[j].apply(y[j], lo, hi), zero);
        }
        wht_avx2<N>(y);
#pragma GCC unroll 16
        for (int j = 0; j < N; ++j) {
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst[j] + i),
                                out[j].apply(y[j], lo, hi));
        }
    }
    if (i < len) {
        const int32_t* s[N];
        int32_t* d[N];
#pragma GCC unroll 16
        for (int j = 0; j < N; ++j) {
            s[j] = src[j] + i;
            d[j] = dst[j] + i;
        }
        generic::dir_relu_qfirst_i32(d, s, N, in_shift, mid_shift,
                                     out_shift, bits, len - i);
    }
}

/** ExactSrs on 8 lanes (vpsrad counts above 31 sign-fill, as the
 *  generic clamp to 31 does). */
struct ExactSrsAvx2
{
    __m128i rsh, rbit, lsh;
    __m256i rmask, top, bot, hi, lo;

    __attribute__((target("avx2"))) __m256i apply(__m256i v) const
    {
        const __m256i q = _mm256_add_epi32(
            _mm256_sra_epi32(v, rsh),
            _mm256_and_si256(_mm256_sra_epi32(v, rbit), rmask));
        __m256i r = _mm256_sll_epi32(q, lsh);
        r = _mm256_blendv_epi8(r, hi, _mm256_cmpgt_epi32(q, top));
        return _mm256_blendv_epi8(r, lo, _mm256_cmpgt_epi32(bot, q));
    }
};

__attribute__((target("avx2"))) ExactSrsAvx2
exact_srs_avx2(int s, int bits)
{
    const ExactSrs e = exact_srs(s, bits);
    return {_mm_cvtsi32_si128(e.rsh),       _mm_cvtsi32_si128(e.rbit),
            _mm_cvtsi32_si128(e.lsh),       _mm256_set1_epi32(e.rmask),
            _mm256_set1_epi32(e.top),       _mm256_set1_epi32(e.bot),
            _mm256_set1_epi32(e.hi),        _mm256_set1_epi32(e.lo)};
}

__attribute__((target("avx2"))) void
add_aligned_i32_avx2(int32_t* dst, const int32_t* a, const int32_t* b,
                     int64_t len, int sa, int sb, int bits)
{
    const ExactSrsAvx2 ea = exact_srs_avx2(sa, bits + 2);
    const ExactSrsAvx2 eb = exact_srs_avx2(sb, bits + 2);
    const __m256i hi = _mm256_set1_epi32(sat_hi(bits));
    const __m256i lo = _mm256_set1_epi32(-sat_hi(bits) - 1);
    int64_t i = 0;
    for (; i + 8 <= len; i += 8) {
        const __m256i v = _mm256_add_epi32(
            ea.apply(_mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(a + i))),
            eb.apply(_mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(b + i))));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                            _mm256_min_epi32(_mm256_max_epi32(v, lo), hi));
    }
    generic::add_aligned_i32(dst + i, a + i, b + i, len - i, sa, sb, bits);
}

/** Tuple width -> template instance (n is a power of two <= 16). */
#define RINGCNN_TUPLE_SWITCH(n, CALL) \
    switch (n) {                      \
    case 1: CALL(1); break;           \
    case 2: CALL(2); break;           \
    case 4: CALL(4); break;           \
    case 8: CALL(8); break;           \
    default: CALL(16); break;         \
    }

__attribute__((target("avx2"))) void
dir_relu_otf_i32_avx2(int32_t* const* dst, const int32_t* const* src, int n,
                      const int* align, const int* out_shift, int bits,
                      int64_t len)
{
#define RINGCNN_OTF(N) \
    dir_relu_otf_avx2<N>(dst, src, align, out_shift, bits, len)
    RINGCNN_TUPLE_SWITCH(n, RINGCNN_OTF)
#undef RINGCNN_OTF
}

__attribute__((target("avx2"))) void
dir_relu_qfirst_i32_avx2(int32_t* const* dst, const int32_t* const* src,
                         int n, const int* in_shift, const int* mid_shift,
                         const int* out_shift, int bits, int64_t len)
{
#define RINGCNN_QF(N)                                                 \
    dir_relu_qfirst_avx2<N>(dst, src, in_shift, mid_shift, out_shift, \
                            bits, len)
    RINGCNN_TUPLE_SWITCH(n, RINGCNN_QF)
#undef RINGCNN_QF
}

#undef RINGCNN_TUPLE_SWITCH

__attribute__((target("avx2"))) float
max_abs_diff_f32_avx2(const float* a, const float* b, int64_t len)
{
    const __m256 sign = _mm256_set1_ps(-0.0f);
    __m256 vmax = _mm256_setzero_ps();
    int64_t i = 0;
    for (; i + 8 <= len; i += 8) {
        const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(a + i),
                                       _mm256_loadu_ps(b + i));
        vmax = _mm256_max_ps(vmax, _mm256_andnot_ps(sign, d));
    }
    float lanes[8];
    _mm256_storeu_ps(lanes, vmax);
    float m = 0.0f;
    for (int j = 0; j < 8; ++j) {
        if (lanes[j] > m) m = lanes[j];
    }
    for (; i < len; ++i) {
        const float d = std::fabs(a[i] - b[i]);
        if (d > m) m = d;
    }
    return m;
}

// Signed bytes have no vector abs-of-difference; XOR with 0x80 maps
// int8 to uint8 preserving differences ((a+128)-(b+128) = a-b), where
// max(subs_epu8(x,y), subs_epu8(y,x)) is the exact |x-y| — saturation
// never fires on whichever direction is the true nonnegative one.
__attribute__((target("avx2"))) int
max_abs_diff_i8_avx2(const int8_t* a, const int8_t* b, int64_t len)
{
    const __m256i bias = _mm256_set1_epi8(static_cast<char>(0x80));
    __m256i vmax = _mm256_setzero_si256();
    int64_t i = 0;
    for (; i + 32 <= len; i += 32) {
        const __m256i x = _mm256_xor_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
            bias);
        const __m256i y = _mm256_xor_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)),
            bias);
        const __m256i d = _mm256_max_epu8(_mm256_subs_epu8(x, y),
                                          _mm256_subs_epu8(y, x));
        vmax = _mm256_max_epu8(vmax, d);
    }
    uint8_t lanes[32];
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), vmax);
    int m = 0;
    for (int j = 0; j < 32; ++j) {
        if (lanes[j] > m) m = lanes[j];
    }
    for (; i < len; ++i) {
        int d = static_cast<int>(a[i]) - static_cast<int>(b[i]);
        if (d < 0) d = -d;
        if (d > m) m = d;
    }
    return m;
}

bool
have_avx2()
{
    return __builtin_cpu_supports("avx2");
}

#endif  // RINGCNN_X86_DISPATCH

using AxpyFn = void (*)(float*, const float*, float, int64_t);
using ScaleFn = void (*)(float*, const float*, float, int64_t);
using DotFn = float (*)(const float*, const float*, int64_t);
using SumFn = float (*)(const float*, int64_t);
using PackPairsFn = void (*)(int16_t*, const int32_t*, const int32_t*,
                             int64_t);
using ConvPairsFn = void (*)(int32_t*, int64_t, const int16_t*, int64_t,
                             const PairTap*, int, int32_t, int, int64_t);
using RequantFn = void (*)(int32_t*, const int32_t*, int64_t, int, int, bool);
using DirOtfFn = void (*)(int32_t* const*, const int32_t* const*, int,
                          const int*, const int*, int, int64_t);
using DirQfirstFn = void (*)(int32_t* const*, const int32_t* const*, int,
                             const int*, const int*, const int*, int,
                             int64_t);
using AddAlignedFn = void (*)(int32_t*, const int32_t*, const int32_t*,
                              int64_t, int, int, int);
using RowsFn = void (*)(float*, const float* const*, const float*, int,
                        int64_t);
using PlaneSumsFn = void (*)(const float*, int64_t, double*, double*);
using MaxAbsDiffFn = float (*)(const float*, const float*, int64_t);
using MaxAbsDiffI8Fn = int (*)(const int8_t*, const int8_t*, int64_t);

struct Dispatch
{
    AxpyFn axpy = axpy_generic;
    ScaleFn scale = scale_generic;
    DotFn dot = dot_generic;
    SumFn sum = sum_generic;
    SumFn asum = asum_generic;
    PlaneSumsFn plane_sums = plane_sums_generic;
    PackPairsFn pack_pairs = generic::pack_pairs_i16;
    ConvPairsFn conv_pairs = generic::conv_pairs_i16;
    RequantFn requant = generic::requant_i32;
    DirOtfFn dir_otf = generic::dir_relu_otf_i32;
    DirQfirstFn dir_qfirst = generic::dir_relu_qfirst_i32;
    AddAlignedFn add_aligned = generic::add_aligned_i32;
    RowsFn axpy_rows = axpy_rows_generic;
    RowsFn matvec_rows = matvec_rows_generic;
    MaxAbsDiffFn max_abs_diff = max_abs_diff_f32_generic;
    MaxAbsDiffI8Fn max_abs_diff_i8 = max_abs_diff_i8_generic;
    const char* isa = "generic";

    Dispatch()
    {
#ifdef RINGCNN_X86_DISPATCH
        if (have_avx2()) {
            axpy = axpy_avx2;
            scale = scale_avx2;
            dot = dot_avx2;
            sum = sum_avx2;
            asum = asum_avx2;
            plane_sums = plane_sums_avx2;
            pack_pairs = pack_pairs_i16_avx2;
            conv_pairs = conv_pairs_i16_avx2;
            requant = requant_i32_avx2;
            dir_otf = dir_relu_otf_i32_avx2;
            dir_qfirst = dir_relu_qfirst_i32_avx2;
            add_aligned = add_aligned_i32_avx2;
            axpy_rows = axpy_rows_avx2;
            matvec_rows = matvec_rows_avx2;
            max_abs_diff = max_abs_diff_f32_avx2;
            max_abs_diff_i8 = max_abs_diff_i8_avx2;
            isa = "avx2";
        }
#endif
    }
};

const Dispatch&
dispatch()
{
    static const Dispatch d;
    return d;
}

}  // namespace

// ---- fp32 row-kernel resolvers (see simd.h) --------------------------------
//
// The atomics start at these resolver thunks; the first call per kernel
// swaps in the dispatched implementation and forwards, so the steady
// state is one relaxed load + indirect call with no init guard.

namespace {

void
axpy_resolver(float* dst, const float* src, float a, int64_t len)
{
    const AxpyFn f = dispatch().axpy;
    detail::axpy_f32_impl.store(f, std::memory_order_relaxed);
    f(dst, src, a, len);
}

void
scale_resolver(float* dst, const float* src, float a, int64_t len)
{
    const ScaleFn f = dispatch().scale;
    detail::scale_f32_impl.store(f, std::memory_order_relaxed);
    f(dst, src, a, len);
}

float
dot_resolver(const float* a, const float* b, int64_t len)
{
    const DotFn f = dispatch().dot;
    detail::dot_f32_impl.store(f, std::memory_order_relaxed);
    return f(a, b, len);
}

float
sum_resolver(const float* src, int64_t len)
{
    const SumFn f = dispatch().sum;
    detail::sum_f32_impl.store(f, std::memory_order_relaxed);
    return f(src, len);
}

float
asum_resolver(const float* src, int64_t len)
{
    const SumFn f = dispatch().asum;
    detail::asum_f32_impl.store(f, std::memory_order_relaxed);
    return f(src, len);
}

}  // namespace

namespace detail {
std::atomic<AxpyFn> axpy_f32_impl{axpy_resolver};
std::atomic<ScaleFn> scale_f32_impl{scale_resolver};
std::atomic<DotFn> dot_f32_impl{dot_resolver};
std::atomic<SumFn> sum_f32_impl{sum_resolver};
std::atomic<SumFn> asum_f32_impl{asum_resolver};
}  // namespace detail

void
plane_sums_f32(const float* src, int64_t len, double* sum, double* asum)
{
    dispatch().plane_sums(src, len, sum, asum);
}

void
axpy_rows_f32(float* dst, const float* const* srcs, const float* coeffs,
              int ntaps, int64_t len)
{
    if (ntaps <= 0) return;
    dispatch().axpy_rows(dst, srcs, coeffs, ntaps, len);
}

void
matvec_rows_f32(float* dst, const float* const* srcs, const float* coeffs,
                int ntaps, int64_t len)
{
    dispatch().matvec_rows(dst, srcs, coeffs, ntaps, len);
}

void
pack_pairs_i16(int16_t* dst, const int32_t* a, const int32_t* b, int64_t len)
{
    dispatch().pack_pairs(dst, a, b, len);
}

void
conv_pairs_i16(int32_t* dst, int64_t dst_stride, const int16_t* src,
               int64_t src_stride, const PairTap* taps, int ntaps,
               int32_t bias, int rows, int64_t len)
{
    dispatch().conv_pairs(dst, dst_stride, src, src_stride, taps, ntaps, bias,
                          rows, len);
}

void
requant_i32(int32_t* dst, const int32_t* src, int64_t len, int shift,
            int bits, bool relu_first)
{
    dispatch().requant(dst, src, len, shift, bits, relu_first);
}

void
dir_relu_otf_i32(int32_t* const* dst, const int32_t* const* src, int n,
                 const int* align, const int* out_shift, int bits,
                 int64_t len)
{
    dispatch().dir_otf(dst, src, n, align, out_shift, bits, len);
}

void
dir_relu_qfirst_i32(int32_t* const* dst, const int32_t* const* src, int n,
                    const int* in_shift, const int* mid_shift,
                    const int* out_shift, int bits, int64_t len)
{
    dispatch().dir_qfirst(dst, src, n, in_shift, mid_shift, out_shift, bits,
                          len);
}

void
add_aligned_i32(int32_t* dst, const int32_t* a, const int32_t* b,
                int64_t len, int sa, int sb, int bits)
{
    dispatch().add_aligned(dst, a, b, len, sa, sb, bits);
}

float
max_abs_diff_f32(const float* a, const float* b, int64_t len)
{
    return dispatch().max_abs_diff(a, b, len);
}

int
max_abs_diff_i8(const int8_t* a, const int8_t* b, int64_t len)
{
    return dispatch().max_abs_diff_i8(a, b, len);
}

const char*
active_isa()
{
    return dispatch().isa;
}

}  // namespace ringcnn::simd
