/**
 * @file
 * Vector-friendly float32 and int32 primitives for the conv hot loops.
 *
 * Every heavy inner loop of the fp32 engine path reduces to one of two
 * stride-1 row kernels:
 *
 *   axpy_f32:  dst[i] += a * src[i]     (conv taps, reconstruction)
 *   scale_f32: dst[i]  = a * src[i]     (first transform term)
 *
 * The training backward passes add two row *reductions* with a fixed
 * 8-lane accumulation contract (see dot_f32 below):
 *
 *   dot_f32:   sum_i a[i] * b[i]        (weight gradients)
 *   sum_f32:   sum_i src[i]             (bias gradients)
 *
 * The quantized (int8 weight / int32 accumulator) path has its own
 * 8-bit datapath over int16 channel pairs and int32 lanes:
 *
 *   pack_pairs_i16:   interleave two int32 channel rows into int16 pairs
 *   conv_pairs_i16:   tap-fused channel-pair conv rows (vpmaddwd)
 *   requant_i32, dir_relu_otf_i32, dir_relu_qfirst_i32:
 *                     the conv's fused integer epilogues, 8 px wide
 *   add_aligned_i32:  the residual / two-branch aligned add
 *
 * The generic builds are plain loops the compiler auto-vectorizes at
 * -O2/-O3 (verified by the perf_ringconv fp32 microbenchmarks). On
 * x86-64 GCC/Clang additionally compile explicit AVX2 versions via the
 * target attribute — no -mavx2 flag needed — and dispatch at runtime
 * with __builtin_cpu_supports, so one binary runs the widest ISA the
 * machine has. On AArch64, NEON is baseline and the plain loops
 * vectorize to it directly.
 *
 * Determinism: the float kernels perform one multiply and one add per
 * element in index order with no reassociation, and the AVX2 path
 * deliberately avoids FMA contraction, so every dispatch target
 * produces identical bits. The bit-exactness oracle against the seed
 * implementation additionally runs on the strict fp64 engine path.
 *
 * The integer kernels compute mod 2^32 (the generic build goes through
 * uint32, matching the wrapping AVX2 lanes; core/simd_generic.h
 * declares it for the tests that compare the two), so every dispatch
 * target produces identical bits unconditionally, and results equal
 * arbitrary-precision integer arithmetic whenever the true values fit
 * in int32 — the quantized executor proves that bound statically per
 * conv before picking this path.
 */
#ifndef RINGCNN_CORE_SIMD_H
#define RINGCNN_CORE_SIMD_H

#include <atomic>
#include <cmath>
#include <cstdint>

namespace ringcnn::simd {

namespace detail {

// The fp32 row kernels are wrapped by inline functions with two
// properties the training kernels' short rows need:
//  - rows below a small threshold run a plain inline loop — the
//    per-row indirect call (and its code-gen barrier) costs more than
//    the row itself on 8..16-pixel patches, and the arithmetic is
//    element-wise, so every implementation produces identical bits;
//  - longer rows go through a self-resolving atomic function pointer
//    (relaxed loads compile to a plain move): the first call swaps in
//    the dispatched AVX2/generic implementation, after which there is
//    no static-init guard on the row path.
using AxpyFn = void (*)(float*, const float*, float, int64_t);
using ScaleFn = void (*)(float*, const float*, float, int64_t);
using DotFn = float (*)(const float*, const float*, int64_t);
using SumFn = float (*)(const float*, int64_t);
extern std::atomic<AxpyFn> axpy_f32_impl;
extern std::atomic<ScaleFn> scale_f32_impl;
extern std::atomic<DotFn> dot_f32_impl;
extern std::atomic<SumFn> sum_f32_impl;
extern std::atomic<SumFn> asum_f32_impl;

/** Rows shorter than this run inline (element-wise kernels only). */
constexpr int64_t kInlineRow = 16;

}  // namespace detail

/** dst[i] += a * src[i] for i in [0, len). */
inline void axpy_f32(float* dst, const float* src, float a, int64_t len)
{
    if (len < detail::kInlineRow) {
        for (int64_t i = 0; i < len; ++i) dst[i] += a * src[i];
        return;
    }
    detail::axpy_f32_impl.load(std::memory_order_relaxed)(dst, src, a, len);
}

/** dst[i] = a * src[i] for i in [0, len). */
inline void scale_f32(float* dst, const float* src, float a, int64_t len)
{
    if (len < detail::kInlineRow) {
        for (int64_t i = 0; i < len; ++i) dst[i] = a * src[i];
        return;
    }
    detail::scale_f32_impl.load(std::memory_order_relaxed)(dst, src, a, len);
}

/**
 * Returns sum_i a[i] * b[i] for i in [0, len) — the shifted-row inner
 * product of the training backward-weights pass.
 *
 * Reduction order is part of the contract: both dispatch targets keep 8
 * independent lane accumulators over the stride-8 index grid (lane j
 * sums elements j, j+8, j+16, ...), combine them with the fixed tree
 * ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)), then fold the < 8 tail
 * elements in sequentially. Identical bits on every backend, and under
 * any row banding the callers keep fixed. (The inline len < 8 shortcut
 * IS that contract: zero full blocks reduce to +0.0f, then the tail
 * folds sequentially.)
 */
inline float dot_f32(const float* a, const float* b, int64_t len)
{
    if (len < 8) {
        float acc = 0.0f;
        for (int64_t i = 0; i < len; ++i) acc += a[i] * b[i];
        return acc;
    }
    return detail::dot_f32_impl.load(std::memory_order_relaxed)(a, b, len);
}

/**
 * Returns sum_i src[i] for i in [0, len) — the row-sum reduction of the
 * bias gradient. Same 8-lane reduction contract as dot_f32.
 */
inline float sum_f32(const float* src, int64_t len)
{
    if (len < 8) {
        float acc = 0.0f;
        for (int64_t i = 0; i < len; ++i) acc += src[i];
        return acc;
    }
    return detail::sum_f32_impl.load(std::memory_order_relaxed)(src, len);
}

/**
 * Returns sum_i |src[i]| for i in [0, len) — the magnitude-bound
 * reduction of the ABFT checksum's rounding tolerance. Same 8-lane
 * reduction contract as dot_f32.
 */
inline float asum_f32(const float* src, int64_t len)
{
    if (len < 8) {
        float acc = 0.0f;
        for (int64_t i = 0; i < len; ++i) acc += std::fabs(src[i]);
        return acc;
    }
    return detail::asum_f32_impl.load(std::memory_order_relaxed)(src, len);
}

/**
 * One-pass plane reduction: *sum = sum_i src[i] and *asum =
 * sum_i |src[i]| over [0, len), read once. Both accumulate in 8 float
 * lanes flushed to a double accumulator every 256 elements, so the
 * rounding error stays O(32 eps) RELATIVE regardless of len — the ABFT
 * checksum's whole-plane reductions need that length-independence.
 * Within each block the lane/tree contract of dot_f32 applies, and the
 * two dispatch targets agree bit for bit.
 */
void plane_sums_f32(const float* src, int64_t len, double* sum,
                    double* asum);

/**
 * Fused multi-source accumulation: for each i in [0, len),
 *
 *   dst[i] = (...((dst[i] + c[0]*srcs[0][i]) + c[1]*srcs[1][i])...)
 *
 * with one multiply and one add per term, in ascending term order — the
 * exact per-element operation sequence of `ntaps` successive axpy_f32
 * calls, but in ONE pass over dst. The conv band kernels use this to
 * accumulate every (ci, ky, kx) tap of an output row while the
 * accumulator stays in registers: per-tap axpy traffic (load dst + store
 * dst per tap) collapses to one load and one store per row, which is
 * where most of the fp32 FRCONV time went. Bit-identical to the
 * unfused call sequence on every dispatch target (elementwise mul+add,
 * no FMA, no reassociation). ntaps == 0 is a no-op.
 */
void axpy_rows_f32(float* dst, const float* const* srcs,
                   const float* coeffs, int ntaps, int64_t len);

/**
 * Overwriting variant: dst[i] = c[0]*srcs[0][i] + c[1]*srcs[1][i] + ...
 * in ascending term order — the per-element sequence of one scale_f32
 * followed by ntaps-1 axpy_f32 calls, fused into one pass. Requires
 * ntaps >= 1. The engine's input transforms and the n x n directional
 * epilogue matmuls use this shape.
 */
void matvec_rows_f32(float* dst, const float* const* srcs,
                     const float* coeffs, int ntaps, int64_t len);

/**
 * One compiled channel-pair tap of the int8 conv: `off` is the int16
 * element offset of the tap's input pair relative to the output
 * pixel's packed base position, `w` holds the two int8 weights as
 * int16 halves (low half: even channel, high half: odd channel).
 */
struct PairTap
{
    int32_t off;
    int32_t w;
};

/** Packs a PairTap weight: `lo` scales the even, `hi` the odd channel. */
inline int32_t
pair_weight(int32_t lo, int32_t hi)
{
    return static_cast<int32_t>((static_cast<uint32_t>(lo) & 0xffffu) |
                                (static_cast<uint32_t>(hi) << 16));
}

/**
 * Interleaves two channel rows into int16 pairs: dst[2i] = a[i],
 * dst[2i+1] = b[i] (0 when b is null — the odd-channel tail), each
 * truncated to 16 bits. Callers pass values that fit int16.
 */
void pack_pairs_i16(int16_t* dst, const int32_t* a, const int32_t* b,
                    int64_t len);

/**
 * Int16 elements conv_pairs_i16 may read past the last packed pixel of
 * its input: the AVX2 body loads whole 8-pixel blocks, so a caller's
 * packed buffer carries this much (zeroed) slack after its end.
 */
constexpr int64_t kPairConvSlack = 16;

/**
 * Tap-fused channel-pair conv rows. For r in [0, rows), i in [0, len):
 *
 *   dst[r*dst_stride + i] = bias + sum_t lo(w_t) * s[0] + hi(w_t) * s[1],
 *   s = src + r*src_stride + 2*i + off_t
 *
 * computed mod 2^32. The AVX2 body keeps the bias-initialized
 * accumulators of a 4-row x 8-pixel block in registers and adds one
 * vpmaddwd per tap pair (two int16 x int8 products per lane — no
 * saturation is reachable with int8 weights); the generic build
 * performs the same products in uint32. Integer addition is exact and
 * order-free, so both produce identical bits.
 */
void conv_pairs_i16(int32_t* dst, int64_t dst_stride, const int16_t* src,
                    int64_t src_stride, const PairTap* taps, int ntaps,
                    int32_t bias, int rows, int64_t len);

/*
 * The quantized conv's fused epilogues in int32 lanes. Each applies
 * quant::shift_round_saturate stages in int32 arithmetic: shift s > 0
 * rounds half up, (v + 2^(s-1)) >> s; s < 0 shifts left by -s; the
 * result saturates to a signed `bits`-wide range. They equal the int64
 * oracle when |s| <= 31, bits <= 31 and no intermediate (rounded or
 * left-shifted value, butterfly sum) leaves int32 — the bound the
 * quantized executor proves per conv before compiling onto them.
 * Tuple widths n are powers of two up to 16.
 */

/** dst[i] = srs(relu_first ? max(src[i], 0) : src[i], shift, bits). */
void requant_i32(int32_t* dst, const int32_t* src, int64_t len, int shift,
                 int bits, bool relu_first);

/**
 * Fig. 8 on-the-fly directional ReLU over n rows (one per tuple
 * component): t_j = src[j][i] << align[j], Hadamard butterfly,
 * rectify, butterfly, dst[j][i] = srs(t_j, out_shift[j], bits).
 */
void dir_relu_otf_i32(int32_t* const* dst, const int32_t* const* src, int n,
                      const int* align, const int* out_shift, int bits,
                      int64_t len);

/**
 * Quantize-first directional ReLU (the ablation pipeline): y_j =
 * srs(src[j][i], in_shift[j]), butterfly, y_j = max(srs(y_j,
 * mid_shift[j]), 0), butterfly, dst[j][i] = srs(y_j, out_shift[j]).
 */
void dir_relu_qfirst_i32(int32_t* const* dst, const int32_t* const* src,
                         int n, const int* in_shift, const int* mid_shift,
                         const int* out_shift, int bits, int64_t len);

/**
 * Returns max_i |a[i] - b[i]| for i in [0, len) (0 when len <= 0) — the
 * temporal-delta reduction of the streaming video fast path: a tile
 * whose input differs from the cached reference by at most the skip
 * threshold reuses its cached output.
 *
 * Unlike the summing reductions, max over |a-b| is exact (no rounding,
 * order-independent), so every dispatch target returns identical bits
 * with no lane contract needed — provided the inputs are free of NaN.
 * NaN elements are not part of the contract (the AVX2 max and the
 * scalar compare disagree on NaN propagation); tile pixels are finite.
 */
float max_abs_diff_f32(const float* a, const float* b, int64_t len);

/**
 * Returns max_i |a[i] - b[i]| for int8 rows (0 when len <= 0), exact in
 * [0, 255] — the quantized-path twin of max_abs_diff_f32, measured in
 * quantization steps so "delta <= 1 step" is a direct skip test.
 */
int max_abs_diff_i8(const int8_t* a, const int8_t* b, int64_t len);

/**
 * Aligned add of the quantized residual and two-branch joins, exact
 * for every int32 input: dst[i] = sat_bits(srs(a[i], sa, bits + 2) +
 * srs(b[i], sb, bits + 2)), operation for operation the int64
 * QResidualNode / QTwoBranchNode sequence. Rounding right shifts go
 * through the overflow-free (v >> s) + bit (s-1) of v, and left
 * shifts saturate on a pre-compare instead of overflowing, so no
 * bound proof is needed. Requires sa, sb >= -31 and 2 <= bits <= 29
 * (so the bits+2-wide operands and their sum fit int32); dst may
 * alias a or b.
 */
void add_aligned_i32(int32_t* dst, const int32_t* a, const int32_t* b,
                     int64_t len, int sa, int sb, int bits);

/** Name of the dispatched implementation: "avx2" or "generic". */
const char* active_isa();

}  // namespace ringcnn::simd

#endif  // RINGCNN_CORE_SIMD_H
