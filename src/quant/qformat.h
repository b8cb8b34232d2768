/**
 * @file
 * Q-format fixed-point primitives (ARM Q-notation, paper ref. [1]):
 * a signed `bits`-wide integer with `frac` fractional bits represents
 * v * 2^-frac. Dynamic quantization picks per-layer (and, for the
 * directional ReLU, per-component) fractional widths from observed
 * ranges, exactly as in Section IV-C.
 */
#ifndef RINGCNN_QUANT_QFORMAT_H
#define RINGCNN_QUANT_QFORMAT_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace ringcnn::quant {

/** Signed fixed-point format: `bits` total bits, `frac` fractional. */
struct QFormat
{
    int bits = 8;
    int frac = 0;

    int64_t max_int() const { return (1LL << (bits - 1)) - 1; }
    int64_t min_int() const { return -(1LL << (bits - 1)); }
    double scale() const { return std::ldexp(1.0, -frac); }

    /**
     * Quantizes a real value: round-to-nearest, saturate. The scaling
     * is a single exact ldexp (not a multiply by 2^frac, which turns
     * into 0 * inf = NaN for extreme frac), and saturation happens in
     * the double domain BEFORE llround — large-frac formats can push a
     * finite input past the int64 range, where llround is undefined.
     * NaN quantizes to 0.
     */
    int64_t quantize(double x) const
    {
        return round_saturate(std::ldexp(x, frac));
    }

    /**
     * quantize() over a row with the scaling hoisted out of the loop.
     * While 2^frac is a normal double, x * 2^frac rounds exactly as
     * ldexp(x, frac) does (one rounding of the same exact product;
     * both overflow to inf), so the row drops the per-element ldexp
     * call and stays bit-identical to per-element quantize().
     */
    template <typename Out>
    void quantize_row(const float* x, int64_t n, Out* out) const
    {
        if (frac < -1022 || frac > 1023) {
            for (int64_t i = 0; i < n; ++i) {
                out[i] = static_cast<Out>(quantize(x[i]));
            }
            return;
        }
        const double scale = std::ldexp(1.0, frac);
        for (int64_t i = 0; i < n; ++i) {
            out[i] = static_cast<Out>(
                round_saturate(static_cast<double>(x[i]) * scale));
        }
    }

    /** The rounding half of quantize(): round half away from zero
     *  (llround), saturate, NaN to 0. */
    int64_t round_saturate(double scaled) const
    {
        if (std::isnan(scaled)) return 0;
        if (scaled >= static_cast<double>(max_int())) return max_int();
        if (scaled <= static_cast<double>(min_int())) return min_int();
        if (bits > 52) return std::llround(scaled);
        // |scaled| < 2^51 here: the truncation is exact in int64 and
        // the fraction scaled - t is exact in double, so comparing it
        // against one half reproduces llround without the libm call.
        // Branch-free: the fraction's sign is data-dependent.
        const int64_t t = static_cast<int64_t>(scaled);
        const double f = scaled - static_cast<double>(t);
        return t + static_cast<int64_t>(f >= 0.5) -
               static_cast<int64_t>(f <= -0.5);
    }

    /** Real value of a raw integer in this format. */
    double dequantize(int64_t v) const { return static_cast<double>(v) * scale(); }

    /**
     * Largest frac such that `abs_max` still fits: the dynamic-range
     * rule of per-layer dynamic quantization.
     */
    static QFormat for_abs_max(double abs_max, int bits = 8)
    {
        // need abs_max * 2^frac <= 2^(bits-1) - 1
        int frac = bits - 1;
        if (abs_max > 0.0) {
            const double limit = static_cast<double>((1LL << (bits - 1)) - 1);
            // Clamp before the int cast: subnormal abs_max makes the
            // quotient (and its log2) overflow to inf.
            const double f0 = std::floor(std::log2(limit / abs_max));
            frac = static_cast<int>(std::clamp(f0, -1100.0, 1100.0));
            // Guard against rounding pushing us over the edge. Compare
            // in double: llround(abs_max * 2^frac) is undefined once
            // the scaled value leaves the int64 range. round-to-nearest
            // exceeds `limit` exactly when the scaled value >= limit+0.5.
            while (std::ldexp(abs_max, frac) >= limit + 0.5) --frac;
        }
        return {bits, frac};
    }
};

/** Smallest b with 2^b >= n (n positive): tuple-width log helper. */
inline int
ceil_log2(int n)
{
    int b = 0;
    while ((1 << b) < n) ++b;
    return b;
}

/**
 * In-place Walsh-Hadamard butterfly (Sylvester order) over an n-tuple,
 * integer exact. The single definition shared by the scalar
 * QDirReluNode oracle and the executor's fused integer epilogue — the
 * bit-exactness contract between the two paths depends on both running
 * this exact traversal (including its int64 overflow wrap behavior).
 */
inline void
wht_inplace(int64_t* x, int n)
{
    for (int len = 1; len < n; len <<= 1) {
        for (int i = 0; i < n; i += len << 1) {
            for (int j = i; j < i + len; ++j) {
                const int64_t a = x[j];
                const int64_t b = x[j + len];
                x[j] = a + b;
                x[j + len] = a - b;
            }
        }
    }
}

/**
 * Right-shift with round-half-up and saturation to `bits`:
 * the requantization step used throughout the fixed-point datapath
 * (and modelled bit-exactly by the accelerator simulator).
 */
inline int64_t
shift_round_saturate(int64_t v, int shift, int bits)
{
    if (shift > 0) {
        v = (v + (1LL << (shift - 1))) >> shift;
    } else if (shift < 0) {
        // Shift through uint64: left-shifting a negative signed value
        // is UB before C++20; the unsigned shift produces the same
        // two's-complement bits.
        v = static_cast<int64_t>(static_cast<uint64_t>(v) << -shift);
    }
    const int64_t hi = (1LL << (bits - 1)) - 1;
    const int64_t lo = -(1LL << (bits - 1));
    return std::clamp(v, lo, hi);
}

}  // namespace ringcnn::quant

#endif  // RINGCNN_QUANT_QFORMAT_H
