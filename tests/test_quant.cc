/**
 * @file
 * Tests for the fixed-point machinery: Q-format selection/rounding, the
 * bit-exact on-the-fly directional ReLU (Fig. 8) against the float
 * reference, and end-to-end quantized inference staying close to float
 * for trained and untrained models.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <random>

#include "core/ring_conv.h"
#include "core/ring_conv_engine.h"
#include "core/simd.h"
#include "core/simd_generic.h"
#include "data/tasks.h"
#include "models/backbones.h"
#include "nn/trainer.h"
#include "quant/quant_model.h"
#include "tensor/image_ops.h"

namespace ringcnn::quant {
namespace {

/** Packs every channel pair of the int32 CHW planes `x` and binds the
 *  tap table: one image ready for QuantConvKernel::conv_rows. */
QuantPackedInput
pack_image(const QuantConvKernel& kern, const int32_t* x, int h, int w,
           std::vector<int16_t>* xp, std::vector<simd::PairTap>* tp)
{
    xp->assign(static_cast<size_t>(kern.packed_elems(h, w)), 0);
    tp->assign(static_cast<size_t>(kern.pair_tap_count()), {});
    for (int p = 0; p < (kern.ci() + 1) / 2; ++p) {
        kern.pack_pair(x, h, w, p, xp->data());
    }
    kern.bind_taps(h, w, tp->data());
    return {xp->data(), tp->data(), h, w};
}

TEST(QFormat, ForAbsMaxFits)
{
    for (double m : {0.1, 0.5, 0.99, 1.0, 3.7, 100.0}) {
        const QFormat f = QFormat::for_abs_max(m, 8);
        EXPECT_LE(f.quantize(m), f.max_int());
        EXPECT_GE(f.quantize(-m), f.min_int());
        // One more frac bit would overflow.
        const QFormat tight{8, f.frac + 1};
        EXPECT_GT(std::llround(m * std::ldexp(1.0, tight.frac)),
                  tight.max_int());
    }
}

TEST(QFormat, QuantizeRoundTripError)
{
    const QFormat f = QFormat::for_abs_max(1.0, 8);
    std::mt19937 rng(81);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (int i = 0; i < 200; ++i) {
        const double x = dist(rng);
        const double back = f.dequantize(f.quantize(x));
        EXPECT_LE(std::fabs(back - x), f.scale() * 0.5 + 1e-12);
    }
}

TEST(ShiftRoundSaturate, Behaviour)
{
    EXPECT_EQ(shift_round_saturate(10, 2, 8), 3);    // 10/4 = 2.5 -> 3
    EXPECT_EQ(shift_round_saturate(-10, 2, 8), -2);  // round half up
    EXPECT_EQ(shift_round_saturate(1000, 0, 8), 127);
    EXPECT_EQ(shift_round_saturate(-1000, 0, 8), -128);
    EXPECT_EQ(shift_round_saturate(3, -2, 8), 12);   // left shift
}

TEST(ShiftRoundSaturate, Int32ExtremesAndHalfTies)
{
    // Accumulators at the int32 rim, untouched and requantized.
    EXPECT_EQ(shift_round_saturate(INT32_MAX, 0, 32), INT32_MAX);
    EXPECT_EQ(shift_round_saturate(INT32_MIN, 0, 32), INT32_MIN);
    EXPECT_EQ(shift_round_saturate(INT32_MAX, 24, 8), 127);   // saturates
    EXPECT_EQ(shift_round_saturate(INT32_MIN, 24, 8), -128);
    EXPECT_EQ(shift_round_saturate(INT32_MAX, 25, 8), 64);    // 63.99 -> 64
    // Inputs exactly on the round-to-nearest tie: half rounds UP
    // (toward +inf), for negatives too — the hardware convention the
    // row kernels and the oracle must share.
    EXPECT_EQ(shift_round_saturate(1, 1, 8), 1);     //  0.5 ->  1
    EXPECT_EQ(shift_round_saturate(-1, 1, 8), 0);    // -0.5 ->  0
    EXPECT_EQ(shift_round_saturate(3, 1, 8), 2);     //  1.5 ->  2
    EXPECT_EQ(shift_round_saturate(-3, 1, 8), -1);   // -1.5 -> -1
    EXPECT_EQ(shift_round_saturate(5, 1, 8), 3);     //  2.5 ->  3
    EXPECT_EQ(shift_round_saturate(6, 2, 8), 2);     //  1.5 ->  2
    EXPECT_EQ(shift_round_saturate(-6, 2, 8), -1);   // -1.5 -> -1
}

TEST(QFormat, ExtremesSurviveQuantizeDequantizeRoundTrip)
{
    // Regression for the double round-trip in QFormat::quantize: int8
    // extremes and large-frac formats must come back bit-identical.
    for (const int frac : {0, 4, 7, 20, 40, 200}) {
        const QFormat f{8, frac};
        for (const int64_t v : {INT64_C(-128), INT64_C(-127), INT64_C(-1),
                                INT64_C(0), INT64_C(1), INT64_C(126),
                                INT64_C(127)}) {
            EXPECT_EQ(f.quantize(f.dequantize(v)), v)
                << "frac=" << frac << " v=" << v;
        }
    }
    for (const int frac : {0, 10, 31, 40}) {
        const QFormat f{32, frac};
        for (const int64_t v :
             {static_cast<int64_t>(INT32_MIN), INT64_C(-1), INT64_C(0),
              INT64_C(1), static_cast<int64_t>(INT32_MAX)}) {
            EXPECT_EQ(f.quantize(f.dequantize(v)), v)
                << "frac=" << frac << " v=" << v;
        }
    }
}

TEST(QFormat, HugeFracSaturatesInsteadOfOverflowing)
{
    // frac far beyond the double exponent range: the scaled value is
    // infinite, where llround would be UB — quantize must saturate.
    const QFormat f{8, 1000};
    EXPECT_EQ(f.quantize(1.0), 127);
    EXPECT_EQ(f.quantize(-1.0), -128);
    EXPECT_EQ(f.quantize(0.0), 0);
    // Format search over a subnormal magnitude must stay finite and
    // still fit the value.
    const QFormat g = QFormat::for_abs_max(1e-310, 8);
    EXPECT_LE(g.quantize(1e-310), g.max_int());
    EXPECT_GE(g.quantize(-1e-310), g.min_int());
    EXPECT_EQ(g.quantize(g.dequantize(100)), 100);
}

TEST(QFormat, QuantizeRowMatchesPerElementQuantizeAndLlround)
{
    // quantize_row hoists the 2^frac scale and replaces llround with a
    // truncate-and-compare; both must reproduce per-element quantize()
    // (ldexp + llround) exactly: half-way ties in both signs, the
    // largest double below one half, saturation, NaN, subnormal
    // products, and fracs outside the normal-double range.
    std::vector<float> xs = {0.0f,   -0.0f,  0.5f,     -0.5f,  1.5f,
                             -1.5f,  2.5f,   -2.5f,    0.75f,  -0.75f,
                             1e-30f, -1e-30f, 1e30f,   -1e30f, 127.4f,
                             -128.6f, 3.0e-39f, std::nanf("")};
    std::mt19937 rng(89);
    std::uniform_real_distribution<float> dist(-4.0f, 4.0f);
    for (int i = 0; i < 500; ++i) xs.push_back(dist(rng));
    for (const int bits : {8, 16, 30}) {
        for (const int frac : {-1100, -40, -3, 0, 1, 5, 7, 20, 1100}) {
            const QFormat f{bits, frac};
            std::vector<int64_t> row(xs.size());
            f.quantize_row(xs.data(), static_cast<int64_t>(xs.size()),
                           row.data());
            for (size_t i = 0; i < xs.size(); ++i) {
                EXPECT_EQ(row[i], f.quantize(xs[i]))
                    << "bits=" << bits << " frac=" << frac << " x=" << xs[i];
            }
        }
    }
    const QFormat wide{32, 0};
    for (const double v : {0.49999999999999994, -0.49999999999999994, 0.5,
                           -0.5, 2.5, -2.5, 1e9 + 0.5, -1e9 - 0.5,
                           2147483646.5, -2147483647.5}) {
        EXPECT_EQ(wide.round_saturate(v), std::llround(v)) << v;
    }
}

TEST(SimdPairConv, DispatchedKernelMatchesInt64ReferenceModulo2e32)
{
    // The dispatched channel-pair conv (through QuantConvKernel's
    // packing and tap binding) against a direct int64 "same" conv
    // reduced mod 2^32, over widths that exercise the 8-pixel AVX2
    // blocks and their masked tails, row bands that exercise the
    // 4-row blocks and their remainders, an odd channel count (the
    // zero-padded pair tail), weights at -128/127, all-zero pairs
    // (compiled away) and half-zero pairs, int16-rim inputs, and a
    // bias near INT32_MAX whose accumulators wrap.
    const int co = 3, ci = 5, k = 3, h = 7;
    std::mt19937 rng(88);
    std::uniform_int_distribution<int32_t> wdist(-128, 127);
    std::vector<int32_t> wts(static_cast<size_t>(co) * ci * k * k);
    for (size_t i = 0; i < wts.size(); ++i) {
        const int oc = static_cast<int>(i / (ci * k * k));
        const int ic = static_cast<int>(i / (k * k)) % ci;
        if (oc == 0 && ic < 2) {
            wts[i] = 0;  // channel pair (0, 1) all zero for oc 0
        } else if (oc == 1 && ic == 3) {
            wts[i] = 0;  // pair (2, 3) half zero for oc 1
        } else {
            wts[i] = i % 5 == 0 ? -128 : (i % 7 == 0 ? 127 : wdist(rng));
        }
    }
    const std::vector<int64_t> bias = {INT64_C(2147483647) - 5, -77, 0};
    const QuantConvKernel kern(co, ci, k, wts, bias, {0, 0, 0});
    ASSERT_TRUE(kern.weights_fit());
    // oc 0's all-zero pair is compiled away (9 taps, 2 weights each).
    EXPECT_EQ(kern.sparse_tap_skip_count(), 2 * k * k);

    std::uniform_int_distribution<int32_t> xdist(-32768, 32767);
    for (const int w : {1, 7, 8, 9, 31, 32, 33, 40}) {
        std::vector<int32_t> x(static_cast<size_t>(ci) * h * w);
        for (size_t i = 0; i < x.size(); ++i) {
            x[i] = i % 11 == 0 ? -32768 : (i % 13 == 0 ? 32767 : xdist(rng));
        }
        std::vector<int16_t> xp;
        std::vector<simd::PairTap> tp;
        const QuantPackedInput px = pack_image(kern, x.data(), h, w, &xp, &tp);
        for (const int band : {1, 2, 3, 4, 5, 7}) {
            for (int oc = 0; oc < co; ++oc) {
                for (int y0 = 0; y0 < h; y0 += band) {
                    const int y1 = std::min(y0 + band, h);
                    std::vector<int32_t> got(
                        static_cast<size_t>(y1 - y0) * w, 0);
                    kern.conv_rows(px, oc, y0, y1, got.data());
                    for (int y = y0; y < y1; ++y) {
                        for (int xx = 0; xx < w; ++xx) {
                            int64_t want = bias[static_cast<size_t>(oc)];
                            for (int ic = 0; ic < ci; ++ic) {
                                for (int ky = 0; ky < k; ++ky) {
                                    for (int kx = 0; kx < k; ++kx) {
                                        const int iy = y + ky - 1;
                                        const int ix = xx + kx - 1;
                                        if (iy < 0 || iy >= h || ix < 0 ||
                                            ix >= w) {
                                            continue;
                                        }
                                        want +=
                                            static_cast<int64_t>(
                                                wts[((static_cast<size_t>(oc) *
                                                          ci +
                                                      ic) *
                                                         k +
                                                     ky) *
                                                        k +
                                                    kx]) *
                                            x[(static_cast<size_t>(ic) * h +
                                               iy) *
                                                  w +
                                              ix];
                                    }
                                }
                            }
                            EXPECT_EQ(got[static_cast<size_t>(y - y0) * w +
                                          xx],
                                      static_cast<int32_t>(
                                          static_cast<uint32_t>(want)))
                                << "w=" << w << " band=" << band
                                << " oc=" << oc << " y=" << y
                                << " x=" << xx;
                        }
                    }
                }
            }
        }
    }
}

/** n int32 values over the full range, with the rims and the
 *  rounding-sensitive small values mixed in. */
std::vector<int32_t>
rim_values(size_t n, std::mt19937& rng)
{
    static const int32_t kRim[] = {INT32_MIN, INT32_MAX, 0, -1, 1, 2, -2};
    std::uniform_int_distribution<int32_t> any(INT32_MIN, INT32_MAX);
    std::uniform_int_distribution<int32_t> small(-300, 300);
    std::vector<int32_t> v(n);
    for (size_t i = 0; i < n; ++i) {
        v[i] = i % 5 == 0 ? kRim[(i / 5) % 7]
                          : (i % 3 == 0 ? small(rng) : any(rng));
    }
    return v;
}

// The generic int8 kernels run only where AVX2 is missing and on the
// AVX2 kernels' sub-8-pixel tails; comparing them with the dispatched
// kernels over whole rows checks their identical-bits contract on any
// host (on a host without AVX2 both sides are the generic build).

TEST(SimdGenericKernels, PackingAndPairConvMatchDispatched)
{
    std::mt19937 rng(91);
    std::uniform_int_distribution<int32_t> i16(-32768, 32767);
    std::uniform_int_distribution<int32_t> w8(-128, 127);
    const int max_rows = 7;
    for (const int w : {1, 7, 8, 9, 31, 32, 33, 40}) {
        std::vector<int32_t> a(static_cast<size_t>(w));
        std::vector<int32_t> b(static_cast<size_t>(w));
        for (int i = 0; i < w; ++i) {
            a[static_cast<size_t>(i)] = i % 4 == 0 ? -32768 : i16(rng);
            b[static_cast<size_t>(i)] = i % 4 == 1 ? 32767 : i16(rng);
        }
        for (const bool odd_tail : {false, true}) {
            std::vector<int16_t> got(2 * static_cast<size_t>(w), 7);
            std::vector<int16_t> want(2 * static_cast<size_t>(w), 9);
            const int32_t* pb = odd_tail ? nullptr : b.data();
            simd::pack_pairs_i16(got.data(), a.data(), pb, w);
            simd::generic::pack_pairs_i16(want.data(), a.data(), pb, w);
            EXPECT_EQ(got, want) << "w=" << w << " odd_tail=" << odd_tail;
        }

        // A 3x3 window over a padded row pitch, 9 taps with full-range,
        // half-zero and -128/127 weight pairs, and a wrapping bias.
        const int64_t pitch = 2 * (static_cast<int64_t>(w) + 2);
        std::vector<int16_t> src(
            static_cast<size_t>((max_rows + 2) * pitch +
                                simd::kPairConvSlack));
        for (size_t i = 0; i < src.size(); ++i) {
            src[i] = static_cast<int16_t>(
                i % 9 == 0 ? -32768 : (i % 11 == 0 ? 32767 : i16(rng)));
        }
        std::vector<simd::PairTap> taps;
        for (int ky = 0; ky < 3; ++ky) {
            for (int kx = 0; kx < 3; ++kx) {
                const int t = ky * 3 + kx;
                const int32_t lo = t == 0 ? -128 : (t == 4 ? 0 : w8(rng));
                const int32_t hi = t == 0 ? 127 : (t == 7 ? 0 : w8(rng));
                taps.push_back({static_cast<int32_t>(ky * pitch + 2 * kx),
                                simd::pair_weight(lo, hi)});
            }
        }
        for (int rows = 1; rows <= max_rows; ++rows) {
            for (const int32_t bias : {INT32_MAX - 5, -77}) {
                const size_t n = static_cast<size_t>(rows) * w;
                std::vector<int32_t> got(n, 1), want(n, 2);
                simd::conv_pairs_i16(got.data(), w, src.data(), pitch,
                                     taps.data(),
                                     static_cast<int>(taps.size()), bias,
                                     rows, w);
                simd::generic::conv_pairs_i16(
                    want.data(), w, src.data(), pitch, taps.data(),
                    static_cast<int>(taps.size()), bias, rows, w);
                EXPECT_EQ(got, want)
                    << "w=" << w << " rows=" << rows << " bias=" << bias;
            }
        }
    }
}

TEST(SimdGenericKernels, EpiloguesAndAlignedAddMatchDispatched)
{
    // Full-range int32 inputs: both builds wrap and saturate the same
    // way, so they agree bit for bit even outside the bound the
    // executor proves before compiling onto the epilogues.
    std::mt19937 rng(92);
    std::uniform_int_distribution<int> any_shift(-31, 31);
    std::uniform_int_distribution<int> align_shift(0, 31);
    for (const int len : {1, 7, 8, 9, 31, 32, 33, 40}) {
        const size_t n = static_cast<size_t>(len);
        const std::vector<int32_t> a = rim_values(n, rng);
        const std::vector<int32_t> b = rim_values(n, rng);
        std::vector<int32_t> got(n), want(n);

        for (const int shift : {-31, -9, -1, 0, 1, 5, 17, 31}) {
            for (const int bits : {2, 8, 16, 31}) {
                for (const bool relu_first : {false, true}) {
                    simd::requant_i32(got.data(), a.data(), len, shift, bits,
                                      relu_first);
                    simd::generic::requant_i32(want.data(), a.data(), len,
                                               shift, bits, relu_first);
                    EXPECT_EQ(got, want)
                        << "requant len=" << len << " shift=" << shift
                        << " bits=" << bits << " relu_first=" << relu_first;
                }
            }
        }

        for (const int sa : {-31, -3, 0, 2, 31, 40}) {
            for (const int sb : {-20, 0, 1, 33}) {
                for (const int bits : {2, 8, 29}) {
                    simd::add_aligned_i32(got.data(), a.data(), b.data(), len,
                                          sa, sb, bits);
                    simd::generic::add_aligned_i32(want.data(), a.data(),
                                                   b.data(), len, sa, sb,
                                                   bits);
                    EXPECT_EQ(got, want) << "add len=" << len << " sa=" << sa
                                         << " sb=" << sb << " bits=" << bits;
                }
            }
        }

        for (const int tn : {1, 2, 4, 8, 16}) {
            std::vector<std::vector<int32_t>> in, out_got, out_want;
            std::vector<const int32_t*> srcs;
            std::vector<int32_t*> dg, dw;
            for (int j = 0; j < tn; ++j) {
                in.push_back(rim_values(n, rng));
                out_got.emplace_back(n);
                out_want.emplace_back(n);
            }
            for (int j = 0; j < tn; ++j) {
                srcs.push_back(in[static_cast<size_t>(j)].data());
                dg.push_back(out_got[static_cast<size_t>(j)].data());
                dw.push_back(out_want[static_cast<size_t>(j)].data());
            }
            for (const int bits : {8, 16, 31}) {
                std::vector<int> s1(static_cast<size_t>(tn));
                std::vector<int> s2(static_cast<size_t>(tn));
                std::vector<int> s3(static_cast<size_t>(tn));
                for (int j = 0; j < tn; ++j) {
                    s1[static_cast<size_t>(j)] = align_shift(rng);
                    s2[static_cast<size_t>(j)] = any_shift(rng);
                    s3[static_cast<size_t>(j)] = any_shift(rng);
                }
                simd::dir_relu_otf_i32(dg.data(), srcs.data(), tn, s1.data(),
                                       s2.data(), bits, len);
                simd::generic::dir_relu_otf_i32(dw.data(), srcs.data(), tn,
                                                s1.data(), s2.data(), bits,
                                                len);
                EXPECT_EQ(out_got, out_want)
                    << "otf len=" << len << " n=" << tn << " bits=" << bits;

                // The quantize-first pipeline takes signed in shifts.
                s1[0] = -s1[0];
                simd::dir_relu_qfirst_i32(dg.data(), srcs.data(), tn,
                                          s1.data(), s2.data(), s3.data(),
                                          bits, len);
                simd::generic::dir_relu_qfirst_i32(
                    dw.data(), srcs.data(), tn, s1.data(), s2.data(),
                    s3.data(), bits, len);
                EXPECT_EQ(out_got, out_want)
                    << "qfirst len=" << len << " n=" << tn
                    << " bits=" << bits;
            }
        }
    }
}

TEST(QuantConvKernel, AccumulatorsAtInt32ExtremesMatchOracle)
{
    // One 1x1 conv whose accumulator touches INT32_MAX exactly and one
    // that reaches INT32_MIN + 1: the int32 row kernels must preserve
    // the rim values bit for bit against the int64 oracle.
    const int co = 2, ci = 1, k = 1, h = 3, w = 5;
    const std::vector<int32_t> wts = {-128, 127};  // [co][ci][1][1]
    const std::vector<int64_t> bias = {
        INT64_C(2147483647) - 128 * 128,   // + (-128)*(-128) == INT32_MAX
        INT64_C(-2147483647) + 127 * 128,  // + 127*(-128) == INT32_MIN+1
    };
    const std::vector<int> out_frac = {7, 7};
    const QuantConvKernel kern(co, ci, k, wts, bias, out_frac);
    EXPECT_TRUE(kern.weights_fit());
    EXPECT_TRUE(kern.int32_safe(8));

    quant::QConvNode oracle;
    oracle.co = co;
    oracle.ci = ci;
    oracle.k = k;
    oracle.w = wts;
    oracle.bias = bias;
    oracle.out_frac = out_frac;

    QAct in;
    in.shape = {ci, h, w};
    in.frac = {0};
    in.v = {-128, 127, 0, -1, 1,  //
            64,   -64, 2, -2, 127,
            -128, -128, 127, 3, -3};
    const QAct want = oracle.forward(in);

    std::vector<int32_t> x32(in.v.begin(), in.v.end());
    std::vector<int16_t> xp;
    std::vector<simd::PairTap> tp;
    pack_image(kern, x32.data(), h, w, &xp, &tp);
    // Every row banding must agree with the whole-plane oracle.
    for (const int band : {1, 2, 3}) {
        for (int oc = 0; oc < co; ++oc) {
            for (int y0 = 0; y0 < h; y0 += band) {
                const int y1 = std::min(y0 + band, h);
                std::vector<int32_t> rows(
                    static_cast<size_t>(y1 - y0) * w, 0);
                kern.conv_rows({xp.data(), tp.data(), h, w}, oc, y0, y1,
                               rows.data());
                for (int y = y0; y < y1; ++y) {
                    for (int xx = 0; xx < w; ++xx) {
                        EXPECT_EQ(
                            rows[static_cast<size_t>(y - y0) * w + xx],
                            want.at(oc, y, xx))
                            << "band=" << band << " oc=" << oc << " y=" << y
                            << " x=" << xx;
                    }
                }
            }
        }
    }
    // Rim values really are hit.
    EXPECT_EQ(want.at(0, 0, 0), INT32_MAX);
    EXPECT_EQ(want.at(1, 0, 0), INT32_MIN + 1);

    // A bound past the rim must be rejected for the engine path.
    const std::vector<int64_t> hot_bias = {INT64_C(2147483647), 0};
    const QuantConvKernel unsafe(co, ci, k, wts, hot_bias, out_frac);
    EXPECT_FALSE(unsafe.int32_safe(8));
}

TEST(OnTheFlyDirRelu, ExtremeFracSpreadsAlignExactly)
{
    // frac widths that force align LEFT shifts (ny spread of 20 bits)
    // and output shifts in BOTH directions (nx above and below
    // fmax + log2 n). The independent straight-line reference below
    // repeats the Fig. 8 pipeline in exact double arithmetic (all
    // magnitudes < 2^53), so equality must be exact.
    const int n = 4;
    const std::vector<int> ny{0, 20, 5, 9};
    const std::vector<int> nx{25, 2, 12, 30};
    const std::vector<int64_t> y{3, -700000, 17, -250};
    std::vector<int64_t> out;
    onthefly_directional_relu(y, ny, nx, n, out, 32);

    const int fmax = 20;
    double t[4];
    for (int i = 0; i < n; ++i) {
        t[static_cast<size_t>(i)] = static_cast<double>(y[static_cast<size_t>(i)]) *
            std::ldexp(1.0, fmax - ny[static_cast<size_t>(i)]);
    }
    auto butterfly = [&t]() {
        const double a = t[0] + t[1], b = t[0] - t[1];
        const double c = t[2] + t[3], d = t[2] - t[3];
        t[0] = a + c;
        t[1] = b + d;
        t[2] = a - c;
        t[3] = b - d;
    };
    butterfly();
    for (double& v : t) v = v > 0.0 ? v : 0.0;
    butterfly();
    for (int i = 0; i < n; ++i) {
        const int64_t expected = shift_round_saturate(
            static_cast<int64_t>(t[static_cast<size_t>(i)]),
            fmax + 2 - nx[static_cast<size_t>(i)], 32);
        EXPECT_EQ(out[static_cast<size_t>(i)], expected) << "component " << i;
    }
}

TEST(OnTheFlyDirRelu, MatchesFloatReference)
{
    // The integer pipeline must equal quantize(fH_float(y)) whenever no
    // saturation occurs: full-precision internals guarantee it.
    const int n = 4;
    const auto [u, v] = fh_transforms(n);
    std::mt19937 rng(82);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<int> ny{12, 14, 13, 12}, nx{6, 7, 6, 5};
        std::vector<int64_t> y(4);
        std::vector<double> yf(4);
        for (int i = 0; i < 4; ++i) {
            yf[static_cast<size_t>(i)] = dist(rng);
            y[static_cast<size_t>(i)] = std::llround(
                yf[static_cast<size_t>(i)] *
                std::ldexp(1.0, ny[static_cast<size_t>(i)]));
            yf[static_cast<size_t>(i)] =
                y[static_cast<size_t>(i)] *
                std::ldexp(1.0, -ny[static_cast<size_t>(i)]);
        }
        // float reference: (1/n) H fcw(H y)
        Tensor t({4, 1, 1});
        for (int i = 0; i < 4; ++i) {
            t.at(i, 0, 0) = static_cast<float>(yf[static_cast<size_t>(i)]);
        }
        const Tensor ref = directional_relu(u, v, t);
        std::vector<int64_t> out;
        onthefly_directional_relu(y, ny, nx, n, out, 16);
        for (int i = 0; i < 4; ++i) {
            const double want = ref.at(i, 0, 0);
            const double got =
                out[static_cast<size_t>(i)] *
                std::ldexp(1.0, -nx[static_cast<size_t>(i)]);
            EXPECT_NEAR(got, want,
                        std::ldexp(1.0, -nx[static_cast<size_t>(i)]) * 0.51);
        }
    }
}

TEST(OnTheFlyDirRelu, SaturatesTo8Bit)
{
    std::vector<int64_t> y{1 << 20, 0, 0, 0};
    std::vector<int> ny{4, 4, 4, 4}, nx{4, 4, 4, 4};
    std::vector<int64_t> out;
    onthefly_directional_relu(y, ny, nx, 4, out, 8);
    for (int i = 0; i < 4; ++i) {
        EXPECT_LE(out[static_cast<size_t>(i)], 127);
        EXPECT_GE(out[static_cast<size_t>(i)], -128);
    }
}

class QuantModelTest : public ::testing::Test
{
  protected:
    static std::vector<Tensor> calib()
    {
        std::mt19937 rng(83);
        std::vector<Tensor> out;
        for (int i = 0; i < 3; ++i) {
            out.push_back(data::synthetic_image(3, 16, 16, rng));
        }
        return out;
    }
};

TEST_F(QuantModelTest, RealDenoiserCloseToFloat)
{
    models::ErnetConfig mc;
    mc.channels = 8;
    mc.blocks = 1;
    nn::Model m = models::build_dn_ernet_pu(models::Algebra::real(), mc);
    QuantizedModel qm(m, calib());
    std::mt19937 rng(84);
    const Tensor x = data::synthetic_image(3, 16, 16, rng);
    const Tensor yf = m.forward(x);
    const Tensor yq = qm.forward(x);
    EXPECT_EQ(yq.shape(), yf.shape());
    // Quantization PSNR between float and fixed must be high.
    EXPECT_GT(psnr(yf, yq), 30.0);
}

TEST_F(QuantModelTest, RingFhModelCloseToFloat)
{
    models::ErnetConfig mc;
    mc.channels = 8;
    mc.blocks = 1;
    nn::Model m =
        models::build_dn_ernet_pu(models::Algebra::with_fh("RI4"), mc);
    QuantizedModel qm(m, calib());
    std::mt19937 rng(85);
    const Tensor x = data::synthetic_image(3, 16, 16, rng);
    EXPECT_GT(psnr(m.forward(x), qm.forward(x)), 32.0);
}

TEST_F(QuantModelTest, SrModelWithBilinearSkip)
{
    nn::Model m = models::build_srresnet(models::Algebra::with_fh("RI2"), 8, 1);
    std::mt19937 rng(86);
    std::vector<Tensor> cal;
    for (int i = 0; i < 2; ++i) {
        cal.push_back(data::synthetic_image(3, 8, 8, rng));
    }
    QuantizedModel qm(m, cal);
    const Tensor x = data::synthetic_image(3, 8, 8, rng);
    const Tensor yf = m.forward(x);
    const Tensor yq = qm.forward(x);
    EXPECT_EQ(yq.shape(), (Shape{3, 32, 32}));
    EXPECT_GT(psnr(yf, yq), 30.0);
}

TEST_F(QuantModelTest, TrainedModelSmallQuantDrop)
{
    // After short training, quantized PSNR on the task must be within a
    // reasonable drop of the float PSNR (paper Fig. 13: ~0.11 dB at full
    // scale; we allow a looser bound at laptop scale).
    const data::DenoiseTask task(25.0f / 255.0f);
    models::ErnetConfig mc;
    mc.channels = 8;
    mc.blocks = 1;
    nn::Model m =
        models::build_dn_ernet_pu(models::Algebra::with_fh("RI4"), mc);
    nn::TrainConfig cfg;
    cfg.steps = 200;
    cfg.eval_count = 4;
    const auto res = nn::train_on_task(m, task, cfg);

    const auto eval = data::make_eval_set(task, 4, 48, 48, cfg.seed + 999);
    QuantizedModel qm(m, calib());
    double qpsnr = 0.0;
    for (const auto& [in, tgt] : eval) {
        qpsnr += psnr(clamp(qm.forward(in), 0, 1), tgt);
    }
    qpsnr /= eval.size();
    EXPECT_GT(qpsnr, res.psnr_db - 0.6)
        << "float " << res.psnr_db << " vs quant " << qpsnr;
}

TEST_F(QuantModelTest, OnTheFlyBeatsQuantizeFirst)
{
    // The ablation of Section V: the quantize-before-transform pipeline
    // must not be better than the on-the-fly pipeline (usually worse).
    const data::DenoiseTask task(25.0f / 255.0f);
    models::ErnetConfig mc;
    mc.channels = 8;
    mc.blocks = 1;
    nn::Model m =
        models::build_dn_ernet_pu(models::Algebra::with_fh("RI4"), mc);
    nn::TrainConfig cfg;
    cfg.steps = 200;
    cfg.eval_count = 4;
    nn::train_on_task(m, task, cfg);

    QuantOptions otf;
    QuantOptions qfirst;
    qfirst.onthefly_dir_relu = false;
    QuantizedModel qm_otf(m, calib(), otf);
    QuantizedModel qm_qf(m, calib(), qfirst);

    const auto eval = data::make_eval_set(task, 4, 48, 48, 777);
    double p_otf = 0.0, p_qf = 0.0;
    for (const auto& [in, tgt] : eval) {
        p_otf += psnr(clamp(qm_otf.forward(in), 0, 1), tgt);
        p_qf += psnr(clamp(qm_qf.forward(in), 0, 1), tgt);
    }
    EXPECT_GE(p_otf, p_qf - 0.02 * eval.size());
}

TEST_F(QuantModelTest, ComponentwiseQHelpsDirectionalRelu)
{
    // Section IV-C: with fH, single per-layer Q-formats saturate some
    // components; component-wise Q must not be worse.
    models::ErnetConfig mc;
    mc.channels = 8;
    mc.blocks = 1;
    nn::Model m =
        models::build_dn_ernet_pu(models::Algebra::with_fh("RI4"), mc);
    const data::DenoiseTask task(25.0f / 255.0f);
    nn::TrainConfig cfg;
    cfg.steps = 200;
    cfg.eval_count = 4;
    nn::train_on_task(m, task, cfg);

    QuantOptions cw;
    QuantOptions uni;
    uni.componentwise_q = false;
    QuantizedModel qm_cw(m, calib(), cw);
    QuantizedModel qm_uni(m, calib(), uni);
    const auto eval = data::make_eval_set(task, 4, 48, 48, 778);
    double p_cw = 0.0, p_uni = 0.0;
    for (const auto& [in, tgt] : eval) {
        p_cw += psnr(clamp(qm_cw.forward(in), 0, 1), tgt);
        p_uni += psnr(clamp(qm_uni.forward(in), 0, 1), tgt);
    }
    EXPECT_GE(p_cw, p_uni - 0.02 * eval.size());
}

TEST_F(QuantModelTest, OpLogReflectsFusion)
{
    models::ErnetConfig mc;
    mc.channels = 8;
    mc.blocks = 1;
    nn::Model m =
        models::build_dn_ernet_pu(models::Algebra::with_fh("RI4"), mc);
    QuantizedModel qm(m, calib());
    const auto ops = qm.op_names();
    bool has_otf = false;
    for (const auto& o : ops) {
        if (o == "dir-relu(otf)") has_otf = true;
    }
    EXPECT_TRUE(has_otf);
}

}  // namespace
}  // namespace ringcnn::quant
