/**
 * @file
 * Test-local scalar fp32 FRCONV reference (paper eq. (6)-(8)), the
 * per-element operation sequence RingConvEngine's fp32 band pass
 * promises, written as plain loops with no SIMD, fusion, aliasing,
 * banding or tap tables:
 *
 *   1. Tx transform of every input tuple (ascending j, zero
 *      coefficients skipped);
 *   2. per-component conv, accumulating in (ci, ky, kx) order and
 *      skipping zero transformed taps (g~ derived in double over the
 *      ring components, then rounded to float, as the engine does);
 *   3. bias plus the nonzero Tz terms (ascending r);
 *   4. the epilogue: ReLU, or y -> U relu(V y) per n-tuple.
 *
 * Every accumulator starts from +0.0, so the engine (whose fused row
 * passes start from their first term) may differ in the sign of an
 * exact zero — compare with expect_equal_up_to_zero_sign.
 */
#ifndef RINGCNN_TESTS_FRCONV_REFERENCE_H
#define RINGCNN_TESTS_FRCONV_REFERENCE_H

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/ring_conv_engine.h"
#include "nn/layer.h"
#include "plan/graph_ir.h"

namespace ringcnn::testing_ref {

inline Tensor
frconv_reference_f32(const Ring& ring, const RingConvWeights& w,
                     const std::vector<float>& bias, const Tensor& x,
                     ConvEpilogue ep = ConvEpilogue::kNone,
                     const Matd* u = nullptr, const Matd* v = nullptr)
{
    const FastAlgorithm& fa = ring.fast;
    const int n = ring.n, m = fa.m();
    const int ci_t = w.ci_t, co_t = w.co_t, k = w.k, pad = k / 2;
    const int h = x.dim(1), wd = x.dim(2);
    const size_t plane = static_cast<size_t>(h) * wd;

    // 1. xt[ci][r] = sum_j Tx[r][j] x[ci][j]
    std::vector<float> xt(static_cast<size_t>(ci_t) * m * plane, 0.0f);
    for (int ci = 0; ci < ci_t; ++ci) {
        for (int r = 0; r < m; ++r) {
            float* dst = xt.data() + (static_cast<size_t>(ci) * m + r) * plane;
            for (int j = 0; j < n; ++j) {
                const float c = static_cast<float>(fa.tx.at(r, j));
                if (c == 0.0f) continue;
                const float* src =
                    x.data() + (static_cast<size_t>(ci) * n + j) * plane;
                for (size_t p = 0; p < plane; ++p) dst[p] += c * src[p];
            }
        }
    }

    Tensor out({co_t * n, h, wd});
    std::vector<float> z(static_cast<size_t>(m) * plane);
    for (int co = 0; co < co_t; ++co) {
        // 2. z[r] = sum_{ci,ky,kx} g~[co][r][ci][ky][kx] * xt[ci][r]
        for (int r = 0; r < m; ++r) {
            for (int y = 0; y < h; ++y) {
                for (int xx = 0; xx < wd; ++xx) {
                    float acc = 0.0f;
                    for (int ci = 0; ci < ci_t; ++ci) {
                        for (int ky = 0; ky < k; ++ky) {
                            for (int kx = 0; kx < k; ++kx) {
                                double gd = 0.0;
                                for (int c = 0; c < n; ++c) {
                                    gd += fa.tg.at(r, c) *
                                          w.at(co, ci, ky, kx, c);
                                }
                                const float g = static_cast<float>(gd);
                                const int sy = y + ky - pad;
                                const int sx = xx + kx - pad;
                                if (g == 0.0f || sy < 0 || sy >= h ||
                                    sx < 0 || sx >= wd) {
                                    continue;
                                }
                                acc += g * xt[(static_cast<size_t>(ci) * m +
                                               r) * plane +
                                              static_cast<size_t>(sy) * wd +
                                              sx];
                            }
                        }
                    }
                    z[static_cast<size_t>(r) * plane +
                      static_cast<size_t>(y) * wd + xx] = acc;
                }
            }
        }
        // 3. out[i] = bias[i] + sum_r Tz[i][r] z[r]
        for (int i = 0; i < n; ++i) {
            const float b =
                bias.empty() ? 0.0f : bias[static_cast<size_t>(co) * n + i];
            float* dst = out.data() + (static_cast<size_t>(co) * n + i) * plane;
            for (size_t p = 0; p < plane; ++p) {
                float acc = b;
                for (int r = 0; r < m; ++r) {
                    const float c = static_cast<float>(fa.tz.at(i, r));
                    if (c != 0.0f) {
                        acc += c * z[static_cast<size_t>(r) * plane + p];
                    }
                }
                dst[p] = acc;
            }
        }
        // 4. epilogue
        for (size_t p = 0; p < plane; ++p) {
            float* o = out.data() + static_cast<size_t>(co) * n * plane + p;
            float yv[kMaxTuple], tv[kMaxTuple];
            for (int i = 0; i < n; ++i) yv[i] = o[i * plane];
            if (ep == ConvEpilogue::kRelu) {
                for (int i = 0; i < n; ++i) yv[i] = yv[i] > 0.0f ? yv[i] : 0.0f;
            } else if (ep == ConvEpilogue::kDirectional) {
                for (int i = 0; i < n; ++i) {
                    float acc = 0.0f;
                    for (int j = 0; j < n; ++j) {
                        acc += static_cast<float>(v->at(i, j)) * yv[j];
                    }
                    tv[i] = acc > 0.0f ? acc : 0.0f;
                }
                for (int i = 0; i < n; ++i) {
                    float acc = 0.0f;
                    for (int j = 0; j < n; ++j) {
                        acc += static_cast<float>(u->at(i, j)) * tv[j];
                    }
                    yv[i] = acc;
                }
            }
            for (int i = 0; i < n; ++i) o[i * plane] = yv[i];
        }
    }
    return out;
}

/**
 * Walks an fp32 plan (nn::ModelExecutor::plan()) op by op: ring convs
 * (with their fused epilogue) through frconv_reference_f32, adds as
 * plain tensor sums, every other op through its layer's forward (plus
 * the ReLU a dense conv absorbed).
 */
inline Tensor
plan_reference_f32(const plan::GraphPlan& gp, const Tensor& x)
{
    std::vector<Tensor> vals(static_cast<size_t>(gp.num_values));
    vals[static_cast<size_t>(gp.entry_value)] = x;
    for (const plan::OpIR& op : gp.ops) {
        if (op.fused) continue;
        const Tensor& in = vals[static_cast<size_t>(op.in0)];
        Tensor& out = vals[static_cast<size_t>(op.out)];
        switch (op.kind) {
        case plan::OpKind::kRingConv: {
            auto* rc = static_cast<nn::RingConv2d*>(const_cast<void*>(op.node));
            ConvEpilogue ep = ConvEpilogue::kNone;
            const Matd* u = nullptr;
            const Matd* v = nullptr;
            if (op.epilogue == plan::Epilogue::kRelu) {
                ep = ConvEpilogue::kRelu;
            } else if (op.epilogue == plan::Epilogue::kDirRelu) {
                const auto* dr =
                    static_cast<const nn::DirectionalReLU*>(op.epilogue_node);
                ep = ConvEpilogue::kDirectional;
                u = &dr->u();
                v = &dr->v();
            }
            out = frconv_reference_f32(rc->ring(), rc->weights(), rc->bias(),
                                       in, ep, u, v);
            break;
        }
        case plan::OpKind::kResidualAdd:
        case plan::OpKind::kBranchAdd: {
            Tensor sum = in;
            sum += vals[static_cast<size_t>(op.in1)];
            out = std::move(sum);
            break;
        }
        default:
            out = static_cast<nn::Layer*>(const_cast<void*>(op.node))
                      ->forward(in, false);
            if (op.epilogue == plan::Epilogue::kRelu) {  // dense conv
                for (int64_t i = 0; i < out.numel(); ++i) {
                    out[i] = out[i] > 0.0f ? out[i] : 0.0f;
                }
            }
            break;
        }
    }
    return vals[static_cast<size_t>(gp.out_value)];
}

/** Bitwise equality up to the sign of exact zeros (the documented
 *  difference between the engine's fused accumulators and the
 *  +0.0-started reference). */
inline void
expect_equal_up_to_zero_sign(const Tensor& got, const Tensor& want,
                             const std::string& label)
{
    ASSERT_EQ(got.shape(), want.shape()) << label;
    for (int64_t i = 0; i < want.numel(); ++i) {
        if (got[i] == 0.0f && want[i] == 0.0f) continue;  // +-0
        ASSERT_EQ(std::memcmp(got.data() + i, want.data() + i, sizeof(float)),
                  0)
            << label << " at " << i << ": " << got[i] << " vs " << want[i];
    }
}

}  // namespace ringcnn::testing_ref

#endif  // RINGCNN_TESTS_FRCONV_REFERENCE_H
