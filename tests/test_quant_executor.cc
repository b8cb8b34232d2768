/**
 * @file
 * Bit-exactness suite for the quantized engine path: the compiled
 * QuantExecutor (int8 weights over int16 channel pairs, int32
 * accumulators, fused int32-lane Fig. 8 epilogues) must reproduce the
 * scalar QNode oracle walk raw integer by raw integer — never tolerance-
 * compared — across every registered ring, odd/even image sizes,
 * k in {1, 3}, the on-the-fly vs quantize-first directional-ReLU
 * pipelines, component-wise vs uniform Q-formats, and thread counts,
 * plus ~100 seeded random (weights, Q-format, input) draws and the
 * full ERNet-PU / SRResNet graphs (pad/crop/shuffle/residual/
 * two-branch/bilinear nodes).
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>

#include "core/ring_conv.h"
#include "data/synthetic.h"
#include "models/backbones.h"
#include "nn/layer.h"
#include "nn/model.h"
#include "quant/quant_executor.h"
#include "quant/quant_model.h"

namespace ringcnn::quant {
namespace {

/** RAII override of RINGCNN_THREADS (POSIX setenv). */
class ThreadsEnv
{
  public:
    explicit ThreadsEnv(int n)
    {
        const char* old = std::getenv("RINGCNN_THREADS");
        if (old != nullptr) saved_ = old;
        had_ = old != nullptr;
        setenv("RINGCNN_THREADS", std::to_string(n).c_str(), 1);
    }
    ~ThreadsEnv()
    {
        if (had_) {
            setenv("RINGCNN_THREADS", saved_.c_str(), 1);
        } else {
            unsetenv("RINGCNN_THREADS");
        }
    }

  private:
    std::string saved_;
    bool had_ = false;
};

/** Ring conv + fH directional ReLU backbone over `layers` layers. */
nn::Model
ring_backbone(const Ring& ring, int tuple_channels, int layers, int k,
              unsigned seed)
{
    std::mt19937 rng(seed);
    const auto [u, v] = fh_transforms(ring.n);
    auto seq = std::make_unique<nn::Sequential>();
    for (int l = 0; l < layers; ++l) {
        seq->add(std::make_unique<nn::RingConv2d>(ring, tuple_channels,
                                                  tuple_channels, k, rng));
        seq->add(std::make_unique<nn::DirectionalReLU>(u, v));
    }
    return nn::Model("quant-exec-backbone", std::move(seq));
}

/** Raw-integer equality, with a readable location on failure. */
void
expect_bit_identical(const QAct& oracle, const QAct& got,
                     const std::string& what)
{
    ASSERT_EQ(oracle.shape, got.shape) << what;
    ASSERT_EQ(oracle.frac, got.frac) << what;
    ASSERT_EQ(oracle.v.size(), got.v.size()) << what;
    for (size_t i = 0; i < oracle.v.size(); ++i) {
        ASSERT_EQ(oracle.v[i], got.v[i])
            << what << " first mismatch at flat index " << i;
    }
}

class QuantExecAllRings : public ::testing::TestWithParam<std::string>
{
};

TEST_P(QuantExecAllRings, BitExactAcrossSizesOptionsAndThreads)
{
    const Ring& ring = get_ring(GetParam());
    std::mt19937 rng(901);
    for (const int k : {1, 3}) {
        // Odd and even spatial sizes exercise every border band shape.
        for (const auto& [h, w] : {std::pair{13, 11}, std::pair{16, 12}}) {
            nn::Model m = ring_backbone(ring, 2, 2, k, 77 + k);
            std::vector<Tensor> calib;
            for (int i = 0; i < 2; ++i) {
                calib.push_back(data::synthetic_image(2 * ring.n, h, w, rng));
            }
            const Tensor x = data::synthetic_image(2 * ring.n, h, w, rng);
            for (const bool otf : {true, false}) {
                for (const bool cw : {true, false}) {
                    QuantOptions qo;
                    qo.onthefly_dir_relu = otf;
                    qo.componentwise_q = cw;
                    const QuantizedModel qm(m, calib, qo);
                    const QAct in = qm.quantize_input(x);
                    const QAct oracle = qm.root()->forward(in);
                    for (const int threads : {1, 2, 7}) {
                        ThreadsEnv env(threads);
                        QuantExecutor ex(qm);
                        EXPECT_GT(ex.fast_conv_count(), 0);
                        const QAct got = ex.run(in);
                        expect_bit_identical(
                            oracle, got,
                            ring.name + " k=" + std::to_string(k) + " " +
                                std::to_string(h) + "x" + std::to_string(w) +
                                " otf=" + std::to_string(otf) +
                                " cw=" + std::to_string(cw) +
                                " threads=" + std::to_string(threads));
                    }
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllRings, QuantExecAllRings,
                         ::testing::ValuesIn(all_ring_names()),
                         [](const auto& info) {
                             std::string n = info.param;
                             for (char& c : n) {
                                 if (c == '-') c = '_';
                             }
                             return n;
                         });

TEST(QuantExecutorModel, ErnetPuGraphBitExact)
{
    // Full denoising graph: pad, pixel-unshuffle, convs with fused
    // directional ReLUs, residual blocks, pixel-shuffle, crop.
    models::ErnetConfig mc;
    mc.channels = 8;
    mc.blocks = 1;
    nn::Model m = models::build_dn_ernet_pu(models::Algebra::with_fh("RI4"),
                                            mc);
    std::mt19937 rng(902);
    std::vector<Tensor> calib;
    for (int i = 0; i < 2; ++i) {
        calib.push_back(data::synthetic_image(3, 16, 16, rng));
    }
    const QuantizedModel qm(m, calib);
    const Tensor x = data::synthetic_image(3, 16, 16, rng);
    const QAct in = qm.quantize_input(x);
    const QAct oracle = qm.root()->forward(in);
    QuantExecutor ex(qm);
    expect_bit_identical(oracle, ex.run(in), "dn_ernet_pu RI4");

    // The default QuantizedModel::forward rides the same executor;
    // dequantizing identical integers must give identical floats.
    const Tensor ye = qm.forward(x);
    QuantOptions strict;
    strict.strict_reference = true;
    const QuantizedModel qms(m, calib, strict);
    const Tensor ys = qms.forward(x);
    ASSERT_EQ(ye.shape(), ys.shape());
    for (int64_t i = 0; i < ye.numel(); ++i) {
        ASSERT_EQ(ye[i], ys[i]) << "flat index " << i;
    }
}

TEST(QuantExecutorModel, SrresnetWithBilinearSkipBitExact)
{
    // Two-branch graph with the fixed-point bilinear upsampler skip.
    nn::Model m = models::build_srresnet(models::Algebra::with_fh("RI2"), 8,
                                         1);
    std::mt19937 rng(903);
    std::vector<Tensor> calib;
    for (int i = 0; i < 2; ++i) {
        calib.push_back(data::synthetic_image(3, 8, 8, rng));
    }
    const QuantizedModel qm(m, calib);
    const Tensor x = data::synthetic_image(3, 8, 8, rng);
    const QAct in = qm.quantize_input(x);
    const QAct oracle = qm.root()->forward(in);
    QuantExecutor ex(qm);
    expect_bit_identical(oracle, ex.run(in), "srresnet RI2");
}

TEST(QuantExecutorModel, BatchedRunMatchesPerImageOracle)
{
    const Ring& ring = get_ring("RI4");
    nn::Model m = ring_backbone(ring, 2, 2, 3, 55);
    std::mt19937 rng(904);
    std::vector<Tensor> calib{data::synthetic_image(2 * ring.n, 12, 12, rng)};
    const QuantizedModel qm(m, calib);

    // Different spatial sizes within one batch.
    std::vector<QAct> ins;
    for (const auto& [h, w] : {std::pair{12, 12}, std::pair{9, 7},
                               std::pair{16, 5}}) {
        ins.push_back(
            qm.quantize_input(data::synthetic_image(2 * ring.n, h, w, rng)));
    }
    QuantExecutor ex(qm);
    const std::vector<QAct> got = ex.run(ins);
    ASSERT_EQ(got.size(), ins.size());
    for (size_t i = 0; i < ins.size(); ++i) {
        expect_bit_identical(qm.root()->forward(ins[i]), got[i],
                             "batched image " + std::to_string(i));
    }

    // The model-level batched entry point rides the same engine.
    const std::vector<QAct> via_model = qm.infer(ins);
    ASSERT_EQ(via_model.size(), ins.size());
    for (size_t i = 0; i < ins.size(); ++i) {
        expect_bit_identical(got[i], via_model[i],
                             "QuantizedModel::infer image " +
                                 std::to_string(i));
    }
}

TEST(QuantExecutorModel, TwoBranchInsideResidualBitExact)
{
    // Regression: compiling QTwoBranchNode used to release its input
    // arena slot one time too many. With the surrounding residual's
    // skip connection still holding that slot, a later conv step
    // acquired and overwrote it, corrupting the residual add. The
    // graph below reproduces exactly that nesting.
    const Ring& ring = get_ring("RI4");
    const auto [u, v] = fh_transforms(ring.n);
    auto block = [&](unsigned seed) {
        std::mt19937 r(seed);
        auto s = std::make_unique<nn::Sequential>();
        s->add(std::make_unique<nn::RingConv2d>(ring, 2, 2, 3, r));
        s->add(std::make_unique<nn::DirectionalReLU>(u, v));
        return s;
    };
    auto body = std::make_unique<nn::Sequential>();
    body->add(std::make_unique<nn::TwoBranchAdd>(block(1), block(2)));
    {
        std::mt19937 r(3);
        body->add(std::make_unique<nn::RingConv2d>(ring, 2, 2, 3, r));
        body->add(std::make_unique<nn::DirectionalReLU>(u, v));
    }
    auto root = std::make_unique<nn::Sequential>();
    root->add(std::make_unique<nn::Residual>(std::move(body)));
    nn::Model m("twobranch-in-residual", std::move(root));

    std::mt19937 rng(906);
    std::vector<Tensor> calib{data::synthetic_image(2 * ring.n, 12, 12, rng)};
    const QuantizedModel qm(m, calib);
    const QAct in = qm.quantize_input(
        data::synthetic_image(2 * ring.n, 12, 12, rng));
    QuantExecutor ex(qm);
    expect_bit_identical(qm.root()->forward(in), ex.run(in),
                         "two-branch inside residual");
}

TEST(QuantExecutorModel, WideWeightsFallBackToScalarAndStayExact)
{
    // 12-bit weights exceed the int8 kernel cache: the planner must
    // compile those convs onto the scalar oracle and stay bit-exact.
    const Ring& ring = get_ring("RI4");
    nn::Model m = ring_backbone(ring, 2, 1, 3, 56);
    std::mt19937 rng(905);
    std::vector<Tensor> calib{data::synthetic_image(2 * ring.n, 10, 10, rng)};
    QuantOptions qo;
    qo.weight_bits = 12;
    const QuantizedModel qm(m, calib, qo);
    const QAct in = qm.quantize_input(
        data::synthetic_image(2 * ring.n, 10, 10, rng));
    QuantExecutor ex(qm);
    EXPECT_GT(ex.scalar_conv_count(), 0);
    expect_bit_identical(qm.root()->forward(in), ex.run(in),
                         "12-bit-weight fallback");
}

TEST(QuantExecutorGate, EpilogueBoundBreachCompilesToOracle)
{
    // The fast path's static proof covers the int32-lane epilogue: a
    // directional ReLU whose accumulator fracs spread by 20 bits (the
    // align left shifts of ExtremeFracSpreadsAlignExactly) cannot keep
    // acc_bound * 2^20 * n^2 inside int32, so that conv — and only it —
    // must compile onto the scalar oracle and stay bit-exact.
    const Ring& ring = get_ring("RI4");
    nn::Model m = ring_backbone(ring, 2, 2, 3, 57);
    std::mt19937 rng(907);
    std::vector<Tensor> calib{data::synthetic_image(2 * ring.n, 10, 10, rng)};
    const QuantizedModel qm(m, calib);
    const QAct in =
        qm.quantize_input(data::synthetic_image(2 * ring.n, 10, 10, rng));
    {
        QuantExecutor ex(qm);
        ASSERT_EQ(ex.fast_conv_count(), 2);
        ASSERT_EQ(ex.scalar_conv_count(), 0);
    }

    // Rewrite the first conv's accumulator fracs and its dir-ReLU's
    // output fracs in place (the graph is owned, non-const, by qm).
    const auto* seq = dynamic_cast<const QSeq*>(qm.root());
    ASSERT_NE(seq, nullptr);
    QConvNode* conv = nullptr;
    QDirReluNode* dir = nullptr;
    for (const auto& node : seq->nodes) {
        if (conv == nullptr) {
            conv = dynamic_cast<QConvNode*>(node.get());
        } else if (dir == nullptr) {
            dir = dynamic_cast<QDirReluNode*>(node.get());
        }
    }
    ASSERT_NE(conv, nullptr);
    ASSERT_NE(dir, nullptr);
    ASSERT_TRUE(dir->onthefly);
    const std::vector<int> ny{0, 20, 5, 9}, nx{25, 2, 12, 30};
    for (size_t c = 0; c < conv->out_frac.size(); ++c) {
        conv->out_frac[c] = ny[c % 4];
        dir->out_frac[c] = nx[c % 4];
    }

    QuantExecutor ex(qm);
    EXPECT_EQ(ex.scalar_conv_count(), 1);
    EXPECT_EQ(ex.fast_conv_count(), 1);
    expect_bit_identical(qm.root()->forward(in), ex.run(in),
                         "20-bit frac spread on the oracle path");
}

TEST(QuantExecutorGate, BenchmarkDenoiserPlanIsAllFast)
{
    // The benchmark's DnERNet-PU (RI4, C=16, B=2) on 64x64 tiles: every
    // conv passes the static proof (int16 input, int32 accumulator and
    // epilogue), and the engine matches the oracle.
    models::ErnetConfig mc;
    mc.channels = 16;
    mc.blocks = 2;
    nn::Model m = models::build_dn_ernet_pu(models::Algebra::with_fh("RI4"),
                                            mc);
    std::mt19937 rng(908);
    std::vector<Tensor> calib{data::synthetic_image(3, 64, 64, rng)};
    const QuantizedModel qm(m, calib);
    QuantExecutor ex(qm);
    EXPECT_EQ(ex.fast_conv_count(), 6);
    EXPECT_EQ(ex.scalar_conv_count(), 0);
    const QAct in = qm.quantize_input(data::synthetic_image(3, 64, 64, rng));
    expect_bit_identical(qm.root()->forward(in), ex.run(in),
                         "dn_ernet_pu RI4 C16 B2");
}

TEST(QuantExecutorModel, MixedOddWidthsAndShortImagesBitExact)
{
    // One batch mixing two shapes whose widths leave partial 8-pixel
    // blocks (5, 33) and whose heights are below the kernel size, so
    // every output row reads the zero border on both sides.
    const Ring& ring = get_ring("RI4");
    nn::Model m = ring_backbone(ring, 2, 2, 3, 58);
    std::mt19937 rng(909);
    std::vector<Tensor> calib{data::synthetic_image(2 * ring.n, 6, 9, rng)};
    const QuantizedModel qm(m, calib);
    std::vector<QAct> ins;
    for (const auto& [h, w] : {std::pair{2, 5}, std::pair{1, 33},
                               std::pair{2, 5}, std::pair{1, 33}}) {
        ins.push_back(
            qm.quantize_input(data::synthetic_image(2 * ring.n, h, w, rng)));
    }
    for (const int threads : {1, 3}) {
        ThreadsEnv env(threads);
        QuantExecutor ex(qm);
        EXPECT_EQ(ex.scalar_conv_count(), 0);
        const std::vector<QAct> got = ex.run(ins);
        ASSERT_EQ(got.size(), ins.size());
        for (size_t i = 0; i < ins.size(); ++i) {
            expect_bit_identical(qm.root()->forward(ins[i]), got[i],
                                 "image " + std::to_string(i) + " threads=" +
                                     std::to_string(threads));
        }
    }
}

TEST(QuantExecutorProperty, HundredRandomDrawsBitExact)
{
    // ~100 seeded random (weights, Q-formats via input scaling, inputs)
    // draws: quantize -> infer -> dequantize through the engine and the
    // scalar walk must agree bit for bit. On failure the seed and the
    // minimal (ring, shape, k) tuple identify the reproduction.
    const auto& rings = all_ring_names();
    for (unsigned seed = 0; seed < 100; ++seed) {
        std::mt19937 rng(seed);
        const Ring& ring =
            get_ring(rings[rng() % rings.size()]);
        const int k = (rng() % 2) == 0 ? 1 : 3;
        const int h = 5 + static_cast<int>(rng() % 9);
        const int w = 5 + static_cast<int>(rng() % 9);
        const int ct = 1 + static_cast<int>(rng() % 2);
        const int layers = 1 + static_cast<int>(rng() % 2);
        // Scale activations across several octaves so the per-layer /
        // per-component Q-format search lands on varied frac widths,
        // including ones that force left and right align shifts.
        const float scale = std::ldexp(1.0f, static_cast<int>(rng() % 9) - 4);
        const std::string what =
            "seed=" + std::to_string(seed) + " ring=" + ring.name +
            " shape=[" + std::to_string(ct * ring.n) + ", " +
            std::to_string(h) + ", " + std::to_string(w) + "] k=" +
            std::to_string(k);
        SCOPED_TRACE(what);

        nn::Model m = ring_backbone(ring, ct, layers, k, seed * 31 + 7);
        std::vector<Tensor> calib;
        for (int i = 0; i < 2; ++i) {
            Tensor t = data::synthetic_image(ct * ring.n, h, w, rng);
            t *= scale;
            calib.push_back(std::move(t));
        }
        QuantOptions qo;
        qo.onthefly_dir_relu = (rng() % 2) == 0;
        qo.componentwise_q = (rng() % 2) == 0;
        const QuantizedModel qm(m, calib, qo);

        Tensor x = data::synthetic_image(ct * ring.n, h, w, rng);
        x *= scale;
        const QAct in = qm.quantize_input(x);
        const QAct oracle = qm.root()->forward(in);
        QuantExecutor ex(qm);
        const QAct got = ex.run(in);
        expect_bit_identical(oracle, got, what);

        // Dequantized floats of identical integers are identical bits.
        const Tensor fo = QuantizedModel::dequantize(oracle);
        const Tensor fg = QuantizedModel::dequantize(got);
        for (int64_t i = 0; i < fo.numel(); ++i) {
            ASSERT_EQ(fo[i], fg[i]) << what << " flat index " << i;
        }
    }
}

TEST(QuantExecutor, EmptyBatchReturnsEmptyOnEveryEntryPoint)
{
    // Every entry point must return empty on a fresh model and
    // executor, whose arena holds no image 0 for a step to read.
    models::ErnetConfig cfg;
    cfg.channels = 8;
    cfg.blocks = 1;
    nn::Model m =
        models::build_dn_ernet_pu(models::Algebra::with_fh("RI4"), cfg);
    std::mt19937 rng(905);
    const std::vector<Tensor> calib{data::synthetic_image(3, 16, 16, rng)};
    const QuantizedModel qm(m, calib);
    EXPECT_TRUE(qm.forward(std::vector<Tensor>{}).empty());
    EXPECT_TRUE(qm.infer(std::vector<QAct>{}).empty());

    QuantExecutor ex(qm);
    EXPECT_TRUE(ex.forward(std::vector<Tensor>{}).empty());
    EXPECT_TRUE(ex.run(std::vector<QAct>{}).empty());
    ex.run_into(nullptr, nullptr, 0);
    EXPECT_EQ(ex.arena_bytes(), 0);
}

}  // namespace
}  // namespace ringcnn::quant
