/**
 * @file
 * ModelExecutor tests: compiled-plan inference must agree with the
 * layer-by-layer reference walk on real backbones (all rings, fused
 * and strict modes), reuse its activation arena, track in-place weight
 * mutations, and batch consistently — plus the shared plan::Runtime
 * contract (batch growth, grow-only arena, empty batches), typed over
 * both the fp32 ModelExecutor and the int8 QuantExecutor.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <random>

#include "frconv_reference.h"
#include "models/backbones.h"
#include "nn/executor.h"
#include "quant/quant_executor.h"
#include "quant/quant_model.h"
#include "tensor/image_ops.h"

namespace ringcnn {
namespace {

models::ErnetConfig
small_cfg()
{
    models::ErnetConfig cfg;
    cfg.channels = 8;
    cfg.blocks = 1;
    cfg.pump_ratio = 2;
    cfg.extra_pump = 0;
    return cfg;
}

class ExecutorAllRings : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ExecutorAllRings, MatchesLayerWalkOnDenoisingBackbone)
{
    const Ring& ring = get_ring(GetParam());
    const models::Algebra alg = models::Algebra::with_fcw(ring.name);
    nn::Model model = models::build_dn_ernet_pu(alg, small_cfg());

    std::mt19937 rng(41);
    Tensor x({3, 16, 16});
    x.rand_uniform(rng, 0.0f, 1.0f);

    const Tensor want = model.forward(x, false);  // layer-by-layer
    const Tensor got = model.infer(x);            // compiled + fused
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_LT(max_abs_diff(got, want), 1e-4) << ring.name;
}

INSTANTIATE_TEST_SUITE_P(AllRings, ExecutorAllRings,
                         ::testing::ValuesIn(all_ring_names()),
                         [](const auto& info) {
                             std::string n = info.param;
                             for (char& c : n) {
                                 if (c == '-') c = '_';
                             }
                             return n;
                         });

TEST(ModelExecutor, MatchesLayerWalkWithDirectionalFusion)
{
    // (RI4, fH): the directional ReLU is fused into the conv epilogue.
    const models::Algebra alg = models::Algebra::with_fh("RI4");
    nn::Model model = models::build_dn_ernet_pu(alg, small_cfg());

    std::mt19937 rng(42);
    Tensor x({3, 16, 16});
    x.rand_uniform(rng, 0.0f, 1.0f);

    const Tensor want = model.forward(x, false);
    const Tensor got = model.infer(x);
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_LT(max_abs_diff(got, want), 1e-4);

    // The fused plan must have consumed the nonlinearity steps: fewer
    // steps than layers in the flattened graph, and a small recycled
    // arena rather than one buffer per layer.
    nn::ModelExecutor exec(model, {3, 16, 16});
    EXPECT_LE(exec.slot_count(), 6);
}

TEST(ModelExecutor, FusesConv2dReluOnRealBaselines)
{
    // n=1 real-algebra models: every Conv2d followed by a ReLU must
    // compile into one fused step, and fusion must not change a bit
    // (the rectifier sees exactly the values the layer walk's separate
    // ReLU saw).
    nn::Model model =
        models::build_dn_ernet_pu(models::Algebra::real(), small_cfg());

    nn::ModelExecutor fused(model, {3, 16, 16});
    EXPECT_GT(fused.fused_conv_relu_count(), 0);

    std::mt19937 rng(48);
    Tensor x({3, 16, 16});
    x.rand_uniform(rng, 0.0f, 1.0f);
    const Tensor got = fused.run(x);
    const Tensor ref = model.forward(x, false);
    ASSERT_EQ(got.shape(), ref.shape());
    for (int64_t i = 0; i < ref.numel(); ++i) {
        ASSERT_EQ(got[i], ref[i]) << "flat " << i;
    }
}

TEST(ModelExecutor, StrictModeBitIdenticalToSeedChain)
{
    // A pure conv chain in strict fp64 mode must reproduce the seed
    // FRCONV numerics (ring_conv_fast) bit for bit, layer by layer.
    const Ring& ring = get_ring("RH4");
    std::mt19937 rng(43);
    auto seq = std::make_unique<nn::Sequential>();
    seq->add(std::make_unique<nn::RingConv2d>(ring, 2, 3, 3, rng));
    seq->add(std::make_unique<nn::RingConv2d>(ring, 3, 2, 3, rng));
    nn::Model model("chain", std::move(seq));

    Tensor x({2 * ring.n, 9, 8});
    x.randn(rng);

    auto* l0 = dynamic_cast<nn::RingConv2d*>(
        &dynamic_cast<nn::Sequential&>(model.root()).at(0));
    auto* l1 = dynamic_cast<nn::RingConv2d*>(
        &dynamic_cast<nn::Sequential&>(model.root()).at(1));
    ASSERT_NE(l0, nullptr);
    ASSERT_NE(l1, nullptr);
    const Tensor mid = ring_conv_fast(ring, x, l0->weights(), l0->bias());
    const Tensor want = ring_conv_fast(ring, mid, l1->weights(), l1->bias());

    nn::ExecutorOptions opt;
    opt.strict_fp64 = true;
    nn::ModelExecutor exec(model, {2 * ring.n, 9, 8}, opt);
    const Tensor got = exec.run(x);
    ASSERT_EQ(got.shape(), want.shape());
    for (int64_t i = 0; i < want.numel(); ++i) {
        ASSERT_EQ(got[i], want[i]) << "flat " << i;
    }
}

TEST(ModelExecutor, BatchedRunMatchesSingleRuns)
{
    const models::Algebra alg = models::Algebra::with_fh("RI4");
    nn::Model model = models::build_dn_ernet_pu(alg, small_cfg());

    std::mt19937 rng(44);
    std::vector<Tensor> xs;
    for (int i = 0; i < 3; ++i) {
        Tensor x({3, 16, 16});
        x.rand_uniform(rng, 0.0f, 1.0f);
        xs.push_back(std::move(x));
    }
    nn::ModelExecutor exec(model, {3, 16, 16});
    const std::vector<Tensor> batched = exec.run(xs);
    ASSERT_EQ(batched.size(), xs.size());
    for (size_t i = 0; i < xs.size(); ++i) {
        const Tensor single = exec.run(xs[i]);
        ASSERT_EQ(batched[i].shape(), single.shape());
        for (int64_t j = 0; j < single.numel(); ++j) {
            ASSERT_EQ(batched[i][j], single[j])
                << "image " << i << " flat " << j;
        }
    }
}

TEST(ModelExecutor, TracksInPlaceWeightMutation)
{
    const models::Algebra alg = models::Algebra::with_fh("RI4");
    nn::Model model = models::build_dn_ernet_pu(alg, small_cfg());

    std::mt19937 rng(45);
    Tensor x({3, 16, 16});
    x.rand_uniform(rng, 0.0f, 1.0f);

    const Tensor before = model.infer(x);
    // Optimizer-style in-place update through ParamRef.
    for (auto& p : model.params()) {
        for (auto& v : *p.value) v += 0.0625f;
        p.mark_dirty();
    }
    const Tensor after = model.infer(x);  // cached plan, refreshed weights
    EXPECT_GT(mse(before, after), 0.0);

    // A freshly compiled executor agrees with the refreshed one.
    nn::ModelExecutor fresh(model, {3, 16, 16});
    const Tensor want = fresh.run(x);
    for (int64_t i = 0; i < want.numel(); ++i) {
        ASSERT_EQ(after[i], want[i]) << "flat " << i;
    }
}

TEST(ModelExecutor, SupportsTwoBranchSuperResolutionModels)
{
    nn::Model model =
        models::build_srresnet(models::Algebra::with_fh("RI4"), 8, 1);
    std::mt19937 rng(46);
    Tensor x({3, 8, 8});
    x.rand_uniform(rng, 0.0f, 1.0f);

    const Tensor want = model.forward(x, false);
    const Tensor got = model.infer(x);
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_EQ(got.shape(), (Shape{3, 32, 32}));
    EXPECT_LT(max_abs_diff(got, want), 1e-4);
}

class ExecutorTapFusedAllRings : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ExecutorTapFusedAllRings, TapFusedMatchesScalarReference)
{
    // The fp32 engine schedule (tap-fused row passes over the compiled
    // tap tables, identity-Tx aliasing, nonzero-only reconstruction,
    // fused epilogues) must reproduce the test-local scalar FRCONV
    // reference on every element, up to the documented -0.0 sign — for
    // every ring, through the executor's own plan of a real backbone.
    // The input is rectified so exact-zero activations meet negative
    // taps, the case where the zero sign can differ.
    const Ring& ring = get_ring(GetParam());
    const models::Algebra alg = models::Algebra::with_fcw(ring.name);
    nn::Model model = models::build_dn_ernet_pu(alg, small_cfg());

    std::mt19937 rng(47);
    Tensor x({3, 16, 16});
    x.rand_uniform(rng, -1.0f, 1.0f);
    for (int64_t i = 0; i < x.numel(); ++i) x[i] = x[i] > 0.0f ? x[i] : 0.0f;

    nn::ModelExecutor exec(model, {3, 16, 16});
    const Tensor want = testing_ref::plan_reference_f32(exec.plan(), x);
    testing_ref::expect_equal_up_to_zero_sign(exec.run(x), want, ring.name);

    // The batch-into entry point moves the same results out.
    const Tensor* px = &x;
    Tensor out;
    exec.run_into(&px, &out, 1);
    testing_ref::expect_equal_up_to_zero_sign(out, want,
                                              ring.name + " run_into");
}

INSTANTIATE_TEST_SUITE_P(AllRings, ExecutorTapFusedAllRings,
                         ::testing::ValuesIn(all_ring_names()),
                         [](const auto& info) {
                             std::string n = info.param;
                             for (char& c : n) {
                                 if (c == '-') c = '_';
                             }
                             return n;
                         });

TEST(ModelExecutor, CompilesDepthwiseAndUpsampleSteps)
{
    // DepthwiseConv2d and UpsampleBilinearLayer previously fell through
    // the allocating Layer::forward fallback; they must now compile to
    // arena steps (no fallbacks left) and match the layer walk bit for
    // bit.
    std::mt19937 rng(49);
    auto seq = std::make_unique<nn::Sequential>();
    seq->add(std::make_unique<nn::DepthwiseConv2d>(6, 3, rng));
    seq->add(std::make_unique<nn::UpsampleBilinearLayer>(2));
    seq->add(std::make_unique<nn::DepthwiseConv2d>(6, 3, rng));
    nn::Model model("dw-up", std::move(seq));

    nn::ModelExecutor exec(model, {6, 9, 7});
    EXPECT_EQ(exec.fallback_step_count(), 0);

    Tensor x({6, 9, 7});
    x.randn(rng);
    const Tensor want = model.forward(x, false);
    const Tensor got = exec.run(x);
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_EQ(got.shape(), (Shape{6, 18, 14}));
    for (int64_t i = 0; i < want.numel(); ++i) {
        ASSERT_EQ(got[i], want[i]) << "flat " << i;
    }

    // Repeat runs reuse the plan (steady state) and stay identical.
    const Tensor again = exec.run(x);
    for (int64_t i = 0; i < want.numel(); ++i) {
        ASSERT_EQ(again[i], want[i]) << "rerun flat " << i;
    }
}

TEST(ModelExecutor, RejectsWrongInputShape)
{
    const models::Algebra alg = models::Algebra::with_fcw("RI4");
    nn::Model model = models::build_dn_ernet_pu(alg, small_cfg());
    nn::ModelExecutor exec(model, {3, 16, 16});
    Tensor wrong({3, 12, 12});
    EXPECT_THROW(exec.run(wrong), std::invalid_argument);
}

// ---- The shared runtime contract, once for both executors -------------

const Shape kContractShape{3, 16, 16};

/** fp32 side: a ModelExecutor compiled for kContractShape. */
struct Fp32Side
{
    using Exec = nn::ModelExecutor;
    explicit Fp32Side(nn::Model& m) : model(m) {}
    std::unique_ptr<Exec> make()
    {
        return std::make_unique<Exec>(model, kContractShape);
    }
    static std::vector<Tensor> run(Exec& e, const std::vector<Tensor>& xs)
    {
        return e.run(xs);
    }
    nn::Model& model;
};

/** int8 side: a QuantExecutor over the model quantized from two
 *  calibration images. */
struct Int8Side
{
    using Exec = quant::QuantExecutor;
    explicit Int8Side(nn::Model& m) : qm(m, calibration()) {}
    static std::vector<Tensor> calibration()
    {
        std::mt19937 rng(70);
        std::vector<Tensor> calib;
        for (int i = 0; i < 2; ++i) {
            Tensor c(kContractShape);
            c.rand_uniform(rng, 0.0f, 1.0f);
            calib.push_back(std::move(c));
        }
        return calib;
    }
    std::unique_ptr<Exec> make() { return std::make_unique<Exec>(qm); }
    static std::vector<Tensor> run(Exec& e, const std::vector<Tensor>& xs)
    {
        return e.forward(xs);
    }
    quant::QuantizedModel qm;
};

template <class Side>
class RuntimeContract : public ::testing::Test
{
  protected:
    RuntimeContract()
        : model(models::build_dn_ernet_pu(models::Algebra::with_fh("RI4"),
                                          small_cfg())),
          side(model)
    {
    }
    nn::Model model;
    Side side;
};

using ExecutorSides = ::testing::Types<Fp32Side, Int8Side>;
TYPED_TEST_SUITE(RuntimeContract, ExecutorSides);

void
expect_same_bits(const Tensor& got, const Tensor& want, const char* label,
                 size_t image)
{
    ASSERT_EQ(got.shape(), want.shape()) << label << " image " << image;
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          static_cast<size_t>(want.numel()) * sizeof(float)),
              0)
        << label << " image " << image;
}

TYPED_TEST(RuntimeContract, BatchGrowthBitIdenticalAndArenaGrowOnly)
{
    using Side = TypeParam;
    std::mt19937 rng(71);
    std::vector<Tensor> xs;
    for (int i = 0; i < 8; ++i) {
        Tensor x(kContractShape);
        x.rand_uniform(rng, 0.0f, 1.0f);
        xs.push_back(std::move(x));
    }
    // Per-image references, each a batch of one on its own executor.
    auto ref = this->side.make();
    std::vector<Tensor> want;
    for (const Tensor& x : xs) want.push_back(Side::run(*ref, {x})[0]);

    // One executor through batches of 1, 5, 2: the batch grows, then
    // shrinks onto the grown arena.
    auto exec = this->side.make();
    size_t next = 0;
    int64_t grown_bytes = 0;
    for (const int n : {1, 5, 2}) {
        const std::vector<Tensor> batch(xs.begin() + static_cast<int64_t>(next),
                                        xs.begin() +
                                            static_cast<int64_t>(next + n));
        const std::vector<Tensor> got = Side::run(*exec, batch);
        ASSERT_EQ(got.size(), static_cast<size_t>(n));
        for (size_t i = 0; i < got.size(); ++i) {
            expect_same_bits(got[i], want[next + i], "batched", next + i);
        }
        if (n == 5) grown_bytes = exec->arena_bytes();
        next += static_cast<size_t>(n);
    }
    EXPECT_GT(grown_bytes, 0);
    EXPECT_EQ(exec->arena_bytes(), grown_bytes) << "smaller batch";

    // A repeat at the largest batch reuses the arena as well.
    const std::vector<Tensor> again =
        Side::run(*exec, std::vector<Tensor>(xs.begin(), xs.begin() + 5));
    for (size_t i = 0; i < again.size(); ++i) {
        expect_same_bits(again[i], want[i], "repeat", i);
    }
    EXPECT_EQ(exec->arena_bytes(), grown_bytes) << "repeat batch";
}

TYPED_TEST(RuntimeContract, EmptyBatchReturnsEmpty)
{
    using Side = TypeParam;
    // On a fresh executor (nothing sized yet) and after a real run.
    auto exec = this->side.make();
    EXPECT_TRUE(Side::run(*exec, {}).empty());
    EXPECT_EQ(exec->arena_bytes(), 0);

    Tensor x(kContractShape);
    std::mt19937 rng(72);
    x.rand_uniform(rng, 0.0f, 1.0f);
    EXPECT_EQ(Side::run(*exec, {x}).size(), 1u);
    EXPECT_TRUE(Side::run(*exec, {}).empty());
}

}  // namespace
}  // namespace ringcnn
