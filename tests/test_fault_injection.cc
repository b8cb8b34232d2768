/**
 * @file
 * End-to-end integrity suite: deterministic fault injection
 * (util/fault.h) against the ABFT-verified executors and the serving
 * layer's degrade-and-retry path.
 *
 *  - a clean run with verification ON is bit-identical to one with it
 *    OFF (fp32 and int8) — the checksum pass is read-only;
 *  - seeded single-bit weight flips are either DETECTED
 *    (plan::IntegrityError naming the op and channel) or provably
 *    benign (output deviation under the SDC threshold) — never a
 *    silent corruption;
 *  - int8 flips are always detected (the integer checksum is exact);
 *  - NaN/Inf activation poison and torn/corrupted weight refreshes
 *    surface typed;
 *  - a kernel-task throw propagates off the pool (no std::terminate —
 *    the PR-9 thread-pool regression) and the engine recovers;
 *  - the ServeServer soak: N seeds x {weight flip, kernel throw,
 *    failed plan alloc, NaN input, worker stall} against a live
 *    server — every accepted future resolves (none abandoned), every
 *    fault is detected or harmlessly retried, and retried responses
 *    are BIT-identical to the unfaulted run;
 *  - the simulator prices the checksum pass when asked.
 *
 * Every fault is (site, seed)-deterministic: a failing iteration
 * reproduces from the values in its failure message alone.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "models/backbones.h"
#include "nn/executor.h"
#include "nn/model.h"
#include "quant/quant_executor.h"
#include "quant/quant_model.h"
#include "serve/serve_server.h"
#include "sim/accelerator.h"
#include "util/fault.h"

namespace ringcnn {
namespace {

/** Max |got - want| over all elements (the SDC metric). */
double
max_deviation(const Tensor& got, const Tensor& want)
{
    EXPECT_EQ(got.shape(), want.shape());
    double dev = 0.0;
    for (int64_t i = 0; i < want.numel(); ++i) {
        const double d = std::abs(static_cast<double>(got[i]) -
                                  static_cast<double>(want[i]));
        if (!(d <= dev)) dev = std::isnan(d) ? 1e30 : d;
    }
    return dev;
}

void
expect_bit_equal(const Tensor& got, const Tensor& want,
                 const std::string& what)
{
    ASSERT_EQ(got.shape(), want.shape()) << what;
    for (int64_t i = 0; i < want.numel(); ++i) {
        ASSERT_EQ(got[i], want[i]) << what << " flat " << i;
    }
}

/** A flip whose end-to-end effect stays under this is benign (not a
 *  silent data corruption); mirrors the bench's SDC classification. */
constexpr double kSdcThreshold = 1e-3;

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

nn::Model
small_model()
{
    return models::build_dn_ernet_pu(models::Algebra::with_fh("RI4"),
                                     small_cfg());
}

/** Disarms any leftover fault before AND after each test, so a failed
 *  assertion can never leak an armed site into the next test. */
class FaultInjection : public ::testing::Test
{
  protected:
    void SetUp() override { util::fault_clear(); }
    void TearDown() override { util::fault_clear(); }
};

TEST_F(FaultInjection, CleanVerifiedRunBitIdenticalFp32)
{
    nn::Model model = small_model();
    std::mt19937 rng(601);
    Tensor x({3, 16, 16});
    x.rand_uniform(rng, 0.0f, 1.0f);

    nn::ExecutorOptions plain;
    nn::ExecutorOptions verified;
    verified.verify_checksums = true;
    const Tensor want = nn::ModelExecutor(model, x.shape(), plain).run(x);
    const Tensor got = nn::ModelExecutor(model, x.shape(), verified).run(x);
    expect_bit_equal(got, want, "verify on vs off");
}

TEST_F(FaultInjection, CleanVerifiedRunBitIdenticalInt8)
{
    nn::Model model = small_model();
    std::mt19937 rng(602);
    std::vector<Tensor> calib;
    for (int i = 0; i < 2; ++i) {
        calib.push_back(data::synthetic_image(3, 16, 16, rng));
    }
    const quant::QuantizedModel qm(model, calib);
    const Tensor x = data::synthetic_image(3, 16, 16, rng);

    plan::ExecOptions vq;
    vq.verify_checksums = true;
    quant::QuantExecutor plain(qm);
    quant::QuantExecutor verified(qm, vq);
    expect_bit_equal(verified.forward(x), plain.forward(x),
                     "int8 verify on vs off");
}

TEST_F(FaultInjection, Fp32WeightFlipDetectedOrBenignNeverSilent)
{
    nn::Model model = small_model();
    std::mt19937 rng(603);
    Tensor x({3, 16, 16});
    x.rand_uniform(rng, 0.0f, 1.0f);
    nn::ExecutorOptions vopt;
    vopt.verify_checksums = true;
    const Tensor want = nn::ModelExecutor(model, x.shape(), vopt).run(x);

    int detected = 0;
    constexpr int kSeeds = 24;
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
        util::fault_arm({"fp32.weights", seed, 1, 0});
        bool caught = false;
        Tensor out;
        try {
            // The flip lands in a derived weight table during compile;
            // the run must either trip the checksum or stay benign.
            nn::ModelExecutor ex(model, x.shape(), vopt);
            out = ex.run(x);
        } catch (const plan::IntegrityError& e) {
            caught = true;
            EXPECT_NE(std::string(e.what()).find("checksum"),
                      std::string::npos)
                << e.what();
        }
        ASSERT_EQ(util::fault_fired("fp32.weights"), 1u)
            << "seed " << seed << ": fault never landed";
        if (caught) {
            ++detected;
        } else {
            // Undetected => provably harmless. A low-order mantissa
            // flip sits under the float rounding tolerance by
            // construction; anything with end-to-end effect must trip.
            EXPECT_LE(max_deviation(out, want), kSdcThreshold)
                << "seed " << seed << ": silent corruption (SDC)";
        }
        util::fault_clear();
    }
    // Sign/exponent/high-mantissa flips dominate the bit space; most
    // seeds must detect.
    EXPECT_GE(detected, kSeeds / 2) << "checksum misses too many flips";
}

TEST_F(FaultInjection, Int8WeightFlipAlwaysDetected)
{
    nn::Model model = small_model();
    std::mt19937 rng(604);
    std::vector<Tensor> calib;
    for (int i = 0; i < 2; ++i) {
        calib.push_back(data::synthetic_image(3, 16, 16, rng));
    }
    const quant::QuantizedModel qm(model, calib);
    const Tensor x = data::synthetic_image(3, 16, 16, rng);
    plan::ExecOptions vq;
    vq.verify_checksums = true;

    for (uint64_t seed = 1; seed <= 12; ++seed) {
        util::fault_arm({"int8.weights", seed, 1, 0});
        bool caught = false;
        try {
            quant::QuantExecutor ex(qm, vq);
            ASSERT_EQ(ex.scalar_conv_count(), 0)
                << "flip landed in an unverified scalar conv";
            ex.forward(x);
        } catch (const plan::IntegrityError&) {
            caught = true;
        }
        ASSERT_EQ(util::fault_fired("int8.weights"), 1u) << "seed " << seed;
        // The integer checksum is exact: EVERY int8 bit flip shifts the
        // predicted accumulator sum and must be caught.
        EXPECT_TRUE(caught) << "seed " << seed << ": int8 flip missed";
        util::fault_clear();
    }
}

TEST_F(FaultInjection, ActivationPoisonDetected)
{
    nn::Model model = small_model();
    std::mt19937 rng(605);
    Tensor x({3, 16, 16});
    x.rand_uniform(rng, 0.0f, 1.0f);
    nn::ExecutorOptions vopt;
    vopt.verify_checksums = true;
    nn::ModelExecutor ex(model, x.shape(), vopt);

    for (const uint64_t seed : {2u, 3u}) {  // even = +Inf, odd = NaN
        util::fault_arm({"fp32.activation", seed, 1, 0});
        EXPECT_THROW(ex.run(x), plan::IntegrityError) << "seed " << seed;
        util::fault_clear();
    }
    // Disarmed, the same executor serves clean bits again.
    expect_bit_equal(ex.run(x), nn::ModelExecutor(model, x.shape()).run(x),
                     "post-poison recovery");
}

TEST_F(FaultInjection, KernelThrowSurfacesAndEngineRecovers)
{
    nn::Model model = small_model();
    std::mt19937 rng(606);
    Tensor x({3, 16, 16});
    x.rand_uniform(rng, 0.0f, 1.0f);
    nn::ModelExecutor ex(model, x.shape());
    const Tensor want = ex.run(x);

    util::fault_arm({"fp32.kernel_throw", 7, 1, 0});
    // Thrown on a pool helper inside the band pass: must surface here
    // (not std::terminate), leaving the pool and executor reusable.
    EXPECT_THROW(ex.run(x), std::runtime_error);
    EXPECT_EQ(util::fault_fired("fp32.kernel_throw"), 1u);
    util::fault_clear();
    expect_bit_equal(ex.run(x), want, "post-throw recovery");
}

TEST_F(FaultInjection, CorruptedWeightRefreshRejectedBeforeApply)
{
    nn::Model model = small_model();
    std::mt19937 rng(607);
    Tensor x({3, 16, 16});
    x.rand_uniform(rng, 0.0f, 1.0f);
    nn::ExecutorOptions vopt;
    vopt.verify_checksums = true;
    nn::ModelExecutor ex(model, x.shape(), vopt);
    const Tensor before = ex.run(x);

    auto params = model.params();
    ASSERT_FALSE(params.empty());
    float* slot = params[0].value->data();
    const float saved = *slot;
    *slot = std::nanf("");
    params[0].mark_dirty();
    // The NaN is rejected BEFORE the engine applies it: the executor
    // keeps serving the previous weight set deterministically.
    EXPECT_THROW(ex.run(x), plan::IntegrityError);
    EXPECT_THROW(ex.run(x), plan::IntegrityError);

    *slot = saved;
    params[0].mark_dirty();
    expect_bit_equal(ex.run(x), before, "post-repair refresh");
}

TEST_F(FaultInjection, TornWeightUpdateDetected)
{
    nn::Model model = small_model();
    std::mt19937 rng(608);
    Tensor x({3, 16, 16});
    x.rand_uniform(rng, 0.0f, 1.0f);
    nn::ExecutorOptions vopt;
    vopt.verify_checksums = true;
    nn::ModelExecutor ex(model, x.shape(), vopt);
    ex.run(x);

    // An out-of-band write with NO version bump: invisible to the
    // refresh protocol, caught by the weight fingerprint.
    auto params = model.params();
    ASSERT_FALSE(params.empty());
    *params[0].value->data() += 1.0f;
    EXPECT_THROW(ex.run(x), plan::IntegrityError);
}

// ---- serving layer ---------------------------------------------------------

serve::ServeOptions
serve_opts()
{
    serve::ServeOptions opt;
    opt.workers = 2;
    opt.executor.verify_checksums = true;
    return opt;
}

TEST_F(FaultInjection, NaNInputRejectedTyped)
{
    nn::Model model = small_model();
    std::mt19937 rng(609);
    Tensor good({3, 16, 16});
    good.rand_uniform(rng, 0.0f, 1.0f);
    const Tensor want = model.infer(good);

    serve::ServeServer server(model, serve_opts());
    Tensor nan_x(good);
    nan_x.data()[17] = std::nanf("");
    Tensor inf_x(good);
    inf_x.data()[3] = HUGE_VALF;

    std::future<Tensor> ok1 = server.submit(Tensor(good));
    std::future<Tensor> bad1 = server.submit(std::move(nan_x));
    std::future<Tensor> bad2 = server.submit(std::move(inf_x));
    std::future<Tensor> ok2 = server.submit(Tensor(good));

    EXPECT_THROW(bad1.get(), serve::InvalidInputError);
    EXPECT_THROW(bad2.get(), serve::InvalidInputError);
    expect_bit_equal(ok1.get(), want, "healthy co-submission 1");
    expect_bit_equal(ok2.get(), want, "healthy co-submission 2");

    server.drain();
    const serve::ServeStats st = server.stats();
    EXPECT_EQ(st.rejected_inputs, 2u);
    EXPECT_EQ(st.completed, 2u);
    const serve::ServeHealth h = server.health();
    EXPECT_TRUE(h.admitting);
    EXPECT_FALSE(h.degraded);
    EXPECT_EQ(h.rejected_inputs, 2u);
}

TEST_F(FaultInjection, ServeRetryAbsorbsPlanAllocFailure)
{
    nn::Model model = small_model();
    std::mt19937 rng(610);
    Tensor x({3, 16, 16});
    x.rand_uniform(rng, 0.0f, 1.0f);
    const Tensor want = model.infer(x);

    serve::ServeServer server(model, serve_opts());
    util::fault_arm({"plan.alloc", 1, 1, 0});
    std::future<Tensor> fut = server.submit(Tensor(x));
    // The first compile dies with bad_alloc; the fallback retry
    // compiles fresh and must serve the identical bits.
    expect_bit_equal(fut.get(), want, "post-alloc-failure retry");
    server.drain();
    const serve::ServeStats st = server.stats();
    EXPECT_EQ(st.retries, 1u);
    EXPECT_EQ(st.retry_successes, 1u);
    EXPECT_FALSE(server.health().degraded);
}

TEST_F(FaultInjection, ServeStallKeepsLiveness)
{
    nn::Model model = small_model();
    std::mt19937 rng(611);
    std::vector<Tensor> inputs;
    std::vector<Tensor> refs;
    for (int i = 0; i < 6; ++i) {
        Tensor x({3, 16, 16});
        x.rand_uniform(rng, 0.0f, 1.0f);
        refs.push_back(model.infer(x));
        inputs.push_back(std::move(x));
    }
    serve::ServeServer server(model, serve_opts());
    util::fault_arm({"serve.stall", 5, 2, 0});
    std::vector<std::future<Tensor>> futs;
    for (auto& x : inputs) futs.push_back(server.submit(Tensor(x)));
    for (size_t i = 0; i < futs.size(); ++i) {
        ASSERT_EQ(futs[i].wait_for(std::chrono::seconds(60)),
                  std::future_status::ready)
            << "stalled worker wedged request " << i;
        expect_bit_equal(futs[i].get(), refs[i], "stalled batch");
    }
    server.drain();
    EXPECT_EQ(server.stats().failed, 0u);
}

TEST_F(FaultInjection, ServeSoakSeededFaultCampaign)
{
    // The flagship soak: seeds x fault modes against a live server.
    // Invariants, every iteration:
    //   - every accepted future RESOLVES (a .get() that neither
    //     returns nor throws a typed error fails the test — no
    //     abandoned futures, no deadlock);
    //   - a faulted batch that retried serves bits IDENTICAL to the
    //     unfaulted run;
    //   - an undetected weight flip is benign (deviation under the SDC
    //     threshold) — never silent corruption;
    //   - the server ends healthy (not degraded) because every fault
    //     here is transient.
    nn::Model model = small_model();
    std::mt19937 rng(612);
    constexpr int kRequests = 6;
    std::vector<Tensor> inputs;
    std::vector<Tensor> refs;
    for (int i = 0; i < kRequests; ++i) {
        Tensor x({3, 16, 16});
        x.rand_uniform(rng, 0.0f, 1.0f);
        refs.push_back(model.infer(x));
        inputs.push_back(std::move(x));
    }

    const char* kSites[] = {"fp32.weights", "fp32.kernel_throw",
                            "plan.alloc"};
    for (const char* site : kSites) {
        for (uint64_t seed = 1; seed <= 4; ++seed) {
            SCOPED_TRACE(std::string(site) + " seed " +
                         std::to_string(seed));
            serve::ServeServer server(model, serve_opts());
            util::fault_arm({site, seed, 1, 0});
            std::vector<std::future<Tensor>> futs;
            for (auto& x : inputs) futs.push_back(server.submit(Tensor(x)));
            for (int i = 0; i < kRequests; ++i) {
                ASSERT_EQ(futs[static_cast<size_t>(i)].wait_for(
                              std::chrono::seconds(60)),
                          std::future_status::ready)
                    << "request " << i << " never resolved";
            }
            server.drain();
            const serve::ServeStats st = server.stats();
            const bool fault_surfaced = st.retries > 0;
            for (int i = 0; i < kRequests; ++i) {
                const Tensor got = futs[static_cast<size_t>(i)].get();
                if (fault_surfaced) {
                    expect_bit_equal(got, refs[static_cast<size_t>(i)],
                                     "retried response");
                } else {
                    // Sub-tolerance weight flip: served, provably
                    // benign.
                    EXPECT_LE(max_deviation(got,
                                            refs[static_cast<size_t>(i)]),
                              kSdcThreshold)
                        << "request " << i << ": silent corruption";
                }
            }
            EXPECT_EQ(st.completed, static_cast<uint64_t>(kRequests));
            EXPECT_EQ(st.failed, 0u);
            EXPECT_EQ(st.retries, st.retry_successes);
            const serve::ServeHealth h = server.health();
            EXPECT_FALSE(h.degraded);
            EXPECT_EQ(h.pending, 0u);
            util::fault_clear();
        }
    }
}

TEST_F(FaultInjection, ServeWithoutRetrySurfacesIntegrityError)
{
    // retry_on_fault=false: the detection still protects callers (a
    // typed failure instead of corrupt bits) and health() degrades.
    nn::Model model = small_model();
    std::mt19937 rng(613);
    Tensor x({3, 16, 16});
    x.rand_uniform(rng, 0.0f, 1.0f);

    serve::ServeOptions opt = serve_opts();
    opt.retry_on_fault = false;
    serve::ServeServer server(model, opt);
    util::fault_arm({"fp32.kernel_throw", 9, 1, 0});
    std::future<Tensor> fut = server.submit(Tensor(x));
    EXPECT_THROW(fut.get(), std::runtime_error);
    server.drain();
    EXPECT_EQ(server.stats().retries, 0u);
}

// ---- simulator -------------------------------------------------------------

TEST_F(FaultInjection, SimulatorPricesChecksumPass)
{
    nn::Model model = small_model();
    std::mt19937 rng(614);
    std::vector<Tensor> calib;
    for (int i = 0; i < 2; ++i) {
        calib.push_back(data::synthetic_image(3, 16, 16, rng));
    }
    const quant::QuantizedModel qm(model, calib);
    const Tensor x = data::synthetic_image(3, 16, 16, rng);

    sim::SimConfig base;
    base.n = 4;
    sim::SimConfig verified = base;
    verified.verify_checksums = true;

    Tensor out_base, out_verified;
    const sim::SimStats sb =
        sim::Accelerator(base).run(qm, x, &out_base);
    const sim::SimStats sv =
        sim::Accelerator(verified).run(qm, x, &out_verified);
    // The checksum pass costs cycles and datapath reductions — and
    // changes no bits (the machine's outputs are priced, not altered).
    EXPECT_GT(sv.cycles, sb.cycles);
    EXPECT_GT(sv.datapath_ops, sb.datapath_ops);
    EXPECT_EQ(sv.mac_ops, sb.mac_ops);
    expect_bit_equal(out_verified, out_base, "sim verify on vs off");
}

}  // namespace
}  // namespace ringcnn
