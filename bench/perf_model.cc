/**
 * @file
 * End-to-end model inference benchmark: the PR-1 engine path (strict
 * fp64 engines, layer-by-layer walk, per-layer activation allocation)
 * against the compiled ModelExecutor (fp32 SIMD kernels, fused
 * epilogues, activation arena), single- and multi-threaded, plus
 * per-ring engine micro-timings.
 *
 * Emits BENCH_model.json (img/s, ns/MAC, per-ring table, fp32-vs-fp64
 * max |Δ|, an `int8` engine row, a `train_step` row comparing the
 * scalar-reference training path against the SIMD-parallel one, and a
 * `sparse` row timing ring-DOF-pruned backbones through the compiled
 * nonzero-tap tables at 0%/50%/75% sparsity, and an `integrity` row
 * measuring the ABFT checksum overhead plus the detection rate of a
 * seeded single-bit weight-flip campaign, and `video`/`megapixel` rows
 * driving the halo-tiled streaming layer: frames/s at temporal-skip
 * thresholds {off, 0, quant step, inf} on static-background video, and
 * MP/s streaming a 1080p frame through a 128x128 tile plan at
 * tile-bounded activation memory) so the perf trajectory of the repo
 * is recorded run over run. `--smoke` shrinks sizes/reps for CI.
 *
 * Usage: perf_model [--smoke] [--out PATH]
 * An unknown argument (or --out without a path) prints the usage and
 * exits with status 2 before any timing starts; --help prints it and
 * exits 0.
 */
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "baselines/pruning.h"
#include "bench_util.h"
#include "core/ring_conv_engine.h"
#include "core/simd.h"
#include "data/tasks.h"
#include "nn/conv_kernels.h"
#include "nn/executor.h"
#include "nn/layer.h"
#include "nn/model.h"
#include "nn/trainer.h"
#include "plan/graph_ir.h"
#include "quant/quant_executor.h"
#include "quant/quant_model.h"
#include "serve/serve_server.h"
#include "sim/accelerator.h"
#include "stream/video_pipeline.h"
#include "tensor/image_ops.h"
#include "util/fault.h"

namespace {

using namespace ringcnn;

double
now_ms()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Median wall time of `reps` calls, in milliseconds. */
template <typename Fn>
double
time_ms(int reps, Fn&& fn)
{
    std::vector<double> t;
    t.reserve(static_cast<size_t>(reps));
    for (int i = 0; i < reps; ++i) {
        const double t0 = now_ms();
        fn();
        t.push_back(now_ms() - t0);
    }
    std::sort(t.begin(), t.end());
    return t[t.size() / 2];
}


/** The acceptance workload: a 3-layer n=4 denoising backbone —
 *  RingConv2d(3x3) + fH directional ReLU, three times over C real
 *  channels of the RI4 ring. */
nn::Model
bench_backbone(const Ring& ring, int tuple_channels, int layers,
               unsigned seed)
{
    std::mt19937 rng(seed);
    const auto [u, v] = fh_transforms(ring.n);
    auto seq = std::make_unique<nn::Sequential>();
    for (int l = 0; l < layers; ++l) {
        seq->add(std::make_unique<nn::RingConv2d>(ring, tuple_channels,
                                                  tuple_channels, 3, rng));
        seq->add(std::make_unique<nn::DirectionalReLU>(u, v));
    }
    return nn::Model("bench-backbone", std::move(seq));
}

/**
 * The PR-1 inference path, reconstructed faithfully: one cached strict
 * fp64 engine per conv (weight transforms cached, as PR 1 did), a
 * fresh activation tensor per layer, nonlinearities through
 * Layer::forward.
 */
struct Pr1Path
{
    std::vector<nn::Layer*> layers;
    std::vector<std::unique_ptr<RingConvEngine>> engines;  // per conv

    Pr1Path(nn::Model& model, int threads)
    {
        auto& seq = dynamic_cast<nn::Sequential&>(model.root());
        for (size_t i = 0; i < seq.size(); ++i) {
            nn::Layer* l = &seq.at(i);
            layers.push_back(l);
            if (auto* rc = dynamic_cast<nn::RingConv2d*>(l)) {
                RingConvEngineOptions opt;
                opt.strict_fp64 = true;
                opt.threads = threads;
                engines.push_back(std::make_unique<RingConvEngine>(
                    rc->ring(), rc->weights(), rc->bias(), opt));
            } else {
                engines.push_back(nullptr);
            }
        }
    }

    Tensor run(const Tensor& x) const
    {
        Tensor cur = x;
        for (size_t i = 0; i < layers.size(); ++i) {
            if (engines[i]) {
                cur = engines[i]->run(cur);
            } else {
                cur = layers[i]->forward(cur, false);
            }
        }
        return cur;
    }
};

struct RingRow
{
    std::string ring;
    double fp64_ns_per_mac = 0.0;
    double fp32_ns_per_mac = 0.0;
};

/**
 * Milliseconds per optimizer step of train_on_task on a fresh copy of
 * the bench backbone: the fixed per-run overhead (data generation,
 * executor compile, final eval) is measured with a zero-step run and
 * subtracted out.
 */
double
train_ms_per_step(const nn::Model& proto, const data::ImagingTask& task,
                  nn::TrainConfig cfg, int steps)
{
    cfg.steps = 0;
    nn::Model warm(proto);
    const double t0 = now_ms();
    nn::train_on_task(warm, task, cfg);
    const double overhead_ms = now_ms() - t0;

    cfg.steps = steps;
    nn::Model m(proto);
    const double t1 = now_ms();
    nn::train_on_task(m, task, cfg);
    const double total_ms = now_ms() - t1;
    // Floor keeps a noisy overhead estimate from producing 0 (and the
    // callers' speedup divisions from producing inf in the JSON).
    return std::max(1e-3, (total_ms - overhead_ms) / steps);
}

/** q-th percentile (0..1) of a latency sample, by sorting a copy. */
double
percentile_ms(std::vector<double> lat, double q)
{
    if (lat.empty()) return 0.0;
    std::sort(lat.begin(), lat.end());
    const size_t idx = static_cast<size_t>(
        std::min<double>(static_cast<double>(lat.size()) - 1.0,
                         q * (static_cast<double>(lat.size()) - 1.0)));
    return lat[idx];
}

/** Closed-loop client latencies + wall time for one serving scenario. */
struct ServeRun
{
    std::vector<double> lat_ms;  ///< one entry per request
    double wall_ms = 0.0;
    double img_per_s(int requests) const
    {
        return wall_ms > 0.0 ? 1000.0 * requests / wall_ms : 0.0;
    }
};

/**
 * Runs `clients` closed-loop client threads, each performing
 * `per_client` requests through `request` (a callable taking the
 * client index and returning when its response arrived).
 */
template <typename Fn>
ServeRun
closed_loop(int clients, int per_client, Fn&& request)
{
    ServeRun run;
    std::vector<std::vector<double>> lats(static_cast<size_t>(clients));
    std::vector<std::thread> threads;
    const double t0 = now_ms();
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c]() {
            auto& mine = lats[static_cast<size_t>(c)];
            mine.reserve(static_cast<size_t>(per_client));
            for (int i = 0; i < per_client; ++i) {
                const double r0 = now_ms();
                request(c);
                mine.push_back(now_ms() - r0);
            }
        });
    }
    for (auto& t : threads) t.join();
    run.wall_ms = now_ms() - t0;
    for (auto& l : lats) {
        run.lat_ms.insert(run.lat_ms.end(), l.begin(), l.end());
    }
    return run;
}

void
print_usage(std::FILE* f)
{
    std::fprintf(f,
                 "usage: perf_model [--smoke] [--out PATH]\n"
                 "  --smoke     shrink sizes and repetitions (CI)\n"
                 "  --out PATH  perf record path (default "
                 "BENCH_model.json)\n");
}

}  // namespace

int
main(int argc, char** argv)
{
    bool smoke = false;
    std::string out_path = "BENCH_model.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0) {
            print_usage(stdout);
            return 0;
        }
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr, "perf_model: %s '%s'\n",
                         std::strcmp(argv[i], "--out") == 0
                             ? "missing value for"
                             : "unknown argument",
                         argv[i]);
            print_usage(stderr);
            return 2;
        }
    }

    const int hw = smoke ? 64 : 128;
    const int reps = smoke ? 3 : 9;
    const int tuple_channels = 8;  // 32 real channels over n=4
    const int layers = 3;

    const Ring& ri4 = get_ring("RI4");
    nn::Model model = bench_backbone(ri4, tuple_channels, layers, 7);
    const Shape in_shape{tuple_channels * ri4.n, hw, hw};
    const int64_t macs = model.macs(in_shape);

    std::mt19937 rng(11);
    Tensor x(in_shape);
    x.randn(rng);

    std::printf("perf_model: %d-layer n=%d backbone, %dx%d, %lld MAC/img, "
                "simd=%s%s\n",
                layers, ri4.n, hw, hw, static_cast<long long>(macs),
                simd::active_isa(), smoke ? " (smoke)" : "");

    // ---- end-to-end: PR-1 path vs executor, 1 and 8 threads ----
    const Pr1Path pr1_st(model, 1);
    nn::ExecutorOptions ex_st;
    ex_st.threads = 1;
    nn::ModelExecutor exec_st(model, in_shape, ex_st);

    // Accuracy first (also warms both paths).
    const Tensor ref64 = pr1_st.run(x);
    const Tensor got32 = exec_st.run(x);
    const double fp_diff = max_abs_diff(ref64, got32);

    const double pr1_st_ms = time_ms(reps, [&]() { pr1_st.run(x); });
    const double exec_st_ms =
        time_ms(reps, [&]() { exec_st.run_view(x); });

    const Pr1Path pr1_mt(model, 8);
    nn::ExecutorOptions ex_mt;
    ex_mt.threads = 8;
    nn::ModelExecutor exec_mt(model, in_shape, ex_mt);
    pr1_mt.run(x);          // warm
    exec_mt.run_view(x);    // warm
    const double pr1_mt_ms = time_ms(reps, [&]() { pr1_mt.run(x); });
    const double exec_mt_ms =
        time_ms(reps, [&]() { exec_mt.run_view(x); });

    const double st_speedup = pr1_st_ms / exec_st_ms;
    const double mt_speedup = pr1_mt_ms / exec_mt_ms;
    std::printf("  single-thread: PR-1 %.2f ms  executor %.2f ms  "
                "(%.2fx)\n",
                pr1_st_ms, exec_st_ms, st_speedup);
    std::printf("  8-thread:      PR-1 %.2f ms  executor %.2f ms  "
                "(%.2fx)\n",
                pr1_mt_ms, exec_mt_ms, mt_speedup);
    std::printf("  fp32 vs fp64 max|d| = %.3g\n", fp_diff);

    // ---- int8: scalar quantized walk vs compiled QuantExecutor ----
    quant::QuantizedModel qm(model, {x});
    const quant::QAct qin = qm.quantize_input(x);
    const quant::QAct q_ref = qm.root()->forward(qin);  // scalar oracle

    plan::ExecOptions qx_st;
    qx_st.threads = 1;
    quant::QuantExecutor qex_st(qm, qx_st);
    const quant::QAct q_eng = qex_st.run(qin);  // also warms the plan
    bool int8_bit_exact = q_ref.shape == q_eng.shape &&
                          q_ref.frac == q_eng.frac && q_ref.v == q_eng.v;

    // The per-pixel scalar walk is orders slower; a few reps suffice.
    const int scalar_reps = smoke ? 2 : 3;
    const double q_scalar_ms =
        time_ms(scalar_reps, [&]() { qm.root()->forward(qin); });
    const double q_eng_st_ms = time_ms(reps, [&]() { qex_st.run(qin); });

    plan::ExecOptions qx_mt;
    qx_mt.threads = 8;
    quant::QuantExecutor qex_mt(qm, qx_mt);
    qex_mt.run(qin);  // warm
    const double q_eng_mt_ms = time_ms(reps, [&]() { qex_mt.run(qin); });

    const double q_st_speedup = q_scalar_ms / q_eng_st_ms;
    const double q_mt_speedup = q_scalar_ms / q_eng_mt_ms;
    // int8 engine against the fp32 executor, both single-threaded in
    // this run: <= 1 means the 8-bit datapath is at least as fast.
    const double q_vs_fp32_st = q_eng_st_ms / exec_st_ms;
    std::printf("  int8:          scalar %.2f ms  engine %.2f ms (%.1fx)  "
                "engine-8t %.2f ms (%.1fx)  vs fp32 %.2f  bit-exact=%s\n",
                q_scalar_ms, q_eng_st_ms, q_st_speedup, q_eng_mt_ms,
                q_mt_speedup, q_vs_fp32_st, int8_bit_exact ? "yes" : "NO");

    double train_scalar_ms = 0.0, train_simd_st_ms = 0.0,
           train_simd_mt_ms = 0.0;
    const int train_patch = smoke ? 24 : 48;
    // ---- train_step: scalar reference vs SIMD-parallel training ----
    // The ISSUE/ROADMAP acceptance row: one optimizer step of the same
    // 3-layer n=4 backbone (48x48 patches, batch 8, denoising) on the
    // seed scalar path (TrainKernelOptions::strict_reference) vs the
    // SIMD row-kernel + data-parallel path at 1 and 8 workers.
    {
        const int patch = train_patch;
        const int train_steps = smoke ? 3 : 5;
        const data::DenoiseTask train_task(25.0f / 255.0f,
                                           tuple_channels * ri4.n);
        nn::Model proto = bench_backbone(ri4, tuple_channels, layers, 7);
        nn::TrainConfig tc;
        tc.batch_size = 8;
        tc.patch = patch;
        tc.eval_count = 1;
        tc.eval_patch = 16;

        nn::TrainKernelOptions& ko = nn::train_kernel_options();
        const nn::TrainKernelOptions saved = ko;
        ko.strict_reference = true;
        const double scalar_ms =
            train_ms_per_step(proto, train_task, tc, train_steps);
        ko.strict_reference = false;
        // Pin the kernels' channel-level threads too, so the st row is
        // genuinely single-threaded on multi-core hosts (threads = 0
        // would let the conv kernels fan out even with one batch
        // worker).
        ko.threads = 1;
        tc.threads = 1;
        const double simd_st_ms =
            train_ms_per_step(proto, train_task, tc, train_steps);
        ko.threads = 8;
        tc.threads = 8;
        const double simd_mt_ms =
            train_ms_per_step(proto, train_task, tc, train_steps);
        ko = saved;

        const double tr_st_speedup = scalar_ms / simd_st_ms;
        const double tr_mt_speedup = scalar_ms / simd_mt_ms;
        std::printf("  train_step:    scalar %.2f ms  simd %.2f ms (%.2fx)  "
                    "simd-8w %.2f ms (%.2fx)   [%dx%d patches, batch 8]\n",
                    scalar_ms, simd_st_ms, tr_st_speedup, simd_mt_ms,
                    tr_mt_speedup, patch, patch);

        train_scalar_ms = scalar_ms;
        train_simd_st_ms = simd_st_ms;
        train_simd_mt_ms = simd_mt_ms;
    }

    // ---- serve: shape-bucketed batching vs per-request dispatch ----
    // The ISSUE-5 acceptance row. 8 closed-loop clients on the same
    // backbone/shape. Baseline: per-request dispatch — every client
    // owns its own compiled executor (executor.h's documented pattern
    // for concurrent callers), one image per run. Serve: ServeServer
    // coalescing up to 8 images per batch over the per-shape plan
    // cache. Both sides run the same kernels, so the speedup is the
    // batching win alone.
    const int serve_clients = 8;
    const int serve_per_client = smoke ? 4 : 12;
    const int serve_requests = serve_clients * serve_per_client;
    double pr_img_s = 0.0, srv_img_s = 0.0;
    double pr_p50 = 0.0, pr_p99 = 0.0, srv_p50 = 0.0, srv_p99 = 0.0;
    double srv_mean_batch = 0.0;
    bool serve_bit_identical = true;
    {
        std::vector<Tensor> imgs;
        for (int c = 0; c < serve_clients; ++c) {
            Tensor t(in_shape);
            t.randn(rng);
            imgs.push_back(std::move(t));
        }
        std::vector<Tensor> refs;
        for (const auto& img : imgs) refs.push_back(model.infer(img));

        // Baseline: per-client executors, no batching.
        {
            std::vector<std::unique_ptr<nn::ModelExecutor>> per_client;
            for (int c = 0; c < serve_clients; ++c) {
                per_client.push_back(std::make_unique<nn::ModelExecutor>(
                    model, in_shape));
                per_client.back()->run_view(imgs[static_cast<size_t>(c)]);
            }
            const ServeRun r =
                closed_loop(serve_clients, serve_per_client, [&](int c) {
                    per_client[static_cast<size_t>(c)]->run(
                        imgs[static_cast<size_t>(c)]);
                });
            pr_img_s = r.img_per_s(serve_requests);
            pr_p50 = percentile_ms(r.lat_ms, 0.5);
            pr_p99 = percentile_ms(r.lat_ms, 0.99);
        }
        // The serving layer: shape buckets, batch 8, plan cache. The
        // throughput scenario gives the linger window real room — a
        // closed-loop client takes a moment to resubmit after its
        // response, and a batch amortizes far more than the wait
        // costs.
        {
            serve::ServeOptions so;
            so.linger_ms = 4.0;
            serve::ServeServer server(model, so);
            // Warm the plan and verify bit-identity to Model::infer.
            for (int c = 0; c < serve_clients; ++c) {
                const Tensor out =
                    server.submit_view(imgs[static_cast<size_t>(c)])
                        .get();
                const Tensor& want = refs[static_cast<size_t>(c)];
                if (out.shape() != want.shape()) {
                    serve_bit_identical = false;
                    continue;
                }
                for (int64_t i = 0; i < want.numel(); ++i) {
                    if (out[i] != want[i]) {
                        serve_bit_identical = false;
                        break;
                    }
                }
            }
            server.drain();
            const ServeRun r =
                closed_loop(serve_clients, serve_per_client, [&](int c) {
                    server.submit_view(imgs[static_cast<size_t>(c)])
                        .get();
                });
            server.drain();
            srv_img_s = r.img_per_s(serve_requests);
            srv_p50 = percentile_ms(r.lat_ms, 0.5);
            srv_p99 = percentile_ms(r.lat_ms, 0.99);
            srv_mean_batch = server.stats().mean_batch();
        }
        std::printf(
            "  serve:         per-request %.1f img/s (p50 %.1f p99 %.1f ms)"
            "  batched %.1f img/s (p50 %.1f p99 %.1f ms)  %.2fx"
            "  [batch %.1f, bit-identical=%s]\n",
            pr_img_s, pr_p50, pr_p99, srv_img_s, srv_p50, srv_p99,
            pr_img_s > 0 ? srv_img_s / pr_img_s : 0.0, srv_mean_batch,
            serve_bit_identical ? "yes" : "NO");
    }

    // ---- serve_overload: open-loop arrival rate >> capacity ----
    // The ISSUE-8 acceptance row. The closed-loop serve row above never
    // stresses admission — each client waits for its response before
    // submitting again, so the queue is self-limiting. Real camera
    // pipelines are OPEN loop: frames arrive on a clock whether or not
    // the server kept up. At 2x the measured serve capacity, an
    // unbounded queue grows linearly and EVERY request's latency
    // diverges; with ServeOptions::max_queue + kShed admission the
    // server sheds the excess and the admitted requests' p99 stays
    // bounded by queue_bound/capacity — while every admitted response
    // remains bit-identical to single-request Model::infer (shedding
    // never perturbs surviving batches).
    double ov_arrival_img_s = 0.0, ov_capacity_img_s = 0.0;
    double ov_unbounded_p99 = 0.0, ov_shed_p50 = 0.0, ov_shed_p99 = 0.0,
           ov_shed_p999 = 0.0, ov_shed_rate = 0.0, ov_p99_ratio = 0.0;
    int ov_offered = 0;
    uint64_t ov_max_queue = 0;
    bool ov_bit_identical = true;
    {
        ov_capacity_img_s = std::max(1.0, srv_img_s);
        ov_arrival_img_s = 2.0 * ov_capacity_img_s;
        ov_offered = smoke ? 160 : 320;
        ov_max_queue = 16;  // 2x max_batch: ~2 batches of headroom

        std::vector<Tensor> imgs;
        std::vector<Tensor> refs;
        for (int i = 0; i < 4; ++i) {
            Tensor t(in_shape);
            t.randn(rng);
            refs.push_back(model.infer(t));
            imgs.push_back(std::move(t));
        }

        // The shared open-loop fixed-clock generator (bench_util.h):
        // the collector waits the futures in order (one shape => FIFO
        // completion) so each latency is stamped when the response
        // actually lands, not after the arrival ramp ends.
        struct OverloadRun
        {
            std::vector<double> lat_ms;  ///< admitted requests only
            int shed = 0;
            bool bits_ok = true;
        };
        auto open_loop_overload = [&](serve::ServeServer& server) {
            OverloadRun run;
            std::vector<std::future<Tensor>> futs(
                static_cast<size_t>(ov_offered));
            std::vector<double> t_sub(static_cast<size_t>(ov_offered), 0.0);
            bench::open_loop_fixed_clock(
                ov_offered, ov_arrival_img_s,
                [&](int i) {
                    const size_t si = static_cast<size_t>(i);
                    t_sub[si] = now_ms();
                    futs[si] = server.submit_view(imgs[si % imgs.size()]);
                },
                [&](int i) {
                    const size_t si = static_cast<size_t>(i);
                    try {
                        const Tensor out = futs[si].get();
                        run.lat_ms.push_back(now_ms() - t_sub[si]);
                        const Tensor& want = refs[si % imgs.size()];
                        if (out.shape() != want.shape()) {
                            run.bits_ok = false;
                            return;
                        }
                        for (int64_t k = 0; k < want.numel(); ++k) {
                            if (out[k] != want[k]) {
                                run.bits_ok = false;
                                break;
                            }
                        }
                    } catch (const serve::OverloadError&) {
                        ++run.shed;
                    }
                });
            server.drain();
            return run;
        };

        serve::ServeOptions base;
        base.linger_ms = 4.0;

        double unb_p999 = 0.0;
        {
            serve::ServeServer server(model, base);  // unbounded queue
            const OverloadRun r = open_loop_overload(server);
            ov_unbounded_p99 = percentile_ms(r.lat_ms, 0.99);
            unb_p999 = percentile_ms(r.lat_ms, 0.999);
            ov_bit_identical = ov_bit_identical && r.bits_ok;
        }
        {
            serve::ServeOptions so = base;
            so.max_queue = ov_max_queue;
            so.admission = serve::Admission::kShed;
            serve::ServeServer server(model, so);
            const OverloadRun r = open_loop_overload(server);
            ov_shed_p50 = percentile_ms(r.lat_ms, 0.5);
            ov_shed_p99 = percentile_ms(r.lat_ms, 0.99);
            ov_shed_p999 = percentile_ms(r.lat_ms, 0.999);
            ov_shed_rate =
                static_cast<double>(r.shed) / static_cast<double>(ov_offered);
            ov_bit_identical = ov_bit_identical && r.bits_ok;
        }
        ov_p99_ratio = ov_unbounded_p99 > 0.0
                           ? ov_shed_p99 / ov_unbounded_p99
                           : 0.0;
        std::printf(
            "  serve_overload: %.0f img/s offered (2x capacity %.0f)  "
            "unbounded p99/p999 %.0f/%.0f ms  shed p50/p99/p999 "
            "%.0f/%.0f/%.0f ms  shed_rate %.2f  p99 ratio %.2fx  "
            "bit-identical=%s\n",
            ov_arrival_img_s, ov_capacity_img_s, ov_unbounded_p99, unb_p999,
            ov_shed_p50, ov_shed_p99, ov_shed_p999, ov_shed_rate,
            ov_p99_ratio, ov_bit_identical ? "yes" : "NO");
    }

    // ---- video: halo-tiled streaming + temporal-delta fast path ----
    // The streaming acceptance row (the paper's Table VII framing vs
    // Diffy: exploit temporal input similarity). Synthetic video with a
    // static background: per frame one pixel deep inside 25% of the
    // tiles' interiors moves — interior centers sit beyond the halo of
    // every other tile's window, so exactly those tiles recompute and
    // the rest are bit-static. Frames stream through VideoPipeline ->
    // ServeServer on the shared open-loop clock at an arrival rate far
    // above capacity, so every row measures capacity. skip_threshold:
    // -1 (fast path off — the A/B baseline), 0 (bit-exact reuse), the
    // int8 quantization step, and +inf (reuse everything); the
    // baseline and threshold-0 rows are pinned bit-identical to
    // per-frame WHOLE-frame inference (tiling equivalence + exact
    // reuse). The simulator prices the threshold-0 run's
    // computed/skipped split through price_tile_stream.
    const int vid_tile = 64;
    const int vid_frame_hw = smoke ? 192 : 256;
    const int vid_frames = smoke ? 6 : 16;
    int vid_tiles = 0;
    double vid_fps_base = 0.0, vid_fps_thr0 = 0.0, vid_fps_quant = 0.0,
           vid_fps_inf = 0.0;
    double vid_skip_rate = 0.0, vid_quant_thr = 0.0;
    bool vid_bit_identical = true;
    unsigned long long vid_sim_macs_full = 0, vid_sim_macs = 0;
    unsigned long long vid_sim_cycles_full = 0, vid_sim_cycles = 0;
    {
        const Shape tile_shape{tuple_channels * ri4.n, vid_tile, vid_tile};
        nn::ModelExecutor tile_exec(model, tile_shape);
        const plan::GraphPlan& tplan = tile_exec.plan();
        stream::Tiler tiler(tplan);
        const std::vector<stream::Tile> tls =
            tiler.tiles(vid_frame_hw, vid_frame_hw);
        vid_tiles = static_cast<int>(tls.size());
        const size_t moving = tls.size() / 4;  // 25% of tiles move

        std::mt19937 vrng(23);
        Tensor vbase({tuple_channels * ri4.n, vid_frame_hw, vid_frame_hw});
        vbase.rand_uniform(vrng, 0.0f, 1.0f);
        std::vector<Tensor> frames;
        for (int fi = 0; fi < vid_frames; ++fi) {
            Tensor fr = vbase;
            for (size_t m = 0; m < moving; ++m) {
                const stream::Tile& t = tls[m];
                const int cy = (t.iy0 + t.iy1) / 2;
                const int cx = (t.ix0 + t.ix1) / 2;
                // Toggle well past the int8 quant step, so the moving
                // tiles recompute under every finite threshold.
                for (int c = 0; c < fr.shape()[0]; ++c) {
                    fr.at(c, cy, cx) = fi % 2 == 0 ? 0.1f : 0.9f;
                }
            }
            frames.push_back(std::move(fr));
        }
        // Whole-frame per-frame inference: the bit-identity oracle.
        std::vector<Tensor> vrefs;
        {
            nn::ModelExecutor frame_exec(model, frames[0].shape());
            for (const Tensor& fr : frames) {
                vrefs.push_back(frame_exec.run(fr));
            }
        }
        vid_quant_thr = stream::quant_skip_threshold(qm);
        const double vid_arrival_fps = 10000.0;  // >> capacity

        auto run_video = [&](double thr, bool check_bits) {
            serve::ServeOptions so;
            so.linger_ms = 0.5;
            serve::ServeServer server(model, so);
            {
                // Warm the server's tile plan outside the timed window.
                Tensor warm;
                tiler.extract(frames[0], tls[0], &warm);
                server.submit(std::move(warm)).get();
            }
            stream::VideoOptions vo;
            vo.skip_threshold = thr;
            stream::VideoPipeline pipe(server, tplan, vo);
            std::vector<std::future<Tensor>> futs(frames.size());
            const double t0 = now_ms();
            bench::open_loop_fixed_clock(
                static_cast<int>(frames.size()), vid_arrival_fps,
                [&](int i) {
                    futs[static_cast<size_t>(i)] =
                        pipe.push(frames[static_cast<size_t>(i)]);
                },
                [&](int i) {
                    const Tensor out = futs[static_cast<size_t>(i)].get();
                    if (!check_bits) return;
                    const Tensor& want = vrefs[static_cast<size_t>(i)];
                    if (out.shape() != want.shape() ||
                        std::memcmp(out.data(), want.data(),
                                    static_cast<size_t>(want.numel()) *
                                        sizeof(float)) != 0) {
                        vid_bit_identical = false;
                    }
                });
            pipe.drain();
            const double wall = now_ms() - t0;
            const double fps =
                wall > 0.0 ? 1000.0 * vid_frames / wall : 0.0;
            return std::make_pair(fps, pipe.stats());
        };

        vid_fps_base = run_video(-1.0, true).first;
        const auto [fps0, vs0] = run_video(0.0, true);
        vid_fps_thr0 = fps0;
        vid_skip_rate = vs0.skip_rate();
        vid_fps_quant = run_video(vid_quant_thr, false).first;
        vid_fps_inf =
            run_video(std::numeric_limits<double>::infinity(), false)
                .first;

        sim::SimConfig vsc;
        vsc.n = ri4.n;
        const sim::Accelerator vacc(vsc);
        const sim::SimStats sim_full = vacc.price_tile_stream(
            qm, tile_shape, vs0.computed + vs0.skipped, 0);
        const sim::SimStats sim_skip = vacc.price_tile_stream(
            qm, tile_shape, vs0.computed, vs0.skipped);
        vid_sim_macs_full = sim_full.mac_ops;
        vid_sim_macs = sim_skip.mac_ops;
        vid_sim_cycles_full = sim_full.cycles;
        vid_sim_cycles = sim_skip.cycles;

        std::printf(
            "  video:         %dx%d, %d tiles of %d^2, %d frames  "
            "off %.1f fps  thr0 %.1f fps (%.2fx, skip %.0f%%)  "
            "quant %.1f fps  inf %.1f fps  bit-identical=%s\n",
            vid_frame_hw, vid_frame_hw, vid_tiles, vid_tile, vid_frames,
            vid_fps_base, vid_fps_thr0,
            vid_fps_base > 0.0 ? vid_fps_thr0 / vid_fps_base : 0.0,
            vid_skip_rate * 100.0, vid_fps_quant, vid_fps_inf,
            vid_bit_identical ? "yes" : "NO");
        std::printf(
            "  video sim:     MACs %llu -> %llu (%.2fx)   cycles %llu "
            "-> %llu (%.2fx)\n",
            vid_sim_macs_full, vid_sim_macs,
            vid_sim_macs > 0
                ? static_cast<double>(vid_sim_macs_full) /
                      static_cast<double>(vid_sim_macs)
                : 0.0,
            vid_sim_cycles_full, vid_sim_cycles,
            vid_sim_cycles > 0
                ? static_cast<double>(vid_sim_cycles_full) /
                      static_cast<double>(vid_sim_cycles)
                : 0.0);
    }

    // ---- megapixel: 1080p frames through a 128x128 tile plan ----
    // The megapixel acceptance row: a full HD frame (smoke: 640x384)
    // streams through the SAME 128x128 tile plan the server would use
    // for any other request — no frame-sized compile anywhere on the
    // serving path — and the assembled output is pinned bit-identical
    // to whole-frame inference (shifted windows; PSNR reported for the
    // record, clamped at 199 dB when exact). arena_bytes pins the
    // memory story: the streaming path's activation arena is the TILE
    // plan's, orders of magnitude under the frame plan's.
    const int mp_tile = 128;
    const int mp_w = smoke ? 640 : 1920;
    const int mp_h = smoke ? 384 : 1080;
    int mp_tiles = 0;
    double mp_per_s = 0.0, mp_psnr_db = 0.0;
    bool mp_bit_identical = true;
    long long mp_tile_arena = 0, mp_frame_arena = 0;
    {
        // 1 tuple channel (n=4: four real channels, RGBA-like) keeps
        // the whole-frame oracle executor affordable at 1080p.
        nn::Model mp_model = bench_backbone(ri4, 1, layers, 13);
        const Shape mp_tile_shape{ri4.n, mp_tile, mp_tile};
        nn::ModelExecutor mp_tile_exec(mp_model, mp_tile_shape);
        {
            // The arena allocates on first run; warm it so arena_bytes
            // reports the tile plan's true steady-state footprint.
            Tensor warm(mp_tile_shape);
            mp_tile_exec.run_view(warm);
        }
        Tensor frame({ri4.n, mp_h, mp_w});
        std::mt19937 mrng(29);
        frame.rand_uniform(mrng, 0.0f, 1.0f);

        nn::ModelExecutor mp_frame_exec(mp_model, frame.shape());
        const Tensor want = mp_frame_exec.run(frame);
        mp_tile_arena = mp_tile_exec.arena_bytes();
        mp_frame_arena = mp_frame_exec.arena_bytes();

        serve::ServeOptions so;
        so.linger_ms = 0.5;
        serve::ServeServer server(mp_model, so);
        stream::VideoPipeline pipe(server, mp_tile_exec.plan(), {});
        mp_tiles = static_cast<int>(pipe.tiler().tiles(mp_h, mp_w).size());
        const Tensor got = pipe.push(frame).get();  // warms the plan
        mp_bit_identical =
            got.shape() == want.shape() &&
            std::memcmp(got.data(), want.data(),
                        static_cast<size_t>(want.numel()) *
                            sizeof(float)) == 0;
        double peak = 0.0;
        for (int64_t i = 0; i < want.numel(); ++i) {
            peak = std::max(peak,
                            std::abs(static_cast<double>(want[i])));
        }
        mp_psnr_db = std::min(199.0, psnr(want, got, peak));
        const int mp_reps = smoke ? 2 : 3;
        const double mp_ms =
            time_ms(mp_reps, [&]() { pipe.push(frame).get(); });
        mp_per_s = mp_ms > 0.0
                       ? (static_cast<double>(mp_h) * mp_w / 1e6) *
                             1000.0 / mp_ms
                       : 0.0;
        std::printf(
            "  megapixel:     %dx%d via %d tiles of %d^2  %.2f MP/s  "
            "PSNR %.0f dB  arena %lld B (frame plan %lld B, %.0fx)  "
            "bit-identical=%s\n",
            mp_w, mp_h, mp_tiles, mp_tile, mp_per_s, mp_psnr_db,
            mp_tile_arena, mp_frame_arena,
            mp_tile_arena > 0 ? static_cast<double>(mp_frame_arena) /
                                    static_cast<double>(mp_tile_arena)
                              : 0.0,
            mp_bit_identical ? "yes" : "NO");
    }

    // ---- plan_compile: shared-pipeline compile latency ----
    // Fresh = linearize + fuse + arena-plan + backend lowering (engine
    // construction included) for the 3-layer RI4 backbone — also the
    // cost of every plan-cache reclaim, which compiles fresh.
    double plan_fresh_ms = 0.0;
    {
        nn::Model proto = bench_backbone(ri4, tuple_channels, layers, 7);
        const Shape shape_a{tuple_channels * ri4.n, hw, hw};
        plan_fresh_ms = time_ms(reps, [&]() {
            nn::ModelExecutor e(proto, shape_a);
            (void)e;
        });
        std::printf("  plan_compile:  fresh %.4f ms\n", plan_fresh_ms);
    }

    // ---- sparse: ring-DOF-pruned weights through compiled tap tables ----
    // The ISSUE-7 acceptance row: the same 3-layer RI4 backbone pruned
    // in ring space at 0%/50%/75% tuple sparsity and run through the
    // compiled tap-table executors, single-threaded. Pruned tuples
    // never enter the compiled tables, so ms/img falls with density;
    // speedup_75 is the 75%-pruned run against the unpruned one.
    // bit_exact per row pins the int8 engine against the scalar
    // quantized oracle (the fp32 tables are pinned against a scalar
    // FRCONV reference in tests/test_sparse_kernels.cc).
    struct SparseRow
    {
        double sparsity = 0.0;
        double fp32_ms = 0.0;
        double int8_ms = 0.0;
        long long fp32_skips = 0;
        long long int8_skips = 0;
        unsigned long long sim_macs = 0;
        bool bit_exact = true;
    };
    std::vector<SparseRow> sparse_rows;
    double sparse_speedup_75 = 0.0, sparse_int8_speedup_75 = 0.0;
    bool sparse_bit_exact = true;
    {
        sim::SimConfig sc;
        sc.n = ri4.n;
        const sim::Accelerator acc(sc);
        for (const double sparsity : {0.0, 0.5, 0.75}) {
            nn::Model sm = bench_backbone(ri4, tuple_channels, layers, 7);
            if (sparsity > 0.0) baselines::ring_dof_prune(sm, sparsity);

            SparseRow row;
            row.sparsity = sparsity;

            nn::ExecutorOptions so;
            so.threads = 1;
            nn::ModelExecutor sexec(sm, in_shape, so);
            row.fp32_ms = time_ms(reps, [&]() { sexec.run_view(x); });
            row.fp32_skips = sexec.sparse_tap_skip_count();

            quant::QuantizedModel sqm(sm, {x});
            const quant::QAct sqin = sqm.quantize_input(x);
            plan::ExecOptions sqo;
            sqo.threads = 1;
            quant::QuantExecutor sqex(sqm, sqo);
            const quant::QAct sq_eng = sqex.run(sqin);
            const quant::QAct sq_ref = sqm.root()->forward(sqin);
            row.bit_exact = sq_ref.shape == sq_eng.shape &&
                            sq_ref.frac == sq_eng.frac &&
                            sq_ref.v == sq_eng.v;
            row.int8_ms = time_ms(reps, [&]() { sqex.run(sqin); });
            row.int8_skips = sqex.sparse_tap_skip_count();
            row.sim_macs = acc.run(sqm, x).mac_ops;

            sparse_bit_exact = sparse_bit_exact && row.bit_exact;
            sparse_rows.push_back(row);
        }
        sparse_speedup_75 =
            sparse_rows[2].fp32_ms > 0.0
                ? sparse_rows[0].fp32_ms / sparse_rows[2].fp32_ms
                : 0.0;
        sparse_int8_speedup_75 =
            sparse_rows[2].int8_ms > 0.0
                ? sparse_rows[0].int8_ms / sparse_rows[2].int8_ms
                : 0.0;
        for (const SparseRow& r : sparse_rows) {
            std::printf(
                "  sparse %3.0f%%:   fp32 %.2f ms  int8 %.2f ms  "
                "skipped taps %lld/%lld  sim MACs %llu  bit-exact=%s\n",
                r.sparsity * 100.0, r.fp32_ms, r.int8_ms,
                r.fp32_skips, r.int8_skips, r.sim_macs,
                r.bit_exact ? "yes" : "NO");
        }
        std::printf("  sparse:        75%% vs unpruned fp32 %.2fx  "
                    "int8 %.2fx\n",
                    sparse_speedup_75, sparse_int8_speedup_75);
    }

    // ---- integrity: ABFT checksum overhead + seeded fault campaign ----
    // The ISSUE-9 acceptance row. Overhead: the 3-layer RI4 backbone
    // with verify_checksums on vs off (fp32 executor + int8 engine,
    // single-threaded), verified outputs pinned bit-identical to the
    // unverified run. Campaign: seeded single-bit weight flips landed
    // in the derived per-conv weight tables at compile time; each
    // trial either trips plan::IntegrityError (detected), stays under
    // the 1e-3 end-to-end deviation threshold (benign, mirrors
    // test_fault_injection's SDC classification), or is a silent data
    // corruption (missed). sdc_detection_rate counts detected over all
    // SDC-class faults (detected + missed); the int8 checksum is exact
    // in integers, so int8_detection_rate counts every flip outright.
    double integ_fp32_ms = 0.0, integ_fp32_verified_ms = 0.0;
    double integ_int8_ms = 0.0, integ_int8_verified_ms = 0.0;
    bool integ_bit_identical = true;
    int integ_trials = 0, integ_detected = 0, integ_benign = 0;
    int integ_missed = 0, integ_i8_trials = 0, integ_i8_detected = 0;
    double integ_sdc_rate = 0.0, integ_i8_rate = 0.0;
    {
        nn::Model im = bench_backbone(ri4, tuple_channels, layers, 7);

        nn::ExecutorOptions io;
        io.threads = 1;
        nn::ModelExecutor iplain(im, in_shape, io);
        nn::ExecutorOptions iv = io;
        iv.verify_checksums = true;
        nn::ModelExecutor iverified(im, in_shape, iv);
        const Tensor want = iplain.run(x);
        const Tensor vgot = iverified.run(x);
        integ_bit_identical =
            want.shape() == vgot.shape() &&
            std::memcmp(want.data(), vgot.data(),
                        static_cast<size_t>(want.numel()) *
                            sizeof(float)) == 0;
        integ_fp32_ms = time_ms(reps, [&]() { iplain.run_view(x); });
        integ_fp32_verified_ms =
            time_ms(reps, [&]() { iverified.run_view(x); });

        quant::QuantizedModel iqm(im, {x});
        const quant::QAct iqin = iqm.quantize_input(x);
        plan::ExecOptions iqo;
        iqo.threads = 1;
        plan::ExecOptions iqv = iqo;
        iqv.verify_checksums = true;
        quant::QuantExecutor iqplain(iqm, iqo);
        quant::QuantExecutor iqverified(iqm, iqv);
        const quant::QAct iq_want = iqplain.run(iqin);
        const quant::QAct iq_got = iqverified.run(iqin);
        integ_bit_identical = integ_bit_identical &&
                              iq_want.shape == iq_got.shape &&
                              iq_want.frac == iq_got.frac &&
                              iq_want.v == iq_got.v;
        integ_int8_ms = time_ms(reps, [&]() { iqplain.run(iqin); });
        integ_int8_verified_ms =
            time_ms(reps, [&]() { iqverified.run(iqin); });

        // fp32 campaign: one flip per trial, fresh verified executor so
        // the flip lands during compile, deterministic per seed. The
        // campaign runs on a [0,1] image (the serving workload, as in
        // test_fault_injection): a sum checksum's sensitivity to a
        // weight flip is proportional to the shifted window sums, and
        // zero-mean synthetic noise drives those sums toward zero —
        // invisible to ANY sum-based ABFT — while image-domain inputs
        // keep them bounded away from it.
        Tensor xi(in_shape);
        std::mt19937 irng(909);
        xi.rand_uniform(irng, 0.0f, 1.0f);
        const Tensor iwant = iverified.run(xi);
        const int kTrials = smoke ? 12 : 48;
        for (uint64_t seed = 1; seed <= static_cast<uint64_t>(kTrials);
             ++seed) {
            util::fault_arm({"fp32.weights", seed, 1, 0});
            bool caught = false;
            Tensor out;
            try {
                nn::ModelExecutor ex(im, in_shape, iv);
                out = ex.run(xi);
            } catch (const plan::IntegrityError&) {
                caught = true;
            }
            const bool landed = util::fault_fired("fp32.weights") == 1u;
            util::fault_clear();
            if (!landed) {
                std::fprintf(stderr,
                             "perf_model: fp32.weights seed %llu never "
                             "landed; trial skipped\n",
                             static_cast<unsigned long long>(seed));
                continue;
            }
            ++integ_trials;
            if (caught) {
                ++integ_detected;
                continue;
            }
            double dev = 0.0;
            for (int64_t i = 0; i < iwant.numel(); ++i) {
                const double d = std::abs(static_cast<double>(out[i]) -
                                          static_cast<double>(iwant[i]));
                if (!(d <= dev)) dev = std::isnan(d) ? 1e30 : d;
            }
            if (dev <= 1e-3) {
                ++integ_benign;
            } else {
                ++integ_missed;
            }
        }
        integ_sdc_rate =
            integ_detected + integ_missed > 0
                ? static_cast<double>(integ_detected) /
                      static_cast<double>(integ_detected + integ_missed)
                : 1.0;

        // int8 campaign: the integer checksum is exact, so every flip
        // in a compiled weight table must be caught.
        const int kI8Trials = smoke ? 8 : 24;
        for (uint64_t seed = 1; seed <= static_cast<uint64_t>(kI8Trials);
             ++seed) {
            util::fault_arm({"int8.weights", seed, 1, 0});
            bool caught = false;
            try {
                quant::QuantExecutor ex(iqm, iqv);
                ex.run(iqin);
            } catch (const plan::IntegrityError&) {
                caught = true;
            }
            const bool landed = util::fault_fired("int8.weights") == 1u;
            util::fault_clear();
            if (!landed) {
                std::fprintf(stderr,
                             "perf_model: int8.weights seed %llu never "
                             "landed; trial skipped\n",
                             static_cast<unsigned long long>(seed));
                continue;
            }
            ++integ_i8_trials;
            if (caught) ++integ_i8_detected;
        }
        integ_i8_rate = integ_i8_trials > 0
                            ? static_cast<double>(integ_i8_detected) /
                                  static_cast<double>(integ_i8_trials)
                            : 1.0;

        std::printf(
            "  integrity:     fp32 %.2f -> %.2f ms (%+.1f%%)   int8 "
            "%.2f -> %.2f ms (%+.1f%%)   bit-identical=%s\n",
            integ_fp32_ms, integ_fp32_verified_ms,
            integ_fp32_ms > 0.0
                ? (integ_fp32_verified_ms / integ_fp32_ms - 1.0) * 100.0
                : 0.0,
            integ_int8_ms, integ_int8_verified_ms,
            integ_int8_ms > 0.0
                ? (integ_int8_verified_ms / integ_int8_ms - 1.0) * 100.0
                : 0.0,
            integ_bit_identical ? "yes" : "NO");
        std::printf(
            "  integrity:     fp32 flips %d: detected %d benign %d "
            "missed %d (SDC rate %.4f)   int8 flips %d: detected %d "
            "(rate %.4f)\n",
            integ_trials, integ_detected, integ_benign, integ_missed,
            integ_sdc_rate, integ_i8_trials, integ_i8_detected,
            integ_i8_rate);
    }

    // ---- per-ring engine micro-timings ----
    std::vector<RingRow> rows;
    const std::vector<std::string> ring_names =
        smoke ? std::vector<std::string>{"RI4"}
              : std::vector<std::string>{"RI2", "RI4", "RI8", "RH4", "C"};
    for (const auto& name : ring_names) {
        const Ring& ring = get_ring(name);
        const int ct = 32 / ring.n;  // keep 32 real channels
        RingConvWeights w(ct, ct, 3, ring.n);
        std::normal_distribution<float> dist(0.0f, 0.5f);
        for (auto& vv : w.w) vv = dist(rng);
        Tensor rx({ct * ring.n, hw, hw});
        rx.randn(rng);

        RingConvEngineOptions o64;
        o64.strict_fp64 = true;
        o64.threads = 1;
        const RingConvEngine e64(ring, w, {}, o64);
        RingConvEngineOptions o32;
        o32.threads = 1;
        const RingConvEngine e32(ring, w, {}, o32);
        e64.run(rx);
        e32.run(rx);
        const int64_t ring_macs = e64.macs(hw, hw);
        RingRow row;
        row.ring = name;
        row.fp64_ns_per_mac = time_ms(reps, [&]() { e64.run(rx); }) * 1e6 /
                              static_cast<double>(ring_macs);
        row.fp32_ns_per_mac = time_ms(reps, [&]() { e32.run(rx); }) * 1e6 /
                              static_cast<double>(ring_macs);
        std::printf("  ring %-4s fp64 %.3f ns/MAC   fp32 %.3f ns/MAC   "
                    "(%.2fx)\n",
                    name.c_str(), row.fp64_ns_per_mac, row.fp32_ns_per_mac,
                    row.fp64_ns_per_mac / row.fp32_ns_per_mac);
        rows.push_back(row);
    }

    // ---- JSON report ----
    FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "perf_model: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(f, "  \"simd\": \"%s\",\n", simd::active_isa());
    std::fprintf(f, "  \"model\": {\n");
    std::fprintf(f, "    \"layers\": %d, \"n\": %d, \"hw\": %d,\n", layers,
                 ri4.n, hw);
    std::fprintf(f, "    \"macs_per_img\": %lld,\n",
                 static_cast<long long>(macs));
    std::fprintf(f, "    \"pr1_fp64_st_ms\": %.4f,\n", pr1_st_ms);
    std::fprintf(f, "    \"executor_fp32_st_ms\": %.4f,\n", exec_st_ms);
    std::fprintf(f, "    \"st_speedup\": %.3f,\n", st_speedup);
    std::fprintf(f, "    \"pr1_fp64_mt_ms\": %.4f,\n", pr1_mt_ms);
    std::fprintf(f, "    \"executor_fp32_mt_ms\": %.4f,\n", exec_mt_ms);
    std::fprintf(f, "    \"mt_speedup\": %.3f,\n", mt_speedup);
    std::fprintf(f, "    \"img_per_s_st\": %.3f,\n", 1000.0 / exec_st_ms);
    std::fprintf(f, "    \"img_per_s_mt\": %.3f,\n", 1000.0 / exec_mt_ms);
    std::fprintf(f, "    \"ns_per_mac_st\": %.5f,\n",
                 exec_st_ms * 1e6 / static_cast<double>(macs));
    std::fprintf(f, "    \"max_abs_diff_fp32_vs_fp64\": %.6g\n", fp_diff);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"int8\": {\n");
    std::fprintf(f, "    \"scalar_st_ms\": %.4f,\n", q_scalar_ms);
    std::fprintf(f, "    \"engine_st_ms\": %.4f,\n", q_eng_st_ms);
    std::fprintf(f, "    \"st_speedup\": %.3f,\n", q_st_speedup);
    std::fprintf(f, "    \"engine_mt_ms\": %.4f,\n", q_eng_mt_ms);
    std::fprintf(f, "    \"mt_speedup\": %.3f,\n", q_mt_speedup);
    std::fprintf(f, "    \"vs_fp32_st\": %.3f,\n", q_vs_fp32_st);
    std::fprintf(f, "    \"bit_exact\": %s\n",
                 int8_bit_exact ? "true" : "false");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"train_step\": {\n");
    std::fprintf(f, "    \"patch\": %d, \"batch\": 8,\n", train_patch);
    std::fprintf(f, "    \"scalar_ms\": %.4f,\n", train_scalar_ms);
    std::fprintf(f, "    \"simd_st_ms\": %.4f,\n", train_simd_st_ms);
    std::fprintf(f, "    \"st_speedup\": %.3f,\n",
                 train_scalar_ms / train_simd_st_ms);
    std::fprintf(f, "    \"simd_mt_ms\": %.4f,\n", train_simd_mt_ms);
    std::fprintf(f, "    \"mt_speedup\": %.3f\n",
                 train_scalar_ms / train_simd_mt_ms);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"serve\": {\n");
    std::fprintf(f, "    \"clients\": %d, \"max_batch\": 8, "
                 "\"requests\": %d,\n",
                 serve_clients, serve_requests);
    std::fprintf(f, "    \"per_request_img_per_s\": %.3f,\n", pr_img_s);
    std::fprintf(f, "    \"per_request_p50_ms\": %.3f,\n", pr_p50);
    std::fprintf(f, "    \"per_request_p99_ms\": %.3f,\n", pr_p99);
    std::fprintf(f, "    \"serve_img_per_s\": %.3f,\n", srv_img_s);
    std::fprintf(f, "    \"serve_p50_ms\": %.3f,\n", srv_p50);
    std::fprintf(f, "    \"serve_p99_ms\": %.3f,\n", srv_p99);
    std::fprintf(f, "    \"mean_batch\": %.2f,\n", srv_mean_batch);
    std::fprintf(f, "    \"speedup\": %.3f,\n",
                 pr_img_s > 0.0 ? srv_img_s / pr_img_s : 0.0);
    std::fprintf(f, "    \"bit_identical\": %s\n",
                 serve_bit_identical ? "true" : "false");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"serve_overload\": {\n");
    std::fprintf(f, "    \"offered\": %d, \"max_queue\": %llu,\n",
                 ov_offered,
                 static_cast<unsigned long long>(ov_max_queue));
    std::fprintf(f, "    \"capacity_img_per_s\": %.3f,\n",
                 ov_capacity_img_s);
    std::fprintf(f, "    \"arrival_img_per_s\": %.3f,\n", ov_arrival_img_s);
    std::fprintf(f, "    \"unbounded_p99_ms\": %.3f,\n", ov_unbounded_p99);
    std::fprintf(f, "    \"shed_p50_ms\": %.3f,\n", ov_shed_p50);
    std::fprintf(f, "    \"shed_p99_ms\": %.3f,\n", ov_shed_p99);
    std::fprintf(f, "    \"p999_ms\": %.3f,\n", ov_shed_p999);
    std::fprintf(f, "    \"shed_rate\": %.4f,\n", ov_shed_rate);
    std::fprintf(f, "    \"p99_vs_unbounded\": %.4f,\n", ov_p99_ratio);
    std::fprintf(f, "    \"bit_identical\": %s\n",
                 ov_bit_identical ? "true" : "false");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"video\": {\n");
    std::fprintf(f,
                 "    \"tile\": %d, \"frame_hw\": %d, \"frames\": %d, "
                 "\"tiles_per_frame\": %d,\n",
                 vid_tile, vid_frame_hw, vid_frames, vid_tiles);
    std::fprintf(f, "    \"fps_skip_disabled\": %.3f,\n", vid_fps_base);
    std::fprintf(f, "    \"fps_thr0\": %.3f,\n", vid_fps_thr0);
    std::fprintf(f, "    \"fps_quant_step\": %.3f,\n", vid_fps_quant);
    std::fprintf(f, "    \"fps_inf\": %.3f,\n", vid_fps_inf);
    std::fprintf(f, "    \"quant_step\": %.6g,\n", vid_quant_thr);
    std::fprintf(f, "    \"skip_rate_thr0\": %.4f,\n", vid_skip_rate);
    std::fprintf(f, "    \"speedup_thr0\": %.3f,\n",
                 vid_fps_base > 0.0 ? vid_fps_thr0 / vid_fps_base : 0.0);
    std::fprintf(f, "    \"sim_mac_ops_full\": %llu,\n", vid_sim_macs_full);
    std::fprintf(f, "    \"sim_mac_ops_thr0\": %llu,\n", vid_sim_macs);
    std::fprintf(f, "    \"sim_cycles_full\": %llu,\n",
                 vid_sim_cycles_full);
    std::fprintf(f, "    \"sim_cycles_thr0\": %llu,\n", vid_sim_cycles);
    std::fprintf(f, "    \"bit_identical\": %s\n",
                 vid_bit_identical ? "true" : "false");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"megapixel\": {\n");
    std::fprintf(f,
                 "    \"frame_w\": %d, \"frame_h\": %d, \"tile\": %d, "
                 "\"tiles\": %d,\n",
                 mp_w, mp_h, mp_tile, mp_tiles);
    std::fprintf(f, "    \"mp_per_s\": %.4f,\n", mp_per_s);
    std::fprintf(f, "    \"psnr_db\": %.2f,\n", mp_psnr_db);
    std::fprintf(f, "    \"tile_arena_bytes\": %lld,\n", mp_tile_arena);
    std::fprintf(f, "    \"frame_arena_bytes\": %lld,\n", mp_frame_arena);
    std::fprintf(f, "    \"arena_bounded\": %s,\n",
                 mp_tile_arena > 0 && mp_tile_arena * 4 <= mp_frame_arena
                     ? "true"
                     : "false");
    std::fprintf(f, "    \"bit_identical\": %s\n",
                 mp_bit_identical ? "true" : "false");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"plan_compile\": {\n");
    std::fprintf(f, "    \"fresh_ms\": %.4f\n", plan_fresh_ms);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"sparse\": {\n");
    std::fprintf(f, "    \"rows\": [\n");
    for (size_t i = 0; i < sparse_rows.size(); ++i) {
        const SparseRow& r = sparse_rows[i];
        std::fprintf(
            f,
            "      {\"sparsity\": %.2f, \"fp32_ms\": %.4f, "
            "\"int8_ms\": %.4f, "
            "\"fp32_skipped_taps\": %lld, \"int8_skipped_taps\": %lld, "
            "\"sim_mac_ops\": %llu, \"bit_exact\": %s}%s\n",
            r.sparsity, r.fp32_ms, r.int8_ms,
            r.fp32_skips, r.int8_skips, r.sim_macs,
            r.bit_exact ? "true" : "false",
            i + 1 < sparse_rows.size() ? "," : "");
    }
    std::fprintf(f, "    ],\n");
    std::fprintf(f, "    \"speedup_75\": %.3f,\n", sparse_speedup_75);
    std::fprintf(f, "    \"int8_speedup_75\": %.3f,\n",
                 sparse_int8_speedup_75);
    std::fprintf(f, "    \"bit_exact\": %s\n",
                 sparse_bit_exact ? "true" : "false");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"integrity\": {\n");
    std::fprintf(f, "    \"fp32_ms\": %.4f,\n", integ_fp32_ms);
    std::fprintf(f, "    \"fp32_verified_ms\": %.4f,\n",
                 integ_fp32_verified_ms);
    std::fprintf(f, "    \"fp32_overhead\": %.4f,\n",
                 integ_fp32_ms > 0.0
                     ? integ_fp32_verified_ms / integ_fp32_ms - 1.0
                     : 0.0);
    std::fprintf(f, "    \"int8_ms\": %.4f,\n", integ_int8_ms);
    std::fprintf(f, "    \"int8_verified_ms\": %.4f,\n",
                 integ_int8_verified_ms);
    std::fprintf(f, "    \"int8_overhead\": %.4f,\n",
                 integ_int8_ms > 0.0
                     ? integ_int8_verified_ms / integ_int8_ms - 1.0
                     : 0.0);
    std::fprintf(f, "    \"bit_identical\": %s,\n",
                 integ_bit_identical ? "true" : "false");
    std::fprintf(f, "    \"weight_fault_trials\": %d,\n", integ_trials);
    std::fprintf(f, "    \"detected\": %d,\n", integ_detected);
    std::fprintf(f, "    \"benign\": %d,\n", integ_benign);
    std::fprintf(f, "    \"sdc_missed\": %d,\n", integ_missed);
    std::fprintf(f, "    \"sdc_detection_rate\": %.4f,\n", integ_sdc_rate);
    std::fprintf(f, "    \"int8_fault_trials\": %d,\n", integ_i8_trials);
    std::fprintf(f, "    \"int8_detected\": %d,\n", integ_i8_detected);
    std::fprintf(f, "    \"int8_detection_rate\": %.4f\n", integ_i8_rate);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"rings\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
        std::fprintf(f,
                     "    {\"ring\": \"%s\", \"fp64_ns_per_mac\": %.5f, "
                     "\"fp32_ns_per_mac\": %.5f}%s\n",
                     rows[i].ring.c_str(), rows[i].fp64_ns_per_mac,
                     rows[i].fp32_ns_per_mac,
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
