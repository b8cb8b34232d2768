#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iterator>
#include <future>
#include <memory>
#include <random>
#include <stdexcept>
#include <utility>

#include "core/ring_conv_engine.h"
#include "data/synthetic.h"
#include "models/algebra.h"
#include "models/backbones.h"
#include "nn/layer.h"
#include "nn/model.h"
#include "plan/graph_ir.h"
#include "quant/quant_model.h"
#include "serve/serve_server.h"
#include "sim/accelerator.h"
#include "stream/tiler.h"
#include "stream/video_pipeline.h"

namespace ringbench {
namespace {

using namespace ringcnn;

/** Server batch bound, and the batch every batched probe runs. */
constexpr int kBatch = 8;
/** Timed repetitions per probe (after one warm-up call). */
constexpr int kProbeReps = 5;

models::Algebra
algebra()
{
    return models::Algebra::with_fh("RI4");
}

/** The in-repo backbones at the paper's small config: C=16, B=2. */
nn::Model
build_backbone(bool sr)
{
    models::ErnetConfig cfg;
    cfg.channels = 16;
    cfg.blocks = 2;
    return sr ? models::build_sr4_ernet(algebra(), cfg)
              : models::build_dn_ernet_pu(algebra(), cfg);
}

serve::ServeOptions
serve_options(int threads)
{
    serve::ServeOptions so;
    so.max_batch = kBatch;
    so.workers = threads;
    so.executor.threads = threads;
    return so;
}

sim::Accelerator
accelerator()
{
    sim::SimConfig sc;
    sc.n = algebra().n();
    return sim::Accelerator(sc);
}

/** Output megapixels of a CHW output shape. */
double
mpx(const Shape& out)
{
    return static_cast<double>(out[1]) * out[2] / 1e6;
}

Tensor
noisy_image(int h, int w, float sigma, std::mt19937& rng)
{
    return data::add_awgn(data::synthetic_image(3, h, w, rng), sigma, rng);
}

/** Median wall time of `fn` over kProbeReps calls after one warm-up. */
template <class F>
double
probe_ms(F&& fn)
{
    fn();
    std::vector<double> t;
    for (int r = 0; r < kProbeReps; ++r) {
        const auto t0 = Clock::now();
        fn();
        t.push_back(ms_since(t0));
    }
    return median(t);
}

/** GMAC/s for `macs` real multiplications done in `ms`. */
double
gmac_s(double macs, double ms)
{
    return macs / (ms * 1e6);
}

// ---- closed-loop driver ------------------------------------------------

/** One fixed-size round of the closed loop. */
struct LoopStats
{
    std::vector<double> lat_ms;      ///< enqueue -> future ready
    std::vector<double> enqueue_ms;  ///< time inside push / submit
    double wall_ms = 0.0;
    double out_mpx = 0.0;  ///< output megapixels served correctly
};

/** What the loop calls per item. `prepare` stages an input outside
 *  the timed enqueue (may be empty); `enqueue` is timed. */
struct LoopFns
{
    std::function<void(int)> prepare;
    std::function<std::future<Tensor>(int)> enqueue;
    std::function<const Tensor&(int)> reference;
    std::function<double(int)> out_mpx;
};

/**
 * One driver thread, `count` items, at most `window` in flight. The
 * driver blocks on the oldest future, then takes every other one that
 * is already ready, then refills the window — it never spins. So a
 * latency ends when the driver sees the future ready: exact for the
 * in-order video pipeline, an upper bound for a request that completes
 * while the driver waits on an older one. Every output is checked bit
 * for bit; an exception counts as a failure.
 * Spans: `item` per item with `enqueue_span` and `wait` children.
 */
LoopStats
closed_loop(int count, int window, const LoopFns& fn, OkCounter& ok,
            Tracer& tr, const char* item, const char* enqueue_span,
            uint64_t id_base)
{
    struct Flight
    {
        std::future<Tensor> fut;
        Clock::time_point t0;
        int i = 0;
        int64_t span = -1;
    };
    LoopStats st;
    std::vector<Flight> fl;
    auto finish = [&](size_t k) {
        Flight& f = fl[k];
        const int64_t w = tr.begin("wait", id_base + f.i, f.span);
        Tensor out;
        std::string err;
        try {
            out = f.fut.get();
        } catch (const std::exception& e) {
            err = std::string("exception: ") + e.what();
        } catch (...) {
            err = "unknown exception";
        }
        const auto t1 = Clock::now();
        tr.end(w);
        tr.end(f.span);
        st.lat_ms.push_back(ms_between(f.t0, t1));
        if (!err.empty()) {
            ok.error(err);
        } else if (ok.check(out, fn.reference(f.i))) {
            st.out_mpx += fn.out_mpx(f.i);
        }
        fl.erase(fl.begin() + static_cast<long>(k));
    };
    auto reap = [&]() {
        finish(0);
        for (size_t k = 0; k < fl.size();) {
            if (fl[k].fut.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready) {
                finish(k);
            } else {
                ++k;
            }
        }
    };
    const auto start = Clock::now();
    for (int i = 0; i < count; ++i) {
        while (static_cast<int>(fl.size()) >= window) reap();
        if (fn.prepare) fn.prepare(i);
        Flight f;
        f.i = i;
        f.span = tr.begin(item, id_base + i);
        const int64_t e = tr.begin(enqueue_span, id_base + i, f.span);
        f.t0 = Clock::now();
        f.fut = fn.enqueue(i);
        st.enqueue_ms.push_back(ms_since(f.t0));
        tr.end(e);
        fl.push_back(std::move(f));
    }
    while (!fl.empty()) reap();
    st.wall_ms = ms_since(start);
    return st;
}

/**
 * A timed window: fixed-size rounds run back to back until the window
 * has lasted `seconds` and at least kMinRounds rounds ran; `after_round`
 * (if set) runs between rounds, outside their timing. Throughput
 * is output over the whole window and p50 is over all its samples; the
 * tail percentile is taken per round, whose fixed size fixes which
 * percentile it is, and reported as the median over rounds.
 */
constexpr int kMinRounds = 3;

struct Window
{
    double out_mpx = 0.0, wall_ms = 0.0;
    std::vector<double> lat_ms;      ///< every sample of the window
    std::vector<double> enqueue_ms;  ///< every sample of the window
    std::vector<double> tail_ms;     ///< per round
    TailRule rule;                   ///< the per-round tail percentile
    int rounds = 0;

    double throughput() const { return out_mpx / (wall_ms / 1000.0); }
};

Window
timed_window(double seconds, int round_size,
             const std::function<LoopStats()>& round,
             const std::function<void()>& after_round = nullptr)
{
    Window w;
    w.rule = tail_rule(static_cast<size_t>(round_size));
    const auto start = Clock::now();
    while (w.rounds < kMinRounds || ms_since(start) < seconds * 1000.0) {
        const LoopStats r = round();
        w.out_mpx += r.out_mpx;
        w.wall_ms += r.wall_ms;
        w.lat_ms.insert(w.lat_ms.end(), r.lat_ms.begin(), r.lat_ms.end());
        w.enqueue_ms.insert(w.enqueue_ms.end(), r.enqueue_ms.begin(),
                            r.enqueue_ms.end());
        w.tail_ms.push_back(percentile(r.lat_ms, w.rule.pct));
        ++w.rounds;
        if (after_round) after_round();
    }
    return w;
}

void
add_latency_metrics(RunResult& r, const Window& w, int round_size)
{
    r.add("throughput_mp_s", w.throughput(), "MP/s");
    r.add("latency_p50_ms", percentile(w.lat_ms, 50.0), "ms");
    r.add("latency_tail_ms", median(w.tail_ms), "ms");
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "latency_tail_ms is p%g of each round's %d samples (%d "
                  "beyond it), median of %d rounds",
                  w.rule.pct, round_size, w.rule.beyond, w.rounds);
    r.notes.push_back(buf);
}

/** setup_s: the median of the run's setups, each from workload start to
 *  the first output served. One precedes the timed window and one
 *  follows each of its rounds, so the median spans the whole run rather
 *  than one instant of a shared host. */
void
add_setup_metric(RunResult& r, const std::vector<double>& setup_ms)
{
    r.add("setup_s", setup_ms.empty() ? 0.0 : median(setup_ms) / 1000.0,
          "s");
    std::string per = "setup_ms";
    for (const double v : setup_ms) per += " " + num(v);
    r.notes.push_back(per);
}

// ---- layer probes ------------------------------------------------------

/** Every RingConv2d of a layer tree with the input shape it sees. */
void
collect_ring_convs(nn::Layer& l, const Shape& in,
                   std::vector<std::pair<nn::RingConv2d*, Shape>>* out)
{
    if (auto* s = dynamic_cast<nn::Sequential*>(&l)) {
        Shape cur = in;
        for (size_t i = 0; i < s->size(); ++i) {
            collect_ring_convs(s->at(i), cur, out);
            cur = s->at(i).out_shape(cur);
        }
    } else if (auto* r = dynamic_cast<nn::Residual*>(&l)) {
        collect_ring_convs(r->body(), in, out);
    } else if (auto* t = dynamic_cast<nn::TwoBranchAdd*>(&l)) {
        collect_ring_convs(t->main(), in, out);
        collect_ring_convs(t->skip(), in, out);
    } else if (auto* c = dynamic_cast<nn::RingConv2d*>(&l)) {
        out->emplace_back(c, in);
    }
}

/** core.frconv_gmac_s: the FRCONV engine of the model's largest ring
 *  conv (by MACs at `in`), batch of kBatch. */
double
probe_frconv_gmac_s(nn::Model& model, const Shape& in, std::mt19937& rng)
{
    std::vector<std::pair<nn::RingConv2d*, Shape>> convs;
    collect_ring_convs(model.root(), in, &convs);
    if (convs.empty()) throw std::runtime_error("model has no ring conv");
    auto largest = std::max_element(
        convs.begin(), convs.end(), [](const auto& a, const auto& b) {
            return a.first->macs(a.second) < b.first->macs(b.second);
        });
    nn::RingConv2d& conv = *largest->first;
    std::vector<Tensor> xs(kBatch, Tensor(largest->second));
    for (Tensor& x : xs) x.rand_uniform(rng, 0.0f, 1.0f);
    const RingConvEngine& eng = conv.inference_engine();
    const double ms = probe_ms([&]() { eng.run(xs); });
    return gmac_s(static_cast<double>(kBatch) *
                      static_cast<double>(conv.macs(largest->second)),
                  ms);
}

/** plan.compile_ms on a fresh copy of `model`: the first infer at each
 *  unseen shape minus the steady infer at that shape, averaged. */
double
probe_fp32_compile_ms(const nn::Model& model, const std::vector<Tensor>& xs)
{
    nn::Model fresh(model);
    double sum = 0.0;
    for (const Tensor& x : xs) {
        const auto t0 = Clock::now();
        fresh.infer(x);
        const double first = ms_since(t0);
        sum += first - probe_ms([&]() { fresh.infer(x); });
    }
    return sum / static_cast<double>(xs.size());
}

/** Adds per-layer metric `name`, measured inside a probe span of the
 *  same name in the trace. */
template <class F>
void
add_probe(RunResult& r, Tracer& tr, const char* name, const char* unit,
          F&& measure)
{
    const int64_t span = tr.begin(name, 0);
    const double v = measure();
    tr.end(span);
    r.add(name, v, unit);
}

/** nn.* / quant.* per-tile figures from one batched call of kBatch
 *  tiles doing `macs` each. */
void
add_batched_infer_metrics(RunResult& r, Tracer& tr, const char* ms_name,
                          const char* gmac_name, double macs,
                          const std::function<void()>& run_batch)
{
    double ms = 0.0;
    add_probe(r, tr, ms_name, "ms",
              [&]() { return (ms = probe_ms(run_batch)) / kBatch; });
    r.add(gmac_name, gmac_s(kBatch * macs, ms), "GMAC/s");
}

/** serve.overhead_ms: one batch through the server minus the same
 *  batch through the direct batched call. The server must be idle. */
double
probe_serve_overhead_ms(serve::ServeServer& server,
                        const std::vector<Tensor>& batch,
                        const std::function<void()>& direct)
{
    const double via_server = probe_ms([&]() {
        std::vector<std::future<Tensor>> fs;
        for (const Tensor& x : batch) fs.push_back(server.submit_view(x));
        for (auto& f : fs) f.get();
    });
    return via_server - probe_ms(direct);
}

/** stream.tile_copy_ms: Tiler::extract + paste over one frame. */
double
probe_tile_copy_ms(const stream::Tiler& tiler, const Tensor& frame)
{
    const auto tiles = tiler.tiles(frame.shape()[1], frame.shape()[2]);
    const Tensor tile_out(tiler.out_frame_shape(
        {tiler.in_channels(), tiler.tile_h(), tiler.tile_w()}));
    Tensor out(tiler.out_frame_shape(frame.shape()));
    Tensor t;
    return probe_ms([&]() {
        for (const stream::Tile& tl : tiles) {
            tiler.extract(frame, tl, &t);
            tiler.paste(tile_out, tl, &out);
        }
    });
}

/** serve.* counters over the timed windows (a: before, b: after). */
void
add_serve_metrics(RunResult& r, const serve::ServeStats& a,
                  const serve::ServeStats& b)
{
    const auto d = [](uint64_t x, uint64_t y) {
        return static_cast<double>(y - x);
    };
    const double batches = d(a.batches, b.batches);
    r.add("serve.mean_batch",
          batches > 0 ? d(a.batched, b.batched) / batches : 0.0, "images");
    r.add("serve.failed", d(a.failed, b.failed), "count");
    r.add("serve.retries", d(a.retries, b.retries), "count");
    r.add("serve.plan_hit_ratio",
          batches > 0 ? d(a.plan_hits, b.plan_hits) / batches : 0.0,
          "ratio");
    r.add("serve.plan_compiles", d(a.plan_compiles, b.plan_compiles),
          "count");
    r.add("serve.plan_rebinds", d(a.plan_rebinds, b.plan_rebinds), "count");
    r.add("serve.plan_evictions", d(a.plan_evictions, b.plan_evictions),
          "count");
}

/** sim_nj_per_px (end to end) or sim.* (per layer) for `s` over `px`
 *  output pixels. */
void
add_sim_metrics(RunResult& r, const sim::Accelerator& acc,
                const sim::SimStats& s, double px, bool per_layer)
{
    if (!per_layer) {
        r.add("sim_nj_per_px",
              s.energy_joules(hw::TechConstants{}, acc.cost()) * 1e9 / px,
              "nJ/px");
        return;
    }
    r.add("sim.cycles_per_px", static_cast<double>(s.cycles) / px,
          "cycles/px");
    r.add("sim.mac_ops_per_px", static_cast<double>(s.mac_ops) / px,
          "MAC/px");
    r.add("sim.bb_bits_per_px", static_cast<double>(s.bb_bits) / px,
          "bits/px");
}

void
finish_trace(RunResult& r, const Tracer& tr, const Options& opt,
             const Window& plain, const Window& traced)
{
    r.add("trace.overhead_ratio", plain.throughput() / traced.throughput(),
          "ratio");
    for (const Tracer::Summary& s : tr.summarize()) {
        char buf[200];
        std::snprintf(buf, sizeof(buf),
                      "span %-20s count %6llu  total %10.3f ms  self "
                      "%10.3f ms",
                      s.name.c_str(), static_cast<unsigned long long>(s.count),
                      s.total_ms, s.self_ms);
        r.notes.push_back(buf);
    }
    if (!opt.trace_out.empty()) {
        if (!tr.write_json(opt.trace_out)) {
            throw std::runtime_error("cannot write span dump " +
                                     opt.trace_out);
        }
        r.notes.push_back("span dump " + opt.trace_out + " (" +
                          std::to_string(tr.spans().size()) + " spans)");
    }
}

// ---- video workloads ---------------------------------------------------

/** Frames in flight on both video workloads. */
constexpr int kVideoWindow = 2;

struct VideoSpec
{
    bool sr = false;    ///< SR4ERNet (x4) vs DnERNet-PU
    bool int8 = false;  ///< serve the quantized model
    Shape tile;         ///< input tile shape
    int round = 0;      ///< frames per round (a multiple of the cycle)
    std::vector<Tensor> frames;  ///< one cycle of the (periodic) video
    std::vector<Tensor> calib;   ///< int8 calibration inputs
};

/** Everything one setup builds. Members are declared users-last, so
 *  destruction tears down the pipeline before the server before the
 *  models they use. */
struct VideoDeploy
{
    std::unique_ptr<nn::Model> model;
    std::unique_ptr<quant::QuantizedModel> qm;
    std::unique_ptr<serve::ServeServer> server;
    std::unique_ptr<stream::VideoPipeline> pipe;
};

plan::GraphPlan
tile_plan(const VideoDeploy& d, const Shape& tile)
{
    if (d.qm) {
        plan::GraphPlan p = accelerator().compile_plan(*d.qm);
        plan::annotate_shapes(p, tile);
        return p;
    }
    return plan::linearize(d.model->root(), tile);
}

/** Builds the model (and its int8 calibration), the server and the
 *  pipeline: everything up to the warm-up frame. */
VideoDeploy
deploy_video(const VideoSpec& spec, int threads)
{
    VideoDeploy d;
    d.model = std::make_unique<nn::Model>(build_backbone(spec.sr));
    stream::VideoOptions vo;
    vo.max_inflight_frames = kVideoWindow;
    if (spec.int8) {
        d.qm = std::make_unique<quant::QuantizedModel>(*d.model, spec.calib);
        d.server = std::make_unique<serve::ServeServer>(
            *d.qm, serve_options(threads));
        vo.skip_threshold = stream::quant_skip_threshold(*d.qm);
    } else {
        d.server = std::make_unique<serve::ServeServer>(
            *d.model, serve_options(threads));
        vo.skip_threshold = 0.0;
    }
    d.pipe = std::make_unique<stream::VideoPipeline>(
        *d.server, tile_plan(d, spec.tile), vo);
    return d;
}

RunResult
run_video(VideoSpec spec, const Options& opt)
{
    RunResult r;
    const int cycle = static_cast<int>(spec.frames.size());
    // References first: outside the setup clock and the memory mark.
    std::vector<Tensor> refs;
    {
        nn::Model m = build_backbone(spec.sr);
        if (spec.int8) {
            const quant::QuantizedModel qm(m, spec.calib);
            for (const Tensor& f : spec.frames) refs.push_back(qm.forward(f));
        } else {
            for (const Tensor& f : spec.frames) refs.push_back(m.infer(f));
        }
    }
    if (opt.corrupt_reference) refs[0][0] += 1.0f;
    reset_peak_rss();

    OkCounter ok;
    std::vector<double> setup_ms;
    auto setup = [&]() {
        const auto t0 = Clock::now();
        VideoDeploy nd = deploy_video(spec, opt.threads);
        // The warm-up frame is the cycle's last, so every round starts
        // from the same reuse-cache state.
        std::future<Tensor> warm = nd.pipe->push(spec.frames.back());
        try {
            const Tensor out = warm.get();
            setup_ms.push_back(ms_since(t0));
            ok.check(out, refs.back());
        } catch (const std::exception& e) {
            ok.error(e.what());
        }
        return nd;
    };
    const VideoDeploy d = setup();
    const serve::ServeStats serve0 = d.server->stats();

    const Shape out_frame = d.pipe->tiler().out_frame_shape(
        spec.frames[0].shape());
    Tensor staged;
    LoopFns fn;
    fn.prepare = [&](int i) { staged = spec.frames[i % cycle]; };
    fn.enqueue = [&](int) { return d.pipe->push(std::move(staged)); };
    fn.reference = [&](int i) -> const Tensor& { return refs[i % cycle]; };
    fn.out_mpx = [&](int) { return mpx(out_frame); };

    // Rounds are whole cycles starting from the warm-up state, so their
    // computed/skipped tile counts are identical; keep the first's.
    uint64_t computed = 0, skipped = 0;
    uint64_t next_id = 0;
    auto round = [&](Tracer& tr) {
        const stream::VideoStats a = d.pipe->stats();
        const LoopStats ls = closed_loop(spec.round, kVideoWindow, fn, ok, tr,
                                         "frame", "stream.push", next_id);
        next_id += static_cast<uint64_t>(spec.round);
        const stream::VideoStats b = d.pipe->stats();
        if (computed + skipped == 0) {
            computed = b.computed - a.computed;
            skipped = b.skipped - a.skipped;
        }
        return ls;
    };
    Tracer off(false), on(opt.trace);
    const double window_s = opt.trace ? opt.seconds / 2.0 : opt.seconds;
    const Window plain = timed_window(
        window_s, spec.round, [&]() { return round(off); }, [&]() { setup(); });
    const Window traced =
        opt.trace ? timed_window(window_s, spec.round,
                                 [&]() { return round(on); })
                  : Window{};
    const double peak_mb = peak_rss_mb();
    const serve::ServeStats serve1 = d.server->stats();

    // The int8 twin the simulator prices (the served model itself when
    // the workload is int8).
    std::unique_ptr<quant::QuantizedModel> twin;
    double twin_ms = 0.0;
    if (!spec.int8) {
        const int64_t span = on.begin("quant.calibrate_ms", 0);
        const auto tq = Clock::now();
        twin = std::make_unique<quant::QuantizedModel>(*d.model, spec.calib);
        twin_ms = ms_since(tq);
        on.end(span);
    }
    const quant::QuantizedModel& qm = spec.int8 ? *d.qm : *twin;
    const sim::Accelerator acc = accelerator();
    const sim::SimStats sim_round =
        acc.price_tile_stream(qm, spec.tile, computed, skipped);
    const double round_px =
        static_cast<double>(spec.round) * out_frame[1] * out_frame[2];
    const double skip_rate =
        static_cast<double>(skipped) / static_cast<double>(computed + skipped);

    if (!opt.trace) {
        add_latency_metrics(r, plain, spec.round);
        r.add("ok_ratio", ok.ratio(), "ratio");
        add_setup_metric(r, setup_ms);
        r.add("peak_rss_mb", peak_mb, "MiB");
        add_sim_metrics(r, acc, sim_round, round_px, false);
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "stream skip_rate %.4f (%llu computed, %llu skipped "
                      "tiles per round); %zu setups",
                      skip_rate, static_cast<unsigned long long>(computed),
                      static_cast<unsigned long long>(skipped),
                      setup_ms.size());
        r.notes.push_back(buf);
    } else {
        std::mt19937 rng(opt.seed ^ 0x9e3779b9u);
        const stream::Tiler& tiler = d.pipe->tiler();
        std::vector<Tensor> tiles;
        for (const stream::Tile& t : tiler.tiles(spec.frames[0].shape()[1],
                                                 spec.frames[0].shape()[2])) {
            if (static_cast<int>(tiles.size()) == kBatch) break;
            tiler.extract(spec.frames[0], t, &tiles.emplace_back());
        }
        r.add("stream.skip_rate", skip_rate, "ratio");
        r.add("stream.push_ms", percentile(traced.enqueue_ms, 50.0), "ms");
        add_probe(r, on, "stream.tile_copy_ms", "ms", [&]() {
            return probe_tile_copy_ms(tiler, spec.frames[0]);
        });
        add_serve_metrics(r, serve0, serve1);
        add_probe(r, on, "serve.overhead_ms", "ms", [&]() {
            return probe_serve_overhead_ms(*d.server, tiles, [&]() {
                if (spec.int8) {
                    d.qm->forward(tiles);
                } else {
                    d.model->infer(tiles);
                }
            });
        });

        // plan.compile_ms (and, int8, quant.calibrate_ms) on fresh models.
        if (spec.int8) {
            std::unique_ptr<quant::QuantizedModel> fresh;
            add_probe(r, on, "quant.calibrate_ms", "ms", [&]() {
                const auto tc = Clock::now();
                fresh = std::make_unique<quant::QuantizedModel>(*d.model,
                                                                spec.calib);
                return ms_since(tc);
            });
            add_probe(r, on, "plan.compile_ms", "ms", [&]() {
                const auto t0 = Clock::now();
                fresh->forward(tiles[0]);
                const double first = ms_since(t0);
                return first - probe_ms([&]() { fresh->forward(tiles[0]); });
            });
        } else {
            r.add("quant.calibrate_ms", twin_ms, "ms");
            add_probe(r, on, "plan.compile_ms", "ms", [&]() {
                return probe_fp32_compile_ms(*d.model, {tiles[0]});
            });
        }
        const double tile_macs =
            static_cast<double>(d.model->macs(spec.tile));
        add_batched_infer_metrics(r, on, "nn.ms_per_tile", "nn.gmac_s",
                                  tile_macs, [&]() { d.model->infer(tiles); });
        add_probe(r, on, "core.frconv_gmac_s", "GMAC/s", [&]() {
            return probe_frconv_gmac_s(*d.model, spec.tile, rng);
        });
        add_batched_infer_metrics(r, on, "quant.ms_per_tile", "quant.gmac_s",
                                  tile_macs, [&]() { qm.forward(tiles); });
        add_sim_metrics(r, acc, sim_round, round_px, true);
        finish_trace(r, on, opt, plain, traced);
    }
    r.attempted = ok.attempted();
    r.failed = ok.failed();
    r.first_error = ok.first_error();
    return r;
}

RunResult
run_sr_display(const Options& opt)
{
    // A display upscaler: 160x96 -> 640x384, content panning 2 px per
    // frame across a wider canvas, so no tile ever repeats.
    VideoSpec spec;
    spec.sr = true;
    spec.tile = {3, 32, 32};
    const int h = opt.tiny ? 64 : 96, w = opt.tiny ? 64 : 160;
    const int cycle = opt.tiny ? 2 : 24;
    spec.round = opt.tiny ? 2 * cycle : 5 * cycle;
    std::mt19937 rng(opt.seed);
    const int cw = w + 2 * (cycle - 1);
    const Tensor canvas = data::synthetic_image(3, h, cw, rng);
    for (int f = 0; f < cycle; ++f) {
        Tensor fr({3, h, w});
        for (int c = 0; c < 3; ++c) {
            for (int y = 0; y < h; ++y) {
                std::memcpy(&fr.at(c, y, 0),
                            canvas.data() + (c * h + y) * cw + 2 * f,
                            sizeof(float) * static_cast<size_t>(w));
            }
        }
        spec.frames.push_back(std::move(fr));
    }
    spec.calib = {spec.frames[0]};
    return run_video(std::move(spec), opt);
}

RunResult
run_camera_dn(const Options& opt)
{
    // A fixed camera: static noisy background, one flat 48x48 object
    // bouncing horizontally 24 px per frame. Only tiles whose windows
    // the object enters or leaves recompute; the rest are bit-static.
    VideoSpec spec;
    spec.int8 = true;
    spec.tile = {3, 64, 64};
    const int h = opt.tiny ? 128 : 256, w = opt.tiny ? 128 : 384;
    const int obj = opt.tiny ? 24 : 48, step = 24;
    std::mt19937 rng(opt.seed);
    const Tensor background = noisy_image(h, w, 0.05f, rng);
    const int positions = (w - obj) / step + 1;
    std::vector<int> xs;
    for (int p = 0; p < positions; ++p) xs.push_back(p * step);
    for (int p = positions - 2; p > 0; --p) xs.push_back(p * step);
    const int y0 = (h - obj) / 2;
    const float color[3] = {1.0f, 0.1f, 0.6f};
    for (const int x0 : xs) {
        Tensor fr = background;
        for (int c = 0; c < 3; ++c) {
            for (int y = y0; y < y0 + obj; ++y) {
                std::fill_n(&fr.at(c, y, x0), obj, color[c]);
            }
        }
        spec.frames.push_back(std::move(fr));
    }
    const int cycle = static_cast<int>(spec.frames.size());
    spec.round = opt.tiny ? 2 * cycle : 4 * cycle;
    spec.calib = {spec.frames[0], spec.frames[static_cast<size_t>(cycle / 2)]};
    return run_video(std::move(spec), opt);
}

// ---- photo serving -----------------------------------------------------

struct PhotoShape
{
    int h, w;
};

/** Twelve shapes (more than the server's default 8 cached plans), most
 *  popular first; popularity ~ 1/rank. */
constexpr PhotoShape kPhotoShapes[] = {
    {64, 96},  {96, 128}, {48, 64},   {128, 128}, {80, 112}, {160, 112},
    {64, 64},  {112, 160}, {96, 96},  {144, 96},  {48, 160}, {160, 160},
};
constexpr int kNumShapes = static_cast<int>(std::size(kPhotoShapes));

RunResult
run_photo_mixed(const Options& opt)
{
    RunResult r;
    const int per_shape = opt.tiny ? 1 : 4;
    const int round_size = opt.tiny ? 40 : 1000;
    const int window = 8;
    std::mt19937 rng(opt.seed);
    std::vector<std::vector<Tensor>> images(kNumShapes);
    for (int s = 0; s < kNumShapes; ++s) {
        for (int k = 0; k < per_shape; ++k) {
            images[static_cast<size_t>(s)].push_back(noisy_image(
                kPhotoShapes[s].h, kPhotoShapes[s].w, 0.1f, rng));
        }
    }
    // A fixed multiset per round (Zipf counts by largest remainder);
    // the seed only orders it and picks the images.
    std::vector<int> counts(kNumShapes);
    {
        double hsum = 0.0;
        for (int s = 0; s < kNumShapes; ++s) hsum += 1.0 / (s + 1);
        std::vector<std::pair<double, int>> rem;
        int total = 0;
        for (int s = 0; s < kNumShapes; ++s) {
            const double want = round_size / ((s + 1) * hsum);
            counts[static_cast<size_t>(s)] = static_cast<int>(want);
            total += counts[static_cast<size_t>(s)];
            rem.emplace_back(want - std::floor(want), -s);
        }
        std::sort(rem.rbegin(), rem.rend());
        for (int k = 0; total < round_size; ++k, ++total) {
            counts[static_cast<size_t>(-rem[static_cast<size_t>(k)].second)]++;
        }
    }
    struct Req
    {
        int shape, image;
    };
    std::vector<Req> seq;
    for (int s = 0; s < kNumShapes; ++s) {
        for (int k = 0; k < counts[static_cast<size_t>(s)]; ++k) {
            seq.push_back({s, 0});
        }
    }
    std::shuffle(seq.begin(), seq.end(), rng);
    for (Req& q : seq) q.image = static_cast<int>(rng() % per_shape);

    std::vector<std::vector<Tensor>> refs(kNumShapes);
    {
        nn::Model m = build_backbone(false);
        for (int s = 0; s < kNumShapes; ++s) {
            for (const Tensor& x : images[static_cast<size_t>(s)]) {
                refs[static_cast<size_t>(s)].push_back(m.infer(x));
            }
        }
    }
    if (opt.corrupt_reference) {
        refs[static_cast<size_t>(seq[0].shape)]
            [static_cast<size_t>(seq[0].image)][0] += 1.0f;
    }
    reset_peak_rss();

    auto input = [&](const Req& q) -> const Tensor& {
        return images[static_cast<size_t>(q.shape)]
                     [static_cast<size_t>(q.image)];
    };
    auto reference = [&](const Req& q) -> const Tensor& {
        return refs[static_cast<size_t>(q.shape)]
                   [static_cast<size_t>(q.image)];
    };

    OkCounter ok;
    std::vector<double> setup_ms;
    // One setup into (*m, *srv); the caller declares *srv after *m, so
    // the server is destroyed before the model it serves.
    auto setup = [&](std::unique_ptr<nn::Model>* m,
                     std::unique_ptr<serve::ServeServer>* srv) {
        const auto t0 = Clock::now();
        *m = std::make_unique<nn::Model>(build_backbone(false));
        *srv = std::make_unique<serve::ServeServer>(
            **m, serve_options(opt.threads));
        try {
            const Tensor out = (*srv)->submit_view(input(seq[0])).get();
            setup_ms.push_back(ms_since(t0));
            ok.check(out, reference(seq[0]));
        } catch (const std::exception& e) {
            ok.error(e.what());
        }
    };
    std::unique_ptr<nn::Model> model;
    std::unique_ptr<serve::ServeServer> server;
    setup(&model, &server);
    const serve::ServeStats serve0 = server->stats();

    LoopFns fn;
    fn.enqueue = [&](int i) {
        return server->submit_view(input(seq[static_cast<size_t>(i)]));
    };
    fn.reference = [&](int i) -> const Tensor& {
        return reference(seq[static_cast<size_t>(i)]);
    };
    fn.out_mpx = [&](int i) {
        return mpx(reference(seq[static_cast<size_t>(i)]).shape());
    };
    uint64_t next_id = 0;
    auto round = [&](Tracer& tr) {
        const LoopStats ls = closed_loop(round_size, window, fn, ok, tr,
                                         "request", "serve.submit", next_id);
        next_id += static_cast<uint64_t>(round_size);
        return ls;
    };
    Tracer off(false), on(opt.trace);
    const double window_s = opt.trace ? opt.seconds / 2.0 : opt.seconds;
    const Window plain = timed_window(
        window_s, round_size, [&]() { return round(off); }, [&]() {
            std::unique_ptr<nn::Model> m;
            std::unique_ptr<serve::ServeServer> srv;
            setup(&m, &srv);
        });
    const Window traced =
        opt.trace ? timed_window(window_s, round_size,
                                 [&]() { return round(on); })
                  : Window{};
    const double peak_mb = peak_rss_mb();
    const serve::ServeStats serve1 = server->stats();

    // The int8 twin prices the round's request mix shape by shape.
    const auto tq = Clock::now();
    const int64_t twin_span = on.begin("quant.calibrate_ms", 0);
    std::vector<Tensor> calib;
    for (const auto& per : images) calib.push_back(per[0]);
    const quant::QuantizedModel twin(*model, calib);
    on.end(twin_span);
    const double twin_ms = ms_since(tq);
    const sim::Accelerator acc = accelerator();
    sim::SimStats sim_round;
    double round_px = 0.0;
    for (int s = 0; s < kNumShapes; ++s) {
        const Tensor& x = images[static_cast<size_t>(s)][0];
        const sim::SimStats one = acc.run(twin, x);
        for (int k = 0; k < counts[static_cast<size_t>(s)]; ++k) {
            sim_round += one;
        }
        round_px += counts[static_cast<size_t>(s)] * 1e6 *
                    mpx(refs[static_cast<size_t>(s)][0].shape());
    }

    if (!opt.trace) {
        add_latency_metrics(r, plain, round_size);
        r.add("ok_ratio", ok.ratio(), "ratio");
        add_setup_metric(r, setup_ms);
        r.add("peak_rss_mb", peak_mb, "MiB");
        add_sim_metrics(r, acc, sim_round, round_px, false);
        const serve::ServeStats& st = serve1;
        char buf[200];
        std::snprintf(
            buf, sizeof(buf),
            "serve mean_batch %.3f  plan hits %llu compiles %llu rebinds "
            "%llu of %llu batches; %zu setups",
            st.mean_batch(), static_cast<unsigned long long>(st.plan_hits),
            static_cast<unsigned long long>(st.plan_compiles),
            static_cast<unsigned long long>(st.plan_rebinds),
            static_cast<unsigned long long>(st.batches), setup_ms.size());
        r.notes.push_back(buf);
    } else {
        std::mt19937 prng(opt.seed ^ 0x9e3779b9u);
        // The most popular shape stands in for "a tile" of this workload.
        const std::vector<Tensor> batch(kBatch, images[0][0]);
        const Shape& popular = images[0][0].shape();

        // Photo traffic bypasses the stream layer; probe it at this
        // workload's largest shape through a 64x64 tile plan.
        const Shape tile{3, 64, 64};
        const std::vector<Tensor>& big = images[kNumShapes - 1];
        {
            stream::VideoOptions vo;
            vo.skip_threshold = 0.0;
            vo.max_inflight_frames = 2;
            stream::VideoPipeline pipe(
                *server, plan::linearize(model->root(), tile), vo);
            Tensor staged;
            LoopFns pf;
            pf.prepare = [&](int i) { staged = big[i % per_shape]; };
            pf.enqueue = [&](int) { return pipe.push(std::move(staged)); };
            pf.reference = [&](int i) -> const Tensor& {
                return refs[kNumShapes - 1][i % per_shape];
            };
            pf.out_mpx = [&](int) { return 0.0; };
            add_probe(r, on, "stream.push_ms", "ms", [&]() {
                const LoopStats ls = closed_loop(4 * per_shape + 4, 2, pf, ok,
                                                 off, "frame", "stream.push",
                                                 0);
                return percentile(ls.enqueue_ms, 50.0);
            });
            r.add("stream.skip_rate", pipe.stats().skip_rate(), "ratio");
            add_probe(r, on, "stream.tile_copy_ms", "ms", [&]() {
                return probe_tile_copy_ms(pipe.tiler(), big[0]);
            });
        }
        add_serve_metrics(r, serve0, serve1);
        add_probe(r, on, "serve.overhead_ms", "ms", [&]() {
            return probe_serve_overhead_ms(*server, batch,
                                           [&]() { model->infer(batch); });
        });
        std::vector<Tensor> one_per_shape;
        for (const auto& per : images) one_per_shape.push_back(per[0]);
        add_probe(r, on, "plan.compile_ms", "ms", [&]() {
            return probe_fp32_compile_ms(*model, one_per_shape);
        });
        const double macs = static_cast<double>(model->macs(popular));
        add_batched_infer_metrics(r, on, "nn.ms_per_tile", "nn.gmac_s", macs,
                                  [&]() { model->infer(batch); });
        add_probe(r, on, "core.frconv_gmac_s", "GMAC/s", [&]() {
            return probe_frconv_gmac_s(*model, popular, prng);
        });
        add_batched_infer_metrics(r, on, "quant.ms_per_tile", "quant.gmac_s",
                                  macs, [&]() { twin.forward(batch); });
        r.add("quant.calibrate_ms", twin_ms, "ms");
        add_sim_metrics(r, acc, sim_round, round_px, true);
        finish_trace(r, on, opt, plain, traced);
    }
    r.attempted = ok.attempted();
    r.failed = ok.failed();
    r.first_error = ok.first_error();
    return r;
}

}  // namespace

const std::vector<std::string>&
workload_names()
{
    static const std::vector<std::string> names = {
        "sr_display_fp32", "camera_dn_int8", "photo_mixed_fp32"};
    return names;
}

RunResult
run_workload(const std::string& name, const Options& opt)
{
    if (name == "sr_display_fp32") return run_sr_display(opt);
    if (name == "camera_dn_int8") return run_camera_dn(opt);
    if (name == "photo_mixed_fp32") return run_photo_mixed(opt);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace ringbench
