#include "nn/executor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <new>

#include "nn/conv_kernels.h"
#include "plan/arena_planner.h"
#include "plan/fusion_pass.h"
#include "tensor/image_ops.h"
#include "util/check.h"
#include "util/fault.h"
#include "util/thread_pool.h"

namespace ringcnn::nn {

namespace {

void
relu_into(const Tensor& x, Tensor& out)
{
    out.reset(x.shape());  // no-op when in place
    const float* src = x.data();
    float* dst = out.data();
    for (int64_t i = 0; i < x.numel(); ++i) {
        dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
    }
}

// The unfused DirectionalReLU fallback (a directional ReLU the fusion
// pass could not fold into a conv epilogue) runs the shared
// nn::directional_relu_forward row kernels — the same per-element
// ascending-j multiply/add order as the band-fused form in
// RingConvEngine::conv_band_f32, so fusion never changes a bit; the
// double-precision reference lives in core/ring_conv.cc.

/** IR ops carry the originating layer as const void* (the IR never
 *  dereferences it); the fp32 lowering is the owner-side cast back. */
template <class L>
L*
layer_of(const plan::OpIR& op)
{
    return static_cast<L*>(const_cast<void*>(op.node));
}

/** The shared compile pipeline (src/plan): linearize the layer tree,
 *  attach conv epilogues per the executor's fusion policy, assign
 *  refcounted arena slots. */
plan::GraphPlan
compile_plan(Model& model, const Shape& in_shape, const ExecutorOptions& opt)
{
    RINGCNN_CHECK(in_shape.size() == 3, "executor input must be a CHW shape");
    // Fault site: plan compile hitting an allocation failure.
    if (util::fault_check("plan.alloc")) throw std::bad_alloc();
    plan::GraphPlan p = plan::linearize(model.root(), in_shape);
    plan::FusionOptions fo;
    fo.fuse_relu = !opt.strict_fp64;
    fo.fuse_dir_relu = fo.fuse_relu;
    fo.fuse_requant = false;  // no requant ops in a float graph
    fo.require_tuple_match = true;
    plan::fuse_epilogues(p, fo);
    plan::plan_arena(p);
    return p;
}

}  // namespace

/** One compiled ring-conv step: the engine plus its plan-owned scratch
 *  (transform buffers, per-worker band accumulators) and the weight
 *  version it was last synced at. */
struct ModelExecutor::EngineRec
{
    std::unique_ptr<RingConvEngine> engine;
    RingConv2d* layer = nullptr;
    uint64_t seen_version = 0;
    RingConvScratch scratch;
    std::vector<const Tensor*> in_ptrs;  ///< reused batch pointer array

    /** ABFT state (verify_checksums only). The checksum is recomputed
     *  on a weight-version bump, so it tracks refresh — the plan's
     *  OpIR copy may go stale, this one is live. */
    std::shared_ptr<const plan::ConvChecksum> checksum;
    int op_index = 0;
    uint64_t fingerprint = 0;  ///< FNV of the last-synced weights
    std::vector<double> in_sums, in_abs, out_sums;  ///< reused scratch
};

ModelExecutor::~ModelExecutor() = default;

// ---- compilation -----------------------------------------------------------

ModelExecutor::ModelExecutor(Model& model, Shape in_shape,
                             ExecutorOptions opt)
    : opt_(opt), in_shape_(std::move(in_shape)),
      plan_(compile_plan(model, in_shape_, opt_)), rt_(plan_, opt_.threads)
{
    macs_ = model.macs(in_shape_);
    out_shape_ = plan_.out_shape;
    lower();
}

void
ModelExecutor::lower_ringconv(const plan::OpIR& op)
{
    auto* rc = layer_of<RingConv2d>(op);
    ConvEpilogue ep = ConvEpilogue::kNone;
    const Matd* u = nullptr;
    const Matd* v = nullptr;
    if (op.epilogue == plan::Epilogue::kRelu) {
        ep = ConvEpilogue::kRelu;
    } else if (op.epilogue == plan::Epilogue::kDirRelu) {
        auto* dr = static_cast<DirectionalReLU*>(
            const_cast<void*>(op.epilogue_node));
        ep = ConvEpilogue::kDirectional;
        u = &dr->u();
        v = &dr->v();
    }

    auto rec = std::make_unique<EngineRec>();
    RingConvEngineOptions eo;
    eo.threads = opt_.threads;
    eo.strict_fp64 = opt_.strict_fp64;
    rec->engine = std::make_unique<RingConvEngine>(
        rc->ring(), rc->weights(), rc->bias(), eo);
    rec->engine->set_epilogue(ep, u, v);
    rec->layer = rc;
    rec->seen_version = rc->param_version();
    rec->op_index =
        static_cast<int>(&op - plan_.ops.data());
    if (opt_.verify_checksums) {
        rec->checksum = op.checksum;
        rec->fingerprint = weights_fingerprint(rc->weights(), rc->bias());
    }
    const size_t rec_idx = engines_.size();
    engines_.push_back(std::move(rec));

    const int in = op.in0_slot;
    const int out = op.out_slot;
    rt_.add([this, rec_idx, in, out](int batch) {
        EngineRec& r = *engines_[rec_idx];
        const std::vector<Tensor>& xs = rt_.slot(in);
        Tensor* ys = rt_.slot(out).data();
        if (r.in_ptrs.size() < static_cast<size_t>(batch)) {
            r.in_ptrs.resize(static_cast<size_t>(batch));
        }
        for (int b = 0; b < batch; ++b) {
            r.in_ptrs[static_cast<size_t>(b)] = &xs[static_cast<size_t>(b)];
        }
        if (!opt_.verify_checksums || r.checksum == nullptr) {
            r.engine->run_into(r.in_ptrs.data(), ys, batch, &r.scratch);
            return;
        }
        // ABFT: shifted-window input sums first (the input slot may be
        // recycled), run with interior capture, then check each image's
        // observed sums against the checksum prediction.
        const plan::ConvChecksum& cs = *r.checksum;
        const size_t taps = cs.num_input_sums();
        r.in_sums.resize(taps * static_cast<size_t>(batch));
        r.in_abs.resize(taps * static_cast<size_t>(batch));
        for (int b = 0; b < batch; ++b) {
            const Tensor& x = *r.in_ptrs[static_cast<size_t>(b)];
            plan::abft_input_sums_f32(
                cs, x.data(), x.dim(1), x.dim(2),
                r.in_sums.data() + static_cast<size_t>(b) * taps,
                r.in_abs.data() + static_cast<size_t>(b) * taps);
        }
        r.engine->run_into(r.in_ptrs.data(), ys, batch, &r.scratch,
                           &r.out_sums);
        for (int b = 0; b < batch; ++b) {
            const Tensor& y = ys[b];
            plan::abft_check_f32(
                cs, r.in_sums.data() + static_cast<size_t>(b) * taps,
                r.in_abs.data() + static_cast<size_t>(b) * taps,
                r.out_sums.data() +
                    static_cast<size_t>(b) * cs.co,
                y.dim(1), y.dim(2), r.op_index, r.engine->n());
        }
    });
}

void
ModelExecutor::lower()
{
    using plan::OpKind;
    for (const plan::OpIR& op : plan_.ops) {
        if (op.fused) continue;  // absorbed into its conv's epilogue
        const int in = op.in0_slot;
        const int out = op.out_slot;
        const int r = op.arg;
        switch (op.kind) {
        case OpKind::kRingConv:
            lower_ringconv(op);
            break;
        case OpKind::kDenseConv: {
            // A fused ReLU rectifies each output channel while it is hot.
            auto* conv = layer_of<Conv2d>(op);
            const bool relu = op.epilogue == plan::Epilogue::kRelu;
            const Shape os = op.out_shape;
            rt_.per_image(in, out,
                          [conv, os, relu](const Tensor& x, Tensor& y) {
                              y.reset(os);
                              conv2d_forward(x, conv->weights(), conv->bias(),
                                             y, relu);
                          });
            if (relu) ++fused_real_convs_;
            break;
        }
        case OpKind::kResidualAdd:
        case OpKind::kBranchAdd:
            // In place when the accumulate side dies here; otherwise
            // copy-then-add, bitwise the in-place sum (IEEE adds of the
            // same operands), taken only on degenerate graphs whose
            // accumulate side stays live.
            rt_.per_image(in, op.in1_slot, out,
                          [](const Tensor& a, const Tensor& b, Tensor& y) {
                              if (&y != &a) y = a;
                              y += b;
                          });
            break;
        case OpKind::kRelu:
            rt_.per_image(in, out, relu_into);
            break;
        case OpKind::kDirRelu: {
            auto* dr = layer_of<DirectionalReLU>(op);
            // Safe in place (rows are consumed before rewrite).
            rt_.per_image(in, out, [dr](const Tensor& x, Tensor& y) {
                directional_relu_forward(x, dr->u(), dr->v(), y, nullptr);
            });
            break;
        }
        case OpKind::kPixelShuffle:
            rt_.per_channel(
                in, out,
                [r](const Tensor& x, Tensor& y) {
                    y.reset({x.dim(0) / (r * r), x.dim(1) * r, x.dim(2) * r});
                    return y.dim(0);
                },
                [r](const Tensor& x, Tensor& y, int c) {
                    pixel_shuffle_channel(x.data(), x.dim(1), x.dim(2), r, c,
                                          y.data());
                });
            break;
        case OpKind::kPixelUnshuffle:
            rt_.per_channel(
                in, out,
                [r](const Tensor& x, Tensor& y) {
                    y.reset({x.dim(0) * r * r, x.dim(1) / r, x.dim(2) / r});
                    return x.dim(0);
                },
                [r](const Tensor& x, Tensor& y, int c) {
                    pixel_unshuffle_channel(x.data(), y.dim(1), y.dim(2), r,
                                            c, y.data());
                });
            break;
        case OpKind::kChannelPad:
        case OpKind::kCropChannels:
            // op.arg is the output channel count of either.
            rt_.per_channel(
                in, out,
                [r](const Tensor& x, Tensor& y) {
                    y.reset({r, x.dim(1), x.dim(2)});
                    return r;
                },
                [](const Tensor& x, Tensor& y, int c) {
                    pad_crop_channel(x.data(), x.dim(0),
                                     static_cast<int64_t>(x.dim(1)) * x.dim(2),
                                     c, y.data());
                });
            break;
        case OpKind::kDepthwiseConv: {
            auto* dw = layer_of<DepthwiseConv2d>(op);
            const Shape os = op.out_shape;
            rt_.per_image(in, out, [dw, os](const Tensor& x, Tensor& y) {
                y.reset(os);
                depthwise_conv2d_forward(x, dw->weights(), dw->bias(), y);
            });
            break;
        }
        case OpKind::kUpsample:
            rt_.per_image(in, out, [r](const Tensor& x, Tensor& y) {
                upsample_bilinear_into(x, r, y);
            });
            break;
        default: {
            // Fallback for layers without a compiled kernel (future
            // additions): correct but allocating.
            auto* l = layer_of<Layer>(op);
            ++fallback_steps_;
            rt_.per_image(in, out, [l](const Tensor& x, Tensor& y) {
                y = l->forward(x, false);
            });
            break;
        }
        }
    }
}

int64_t
ModelExecutor::sparse_tap_skip_count() const
{
    int64_t skipped = 0;
    for (const auto& rec : engines_) {
        skipped += rec->engine->sparse_tap_skip_count();
    }
    return skipped;
}

// ---- execution -------------------------------------------------------------

void
ModelExecutor::refresh()
{
    for (auto& rec : engines_) {
        const uint64_t now = rec->layer->param_version();
        if (now != rec->seen_version) {
            if (opt_.verify_checksums) {
                // A corrupted update must not reach the engines: scan
                // the incoming weight set before deriving anything
                // from it. Throwing here leaves the old weights live,
                // so the failure repeats deterministically.
                for (const float v : rec->layer->weights().w) {
                    if (!std::isfinite(v)) {
                        throw plan::IntegrityError(
                            "ringcnn: corrupted weight update: non-"
                            "finite weight in refreshed layer");
                    }
                }
                for (const float v : rec->layer->bias()) {
                    if (!std::isfinite(v)) {
                        throw plan::IntegrityError(
                            "ringcnn: corrupted weight update: non-"
                            "finite bias in refreshed layer");
                    }
                }
            }
            rec->engine->set_weights(rec->layer->weights(),
                                     rec->layer->bias());
            rec->seen_version = now;
            if (opt_.verify_checksums) {
                // The OpIR annotation is not re-linearized on refresh;
                // the live checksum (and fingerprint) follow the new
                // weights here.
                rec->checksum = plan::make_ring_checksum(
                    rec->layer->ring(), rec->layer->weights(),
                    rec->layer->bias());
                rec->fingerprint = weights_fingerprint(
                    rec->layer->weights(), rec->layer->bias());
            }
        } else if (opt_.verify_checksums) {
            // No version bump: the retained fingerprint must still
            // match, or the weights were torn out from under us.
            if (weights_fingerprint(rec->layer->weights(),
                                    rec->layer->bias()) !=
                rec->fingerprint) {
                throw plan::IntegrityError(
                    "ringcnn: torn weight update: layer weights "
                    "changed without a version bump");
            }
        }
    }
}

void
ModelExecutor::exec(const Tensor* const* xs, int count)
{
    for (int b = 0; b < count; ++b) {
        RINGCNN_CHECK(xs[b]->shape() == in_shape_,
                      "executor compiled for input [" +
                          std::to_string(in_shape_[0]) + ", " +
                          std::to_string(in_shape_[1]) + ", " +
                          std::to_string(in_shape_[2]) + "], got " +
                          xs[b]->shape_str());
    }
    refresh();
    rt_.run(count, [&](int b, Tensor& e) {
        e.reset(in_shape_);
        std::memcpy(e.data(), xs[b]->data(),
                    static_cast<size_t>(xs[b]->numel()) * sizeof(float));
        // Fault site: NaN/Inf poison landing on an activation AFTER
        // serve-side input validation (an in-flight corruption, not a
        // bad input).
        uint64_t fault_token;
        if (b == 0 && util::fault_check("fp32.activation", &fault_token)) {
            util::fault_poison(e.data(), static_cast<size_t>(e.numel()),
                               fault_token);
        }
    });
}

Tensor
ModelExecutor::run(const Tensor& x)
{
    return run_view(x);  // copies on return
}

const Tensor&
ModelExecutor::run_view(const Tensor& x)
{
    const Tensor* px = &x;
    exec(&px, 1);
    return rt_.out()[0];
}

std::vector<Tensor>
ModelExecutor::run(const std::vector<Tensor>& xs)
{
    std::vector<const Tensor*> ptrs(xs.size());
    for (size_t i = 0; i < xs.size(); ++i) ptrs[i] = &xs[i];
    exec(ptrs.data(), static_cast<int>(xs.size()));
    const auto& out = rt_.out();
    return std::vector<Tensor>(out.begin(),
                               out.begin() + static_cast<int64_t>(xs.size()));
}

void
ModelExecutor::run_into(const Tensor* const* xs, Tensor* outs, int count)
{
    exec(xs, count);
    auto& slot = rt_.out();
    for (int b = 0; b < count; ++b) {
        std::swap(outs[b], slot[static_cast<size_t>(b)]);
    }
}

std::vector<Tensor>
ModelExecutor::run_layer(Layer& l, const std::vector<Tensor>& xs)
{
    if (auto* rc = dynamic_cast<RingConv2d*>(&l)) {
        return rc->inference_engine().run(xs);
    }
    std::vector<Tensor> out(xs.size());
    // ReLU and DirectionalReLU forwards are state-free at inference
    // (train == false), so the batch can fan out across the pool.
    const bool pure = dynamic_cast<ReLU*>(&l) != nullptr ||
                      dynamic_cast<DirectionalReLU*>(&l) != nullptr;
    if (pure && xs.size() > 1) {
        util::parallel_for(static_cast<int64_t>(xs.size()), [&](int64_t i) {
            out[static_cast<size_t>(i)] =
                l.forward(xs[static_cast<size_t>(i)], false);
        });
    } else {
        for (size_t i = 0; i < xs.size(); ++i) {
            out[i] = l.forward(xs[i], false);
        }
    }
    return out;
}

}  // namespace ringcnn::nn
