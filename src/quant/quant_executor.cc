#include "quant/quant_executor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "core/simd.h"
#include "plan/arena_planner.h"
#include "plan/fusion_pass.h"
#include "util/check.h"
#include "util/fault.h"
#include "util/thread_pool.h"

namespace ringcnn::quant {

namespace {

// The integer butterfly (wht_inplace) and ceil_log2 come from
// quant/qformat.h — one definition shared with the scalar oracle.

QAct
to_qact(const Shape& shape, const std::vector<int32_t>& v,
        const std::vector<int>& frac)
{
    QAct q;
    q.shape = shape;
    q.frac = frac;
    q.v.assign(v.begin(), v.end());
    return q;
}

}  // namespace

// ---- construction / compilation --------------------------------------------

QuantExecutor::QuantExecutor(const QuantizedModel& qm, QuantExecOptions opt)
    : opt_(opt), qopt_(qm.options()), input_fmt_(qm.input_format()),
      root_(qm.root())
{
    RINGCNN_CHECK(qopt_.feature_bits >= 2 && qopt_.feature_bits <= 30,
                  "quantized executor supports feature widths of 2..30 "
                  "bits, got " + std::to_string(qopt_.feature_bits));
    // The shared compile pipeline (src/plan) with the int8 policy:
    // requant/directional fusion is unconditional — the quantized graph
    // always terminates a conv with its requant/dir node and even the
    // scalar-oracle lowering chains the pair in one step so the wide
    // int64 intermediate never has to fit the int32 arena.
    plan_ = plan::linearize(*root_, qopt_.feature_bits);
    plan::fuse_epilogues(plan_, plan::FusionOptions{});
    plan::plan_arena(plan_);
    slots_.resize(static_cast<size_t>(plan_.num_slots));
    entry_slot_ = plan_.entry_slot;
    out_slot_ = plan_.out_slot;
    lower();
}

QuantExecutor::~QuantExecutor() = default;

int
QuantExecutor::band_rows(int h, int groups_total) const
{
    if (opt_.row_band > 0) return std::min(opt_.row_band, h);
    // A few tasks per worker across the output bands; any banding is
    // bit-equivalent, this only shapes the parallel grain.
    const int target_tasks = std::max(threads_ * 4, groups_total);
    const int bands = std::max(1, target_tasks / std::max(groups_total, 1));
    const int bh = std::max((h + bands - 1) / bands, std::min(8, h));
    return std::min(bh, h);
}

namespace {

/** True when a shift_round_saturate(v, s, .) stage over |v| <= bound
 *  keeps its rounding add and left shift inside int32 — the condition
 *  under which the simd int32-lane stage equals the int64 oracle. */
bool
srs_fits_i32(double bound, int s)
{
    if (s > 31 || s < -31) return false;
    const double top = 2147483647.0;
    return s > 0 ? bound + std::ldexp(1.0, s - 1) <= top
                 : std::ldexp(bound, -s) <= top;
}

/**
 * The fused epilogue's shift amounts, one entry per output channel,
 * computed once at lowering: requant {a: shift}; on-the-fly dir-ReLU
 * {a: align, b: output shift}; quantize-first {a: in, b: mid, c: out}.
 */
struct EpilogueShifts
{
    std::vector<int> a, b, c;
};

EpilogueShifts
epilogue_shifts(const QuantConvKernel& K, const QDirReluNode* dir,
                const QRequantNode* req)
{
    EpilogueShifts sh;
    const int co = K.co();
    const auto& ny = K.out_frac();
    if (req != nullptr) {
        for (int oc = 0; oc < co; ++oc) {
            sh.a.push_back(ny[static_cast<size_t>(oc)] -
                           req->target[static_cast<size_t>(oc)]);
        }
    }
    if (dir == nullptr) return sh;
    const int n = dir->n;
    const int log2n = ceil_log2(n);
    for (int base = 0; base < co; base += n) {
        const auto at = [base](const std::vector<int>& v, int i) {
            return v[static_cast<size_t>(base + i)];
        };
        if (dir->onthefly) {
            int fmax = at(ny, 0);
            for (int i = 1; i < n; ++i) fmax = std::max(fmax, at(ny, i));
            for (int i = 0; i < n; ++i) {
                sh.a.push_back(fmax - at(ny, i));
                sh.b.push_back(fmax + log2n - at(dir->out_frac, i));
            }
        } else {
            for (int i = 0; i < n; ++i) {
                sh.a.push_back(at(ny, i) - at(dir->pre_frac, i));
                sh.b.push_back(at(dir->pre_frac, 0) - at(dir->mid_frac, i));
                sh.c.push_back(at(dir->mid_frac, 0) - at(dir->out_frac, i) +
                               log2n);
            }
        }
    }
    return sh;
}

/**
 * The static per-conv proof behind the fast path: every int32
 * intermediate of the fused epilogue fits. With A = acc_bound, the
 * on-the-fly pipeline's aligned values stay within A * 2^max_align,
 * each butterfly multiplies the bound by n, and the final stage rounds
 * or left-shifts n^2 times that; the quantize-first pipeline saturates
 * to `bits` after its first stage, so its butterflies stay within
 * n * 2^(bits-1).
 */
bool
epilogue_fits_i32(double acc, const EpilogueShifts& sh,
                  const QDirReluNode* dir, const QRequantNode* req)
{
    const double top = 2147483647.0;
    if (req != nullptr) {
        if (req->bits > 31) return false;
        for (const int s : sh.a) {
            if (!srs_fits_i32(acc, s)) return false;
        }
    }
    if (dir == nullptr) return true;
    const int n = dir->n;
    if (dir->bits > 31 || (n & (n - 1)) != 0) return false;
    const double nn = static_cast<double>(n) * n;
    if (dir->onthefly) {
        int max_align = 0;
        for (const int s : sh.a) {
            if (!srs_fits_i32(acc, -s)) return false;
            max_align = std::max(max_align, s);
        }
        const double wide = acc * std::ldexp(1.0, max_align) * nn;
        if (wide > top) return false;
        for (const int s : sh.b) {
            if (!srs_fits_i32(wide, s)) return false;
        }
        return true;
    }
    const double mid = n * std::ldexp(1.0, dir->bits - 1);
    if (mid > top) return false;
    for (size_t i = 0; i < sh.a.size(); ++i) {
        if (!srs_fits_i32(acc, sh.a[i]) || !srs_fits_i32(mid, sh.b[i]) ||
            !srs_fits_i32(mid, sh.c[i])) {
            return false;
        }
    }
    return true;
}

}  // namespace

void
QuantExecutor::lower_conv(const plan::OpIR& op)
{
    const auto* conv = static_cast<const QConvNode*>(op.node);
    const QDirReluNode* dir = nullptr;
    const QRequantNode* req = nullptr;
    if (op.epilogue == plan::Epilogue::kDirRelu) {
        dir = static_cast<const QDirReluNode*>(op.epilogue_node);
    } else if (op.epilogue == plan::Epilogue::kRequant) {
        req = static_cast<const QRequantNode*>(op.epilogue_node);
    }

    auto kernel = std::make_unique<QuantConvKernel>(
        conv->co, conv->ci, conv->k, conv->w, conv->bias, conv->out_frac);
    const bool dir_ok =
        dir == nullptr ||
        (dir->n >= 1 && dir->n <= kMaxTuple && conv->co % dir->n == 0);
    // op.in_bits is the feature width live at the conv input (threaded
    // through the plan by the linearizer): int16 packing needs <= 16
    // bits, int32 accumulation the kernel's bound, and the int32-lane
    // epilogue the bound proof above.
    EpilogueShifts shifts;
    bool fast = dir_ok && op.in_bits <= 16 && kernel->int32_safe(op.in_bits);
    if (fast) {
        shifts = epilogue_shifts(*kernel, dir, req);
        fast = epilogue_fits_i32(kernel->acc_bound(op.in_bits), shifts, dir,
                                 req);
    }

    const int in = op.in0_slot;
    const int out = op.out_slot;
    if (!fast) {
        // Scalar oracle walk for this conv AND its epilogue, chained in
        // one step so the wide int64 intermediate never has to fit the
        // int32 arena.
        ++scalar_convs_;
        steps_.push_back([this, conv, dir, req, in, out](int batch) {
            auto& ins = slots_[static_cast<size_t>(in)];
            auto& outs = slots_[static_cast<size_t>(out)];
            for (int b = 0; b < batch; ++b) {
                IAct& x = ins[static_cast<size_t>(b)];
                QAct q = to_qact(x.shape, x.v, x.frac);
                QAct r = conv->forward(q);
                if (dir != nullptr) r = dir->forward(r);
                if (req != nullptr) r = req->forward(r);
                IAct& o = outs[static_cast<size_t>(b)];
                o.reset(r.shape);
                o.frac = r.frac;
                for (size_t j = 0; j < r.v.size(); ++j) {
                    RINGCNN_CHECK(r.v[j] >= INT32_MIN && r.v[j] <= INT32_MAX,
                                  "scalar-path activation exceeds the "
                                  "int32 arena");
                    o.v[j] = static_cast<int32_t>(r.v[j]);
                }
            }
        });
        return;
    }

    ++fast_convs_;
    const size_t kidx = kernels_.size();
    kernels_.push_back(std::move(kernel));
    const int gn = dir != nullptr ? dir->n : 1;

    // ABFT: the checksum predicts the raw pre-epilogue accumulators'
    // interior sum EXACTLY (integer arithmetic), so the capture below
    // reads `buf` before the requant/dir epilogue consumes it. The
    // per-call buffers live behind a shared_ptr so the steady state
    // stays allocation-free across runs.
    struct VerifyBufs
    {
        std::vector<int64_t> in_sums;   ///< [batch][taps]
        std::vector<int64_t> cells;     ///< [task][gn] partial sums
        std::vector<int64_t> out_sums;  ///< [batch][co]
    };
    std::shared_ptr<const plan::ConvChecksum> cs;
    if (opt_.verify_checksums) cs = op.checksum;
    const int opidx = static_cast<int>(&op - plan_.ops.data());
    auto vb = cs != nullptr ? std::make_shared<VerifyBufs>() : nullptr;
    auto sh = std::make_shared<const EpilogueShifts>(std::move(shifts));

    steps_.push_back([this, dir, req, in, out, kidx, gn, cs, opidx, vb,
                      sh](int batch) {
        const QuantConvKernel& K = *kernels_[kidx];
        auto& ins = slots_[static_cast<size_t>(in)];
        auto& outs = slots_[static_cast<size_t>(out)];
        const int co = K.co();

        // Pack every image into the shared int16 scratch (and bind its
        // tap table) before any band runs; the tasks only read it.
        int64_t xs = 0, ts = 0;
        for (int b = 0; b < batch; ++b) {
            const IAct& x = ins[static_cast<size_t>(b)];
            RINGCNN_CHECK(x.shape[0] == K.ci(),
                          "quantized conv input channel mismatch");
            xs += K.packed_elems(x.shape[1], x.shape[2]);
            ts += K.pair_tap_count();
        }
        if (packed_.size() < static_cast<size_t>(xs)) {
            packed_.resize(static_cast<size_t>(xs));
        }
        if (packed_taps_.size() < static_cast<size_t>(ts)) {
            packed_taps_.resize(static_cast<size_t>(ts));
        }
        xs = ts = 0;
        for (int b = 0; b < batch; ++b) {
            const IAct& x = ins[static_cast<size_t>(b)];
            const int h = x.shape[1], wd = x.shape[2];
            K.bind_taps(h, wd, packed_taps_.data() + ts);
            packed_in_[static_cast<size_t>(b)] = {
                packed_.data() + xs, packed_taps_.data() + ts, h, wd};
            xs += K.packed_elems(h, wd);
            ts += K.pair_tap_count();
        }
        const int pairs = (K.ci() + 1) / 2;
        util::parallel_for(
            static_cast<int64_t>(batch) * pairs,
            [&](int64_t i) {
                const size_t b = static_cast<size_t>(i / pairs);
                const QuantPackedInput& px = packed_in_[b];
                // px.x is the read-only view; write through the buffer.
                K.pack_pair(ins[b].v.data(), px.h, px.w,
                            static_cast<int>(i % pairs),
                            packed_.data() + (px.x - packed_.data()));
            },
            threads_);

        // Input ring-sums, likewise before any output is written.
        const size_t taps = cs != nullptr ? cs->num_input_sums() : 0;
        if (cs != nullptr) {
            vb->in_sums.assign(static_cast<size_t>(batch) * taps, 0);
            for (int b = 0; b < batch; ++b) {
                IAct& x = ins[static_cast<size_t>(b)];
                plan::abft_input_sums_i32(
                    *cs, x.v.data(), x.shape[1], x.shape[2],
                    vb->in_sums.data() + static_cast<size_t>(b) * taps);
            }
        }

        tasks_.clear();
        const int groups_total = batch * (co / gn);
        for (int b = 0; b < batch; ++b) {
            const QuantPackedInput& px = packed_in_[static_cast<size_t>(b)];
            IAct& o = outs[static_cast<size_t>(b)];
            o.reset({co, px.h, px.w});
            o.frac = dir != nullptr ? dir->out_frac
                                    : (req != nullptr ? req->target
                                                      : K.out_frac());
            const int bh = band_rows(px.h, groups_total);
            for (int g = 0; g < co / gn; ++g) {
                for (int y0 = 0; y0 < px.h; y0 += bh) {
                    tasks_.push_back({b, g, y0, std::min(y0 + bh, px.h)});
                }
            }
        }
        if (cs != nullptr) {
            vb->cells.assign(tasks_.size() * static_cast<size_t>(gn), 0);
        }

        util::parallel_for_worker(
            static_cast<int64_t>(tasks_.size()),
            [&](int worker, int64_t ti) {
                const ConvTask& t = tasks_[static_cast<size_t>(ti)];
                const QuantPackedInput& px =
                    packed_in_[static_cast<size_t>(t.img)];
                IAct& o = outs[static_cast<size_t>(t.img)];
                const int h = px.h, wd = px.w;
                const int64_t brow = static_cast<int64_t>(t.y1 - t.y0) * wd;

                std::vector<int32_t>& buf =
                    wband_[static_cast<size_t>(worker)];
                if (buf.size() < static_cast<size_t>(gn) * brow) {
                    buf.resize(static_cast<size_t>(gn) * brow);
                }
                if (util::fault_check("int8.kernel_throw")) {
                    throw std::runtime_error(
                        "ringcnn: injected fault: int8 conv kernel task");
                }
                for (int gi = 0; gi < gn; ++gi) {
                    K.conv_rows(px, t.group * gn + gi, t.y0, t.y1,
                                buf.data() + gi * brow);
                }

                if (cs != nullptr) {
                    // Interior sum of the raw accumulators, captured
                    // before any epilogue consumes the band. Each task
                    // owns its cell slice — no synchronization needed,
                    // and int64 addition makes the later reduction
                    // order-independent (bit-exact).
                    const int pad = cs->k / 2;
                    const int gy0 = std::max(t.y0, pad);
                    const int gy1 = std::min(t.y1, h - pad);
                    int64_t* cell =
                        vb->cells.data() + static_cast<size_t>(ti) * gn;
                    for (int gi = 0; gi < gn; ++gi) {
                        const int32_t* band = buf.data() + gi * brow;
                        int64_t s = 0;
                        for (int gy = gy0; gy < gy1; ++gy) {
                            const int32_t* row =
                                band +
                                static_cast<int64_t>(gy - t.y0) * wd;
                            for (int xx = pad; xx < wd - pad; ++xx) {
                                s += row[xx];
                            }
                        }
                        cell[gi] = s;
                    }
                }

                // The fused epilogue over the band, 8 px per int32
                // register: operation for operation the QRequantNode /
                // QDirReluNode oracle (Fig. 8 on-the-fly pipeline or
                // the quantize-first ablation), exact in int32 by the
                // lowering's epilogue_fits_i32 proof.
                const int base = t.group * gn;
                const int64_t orow = static_cast<int64_t>(t.y0) * wd;
                if (dir == nullptr && req == nullptr) {
                    // Unfused: hand the wide accumulators through.
                    for (int gi = 0; gi < gn; ++gi) {
                        std::memcpy(o.ch(base + gi) + orow,
                                    buf.data() + gi * brow,
                                    static_cast<size_t>(brow) *
                                        sizeof(int32_t));
                    }
                } else if (req != nullptr) {
                    simd::requant_i32(o.ch(base) + orow, buf.data(), brow,
                                      sh->a[static_cast<size_t>(base)],
                                      req->bits, req->relu_first);
                } else {
                    const int32_t* src[kMaxTuple];
                    int32_t* dst[kMaxTuple];
                    for (int i = 0; i < gn; ++i) {
                        src[i] = buf.data() + i * brow;
                        dst[i] = o.ch(base + i) + orow;
                    }
                    if (dir->onthefly) {
                        simd::dir_relu_otf_i32(dst, src, gn, &sh->a[base],
                                               &sh->b[base], dir->bits, brow);
                    } else {
                        simd::dir_relu_qfirst_i32(dst, src, gn, &sh->a[base],
                                                  &sh->b[base], &sh->c[base],
                                                  dir->bits, brow);
                    }
                }
            },
            threads_);

        if (cs != nullptr) {
            vb->out_sums.assign(static_cast<size_t>(batch) * co, 0);
            for (size_t ti = 0; ti < tasks_.size(); ++ti) {
                const ConvTask& t = tasks_[ti];
                int64_t* dst = vb->out_sums.data() +
                               static_cast<size_t>(t.img) * co +
                               static_cast<size_t>(t.group) * gn;
                for (int gi = 0; gi < gn; ++gi) {
                    dst[gi] += vb->cells[ti * static_cast<size_t>(gn) + gi];
                }
            }
            for (int b = 0; b < batch; ++b) {
                const QuantPackedInput& px =
                    packed_in_[static_cast<size_t>(b)];
                plan::abft_check_i64(
                    *cs,
                    vb->in_sums.data() + static_cast<size_t>(b) * taps,
                    vb->out_sums.data() + static_cast<size_t>(b) * co,
                    px.h, px.w, opidx, gn);
            }
        }
    });
}

void
QuantExecutor::lower_fallback(const QNode* node, int in, int out)
{
    steps_.push_back([this, node, in, out](int batch) {
        auto& ins = slots_[static_cast<size_t>(in)];
        auto& outs = slots_[static_cast<size_t>(out)];
        for (int b = 0; b < batch; ++b) {
            IAct& x = ins[static_cast<size_t>(b)];
            const QAct r =
                node->forward(to_qact(x.shape, x.v, x.frac));
            IAct& o = outs[static_cast<size_t>(b)];
            o.reset(r.shape);
            o.frac = r.frac;
            for (size_t j = 0; j < r.v.size(); ++j) {
                RINGCNN_CHECK(r.v[j] >= INT32_MIN && r.v[j] <= INT32_MAX,
                              "fallback activation exceeds the int32 arena");
                o.v[j] = static_cast<int32_t>(r.v[j]);
            }
        }
    });
}

void
QuantExecutor::lower_aligned_add(const std::vector<int>* out_frac, int bits,
                                 int a_slot, int b_slot, int out)
{
    // Both operands shift onto the output format at bits + 2, then the
    // sum saturates to bits — the QResidualNode / QTwoBranchNode
    // sequence. In place over either input slot when the plan allows
    // it: each (image, channel) plane reads its inputs before writing
    // the same positions, and the fracs are read before O.frac is.
    steps_.push_back([this, out_frac, bits, a_slot, b_slot, out](int batch) {
        auto& as = slots_[static_cast<size_t>(a_slot)];
        auto& bs = slots_[static_cast<size_t>(b_slot)];
        auto& outs = slots_[static_cast<size_t>(out)];
        const int c = as[0].shape[0];
        for (int b = 0; b < batch; ++b) {
            outs[static_cast<size_t>(b)].reset(
                as[static_cast<size_t>(b)].shape);  // no-op when aliased
        }
        util::parallel_for(
            static_cast<int64_t>(batch) * c,
            [&](int64_t i) {
                const size_t b = static_cast<size_t>(i / c);
                const int ch = static_cast<int>(i % c);
                const IAct& A = as[b];
                const IAct& B = bs[b];
                const int target = (*out_frac)[static_cast<size_t>(ch)];
                const int sa = A.frac[static_cast<size_t>(ch)] - target;
                const int sb = B.frac[static_cast<size_t>(ch)] - target;
                const int32_t* pa = A.ch(ch);
                const int32_t* pb = B.ch(ch);
                int32_t* po = outs[b].ch(ch);
                const int64_t plane = A.plane();
                if (sa >= -31 && sb >= -31 && bits <= 29) {
                    simd::add_aligned_i32(po, pa, pb, plane, sa, sb, bits);
                    return;
                }
                for (int64_t p = 0; p < plane; ++p) {
                    const int64_t va =
                        shift_round_saturate(pa[p], sa, bits + 2);
                    const int64_t vb =
                        shift_round_saturate(pb[p], sb, bits + 2);
                    po[p] = static_cast<int32_t>(
                        shift_round_saturate(va + vb, 0, bits));
                }
            },
            threads_);
        for (int b = 0; b < batch; ++b) {
            outs[static_cast<size_t>(b)].frac = *out_frac;
        }
    });
}

void
QuantExecutor::lower()
{
    using plan::OpKind;
    for (const plan::OpIR& op : plan_.ops) {
        if (op.fused) continue;  // absorbed into its conv's epilogue
        const int in = op.in0_slot;
        const int out = op.out_slot;
        switch (op.kind) {
        case OpKind::kRingConv:
            lower_conv(op);
            break;
        case OpKind::kRequant: {
            // In place when the plan made this its input's last use.
            const auto* req = static_cast<const QRequantNode*>(op.node);
            steps_.push_back([this, req, in, out](int batch) {
                auto& ins = slots_[static_cast<size_t>(in)];
                auto& outs = slots_[static_cast<size_t>(out)];
                for (int b = 0; b < batch; ++b) {
                    IAct& x = ins[static_cast<size_t>(b)];
                    IAct& o = outs[static_cast<size_t>(b)];
                    const int c = x.shape[0];
                    const int64_t plane = x.plane();
                    const Shape shape = x.shape;
                    std::vector<int> shifts(static_cast<size_t>(c));
                    for (int ch = 0; ch < c; ++ch) {
                        shifts[static_cast<size_t>(ch)] =
                            x.frac[static_cast<size_t>(ch)] -
                            req->target[static_cast<size_t>(ch)];
                    }
                    o.reset(shape);  // no-op when in place
                    o.frac = req->target;
                    for (int ch = 0; ch < c; ++ch) {
                        const int shift = shifts[static_cast<size_t>(ch)];
                        const int32_t* src = x.ch(ch);
                        int32_t* dst = o.ch(ch);
                        for (int64_t p = 0; p < plane; ++p) {
                            int64_t v = src[p];
                            if (req->relu_first && v < 0) v = 0;
                            dst[p] = static_cast<int32_t>(
                                shift_round_saturate(v, shift, req->bits));
                        }
                    }
                }
            });
            break;
        }
        case OpKind::kDirRelu:
            // A directional ReLU is always fused behind its conv by the
            // fusion pass; a standalone one (defensive) takes the
            // oracle.
            lower_fallback(static_cast<const QNode*>(op.node), in, out);
            break;
        case OpKind::kPixelShuffle: {
            const int r = op.arg;
            steps_.push_back([this, in, out, r](int batch) {
                auto& ins = slots_[static_cast<size_t>(in)];
                auto& outs = slots_[static_cast<size_t>(out)];
                const int c = ins[0].shape[0] / (r * r);
                for (int b = 0; b < batch; ++b) {
                    IAct& x = ins[static_cast<size_t>(b)];
                    IAct& o = outs[static_cast<size_t>(b)];
                    o.reset({c, x.shape[1] * r, x.shape[2] * r});
                    o.frac.resize(static_cast<size_t>(c));
                    for (int oc = 0; oc < c; ++oc) {
                        o.frac[static_cast<size_t>(oc)] =
                            x.frac[static_cast<size_t>(oc * r * r)];
                    }
                }
                // One task per (image, output channel).
                util::parallel_for(
                    static_cast<int64_t>(batch) * c,
                    [&](int64_t i) {
                        const IAct& x = ins[static_cast<size_t>(i / c)];
                        IAct& o = outs[static_cast<size_t>(i / c)];
                        const int oc = static_cast<int>(i % c);
                        const int h = x.shape[1], w = x.shape[2];
                        int32_t* dst = o.ch(oc);
                        for (int dy = 0; dy < r; ++dy) {
                            for (int dx = 0; dx < r; ++dx) {
                                const int32_t* src =
                                    x.ch((oc * r + dy) * r + dx);
                                for (int y = 0; y < h; ++y) {
                                    int32_t* drow =
                                        dst +
                                        (static_cast<int64_t>(y) * r + dy) *
                                            (w * r) +
                                        dx;
                                    const int32_t* srow =
                                        src + static_cast<int64_t>(y) * w;
                                    for (int xx = 0; xx < w; ++xx) {
                                        drow[xx * r] = srow[xx];
                                    }
                                }
                            }
                        }
                    },
                    threads_);
            });
            break;
        }
        case OpKind::kPixelUnshuffle: {
            const int r = op.arg;
            steps_.push_back([this, in, out, r](int batch) {
                auto& ins = slots_[static_cast<size_t>(in)];
                auto& outs = slots_[static_cast<size_t>(out)];
                const int c = ins[0].shape[0];
                for (int b = 0; b < batch; ++b) {
                    IAct& x = ins[static_cast<size_t>(b)];
                    IAct& o = outs[static_cast<size_t>(b)];
                    o.reset({c * r * r, x.shape[1] / r, x.shape[2] / r});
                    o.frac.resize(static_cast<size_t>(c) * r * r);
                    for (int oc = 0; oc < c * r * r; ++oc) {
                        o.frac[static_cast<size_t>(oc)] =
                            x.frac[static_cast<size_t>(oc / (r * r))];
                    }
                }
                // One task per (image, input channel).
                util::parallel_for(
                    static_cast<int64_t>(batch) * c,
                    [&](int64_t i) {
                        const IAct& x = ins[static_cast<size_t>(i / c)];
                        IAct& o = outs[static_cast<size_t>(i / c)];
                        const int ic = static_cast<int>(i % c);
                        const int h = o.shape[1], w = o.shape[2];
                        const int32_t* src = x.ch(ic);
                        for (int dy = 0; dy < r; ++dy) {
                            for (int dx = 0; dx < r; ++dx) {
                                int32_t* dst = o.ch((ic * r + dy) * r + dx);
                                for (int y = 0; y < h; ++y) {
                                    const int32_t* srow =
                                        src +
                                        (static_cast<int64_t>(y) * r + dy) *
                                            (w * r) +
                                        dx;
                                    int32_t* drow =
                                        dst + static_cast<int64_t>(y) * w;
                                    for (int xx = 0; xx < w; ++xx) {
                                        drow[xx] = srow[xx * r];
                                    }
                                }
                            }
                        }
                    },
                    threads_);
            });
            break;
        }
        case OpKind::kChannelPad: {
            const int multiple = op.arg;
            steps_.push_back([this, in, out, multiple](int batch) {
                auto& ins = slots_[static_cast<size_t>(in)];
                auto& outs = slots_[static_cast<size_t>(out)];
                for (int b = 0; b < batch; ++b) {
                    IAct& x = ins[static_cast<size_t>(b)];
                    IAct& o = outs[static_cast<size_t>(b)];
                    const int c = x.shape[0];
                    const int want =
                        (c + multiple - 1) / multiple * multiple;
                    o.reset({want, x.shape[1], x.shape[2]});
                    o.frac.assign(static_cast<size_t>(want), x.frac[0]);
                    for (int ch = 0; ch < c; ++ch) {
                        o.frac[static_cast<size_t>(ch)] =
                            x.frac[static_cast<size_t>(ch)];
                    }
                    std::memcpy(o.v.data(), x.v.data(),
                                x.v.size() * sizeof(int32_t));
                    std::fill(o.v.begin() + static_cast<int64_t>(x.v.size()),
                              o.v.end(), 0);
                }
            });
            break;
        }
        case OpKind::kCropChannels: {
            const int keep = op.arg;
            steps_.push_back([this, in, out, keep](int batch) {
                auto& ins = slots_[static_cast<size_t>(in)];
                auto& outs = slots_[static_cast<size_t>(out)];
                for (int b = 0; b < batch; ++b) {
                    IAct& x = ins[static_cast<size_t>(b)];
                    IAct& o = outs[static_cast<size_t>(b)];
                    o.reset({keep, x.shape[1], x.shape[2]});
                    o.frac.assign(x.frac.begin(), x.frac.begin() + keep);
                    std::memcpy(o.v.data(), x.v.data(),
                                o.v.size() * sizeof(int32_t));
                }
            });
            break;
        }
        case OpKind::kResidualAdd: {
            // in0 is the body result, in1 the skip input.
            const auto* res = static_cast<const QResidualNode*>(op.node);
            lower_aligned_add(&res->out_frac, res->bits, op.in1_slot,
                              op.in0_slot, out);
            break;
        }
        case OpKind::kBranchAdd: {
            // in0 is the main branch, in1 the skip branch.
            const auto* two = static_cast<const QTwoBranchNode*>(op.node);
            lower_aligned_add(&two->out_frac, two->bits, op.in0_slot,
                              op.in1_slot, out);
            break;
        }
        case OpKind::kUpsample: {
            const auto* up = static_cast<const QBilinearNode*>(op.node);
            steps_.push_back([this, up, in, out](int batch) {
                auto& ins = slots_[static_cast<size_t>(in)];
                auto& outs = slots_[static_cast<size_t>(out)];
                const int r = up->r;
                const int wbits = 2 * ceil_log2(2 * r);
                for (int b = 0; b < batch; ++b) {
                    IAct& x = ins[static_cast<size_t>(b)];
                    IAct& o = outs[static_cast<size_t>(b)];
                    const int c = x.shape[0], h = x.shape[1],
                              w = x.shape[2];
                    const int ho = h * r, wo = w * r;
                    o.reset({c, ho, wo});
                    o.frac = up->target;
                    for (int ic = 0; ic < c; ++ic) {
                        const int shift = x.frac[static_cast<size_t>(ic)] +
                                          wbits -
                                          up->target[static_cast<size_t>(ic)];
                        const int32_t* src = x.ch(ic);
                        int32_t* dst = o.ch(ic);
                        for (int oy = 0; oy < ho; ++oy) {
                            int num_y = 2 * oy + 1 - r;
                            num_y = std::max(0, std::min(num_y,
                                                         2 * r * (h - 1)));
                            const int y0 = num_y / (2 * r);
                            const int wy = num_y - 2 * r * y0;
                            const int y1 = std::min(y0 + 1, h - 1);
                            for (int ox = 0; ox < wo; ++ox) {
                                int num_x = 2 * ox + 1 - r;
                                num_x = std::max(
                                    0, std::min(num_x, 2 * r * (w - 1)));
                                const int x0 = num_x / (2 * r);
                                const int wx = num_x - 2 * r * x0;
                                const int x1 = std::min(x0 + 1, w - 1);
                                const int64_t acc =
                                    static_cast<int64_t>(2 * r - wy) *
                                        (2 * r - wx) *
                                        src[static_cast<int64_t>(y0) * w +
                                            x0] +
                                    static_cast<int64_t>(2 * r - wy) * wx *
                                        src[static_cast<int64_t>(y0) * w +
                                            x1] +
                                    static_cast<int64_t>(wy) * (2 * r - wx) *
                                        src[static_cast<int64_t>(y1) * w +
                                            x0] +
                                    static_cast<int64_t>(wy) * wx *
                                        src[static_cast<int64_t>(y1) * w +
                                            x1];
                                dst[static_cast<int64_t>(oy) * wo + ox] =
                                    static_cast<int32_t>(
                                        shift_round_saturate(acc, shift,
                                                             up->bits));
                            }
                        }
                    }
                }
            });
            break;
        }
        default:
            // Unknown node type: oracle walk.
            lower_fallback(static_cast<const QNode*>(op.node), in, out);
            break;
        }
    }
}

// ---- execution -------------------------------------------------------------

void
QuantExecutor::ensure_batch(int count)
{
    if (count <= batch_capacity_) return;
    for (auto& slot : slots_) slot.resize(static_cast<size_t>(count));
    packed_in_.resize(static_cast<size_t>(count));
    batch_capacity_ = count;
}

void
QuantExecutor::exec(int count, const std::function<void(int, IAct&)>& load)
{
    threads_ = util::resolve_threads(opt_.threads);
    if (static_cast<int>(wband_.size()) < threads_) {
        wband_.resize(static_cast<size_t>(threads_));
    }
    ensure_batch(count);
    auto& entry = slots_[static_cast<size_t>(entry_slot_)];
    for (int b = 0; b < count; ++b) load(b, entry[static_cast<size_t>(b)]);
    for (auto& step : steps_) step(count);
}

void
QuantExecutor::exec(const QAct* const* ins, int count)
{
    const int64_t lo = -(INT64_C(1) << (qopt_.feature_bits - 1));
    const int64_t hi = (INT64_C(1) << (qopt_.feature_bits - 1)) - 1;
    exec(count, [&](int b, IAct& e) {
        const QAct& q = *ins[b];
        RINGCNN_CHECK(q.shape.size() == 3 &&
                          q.frac.size() == static_cast<size_t>(q.shape[0]),
                      "quantized executor input must be CHW with "
                      "per-channel fracs");
        e.reset(q.shape);
        e.frac = q.frac;
        for (size_t j = 0; j < q.v.size(); ++j) {
            RINGCNN_CHECK(q.v[j] >= lo && q.v[j] <= hi,
                          "quantized executor input exceeds the feature "
                          "bit width the plan was proven safe for");
            e.v[j] = static_cast<int32_t>(q.v[j]);
        }
    });
}

QAct
QuantExecutor::run(const QAct& in)
{
    const QAct* p = &in;
    exec(&p, 1);
    IAct& o = slots_[static_cast<size_t>(out_slot_)][0];
    return to_qact(o.shape, o.v, o.frac);
}

std::vector<QAct>
QuantExecutor::run(const std::vector<QAct>& ins)
{
    std::vector<const QAct*> ptrs(ins.size());
    for (size_t i = 0; i < ins.size(); ++i) ptrs[i] = &ins[i];
    exec(ptrs.data(), static_cast<int>(ins.size()));
    std::vector<QAct> out;
    out.reserve(ins.size());
    for (size_t i = 0; i < ins.size(); ++i) {
        IAct& o = slots_[static_cast<size_t>(out_slot_)][i];
        out.push_back(to_qact(o.shape, o.v, o.frac));
    }
    return out;
}

Tensor
QuantExecutor::forward(const Tensor& x)
{
    const Tensor* p = &x;
    Tensor y;
    forward_into(&p, &y, 1);
    return y;
}

std::vector<Tensor>
QuantExecutor::forward(const std::vector<Tensor>& xs)
{
    std::vector<Tensor> res(xs.size());
    std::vector<const Tensor*> ptrs(xs.size());
    for (size_t i = 0; i < xs.size(); ++i) ptrs[i] = &xs[i];
    forward_into(ptrs.data(), res.data(), static_cast<int>(xs.size()));
    return res;
}

void
QuantExecutor::forward_into(const Tensor* const* xs, Tensor* outs, int count)
{
    // QuantizedModel::quantize_input / dequantize, straight into the
    // entry slot and out of the output slot. The input format saturates
    // to feature_bits, the width the plan was proven for.
    exec(count, [&](int b, IAct& e) {
        const Tensor& x = *xs[b];
        RINGCNN_CHECK(x.shape().size() == 3,
                      "quantized executor input must be CHW");
        e.reset(x.shape());
        e.frac.assign(static_cast<size_t>(x.dim(0)), input_fmt_.frac);
        input_fmt_.quantize_row(x.data(), x.numel(), e.v.data());
    });
    for (int b = 0; b < count; ++b) {
        const IAct& o = slots_[static_cast<size_t>(out_slot_)]
                              [static_cast<size_t>(b)];
        outs[b] = Tensor(o.shape);
        QuantizedModel::dequantize(o.shape, o.v.data(), o.frac,
                                   outs[b].data());
    }
}

}  // namespace ringcnn::quant
