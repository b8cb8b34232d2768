#include "sim/accelerator.h"

#include <algorithm>
#include <cmath>

#include "quant/quant_executor.h"

namespace ringcnn::sim {

namespace {

int64_t
ceil_div(int64_t a, int64_t b)
{
    return (a + b - 1) / b;
}

}  // namespace

double
SimStats::energy_joules(const hw::TechConstants& tc,
                        const hw::AcceleratorCost& cost) const
{
    const double mac_e =
        tc.mult_energy_per_bit2 * 64.0 + tc.add_energy_per_bit * tc.acc_bits;
    const int n = cost.n;
    const int log2n = n > 1 ? static_cast<int>(std::lround(std::log2(n))) : 0;
    const double relu_e =
        2.0 * n * log2n * tc.relu_bits * tc.add_energy_per_bit;
    double e = static_cast<double>(mac_ops) * mac_e * 1e-15;
    e += static_cast<double>(relu_tuple_ops) * relu_e * 1e-15;
    e += static_cast<double>(wmem_bits + bb_bits) *
         tc.sram_read_energy_per_bit * 1e-15;
    // Background power of buffers/datapath/misc over the run time.
    const double bg_w = cost.part("block-buffers").power_w +
                        cost.part("datapath").power_w +
                        cost.part("misc").power_w;
    e += bg_w * seconds(cost.freq_hz);
    return e;
}

SimStats&
SimStats::operator+=(const SimStats& o)
{
    cycles += o.cycles;
    conv3_cycles += o.conv3_cycles;
    conv1_cycles += o.conv1_cycles;
    mac_ops += o.mac_ops;
    relu_tuple_ops += o.relu_tuple_ops;
    wmem_bits += o.wmem_bits;
    bb_bits += o.bb_bits;
    datapath_ops += o.datapath_ops;
    return *this;
}

Accelerator::Accelerator(const SimConfig& cfg, const hw::TechConstants& tc)
    : cfg_(cfg), tc_(tc), cost_(hw::build_accelerator_cost(cfg.n, tc))
{
}

plan::GraphPlan
Accelerator::compile_plan(const quant::QuantizedModel& qm) const
{
    // The executor's own pipeline and fusion policy: requant and
    // directional fusion are unconditional on this machine too — the
    // requant applies in the engine's accumulate pass and the
    // directional-ReLU blocks sit pipelined behind the accumulators.
    return quant::QuantExecutor::compile_plan(qm);
}

SimStats
Accelerator::price_plan(plan::GraphPlan& plan, const Shape& in_shape) const
{
    using plan::Epilogue;
    using plan::OpKind;
    plan::annotate_shapes(plan, in_shape);
    SimStats s;
    for (const plan::OpIR& op : plan.ops) {
        if (op.fused) continue;  // priced with its conv's epilogue
        const int64_t in_numel = static_cast<int64_t>(op.in_shape[0]) *
                                 op.in_shape[1] * op.in_shape[2];
        switch (op.kind) {
        case OpKind::kRingConv: {
            const auto* conv =
                static_cast<const quant::QConvNode*>(op.node);
            const int h = op.in_shape[1], w = op.in_shape[2];
            const int64_t tiles =
                ceil_div(w, cfg_.tile_w) * ceil_div(h, cfg_.tile_h);
            const int64_t co_passes = ceil_div(conv->co, cfg_.lanes);
            const int64_t ci_passes = ceil_div(conv->ci, cfg_.lanes);
            const int64_t cyc =
                tiles * co_passes * ci_passes + cfg_.pipeline_latency;
            s.cycles += cyc;
            if (conv->k == 1) {
                s.conv1_cycles += cyc;
            } else {
                s.conv3_cycles += cyc;
            }
            // Physical MACs: the n-tuple granularity removes the
            // (n-1)/n redundant multipliers — exactly co*ci*k^2/n
            // products per pixel. The plan's sparsity annotation
            // (OpIR::nz_taps, ring-tuple granularity) scales this
            // further: a pruned tuple's taps never enter the engines'
            // compiled tap lists, so the machine fires no MACs — and
            // fetches no weights — for them.
            const uint64_t dense_macs = static_cast<uint64_t>(conv->co) *
                                        conv->ci * conv->k * conv->k * h *
                                        w / cfg_.n;
            const uint64_t dense_wbits = static_cast<uint64_t>(conv->co) *
                                         conv->ci * conv->k * conv->k * 8 /
                                         cfg_.n;
            if (op.total_taps > 0) {
                s.mac_ops += dense_macs *
                             static_cast<uint64_t>(op.nz_taps) /
                             static_cast<uint64_t>(op.total_taps);
                s.wmem_bits += dense_wbits *
                               static_cast<uint64_t>(op.nz_taps) /
                               static_cast<uint64_t>(op.total_taps);
            } else {
                s.mac_ops += dense_macs;
                s.wmem_bits += dense_wbits;
            }
            s.bb_bits +=
                static_cast<uint64_t>(conv->ci + conv->co) * h * w * 8;
            // The fused epilogue prices with the pass, not after it: a
            // requant applies in the accumulate pass (free — charging
            // a datapath sweep here would double-count the machine's
            // one pass), a directional ReLU is pipelined behind the
            // accumulators and charges only its tuple evaluations.
            if (op.epilogue == Epilogue::kDirRelu) {
                const auto* dir = static_cast<const quant::QDirReluNode*>(
                    op.epilogue_node);
                s.relu_tuple_ops += static_cast<uint64_t>(conv->co /
                                                          dir->n) *
                                    h * w;
            }
            // ABFT verification pass: one reduction over the conv's
            // input plus its output interior, `lanes` adds per cycle
            // on the datapath (the engines are untouched — checksum
            // adders ride the activation buses).
            if (cfg_.verify_checksums && op.checksum != nullptr) {
                const int pad = conv->k / 2;
                const int64_t interior =
                    static_cast<int64_t>(std::max(0, h - 2 * pad)) *
                    std::max(0, w - 2 * pad);
                const int64_t red = in_numel + conv->co * interior;
                s.datapath_ops += static_cast<uint64_t>(red);
                s.cycles += ceil_div(red, cfg_.lanes);
            }
            break;
        }
        case OpKind::kDirRelu: {
            // Standalone (defensive — the fusion pass attaches these).
            const auto* dir =
                static_cast<const quant::QDirReluNode*>(op.node);
            s.relu_tuple_ops += static_cast<uint64_t>(op.in_shape[0] /
                                                      dir->n) *
                                op.in_shape[1] * op.in_shape[2];
            break;
        }
        case OpKind::kResidualAdd:
        case OpKind::kBranchAdd:
            // Datapath add; overlapped with engine compute.
            s.datapath_ops += static_cast<uint64_t>(op.out_shape[0]) *
                              op.out_shape[1] * op.out_shape[2];
            break;
        default:
            // Pure datapath ops: shuffles, pads, crops, standalone
            // requants, bilinear skip, fallbacks.
            s.datapath_ops += static_cast<uint64_t>(in_numel);
            break;
        }
    }
    return s;
}

SimStats
Accelerator::run(const quant::QuantizedModel& qm, const Tensor& image,
                 Tensor* out) const
{
    // The schedule is shape-only over the shared plan; the numerics
    // ride the quantized model's own inference (the compiled
    // int8/int32 engine path by default), which is bit-exact with the
    // scalar node walk the simulator used to drag along per node.
    plan::GraphPlan p = compile_plan(qm);
    const SimStats s = price_plan(p, image.shape());
    if (out != nullptr) {
        const quant::QAct r = qm.infer(qm.quantize_input(image));
        *out = quant::QuantizedModel::dequantize(r);
    }
    return s;
}

std::vector<SimStats>
Accelerator::run(const quant::QuantizedModel& qm,
                 const std::vector<Tensor>& images,
                 std::vector<Tensor>* outs) const
{
    std::vector<SimStats> stats;
    stats.reserve(images.size());
    plan::GraphPlan p = compile_plan(qm);
    for (const Tensor& image : images) {
        stats.push_back(price_plan(p, image.shape()));
    }
    if (outs != nullptr) {
        // One batched engine pass for the whole schedule: every
        // (image, band, row-band) conv task lands on one worker set.
        std::vector<quant::QAct> ins;
        ins.reserve(images.size());
        for (const Tensor& image : images) {
            ins.push_back(qm.quantize_input(image));
        }
        const std::vector<quant::QAct> rs = qm.infer(ins);
        outs->clear();
        outs->reserve(rs.size());
        for (const quant::QAct& r : rs) {
            outs->push_back(quant::QuantizedModel::dequantize(r));
        }
    }
    return stats;
}

SimStats
Accelerator::price_tile_stream(const quant::QuantizedModel& qm,
                               const Shape& tile_shape,
                               uint64_t computed_tiles,
                               uint64_t skipped_tiles) const
{
    plan::GraphPlan p = compile_plan(qm);
    const SimStats per_tile = price_plan(p, tile_shape);
    // One skipped tile: move input (delta compare) + output (cached
    // re-emit) over the activation path, compare on the datapath. The
    // engines idle — no MACs, no weight traffic, no conv cycles.
    const int64_t in_numel = static_cast<int64_t>(tile_shape[0]) *
                             tile_shape[1] * tile_shape[2];
    const int64_t out_numel = static_cast<int64_t>(p.out_shape[0]) *
                              p.out_shape[1] * p.out_shape[2];
    SimStats skip_tile;
    skip_tile.bb_bits = static_cast<uint64_t>(in_numel + out_numel) * 8;
    // Streaming rides the block-buffer port at its full width — `lanes`
    // channels over a tile_w x tile_h pixel patch per cycle, the same
    // interface an engine pass fills — so a skipped tile is strictly
    // cheaper in cycles than the shallowest compute pass.
    const int64_t port = static_cast<int64_t>(cfg_.lanes) * cfg_.tile_w *
                         cfg_.tile_h;
    skip_tile.cycles =
        static_cast<uint64_t>(ceil_div(in_numel + out_numel, port));
    skip_tile.datapath_ops = static_cast<uint64_t>(in_numel);

    const auto scaled = [](const SimStats& s, uint64_t k) {
        SimStats r;
        r.cycles = s.cycles * k;
        r.conv3_cycles = s.conv3_cycles * k;
        r.conv1_cycles = s.conv1_cycles * k;
        r.mac_ops = s.mac_ops * k;
        r.relu_tuple_ops = s.relu_tuple_ops * k;
        r.wmem_bits = s.wmem_bits * k;
        r.bb_bits = s.bb_bits * k;
        r.datapath_ops = s.datapath_ops * k;
        return r;
    };
    SimStats total = scaled(per_tile, computed_tiles);
    total += scaled(skip_tile, skipped_tiles);
    return total;
}

PixelCosts
Accelerator::pixel_costs(const quant::QuantizedModel& qm,
                         const Tensor& image) const
{
    // Shape-only: the annotated plan carries the output shape, so no
    // inference is needed just to count output pixels.
    plan::GraphPlan p = compile_plan(qm);
    const SimStats s = price_plan(p, image.shape());
    const double pixels =
        static_cast<double>(p.out_shape[1]) * p.out_shape[2];
    PixelCosts pc;
    pc.cycles_per_pixel = static_cast<double>(s.cycles) / pixels;
    pc.nj_per_pixel = s.energy_joules(tc_, cost_) * 1e9 / pixels;
    return pc;
}

VideoEstimate
estimate_video(double cycles_per_pixel, int halo, int block, int width,
               int height, double freq_hz, int bytes_per_pixel_in,
               int bytes_per_pixel_out)
{
    VideoEstimate v;
    // Recompute-halo inflation: a block of side B produces (B - 2*halo)^2
    // valid output pixels from B^2 computed ones (eCNN-style).
    const double valid = std::max(1.0, static_cast<double>(block - 2 * halo));
    v.utilization = valid * valid / (static_cast<double>(block) * block);
    const double effective_cpp = cycles_per_pixel / v.utilization;
    const double pixels_per_s = freq_hz / effective_cpp;
    v.fps = pixels_per_s / (static_cast<double>(width) * height);
    v.dram_gb_s = v.fps * width * height *
                  (bytes_per_pixel_in / v.utilization + bytes_per_pixel_out) /
                  1e9;
    return v;
}

}  // namespace ringcnn::sim
