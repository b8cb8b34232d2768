/**
 * @file
 * QuantExecutor: a compiled engine path for the integer graph of a
 * QuantizedModel (paper Section IV-C / Fig. 8).
 *
 * QNode::forward walks pixels scalar through int64 element accessors
 * and allocates a fresh activation per node. The executor compiles the
 * graph ONCE through the shared plan pipeline (src/plan: linearize ->
 * fuse epilogues -> arena assignment) and lowers the IR to integer
 * kernels, the way nn::ModelExecutor lowers the float model:
 *
 *  - every QConvNode becomes a core::QuantConvKernel — int8 weights
 *    compiled into nonzero channel-pair tap tables, int32 bias — and
 *    runs on an 8-bit datapath: the step first packs each input image
 *    into a shared zero-padded int16 scratch with channels interleaved
 *    in pairs, then every (image, output band, row band) task
 *    accumulates in int32 registers, one vpmaddwd per tap pair
 *    (simd::conv_pairs_i16). The QDirReluNode / QRequantNode the
 *    fusion pass attached to the conv (one always follows it in the
 *    graph) runs on the band while it is hot, 8 px per int32 register
 *    (simd::requant_i32 / dir_relu_otf_i32 / dir_relu_qfirst_i32):
 *    align shifts, Hadamard butterfly, rectify, butterfly,
 *    per-component round/saturate (the Fig. 8 on-the-fly pipeline), or
 *    the quantize-first ablation sequence;
 *  - conv work parallelizes across (image, output band, row band)
 *    tasks on the persistent util::ThreadPool;
 *  - all other nodes (requant, shuffles, pad/crop, residual and
 *    two-branch aligned adds, the fixed-point bilinear upsampler)
 *    become allocation-free steps of the shared plan::Runtime
 *    (plan/runtime.h: arena, batching, step loop — the one the fp32
 *    executor runs on too), each fanned out per (image, channel) on
 *    the pool; the shuffles and pad/crop share their element-type
 *    kernels with fp32 (tensor/image_ops.h).
 *
 * Bit-exactness: every step performs the same integer operations as
 * the scalar QNode oracle. A conv takes the fast path only when a
 * static per-conv proof holds — its input width (op.in_bits, threaded
 * through the plan) is at most 16 bits, so int16 packing is lossless;
 * the worst-case accumulator fits int32
 * (QuantConvKernel::int32_safe), so the reordered integer sums equal
 * the int64 reference; and every intermediate of the fused epilogue
 * (aligned values, butterfly sums, rounding adds, left shifts) fits
 * int32. Any conv that fails — or whose weights exceed int8 — compiles
 * onto the scalar oracle node instead. tests/test_quant_executor.cc
 * pins the equivalence raw-integer by raw-integer across rings,
 * shapes, options, and thread counts.
 *
 * The executor holds pointers into the model's node graph: the
 * QuantizedModel must outlive it. One executor serves one caller at a
 * time (see plan/runtime.h).
 */
#ifndef RINGCNN_QUANT_QUANT_EXECUTOR_H
#define RINGCNN_QUANT_QUANT_EXECUTOR_H

#include <cstdint>
#include <memory>
#include <vector>

#include "core/ring_conv_engine.h"
#include "plan/graph_ir.h"
#include "plan/runtime.h"
#include "quant/quant_model.h"

namespace ringcnn::quant {

/** Int8 arena activation: int32 CHW planes + per-channel frac. Every
 *  value the plan stores here is 8-bit-class or a proven-int32 conv
 *  accumulator, so the narrow lanes are exact. */
struct IAct
{
    Shape shape;
    std::vector<int32_t> v;
    std::vector<int> frac;

    int64_t plane() const { return static_cast<int64_t>(shape[1]) * shape[2]; }
    int32_t* ch(int c) { return v.data() + c * plane(); }
    const int32_t* ch(int c) const { return v.data() + c * plane(); }
    void reset(const Shape& s)
    {
        shape = s;
        v.resize(static_cast<size_t>(shape_numel(s)));
    }
    int64_t capacity_bytes() const
    {
        return static_cast<int64_t>(v.capacity() * sizeof(int32_t));
    }
};

class QuantExecutor
{
  public:
    explicit QuantExecutor(const QuantizedModel& qm,
                           plan::ExecOptions opt = {});
    ~QuantExecutor();
    QuantExecutor(const QuantExecutor&) = delete;
    QuantExecutor& operator=(const QuantExecutor&) = delete;

    /** The int8 compile pipeline and fusion policy, shared with the
     *  simulator (sim::Accelerator::compile_plan) so it prices exactly
     *  the plan this executor lowers. */
    static plan::GraphPlan compile_plan(const QuantizedModel& qm);

    /** Integer graph forward; bit-identical to root->forward(in). */
    QAct run(const QAct& in);
    /** Batched integer forward: one output per input, in order. */
    std::vector<QAct> run(const std::vector<QAct>& ins);

    /** End-to-end float forward: quantize, integer graph, dequantize.
     *  Bit-identical (hence float-identical) to the scalar walk. Both
     *  overloads run through run_into. */
    Tensor forward(const Tensor& x);
    std::vector<Tensor> forward(const std::vector<Tensor>& xs);
    /**
     * Batch-into-existing-buffers float forward: quantizes `count`
     * images straight into the entry slot (QFormat::quantize_row, as
     * QuantizedModel::quantize_input), runs the integer graph once,
     * dequantizes into outs[b] (QuantizedModel::dequantize). The same
     * entry point as nn::ModelExecutor::run_into — the serving layer
     * fulfills response futures through either; bit-identical to
     * per-image forward().
     */
    void run_into(const Tensor* const* xs, Tensor* outs, int count);

    /** Compiled step count (introspection for tests/benches). */
    size_t step_count() const { return rt_.step_count(); }
    /** Activation-arena slot count. */
    int slot_count() const { return rt_.slot_count(); }
    /** Bytes currently held by the activation arena (capacity, all
     *  slots and batch lanes). */
    int64_t arena_bytes() const { return rt_.arena_bytes(); }
    /** Convs compiled onto the int8 channel-pair datapath. */
    int fast_conv_count() const { return fast_convs_; }
    /** Convs that fell back to the scalar oracle node (input beyond
     *  16 bits, accumulator or epilogue bound beyond int32, or weights
     *  beyond int8). */
    int scalar_conv_count() const { return scalar_convs_; }
    /** Weights the compiled pair tables never multiply, summed over
     *  the fast convs (the quantized mirror of
     *  nn::ModelExecutor::sparse_tap_skip_count). */
    int64_t sparse_tap_skip_count() const
    {
        int64_t skipped = 0;
        for (const auto& k : kernels_) skipped += k->sparse_tap_skip_count();
        return skipped;
    }
    /** The backend-neutral plan this executor lowered (introspection
     *  for tests/benches). */
    const plan::GraphPlan& plan() const { return plan_; }

  private:
    struct ConvTask
    {
        int img, group, y0, y1;
    };

    // ---- backend lowering of the shared plan (see quant_executor.cc)
    void lower();
    /** Conv with its fused requant/dir-relu epilogue annotation. */
    void lower_conv(const plan::OpIR& op);
    /** Residual / two-branch join: aligned add of two slots. */
    void lower_aligned_add(const std::vector<int>* out_frac, int bits,
                           int a_slot, int b_slot, int out);
    /** The scalar QNode oracle walk of `chain` (null entries skipped)
     *  as one allocating step: a conv that fails the fast-path proof
     *  together with its epilogue, or a node without a kernel. */
    void lower_oracle(std::vector<const QNode*> chain, int in, int out);

    /** Runs integer inputs, range-checked against feature_bits. */
    void exec(const QAct* const* ins, int count);

    plan::ExecOptions opt_;
    QuantOptions qopt_;
    QFormat input_fmt_;
    const QNode* root_;

    /** The shared-pipeline plan the steps below lower. */
    plan::GraphPlan plan_;
    /** Arena, batch growth and the step loop (shared with fp32). */
    plan::Runtime<IAct> rt_;

    std::vector<std::unique_ptr<QuantConvKernel>> kernels_;
    std::vector<std::vector<int32_t>> wband_;  ///< per-worker conv bands
    /** Shared conv-input scratch: every fast conv step packs its batch
     *  here (grow-only) before its tasks run, and the pool workers
     *  read it. packed_in_[b] views image b's share. */
    std::vector<int16_t> packed_;
    std::vector<simd::PairTap> packed_taps_;
    std::vector<QuantPackedInput> packed_in_;
    std::vector<ConvTask> tasks_;              ///< reused task list
    int fast_convs_ = 0, scalar_convs_ = 0;
};

}  // namespace ringcnn::quant

#endif  // RINGCNN_QUANT_QUANT_EXECUTOR_H
