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
 *  - all other nodes (shuffles, pad/crop, residual and two-branch
 *    aligned adds, the fixed-point bilinear upsampler) become
 *    allocation-free steps over a slotted int32 activation arena
 *    recycled by the arena planner's compile-time liveness — after the
 *    first run at the largest batch and shape the steady state
 *    performs no heap allocations; packing, the aligned adds and the
 *    shuffles fan out per (image, channel) on the pool;
 *  - conv work parallelizes across (image, output band, row band)
 *    tasks on the persistent util::ThreadPool.
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
 * time (the arena and scratch are shared state); build one per thread.
 */
#ifndef RINGCNN_QUANT_QUANT_EXECUTOR_H
#define RINGCNN_QUANT_QUANT_EXECUTOR_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/ring_conv_engine.h"
#include "plan/graph_ir.h"
#include "quant/quant_model.h"

namespace ringcnn::quant {

/** Execution knobs for the quantized engine path. */
struct QuantExecOptions
{
    /** Worker threads for conv steps; 0 = auto (RINGCNN_THREADS). */
    int threads = 0;
    /** Output rows per conv task; 0 = auto. Any value produces
     *  identical bits — this only shapes the parallel grain. */
    int row_band = 0;
    /**
     * ABFT verification: after every fast-path conv, compare the raw
     * int32 accumulators' interior sum against the EXACT int64
     * prediction from the input's ring-sum and the plan's weight
     * checksum (plan::ConvChecksum). A mismatch throws
     * plan::IntegrityError. Scalar-oracle convs are skipped (the
     * oracle is the reference, not an optimized rewrite). Outputs are
     * bit-identical with verification on; the cost is one extra read
     * pass over each conv's input and raw accumulator band.
     */
    bool verify_checksums = false;
};

class QuantExecutor
{
  public:
    explicit QuantExecutor(const QuantizedModel& qm,
                           QuantExecOptions opt = {});
    ~QuantExecutor();
    QuantExecutor(const QuantExecutor&) = delete;
    QuantExecutor& operator=(const QuantExecutor&) = delete;

    /** Integer graph forward; bit-identical to root->forward(in). */
    QAct run(const QAct& in);
    /** Batched integer forward: one output per input, in order. */
    std::vector<QAct> run(const std::vector<QAct>& ins);

    /** End-to-end float forward: quantize, integer graph, dequantize.
     *  Bit-identical (hence float-identical) to the scalar walk. Both
     *  overloads run through forward_into. */
    Tensor forward(const Tensor& x);
    std::vector<Tensor> forward(const std::vector<Tensor>& xs);
    /**
     * Batch-into-existing-buffers float forward: quantizes `count`
     * images straight into the entry slot (QFormat::quantize_row, as
     * QuantizedModel::quantize_input), runs the integer graph once,
     * dequantizes into outs[b] (QuantizedModel::dequantize). The
     * serving layer's int8 mode fulfills response futures through
     * this; bit-identical to per-image forward().
     */
    void forward_into(const Tensor* const* xs, Tensor* outs, int count);

    /** Compiled step count (introspection for tests/benches). */
    size_t step_count() const { return steps_.size(); }
    /** Activation-arena slot count. */
    int slot_count() const { return static_cast<int>(slots_.size()); }
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
    /** Arena activation: int32 CHW planes + per-channel frac. Every
     *  value the plan stores here is 8-bit-class or a proven-int32
     *  conv accumulator, so the narrow lanes are exact. */
    struct IAct
    {
        Shape shape;
        std::vector<int32_t> v;
        std::vector<int> frac;

        int64_t plane() const
        {
            return static_cast<int64_t>(shape[1]) * shape[2];
        }
        int32_t* ch(int c) { return v.data() + c * plane(); }
        const int32_t* ch(int c) const { return v.data() + c * plane(); }
        void reset(const Shape& s)
        {
            shape = s;
            v.resize(static_cast<size_t>(shape_numel(s)));
        }
    };

    struct ConvTask
    {
        int img, group, y0, y1;
    };

    using Step = std::function<void(int)>;  ///< arg: batch size

    // ---- backend lowering of the shared plan (see quant_executor.cc)
    void lower();
    /** Conv with its fused requant/dir-relu epilogue annotation. */
    void lower_conv(const plan::OpIR& op);
    /** Residual / two-branch join: aligned add of two slots. */
    void lower_aligned_add(const std::vector<int>* out_frac, int bits,
                           int a_slot, int b_slot, int out);
    /** Correct-but-allocating fallback through QNode::forward. */
    void lower_fallback(const QNode* node, int in, int out);

    int band_rows(int h, int groups_total) const;
    void ensure_batch(int count);
    /** One run: per-call setup (threads, worker bands, batch
     *  capacity), load(b, entry image b) for every image, the steps. */
    void exec(int count, const std::function<void(int, IAct&)>& load);
    /** exec over integer inputs, range-checked against feature_bits. */
    void exec(const QAct* const* ins, int count);

    QuantExecOptions opt_;
    QuantOptions qopt_;
    QFormat input_fmt_;
    const QNode* root_;

    /** The shared-pipeline plan the steps below lower. */
    plan::GraphPlan plan_;

    std::vector<std::vector<IAct>> slots_;  ///< [slot][image]
    int entry_slot_ = -1, out_slot_ = -1;

    std::vector<Step> steps_;
    std::vector<std::unique_ptr<QuantConvKernel>> kernels_;
    std::vector<std::vector<int32_t>> wband_;  ///< per-worker conv bands
    /** Shared conv-input scratch: every fast conv step packs its batch
     *  here (grow-only) before its tasks run, and the pool workers
     *  read it. packed_in_[b] views image b's share. */
    std::vector<int16_t> packed_;
    std::vector<simd::PairTap> packed_taps_;
    std::vector<QuantPackedInput> packed_in_;
    std::vector<ConvTask> tasks_;              ///< reused task list
    int threads_ = 1;
    int batch_capacity_ = 0;
    int fast_convs_ = 0, scalar_convs_ = 0;
};

}  // namespace ringcnn::quant

#endif  // RINGCNN_QUANT_QUANT_EXECUTOR_H
