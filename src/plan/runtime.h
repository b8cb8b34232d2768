/**
 * @file
 * Runtime: the execution half shared by the fp32 and int8 executors.
 *
 * Both executors lower the same GraphPlan (graph_ir.h) onto their own
 * kernels; everything around the kernels is identical and lives here
 * once, templated over the arena activation type (Tensor for fp32,
 * quant::IAct for int8):
 *
 *  - the slotted activation arena, slots[slot][image], sized from the
 *    plan's slot count. Buffers keep their capacity across runs and
 *    the batch dimension only grows, so after the first run at the
 *    largest batch and shape the steady state performs no heap
 *    allocation in the arena;
 *  - the run itself: grow the batch, load each input into the entry
 *    slot, run every step over the batch. An empty batch returns
 *    before any step runs;
 *  - two step builders, so a lowering states only its kernel: one that
 *    runs a kernel per image, and one that fans a kernel out per
 *    (image, channel) on the persistent thread pool.
 *
 * Steps that do more (the ring-conv engines, the int8 packed conv)
 * are added raw and reach the arena through slot().
 *
 * One executor serves one caller at a time: its runs share the arena
 * and the kernels' scratch, so concurrent calls on one instance race.
 * Build one executor per thread; steps still parallelize internally
 * across the worker pool.
 */
#ifndef RINGCNN_PLAN_RUNTIME_H
#define RINGCNN_PLAN_RUNTIME_H

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "plan/graph_ir.h"
#include "util/thread_pool.h"

namespace ringcnn::plan {

/** Execution knobs shared by both executors. */
struct ExecOptions
{
    /** Worker threads for pooled steps; 0 = auto (RINGCNN_THREADS). */
    int threads = 0;
    /**
     * ABFT verification: after every compiled ring-conv pass, compare
     * the output's interior ring-sum against the prediction from the
     * input's ring-sum and the plan's weight checksum
     * (plan::ConvChecksum) — tolerance-bounded on fp32, exact on the
     * int8 accumulators. A mismatch throws plan::IntegrityError.
     * Outputs are bit-identical with verification on; the cost is one
     * extra read pass over each conv's input and output.
     */
    bool verify_checksums = false;
};

template <class Act>
class Runtime
{
  public:
    using Step = std::function<void(int)>;  ///< arg: batch size

    Runtime(const GraphPlan& plan, int threads)
        : slots_(static_cast<size_t>(plan.num_slots)),
          entry_slot_(plan.entry_slot), out_slot_(plan.out_slot),
          threads_(threads)
    {
    }

    /** Slot `s`, one activation per image (at least the batch). */
    std::vector<Act>& slot(int s) { return slots_[static_cast<size_t>(s)]; }
    /** The output slot after a run. */
    std::vector<Act>& out() { return slot(out_slot_); }

    void add(Step s) { steps_.push_back(std::move(s)); }

    /** Adds a step running f(x, y) for every image. */
    template <class F>
    void per_image(int in, int out, F f)
    {
        per_image(in, in, out,
                  [f](const Act& x, const Act&, Act& y) { f(x, y); });
    }

    /** Two-input form: f(a, b, y) for every image. */
    template <class F>
    void per_image(int in0, int in1, int out, F f)
    {
        add([this, in0, in1, out, f](int batch) {
            auto& as = slot(in0);
            auto& bs = slot(in1);
            auto& ys = slot(out);
            for (int b = 0; b < batch; ++b) {
                f(as[idx(b)], bs[idx(b)], ys[idx(b)]);
            }
        });
    }

    /**
     * Adds a step fanned out per (image, channel) on the pool: prep(x,
     * y) runs for every image first (shape and metadata of y) and
     * returns the channel count to fan over; plane(x, y, c) then runs
     * for every (image, channel) task. Planes must be independent.
     */
    template <class Prep, class Plane>
    void per_channel(int in, int out, Prep prep, Plane plane)
    {
        per_channel(
            in, in, out,
            [prep](const Act& x, const Act&, Act& y) { return prep(x, y); },
            [plane](const Act& x, const Act&, Act& y, int c) {
                plane(x, y, c);
            });
    }

    /** Two-input form: prep(a, b, y), then plane(a, b, y, c). */
    template <class Prep, class Plane>
    void per_channel(int in0, int in1, int out, Prep prep, Plane plane)
    {
        add([this, in0, in1, out, prep, plane](int batch) {
            auto& as = slot(in0);
            auto& bs = slot(in1);
            auto& ys = slot(out);
            int c = 0;
            for (int b = 0; b < batch; ++b) {
                c = prep(as[idx(b)], bs[idx(b)], ys[idx(b)]);
            }
            util::parallel_for(
                static_cast<int64_t>(batch) * c,
                [&](int64_t i) {
                    const size_t b = static_cast<size_t>(i / c);
                    plane(as[b], bs[b], ys[b], static_cast<int>(i % c));
                },
                threads_);
        });
    }

    /** Runs `count` images: load(b, entry activation of image b) for
     *  each, then every step over the batch. */
    template <class Load>
    void run(int count, Load&& load)
    {
        if (count == 0) return;
        if (count > capacity_) {
            for (auto& s : slots_) s.resize(idx(count));
            capacity_ = count;
        }
        auto& entry = slot(entry_slot_);
        for (int b = 0; b < count; ++b) load(b, entry[idx(b)]);
        for (auto& step : steps_) step(count);
    }

    size_t step_count() const { return steps_.size(); }
    int slot_count() const { return static_cast<int>(slots_.size()); }

    /** Bytes held by the arena (capacity, all slots and batch lanes). */
    int64_t arena_bytes() const
    {
        int64_t bytes = 0;
        for (const auto& s : slots_) {
            for (const Act& a : s) bytes += a.capacity_bytes();
        }
        return bytes;
    }

  private:
    static size_t idx(int b) { return static_cast<size_t>(b); }

    std::vector<std::vector<Act>> slots_;
    int entry_slot_, out_slot_;
    int threads_;
    int capacity_ = 0;
    std::vector<Step> steps_;
};

}  // namespace ringcnn::plan

#endif  // RINGCNN_PLAN_RUNTIME_H
