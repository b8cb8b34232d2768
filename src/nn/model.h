/**
 * @file
 * Model wrapper: owns a root layer, exposes forward/backward, parameter
 * access, and complexity accounting (params / real multiplications).
 */
#ifndef RINGCNN_NN_MODEL_H
#define RINGCNN_NN_MODEL_H

#include <memory>
#include <string>

#include "nn/layer.h"
#include "plan/plan_cache.h"

namespace ringcnn::nn {

class ModelExecutor;

/** A trainable model = named root layer + bookkeeping helpers. */
class Model
{
  public:
    // Copies clone the layer tree; the cached inference plans are
    // per-instance state and are never copied (a move keeps them:
    // layer addresses are stable under Model moves). All special
    // members are defined out of line (nn/model.cc) because
    // ModelExecutor is incomplete here.
    Model();
    Model(std::string name, std::unique_ptr<Layer> root);
    Model(const Model& o);
    Model& operator=(const Model& o);
    Model(Model&& o) noexcept;
    Model& operator=(Model&& o) noexcept;
    ~Model();

    const std::string& name() const { return name_; }
    Layer& root() { return *root_; }
    const Layer& root() const { return *root_; }

    Tensor forward(const Tensor& x, bool train = false)
    {
        return root_->forward(x, train);
    }
    Tensor backward(const Tensor& grad) { return root_->backward(grad); }

    /**
     * Executor-backed inference: compiles the model into a fused,
     * arena-planned step list on first use (per input shape) and
     * reuses it afterwards — weight updates are picked up through the
     * layers' parameter version counters. The hot path for evaluation,
     * demos, and serving; forward(x, false) remains the layer-by-layer
     * reference walk.
     */
    Tensor infer(const Tensor& x);
    /** Batched executor inference (one worker set for the batch). */
    std::vector<Tensor> infer(const std::vector<Tensor>& xs);

    /**
     * The cached executor for `shape`, building it if needed: claimed
     * through a plan::PlanCache bounded at kMaxPlans, so mixed-shape
     * eval loops don't recompile on every alternation; a miss at the
     * bound reclaims the least-recently-used plan's slot and compiles
     * the new shape fresh in it. The returned reference is invalidated
     * by later executor()/infer() calls with other shapes — use it
     * immediately, don't store it.
     */
    ModelExecutor& executor(const Shape& shape);

    std::vector<ParamRef> params()
    {
        std::vector<ParamRef> out;
        root_->collect_params(out);
        return out;
    }

    /**
     * Copies parameter VALUES (not gradients) from `src`, which must
     * have identical topology — the per-step weight sync of the
     * data-parallel trainer's worker replicas. Bumps the destination
     * layers' parameter versions so cached engines refresh.
     */
    void copy_params_from(Model& src);

    /** Total trainable scalars (the paper's weight-storage axis). */
    int64_t num_params()
    {
        int64_t total = 0;
        for (const auto& p : params()) {
            total += static_cast<int64_t>(p.value->size());
        }
        return total;
    }

    /** Zeroes every gradient accumulator. */
    void zero_grad()
    {
        for (auto& p : params()) {
            std::fill(p.grad->begin(), p.grad->end(), 0.0f);
        }
    }

    /** Real multiplications for one forward pass on the input shape. */
    int64_t macs(const Shape& in) const { return root_->macs(in); }

    Shape out_shape(const Shape& in) const { return root_->out_shape(in); }

    /** Compiled inference plans kept per Model (LRU bound). */
    static constexpr int kMaxPlans = 4;

  private:
    std::string name_;
    std::unique_ptr<Layer> root_;
    /** Lazy inference plans, one per input shape. */
    plan::PlanCache<ModelExecutor> plans_;
};

}  // namespace ringcnn::nn

#endif  // RINGCNN_NN_MODEL_H
