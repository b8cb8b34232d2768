#include "nn/model.h"

#include "nn/executor.h"
#include "util/check.h"

namespace ringcnn::nn {

// Out-of-line special members: the cached ModelExecutors need the
// complete type to destroy. A plan holds pointers into this instance's
// layer tree, so it never travels with a copy; a move keeps it (the
// layer tree travels by pointer, so its addresses are stable).

Model::Model() : plans_(kMaxPlans) {}

Model::Model(std::string name, std::unique_ptr<Layer> root)
    : name_(std::move(name)), root_(std::move(root)), plans_(kMaxPlans)
{
}

Model::Model(const Model& o) : name_(o.name_), plans_(kMaxPlans)
{
    if (o.root_) root_ = o.root_->clone();
}

Model&
Model::operator=(const Model& o)
{
    if (this != &o) {
        name_ = o.name_;
        root_ = o.root_ ? o.root_->clone() : nullptr;
        plans_ = plan::PlanCache<ModelExecutor>(kMaxPlans);
    }
    return *this;
}

Model::Model(Model&& o) noexcept = default;
Model& Model::operator=(Model&& o) noexcept = default;
Model::~Model() = default;

void
Model::copy_params_from(Model& src)
{
    const std::vector<ParamRef> mine = params();
    const std::vector<ParamRef> theirs = src.params();
    RINGCNN_CHECK(mine.size() == theirs.size(),
                  "copy_params_from across mismatched model topologies");
    for (size_t i = 0; i < mine.size(); ++i) {
        RINGCNN_CHECK(mine[i].value->size() == theirs[i].value->size(),
                      "copy_params_from across mismatched parameter sizes");
        *mine[i].value = *theirs[i].value;
        mine[i].mark_dirty();
    }
}

ModelExecutor&
Model::executor(const Shape& shape)
{
    // One caller at a time, so the claimed slot is released at once. A
    // reclaimed victim's plan is dropped BEFORE the new one compiles,
    // so at most kMaxPlans arenas are ever live.
    using Cache = plan::PlanCache<ModelExecutor>;
    Cache::Outcome outcome;
    auto* e = plans_.claim(shape, &outcome);
    try {
        Cache::prepare(e, [&] {
            return std::make_unique<ModelExecutor>(*this, shape);
        });
    } catch (...) {
        plans_.release(e, false);
        throw;
    }
    plans_.release(e, true);
    return *e->exec;
}

Tensor
Model::infer(const Tensor& x)
{
    return executor(x.shape()).run(x);
}

std::vector<Tensor>
Model::infer(const std::vector<Tensor>& xs)
{
    if (xs.empty()) return {};
    return executor(xs.front().shape()).run(xs);
}

}  // namespace ringcnn::nn
