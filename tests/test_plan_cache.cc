/**
 * @file
 * PlanCache unit tests, on a stub executor — the shape-keyed LRU of
 * compiled plans behind nn::Model::infer and both serving backends has
 * policy subtleties that deserve direct coverage, independent of a
 * live server:
 *
 *  - the fail-then-reclaim path: release(ok=false) drops the exec but
 *    keeps the slot; the NEXT claim must revive that dead slot instead
 *    of (a) permanently running one plan short of max_plans or (b)
 *    growing a brand-new entry past the bound (the regression this
 *    suite pins, sharpest at max_plans = 1);
 *  - plain hit / fresh / LRU-reclaim outcomes and the stamp order that
 *    picks eviction victims;
 *  - transient overflow when every slot is busy, trimmed back later;
 *  - nn::Model::infer through the cache: shapes cycled past the
 *    4-plan bound, weight-version bumps on cached plans, and moves.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "models/backbones.h"
#include "nn/executor.h"
#include "plan/plan_cache.h"

namespace ringcnn::plan {
namespace {

/** Minimal Exec satisfying the PlanCache contract. */
struct StubExec
{
    explicit StubExec(Shape s) : shape(std::move(s)) {}
    const Shape& in_shape() const { return shape; }
    Shape shape;
};

using Cache = PlanCache<StubExec>;

/** Claims `shape` and simulates the caller's prepare step. */
Cache::Entry*
claim_prepared(Cache& c, const Shape& shape, Cache::Outcome* oc)
{
    Cache::Entry* e = c.claim(shape, oc);
    if (e->exec == nullptr) e->exec = std::make_unique<StubExec>(shape);
    return e;
}

TEST(PlanCache, HitFreshAndLruReclaimOutcomes)
{
    Cache cache(2);
    Cache::Outcome oc;

    Cache::Entry* a = claim_prepared(cache, {3, 8, 8}, &oc);
    EXPECT_EQ(oc, Cache::Outcome::kFresh);
    cache.release(a, true);

    Cache::Entry* b = claim_prepared(cache, {3, 16, 16}, &oc);
    EXPECT_EQ(oc, Cache::Outcome::kFresh);
    cache.release(b, true);
    EXPECT_EQ(cache.size(), 2u);

    // Re-claiming a bound shape is a hit on the same entry.
    Cache::Entry* a2 = cache.claim({3, 8, 8}, &oc);
    EXPECT_EQ(oc, Cache::Outcome::kHit);
    EXPECT_EQ(a2, a);
    cache.release(a2, true);

    // A third shape at the bound reclaims the stalest idle plan's slot
    // — that is {3,16,16}, since the hit above re-stamped {3,8,8}.
    Cache::Entry* c = cache.claim({3, 24, 24}, &oc);
    EXPECT_EQ(oc, Cache::Outcome::kReclaim);
    EXPECT_EQ(c, b);
    EXPECT_EQ(c->shape, Shape({3, 24, 24}));
    cache.release(c, true);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCache, FailedReleaseSlotIsRevivedAtMaxPlansOne)
{
    // The regression: a slot dropped by release(ok=false) has
    // exec == nullptr, which the LRU victim scan skips — at
    // max_plans=1 every later claim then pushed a NEW overflow entry,
    // so the cache held a permanently dead slot and ran past its
    // bound. The dead slot must be reused for the fresh claim.
    Cache cache(1);
    Cache::Outcome oc;

    Cache::Entry* a = claim_prepared(cache, {3, 8, 8}, &oc);
    EXPECT_EQ(oc, Cache::Outcome::kFresh);
    cache.release(a, false);  // the run failed: plan dropped
    EXPECT_EQ(a->exec, nullptr);
    EXPECT_EQ(cache.size(), 1u);

    // Fresh claim (same or different shape) revives the dead slot in
    // place: same Entry, kFresh (a compile must happen), size still 1.
    Cache::Entry* b = cache.claim({3, 16, 16}, &oc);
    EXPECT_EQ(oc, Cache::Outcome::kFresh);
    EXPECT_EQ(b, a);
    EXPECT_EQ(b->shape, Shape({3, 16, 16}));
    EXPECT_EQ(cache.size(), 1u);
    b->exec = std::make_unique<StubExec>(Shape{3, 16, 16});
    cache.release(b, true);

    // And the revived slot serves hits again.
    Cache::Entry* b2 = cache.claim({3, 16, 16}, &oc);
    EXPECT_EQ(oc, Cache::Outcome::kHit);
    EXPECT_EQ(b2, a);
    cache.release(b2, true);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCache, DeadSlotPreferredOverGrowthBelowBound)
{
    // Even below the bound, a dead slot is reused before the entry
    // list grows: no zombie accumulation across failures.
    Cache cache(4);
    Cache::Outcome oc;

    Cache::Entry* a = claim_prepared(cache, {3, 8, 8}, &oc);
    cache.release(a, false);
    EXPECT_EQ(cache.size(), 1u);

    Cache::Entry* b = cache.claim({3, 16, 16}, &oc);
    EXPECT_EQ(oc, Cache::Outcome::kFresh);
    EXPECT_EQ(b, a);
    EXPECT_EQ(cache.size(), 1u);
    cache.release(b, true);
}

TEST(PlanCache, AllBusyOverflowsThenTrims)
{
    Cache cache(1);
    Cache::Outcome oc;

    Cache::Entry* a = claim_prepared(cache, {3, 8, 8}, &oc);
    // A second shape while the only slot is busy: transient overflow.
    Cache::Entry* b = claim_prepared(cache, {3, 16, 16}, &oc);
    EXPECT_EQ(oc, Cache::Outcome::kFresh);
    EXPECT_NE(b, a);
    EXPECT_EQ(cache.size(), 2u);

    // Trim with everything busy is a no-op...
    EXPECT_EQ(cache.trim(), 0u);
    EXPECT_EQ(cache.size(), 2u);

    // ...and back to the bound once a slot is idle.
    cache.release(a, true);
    cache.release(b, true);
    EXPECT_EQ(cache.trim(), 1u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCache, CountersAccountForEveryClaimAndEviction)
{
    // The counters the server surfaces as ServeStats::plan_hits /
    // plan_compiles / plan_rebinds / plan_evictions. Invariant: every
    // claim lands in exactly one of hits/fresh/reclaims, and evictions
    // counts DROPPED plans only — an LRU reclaim reuses its victim's
    // slot and must NOT count as an eviction.
    Cache cache(1);
    Cache::Outcome oc;

    Cache::Entry* a = claim_prepared(cache, {3, 8, 8}, &oc);  // fresh
    cache.release(a, true);
    cache.release(cache.claim({3, 8, 8}, &oc), true);    // hit
    Cache::Entry* b = cache.claim({3, 16, 16}, &oc);     // reclaim
    EXPECT_EQ(oc, Cache::Outcome::kReclaim);

    // Transient overflow while b is busy, then trim drops it.
    Cache::Entry* c = claim_prepared(cache, {3, 24, 24}, &oc);  // fresh
    cache.release(b, true);
    cache.release(c, true);
    EXPECT_EQ(cache.trim(), 1u);

    const Cache::Counters& n = cache.counters();
    EXPECT_EQ(n.hits, 1u);
    EXPECT_EQ(n.fresh, 2u);
    EXPECT_EQ(n.reclaims, 1u);
    EXPECT_EQ(n.evictions, 1u);
    EXPECT_EQ(n.hits + n.fresh + n.reclaims, 4u);  // == claims issued
}

void
expect_bitwise_equal(const Tensor& got, const Tensor& want,
                     const std::string& label)
{
    ASSERT_EQ(got.shape(), want.shape()) << label;
    ASSERT_EQ(std::memcmp(got.data(), want.data(),
                          static_cast<size_t>(want.numel()) * sizeof(float)),
              0)
        << label;
}

TEST(ModelPlanCache, InferCyclesFiveShapesThroughTheFourPlanBound)
{
    static_assert(nn::Model::kMaxPlans == 4, "five shapes must overflow");
    models::ErnetConfig cfg;
    cfg.channels = 8;
    cfg.blocks = 1;
    cfg.pump_ratio = 2;
    cfg.extra_pump = 0;
    nn::Model model =
        models::build_dn_ernet_pu(models::Algebra::with_fh("RI4"), cfg);
    const std::vector<Shape> shapes = {
        {3, 8, 8}, {3, 8, 12}, {3, 12, 8}, {3, 12, 12}, {3, 16, 8}};
    std::mt19937 rng(90);
    std::vector<Tensor> xs;
    for (const Shape& s : shapes) {
        Tensor x(s);
        x.rand_uniform(rng, 0.0f, 1.0f);
        xs.push_back(std::move(x));
    }
    // Model::infer must equal a fresh compile of the same weights.
    const auto infer_checked = [&](nn::Model& m, size_t i,
                                   const std::string& label) {
        const Tensor got = m.infer(xs[i]);
        nn::ModelExecutor fresh(m, shapes[i]);
        expect_bitwise_equal(got, fresh.run(xs[i]),
                             label + " shape " + std::to_string(i));
        return got;
    };

    // Cycle 1: four fresh compiles fill the bound; the fifth shape
    // reclaims the LRU slot (shape 0's).
    std::vector<Tensor> before;
    std::vector<const nn::ModelExecutor*> plan_of(shapes.size());
    for (size_t i = 0; i < shapes.size(); ++i) {
        before.push_back(infer_checked(model, i, "cycle 1"));
        plan_of[i] = &model.executor(shapes[i]);
    }

    // A ParamRef::version bump between cycles.
    for (const nn::ParamRef& p : model.params()) {
        if (p.version == nullptr) continue;
        (*p.value)[0] += 0.25f;
        p.mark_dirty();
        break;
    }

    // Cycle 2, reversed: shapes 4..1 hit their cached plans, which must
    // pick up the bump; shape 0 then reclaims the LRU slot (shape 4's).
    for (size_t i = shapes.size(); i-- > 0;) {
        if (i > 0) {
            EXPECT_EQ(&model.executor(shapes[i]), plan_of[i])
                << "shape " << i << " should hit its cached plan";
        }
        const Tensor after = infer_checked(model, i, "cycle 2");
        EXPECT_NE(std::memcmp(after.data(), before[i].data(),
                              static_cast<size_t>(after.numel()) *
                                  sizeof(float)),
                  0)
            << "shape " << i << " ignored the weight-version bump";
        plan_of[i] = &model.executor(shapes[i]);
    }

    // Moves carry the cached plans along: shapes 0..3 still hit the
    // same executors, and every shape still infers identically.
    nn::Model moved(std::move(model));
    nn::Model assigned;
    assigned = std::move(moved);
    for (size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(&assigned.executor(shapes[i]), plan_of[i])
            << "shape " << i << " plan lost in the move";
    }
    for (size_t i = 0; i < shapes.size(); ++i) {
        infer_checked(assigned, i, "moved");
    }
}

}  // namespace
}  // namespace ringcnn::plan
