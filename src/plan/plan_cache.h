/**
 * @file
 * PlanCache: the shape-keyed LRU cache of compiled executor plans,
 * backend-agnostic — the one plan-cache policy in the library.
 *
 * nn::Model::executor() claims its fp32 plans through it, and the
 * serving backend holds its compiled lowerings of the shared plan
 * pipeline in it, over either executor: nn::ModelExecutor for fp32 and
 * quant::QuantExecutor for int8. The policy is identical everywhere —
 * bounded slots, LRU stamps, and evictions that RECLAIM the stalest
 * idle plan's slot for the incoming shape — so it lives here once,
 * templated over the executor type.
 *
 * Hits are keyed on Entry::shape, the shape a slot was claimed for,
 * so Exec needs no shape accessor: any executor type can be cached.
 * Every claim that is not a hit compiles fresh, through prepare(),
 * which the caller runs OUTSIDE a server's lock (it is the expensive
 * step): a reclaimed slot first drops the victim's plan, so at most
 * max_plans arenas are ever live.
 *
 * Threading: claim()/release()/trim() mutate shared state and require
 * the caller's lock; an Entry marked busy is owned by exactly one
 * worker, which may touch its `exec` without the lock until release.
 */
#ifndef RINGCNN_PLAN_PLAN_CACHE_H
#define RINGCNN_PLAN_PLAN_CACHE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace ringcnn::plan {

template <class Exec>
class PlanCache
{
  public:
    /** How a claim was satisfied (the server's stats counters). */
    enum class Outcome
    {
        kHit,     ///< an idle plan already bound to this shape
        kFresh,    ///< a new slot was reserved; exec is null
        kReclaim,  ///< an idle LRU plan's slot was reserved; its exec
                   ///< still holds the victim's plan (stale)
    };

    /** One cached compiled plan. */
    struct Entry
    {
        Shape shape;                 ///< shape this slot is claimed for
        std::unique_ptr<Exec> exec;  ///< null until first prepared
        bool busy = false;
        /** exec holds a reclaimed victim's plan; prepare() drops it. */
        bool stale = false;
        uint64_t stamp = 0;  ///< LRU clock at last use
    };

    /**
     * Lifetime counters, maintained by the cache itself so every
     * backend reports identically (tile streaming made cache thrash a
     * first-class diagnosable symptom — a 128x128 tile plan evicted by
     * a stray odd-size frame recompiles on every subsequent tile).
     * hits + fresh + reclaims == total claims; evictions counts plans
     * DROPPED (trim of transient overflow), while reclaims reuse the
     * slot.
     */
    struct Counters
    {
        uint64_t hits = 0;       ///< claim found an idle bound plan
        uint64_t fresh = 0;      ///< claim reserved a slot to compile
        uint64_t reclaims = 0;   ///< claim reclaimed an LRU victim
        uint64_t evictions = 0;  ///< entries erased by trim()
    };

    explicit PlanCache(int max_plans) : max_plans_(max_plans) {}

    /**
     * Claims the plan slot for `shape`, marking it busy: a cache hit,
     * a reserved LRU victim to reclaim, or a reserved fresh slot. The
     * caller prepares the slot outside the lock. Never returns null.
     */
    Entry* claim(const Shape& shape, Outcome* outcome)
    {
        // Hit: callers use one plan per shape at a time (the server
        // dispatches one batch per shape), so a plan bound to this
        // shape is never busy here.
        for (auto& e : entries_) {
            if (!e->busy && e->exec != nullptr && !e->stale &&
                e->shape == shape) {
                e->busy = true;
                e->stamp = ++clock_;
                ++counters_.hits;
                *outcome = Outcome::kHit;
                return e.get();
            }
        }
        // Dead-slot revival: release(ok=false) drops a broken exec but
        // keeps its slot; reuse an idle null-exec slot for the fresh
        // compile FIRST — otherwise the cache silently shrinks by one
        // live plan per failure while still holding max_plans_ slots
        // (and overflows past the bound with brand-new entries).
        for (auto& e : entries_) {
            if (e->busy || e->exec != nullptr) continue;
            e->busy = true;
            e->stamp = ++clock_;
            e->shape = shape;
            ++counters_.fresh;
            *outcome = Outcome::kFresh;
            return e.get();
        }
        // LRU eviction: reclaim the stalest idle plan. A fresh slot is
        // reserved when the cache has room or every plan is busy
        // (transient overflow; trimmed when idle).
        if (entries_.size() >= static_cast<size_t>(max_plans_)) {
            Entry* victim = nullptr;
            for (auto& e : entries_) {
                if (e->busy || e->exec == nullptr) continue;
                if (victim == nullptr || e->stamp < victim->stamp) {
                    victim = e.get();
                }
            }
            if (victim != nullptr) {
                victim->busy = true;
                victim->stamp = ++clock_;
                victim->shape = shape;
                victim->stale = true;
                ++counters_.reclaims;
                *outcome = Outcome::kReclaim;
                return victim;
            }
        }
        entries_.push_back(std::make_unique<Entry>());
        Entry* e = entries_.back().get();
        e->busy = true;
        e->stamp = ++clock_;
        e->shape = shape;
        ++counters_.fresh;
        *outcome = Outcome::kFresh;
        return e;
    }

    /**
     * Readies a claimed entry: a hit is returned as is; any other claim
     * drops a reclaimed victim's plan FIRST and compiles `make()` in
     * its place. Runs without the cache lock (the entry is busy, so
     * only its claimant touches it); a throwing make() leaves the
     * entry for release(ok=false).
     */
    template <class Make>
    static Exec& prepare(Entry* e, Make&& make)
    {
        if (e->exec == nullptr || e->stale) {
            e->exec.reset();
            e->exec = make();
            e->stale = false;
        }
        return *e->exec;
    }

    /** Returns a claimed entry; a failed prepare/run drops the plan so
     *  a broken compile is never served from cache. */
    void release(Entry* e, bool ok)
    {
        e->busy = false;
        if (!ok) e->exec.reset();
    }

    /** Trims transient overflow (all-busy burst) back to the bound,
     *  evicting stalest-idle first; returns how many plans were
     *  dropped (the server folds it into ServeStats::plan_evictions). */
    size_t trim()
    {
        size_t evicted = 0;
        while (entries_.size() > static_cast<size_t>(max_plans_)) {
            size_t victim = entries_.size();
            for (size_t i = 0; i < entries_.size(); ++i) {
                if (entries_[i]->busy) continue;
                if (victim == entries_.size() ||
                    entries_[i]->stamp < entries_[victim]->stamp) {
                    victim = i;
                }
            }
            if (victim == entries_.size()) break;  // everything busy
            entries_.erase(entries_.begin() + static_cast<int64_t>(victim));
            ++evicted;
        }
        counters_.evictions += evicted;
        return evicted;
    }

    size_t size() const { return entries_.size(); }

    /** Lifetime claim/eviction counters (see Counters). */
    const Counters& counters() const { return counters_; }

  private:
    int max_plans_;
    uint64_t clock_ = 0;
    Counters counters_;
    std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace ringcnn::plan

#endif  // RINGCNN_PLAN_PLAN_CACHE_H
