/**
 * @file
 * ServeServer: a shape-bucketed batching front end over a model.
 *
 * The executor stack made single images fast, but every caller still
 * owned its own executor and submitted one image at a time — under
 * concurrent load nothing ever batched. This subsystem is the
 * request-queue front end the ROADMAP's "millions of users" north star
 * asks for:
 *
 *  - submit(image) -> std::future<Tensor> accepts requests from any
 *    number of client threads;
 *  - requests are bucketed by input shape and coalesced into batches
 *    (up to ServeOptions::max_batch images, waiting at most an
 *    adaptive linger window for a bucket to fill — see below);
 *  - each batch runs through a per-shape plan::PlanCache (see
 *    plan/plan_cache.h) of compiled plans — LRU-bounded; a miss at the
 *    bound reclaims the stalest idle plan's slot and compiles the
 *    incoming shape fresh in it;
 *  - batches execute on ServeOptions::workers server threads. By
 *    default each worker runs its batch's kernels inline
 *    (util::InlineGuard), so concurrent workers use distinct cores
 *    instead of oversubscribing the shared pool.
 *
 * Overload control: real-time camera pipelines see arrival rates that
 * exceed capacity, and an unbounded queue converts overload into
 * unbounded latency for EVERY request. ServeOptions::max_queue bounds
 * the number of accepted-but-unfinished requests; at the bound,
 * admission either sheds the new request (its future fails fast with
 * OverloadError — the default) or blocks the submitter until space
 * frees (Admission::kBlock, closed-loop backpressure). A per-request
 * deadline (submit(x, deadline)) lets the dispatcher drop requests
 * that are already late at batch-formation time — their futures fail
 * with DeadlineError and no kernel pass is wasted on them — counted
 * in ServeStats::expired. Shed and expired requests never perturb the
 * batches that surviving requests land in: responses stay
 * bit-identical to single-request inference.
 *
 * Linger policy: by default the linger window adapts to queue depth —
 * an idle bucket may wait the full linger_ms cap for peers to arrive,
 * but as the bucket fills toward max_batch the window shrinks linearly
 * to zero (a nearly-full batch amortizes well already; waiting only
 * adds latency). ServeOptions::adaptive_linger=false restores the
 * fixed window for A/B comparison.
 *
 * Shutdown: stop(StopMode::kDrain) atomically closes admission (a
 * later submit throws ShutdownError) and dispatches every accepted
 * request, ignoring linger; stop(StopMode::kAbort) closes admission,
 * fails every not-yet-dispatched future with ShutdownError, and waits
 * only for in-flight batches. Either way NO accepted future is ever
 * abandoned (no std::future_error/broken_promise): closing admission
 * and observing the queue happen under one lock, so there is no
 * window in which a request can be accepted but never resolved. The
 * destructor runs stop(kDrain).
 *
 * One backend template serves both executors over the shared compile
 * pipeline's lowerings (src/plan) and their shared plan::Runtime:
 *  - fp32: nn::ModelExecutor per shape. Weight updates are picked up
 *    without replanning through the layers' ParamRef::version dirty
 *    counters, exactly as Model::infer does.
 *  - int8: the quantized engine path (quant::QuantExecutor), one per
 *    cached shape.
 * Both follow one cache policy: a hit runs the cached plan, and every
 * other claim compiles fresh outside the server lock — a reclaimed
 * slot frees its victim's arena first.
 *
 * Determinism: both executors' batched kernels are batch-composition
 * invariant, so every response is bit-identical to a single-request
 * Model::infer / QuantizedModel inference of the same image with the
 * same weights, no matter how submissions interleave (pinned in
 * tests/test_serve.cc).
 *
 * Error handling: a request whose shape cannot be compiled or run
 * (wrong rank/channels) fails its future with std::invalid_argument;
 * other buckets are unaffected. Admission/lifecycle failures use the
 * typed errors above (all derive from std::runtime_error).
 *
 * Threading contract: the model must outlive the server, and its
 * topology must not change while serving. fp32 weight VALUES may be
 * updated between batches (bump ParamRef::version via mark_dirty); do
 * so while the server is drained or otherwise synchronized with
 * submitters — in-flight batches may see either weight set, but never
 * a stale plan. A quantized model is immutable while served.
 */
#ifndef RINGCNN_SERVE_SERVE_SERVER_H
#define RINGCNN_SERVE_SERVE_SERVER_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "nn/executor.h"
#include "nn/model.h"
#include "plan/runtime.h"

namespace ringcnn::quant {
class QuantizedModel;
}

namespace ringcnn::serve {

/** Admission refused the request: the queue is at max_queue and the
 *  policy is Admission::kShed. Surfaces on the returned future. */
class OverloadError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** The server is stopping / stopped. Thrown by submit after stop();
 *  surfaces on the futures of queued requests aborted by
 *  stop(StopMode::kAbort). */
class ShutdownError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** The request's deadline passed before its batch formed; the
 *  dispatcher dropped it without running kernels for it. */
class DeadlineError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** The request's input failed validation at submit (non-finite
 *  values) — it was rejected before a batch could form around it, so
 *  no kernel pass ran and no co-batched request saw it. */
class InvalidInputError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** What submit does when the queue is at ServeOptions::max_queue. */
enum class Admission
{
    kShed,   ///< fail the new request's future fast with OverloadError
    kBlock,  ///< block the submitter until space frees (backpressure)
};

/** Shutdown policy for ServeServer::stop(). */
enum class StopMode
{
    kDrain,  ///< run every accepted request to completion first
    kAbort,  ///< fail queued (undispatched) futures with ShutdownError
};

/** Batching, admission, and plan-cache knobs. */
struct ServeOptions
{
    /** Images coalesced into one executor run (>= 1). */
    int max_batch = 8;
    /** Linger CAP: the longest a non-full bucket may wait for more
     *  requests before it is dispatched anyway, in milliseconds.
     *  0 dispatches eagerly. With adaptive_linger the effective window
     *  shrinks from this cap toward 0 as the bucket fills. */
    double linger_ms = 0.2;
    /** Queue-depth-aware linger (default): a bucket with d queued
     *  requests waits at most linger_ms * (1 - d/max_batch) — the full
     *  cap when idle, nothing when a batch is nearly formed. false
     *  restores the fixed linger_ms window (the pre-overload-control
     *  policy, kept for A/B). */
    bool adaptive_linger = true;
    /** Bound on accepted-but-unfinished requests (queued + in flight).
     *  0 = unbounded (the pre-overload-control behavior). */
    uint64_t max_queue = 0;
    /** Policy at the max_queue bound: shed (typed fast-fail) or block
     *  the submitter (backpressure). Ignored while max_queue == 0. */
    Admission admission = Admission::kShed;
    /** Server execution threads; 0 = auto (hardware threads, capped at
     *  8 — parallelism beyond concurrent shapes idles harmlessly). */
    int workers = 0;
    /** Compiled-plan (per-shape executor) cache bound (>= 1). */
    int max_plans = 8;
    /** When several batches execute concurrently, run each one's
     *  kernels inline on its server worker (util::InlineGuard) instead
     *  of all of them contending for the shared pool — the
     *  anti-oversubscription policy. A SOLO batch always keeps the
     *  pool fan-out, so a single hot shape still uses every core.
     *  Disable to always fan out on the pool. */
    bool inline_kernels = true;
    /** Reject inputs containing NaN/Inf at submit: the future fails
     *  fast with InvalidInputError (counted in
     *  ServeStats::rejected_inputs) and no batch forms around the
     *  poisoned tensor. The scan runs on the submitter's thread, one
     *  read pass over the image. */
    bool validate_inputs = true;
    /** Degrade-and-retry: when a batch fails mid-run (a
     *  plan::IntegrityError from ABFT verification, or any kernel
     *  exception), re-run it ONCE on a freshly compiled fallback
     *  executor with checksum verification forced on, bypassing the
     *  possibly-corrupted cached plan. A deterministic bug fails twice
     *  and surfaces; a transient fault is absorbed and the responses
     *  are bit-identical to an unfaulted run (fresh compile from the
     *  source weights). See ServeStats::retries / retry_successes. */
    bool retry_on_fault = true;
    /** Execution knobs forwarded to every cached executor (either
     *  backend). */
    plan::ExecOptions executor;
};

/** Counters since construction; see ServeServer::stats(). */
struct ServeStats
{
    uint64_t requests = 0;   ///< submissions that received a future
    uint64_t completed = 0;  ///< futures fulfilled with a Tensor
    uint64_t failed = 0;     ///< futures failed with an exception
    uint64_t shed = 0;       ///< refused by admission (OverloadError)
    uint64_t expired = 0;    ///< dropped at batch formation (deadline)
    uint64_t aborted = 0;    ///< queued futures failed by stop(kAbort)
    uint64_t batches = 0;    ///< executor runs dispatched
    uint64_t batched = 0;    ///< requests that joined a dispatched batch
    uint64_t plan_hits = 0;  ///< batch found its shape's plan cached
    uint64_t plan_compiles = 0;  ///< claims that compiled into a new slot
    /** Claims that reclaimed an idle LRU plan's slot for a new shape
     *  (the victim's plan is dropped and the shape compiled fresh). */
    uint64_t plan_rebinds = 0;
    uint64_t plan_evictions = 0;  ///< cached plans dropped (trim)
    uint64_t max_queue_depth = 0;  ///< peak in-flight + queued requests
    uint64_t rejected_inputs = 0;  ///< non-finite inputs refused at submit
    uint64_t integrity_failures = 0;  ///< batches that saw IntegrityError
    uint64_t retries = 0;          ///< failed batches re-run on fallback
    uint64_t retry_successes = 0;  ///< retries that served the batch

    /** Mean images per dispatched batch (the batching win, measured).
     *  Counts only requests that actually joined a batch — fast-path
     *  rejects, shed, expired, and aborted requests never ran kernels
     *  and must not skew the figure. */
    double mean_batch() const
    {
        return batches == 0
                   ? 0.0
                   : static_cast<double>(batched) /
                         static_cast<double>(batches);
    }
};

/** Liveness/integrity snapshot for external monitors; see
 *  ServeServer::health(). */
struct ServeHealth
{
    bool admitting = false;  ///< accepting new requests (not stopping)
    uint64_t pending = 0;    ///< accepted-but-unfinished requests
    uint64_t rejected_inputs = 0;
    uint64_t integrity_failures = 0;
    uint64_t retries = 0;
    uint64_t retry_successes = 0;
    /** Degraded: a failed batch could not be recovered by the fallback
     *  retry (persistent corruption or a deterministic bug) — some
     *  futures were failed. A healthy overloaded server stays ok. */
    bool degraded = false;
};

class ServeServer
{
  public:
    using Deadline = std::chrono::steady_clock::time_point;
    /** "No deadline": the request waits as long as admission allows. */
    static constexpr Deadline kNoDeadline = Deadline::max();

    /** Serves fp32 inference of `model` (nn::ModelExecutor plans). */
    explicit ServeServer(nn::Model& model, ServeOptions opt = {});
    /** Serves quantized inference of `model` (the compiled int8/int32
     *  engine path); responses are bit-identical to
     *  QuantizedModel::forward of the same image. */
    explicit ServeServer(const quant::QuantizedModel& model,
                         ServeOptions opt = {});
    /** Equivalent to stop(StopMode::kDrain), then joins the workers. */
    ~ServeServer();
    ServeServer(const ServeServer&) = delete;
    ServeServer& operator=(const ServeServer&) = delete;

    /**
     * Enqueues one image (moved in) and returns the future of its
     * output. Thread-safe. Throws ShutdownError (a std::runtime_error)
     * after shutdown has begun; admission and per-request failures
     * (OverloadError, DeadlineError, uncompilable shapes) surface on
     * the future instead. A request still queued when `deadline`
     * passes is dropped at batch-formation time and its future fails
     * with DeadlineError.
     */
    std::future<Tensor> submit(Tensor x, Deadline deadline = kNoDeadline);

    /**
     * Zero-copy variant: the server reads *x in place instead of
     * taking ownership — the caller MUST keep the tensor alive and
     * unmodified until the returned future resolves. The hot path for
     * pipelines whose input buffers already outlive the response.
     */
    std::future<Tensor> submit_view(const Tensor& x,
                                    Deadline deadline = kNoDeadline);

    /** Blocks until every request accepted so far has completed. */
    void drain();

    /**
     * Closes admission and resolves every accepted request, then
     * returns (workers are joined by the destructor). Closing
     * admission and inspecting the queue happen atomically under the
     * server lock, so a submit racing stop() either returns a future
     * that WILL resolve or throws ShutdownError — never a broken
     * promise. kDrain runs queued requests to completion (linger is
     * ignored; partial batches dispatch immediately); kAbort fails
     * queued futures with ShutdownError and waits only for in-flight
     * batches. Idempotent; later calls are no-ops (the first mode
     * wins). Submitters blocked in Admission::kBlock are woken and
     * throw ShutdownError.
     */
    void stop(StopMode mode = StopMode::kDrain);

    /** Snapshot of the serving counters. */
    ServeStats stats() const;

    /** Liveness/integrity snapshot (one lock, no allocation): whether
     *  admission is open, what is in flight, and whether any fault was
     *  detected, retried, or left unrecovered (degraded). */
    ServeHealth health() const;

    /** Actual server worker thread count. */
    int worker_count() const { return static_cast<int>(threads_.size()); }

    /** The linger policy, exposed pure for tests: how long a bucket
     *  holding `queue_depth` requests may keep waiting. Monotonically
     *  non-increasing in depth; equals opt.linger_ms at depth 0 and 0
     *  at depth >= max_batch (adaptive), or opt.linger_ms flat when
     *  adaptive_linger is off. */
    static double effective_linger_ms(const ServeOptions& opt,
                                      size_t queue_depth);

    /**
     * Backend seam: one PlanCache instantiation per executor type (see
     * serve_server.cc). claim/release/trim run under the server lock;
     * run() prepares (compiles) and executes OUTSIDE it, on a
     * claimed entry no other worker can touch.
     */
    struct Backend;

  private:
    struct Request
    {
        Tensor x;                    ///< owned input (submit)
        const Tensor* view = nullptr;  ///< borrowed input (submit_view)
        Deadline deadline = kNoDeadline;
        std::promise<Tensor> promise;

        const Tensor& input() const { return view != nullptr ? *view : x; }
    };
    std::future<Tensor> enqueue(Request req, const Shape& shape);
    /** Per-shape request queue. */
    struct Bucket
    {
        std::deque<Request> q;
        std::chrono::steady_clock::time_point oldest{};
        bool in_flight = false;  ///< a worker owns this shape right now
    };

    void start_workers();
    void worker_loop();
    /** Picks the dispatchable bucket with the oldest head request;
     *  null when none is ready. Requires mu_ held. */
    Bucket* pick_bucket(std::chrono::steady_clock::time_point now,
                        Shape* shape);
    /** Linger expiry instant for `b` under the adaptive policy.
     *  Requires mu_ held. */
    std::chrono::steady_clock::time_point linger_deadline(
        const Bucket& b) const;
    /** True while any bucket holds an undispatched request.
     *  Requires mu_ held. */
    bool has_queued_requests() const;
    /** Fails deadline-dropped requests with DeadlineError. Called
     *  OUTSIDE the lock. */
    static void fail_expired(std::vector<Request>& late);

    ServeOptions opt_;
    std::unique_ptr<Backend> backend_;

    mutable std::mutex mu_;
    std::condition_variable work_cv_;   ///< workers park here
    std::condition_variable idle_cv_;   ///< drain()/stop() wait here
    std::condition_variable admit_cv_;  ///< kBlock submitters park here
    std::map<Shape, Bucket> buckets_;
    uint64_t pending_ = 0;  ///< accepted minus finished
    int active_batches_ = 0;  ///< batches executing right now
    bool stop_ = false;  ///< admission closed; set ONLY under mu_
    ServeStats stats_;
    std::vector<std::thread> threads_;
};

}  // namespace ringcnn::serve

#endif  // RINGCNN_SERVE_SERVE_SERVER_H
