/**
 * @file
 * Measurement plumbing shared by the ringbench workloads: order
 * statistics with the tail-percentile rule, output accounting against
 * bit-exact references, the resident-memory high-water mark, an
 * in-memory span recorder, and the result/metric printing.
 */
#ifndef RINGBENCH_HARNESS_H
#define RINGBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace ringbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds elapsed between two instants. */
double ms_between(Clock::time_point t0, Clock::time_point t1);
/** Milliseconds since `t0`. */
double ms_since(Clock::time_point t0);

/** Nearest-rank percentile of `v` (pct in (0, 100]); v non-empty. */
double percentile(std::vector<double> v, double pct);
/** Median, averaging the middle pair of an even count; v non-empty. */
double median(std::vector<double> v);

/** The tail percentile a sample of fixed size reports: the highest
 *  of 99.9 / 99 / 95 / 90 / 75 / 50 with at least ten samples beyond
 *  its nearest rank. `beyond` is that sample count. */
struct TailRule
{
    double pct = 50.0;
    int beyond = 0;
};
TailRule tail_rule(size_t samples);

/** Counts outputs checked against their references. An output is ok
 *  only when it is bit-identical; a mismatch and an exception both
 *  count as failed, never as skipped. */
class OkCounter
{
  public:
    /** Records `got` against `want`; returns whether it matched. */
    bool check(const ringcnn::Tensor& got, const ringcnn::Tensor& want);
    /** Records an output that surfaced an exception instead. */
    void error(const std::string& what);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return attempted_ - ok_; }
    double ratio() const
    {
        return attempted_ == 0 ? 0.0
                               : static_cast<double>(ok_) /
                                     static_cast<double>(attempted_);
    }
    /** First failure message (empty when none). */
    const std::string& first_error() const { return first_error_; }

  private:
    uint64_t attempted_ = 0;
    uint64_t ok_ = 0;
    std::string first_error_;
};

bool same_bits(const ringcnn::Tensor& a, const ringcnn::Tensor& b);

/** Returns freed heap to the system, then resets the resident-memory
 *  high-water mark to the current RSS (Linux clear_refs; a no-op where
 *  the kernel does not offer it). */
void reset_peak_rss();
/** Resident-memory high-water mark in MiB (VmHWM, falling back to
 *  getrusage's lifetime maximum). */
double peak_rss_mb();

/** One traced interval. Spans of one frame or request share `id`;
 *  `parent` is the index of the enclosing span, or -1. */
struct Span
{
    const char* name = "";
    uint64_t id = 0;
    int64_t parent = -1;
    double t0_us = 0.0;
    double t1_us = 0.0;
};

/** In-memory span recorder. Disabled, begin/end cost one branch. Not
 *  thread-safe: the benchmark records from its driver thread only. */
class Tracer
{
  public:
    explicit Tracer(bool enabled);
    /** Opens a span; returns its index (or -1 when disabled). */
    int64_t begin(const char* name, uint64_t id, int64_t parent = -1);
    void end(int64_t span);
    const std::vector<Span>& spans() const { return spans_; }

    /** Per span name: count, total and self time (duration minus the
     *  union of its children's intervals), in milliseconds. */
    struct Summary
    {
        std::string name;
        uint64_t count = 0;
        double total_ms = 0.0;
        double self_ms = 0.0;
    };
    std::vector<Summary> summarize() const;
    /** Writes the spans as a JSON array; returns false on I/O error. */
    bool write_json(const std::string& path) const;

  private:
    bool enabled_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run reports. */
struct RunResult
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::string first_error;
    std::vector<Metric> metrics;
    /** Free-form `key value` lines printed before the result. */
    std::vector<std::string> notes;

    bool correct() const { return attempted > 0 && failed == 0; }
    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

/** The one-line JSON result: correct / attempted / failed / metrics. */
std::string result_json(const RunResult& r);
/** Formats a double with all its significant digits. */
std::string num(double v);

}  // namespace ringbench

#endif  // RINGBENCH_HARNESS_H
