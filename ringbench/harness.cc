#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

namespace ringbench {

double
ms_between(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double
ms_since(Clock::time_point t0)
{
    return ms_between(t0, Clock::now());
}

namespace {

/** 1-based nearest rank of `pct` in a sample of `n`. */
size_t
nearest_rank(size_t n, double pct)
{
    // The epsilon keeps exact products (99.9% of 10000) from rounding up.
    const double r = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
    return std::clamp<size_t>(static_cast<size_t>(r), 1, n);
}

}  // namespace

double
percentile(std::vector<double> v, double pct)
{
    const size_t k = nearest_rank(v.size(), pct) - 1;
    std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
    return v[k];
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

TailRule
tail_rule(size_t samples)
{
    for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
        const size_t beyond = samples - nearest_rank(samples, pct);
        if (beyond >= 10) return {pct, static_cast<int>(beyond)};
    }
    return {50.0, static_cast<int>(samples - nearest_rank(samples, 50.0))};
}

bool
same_bits(const ringcnn::Tensor& a, const ringcnn::Tensor& b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

bool
OkCounter::check(const ringcnn::Tensor& got, const ringcnn::Tensor& want)
{
    ++attempted_;
    if (same_bits(got, want)) {
        ++ok_;
        return true;
    }
    if (first_error_.empty()) {
        first_error_ = "output " + std::to_string(attempted_ - 1) +
                       " differs from its reference (" + got.shape_str() +
                       " vs " + want.shape_str() + ")";
    }
    return false;
}

void
OkCounter::error(const std::string& what)
{
    ++attempted_;
    if (first_error_.empty()) {
        first_error_ = "output " + std::to_string(attempted_ - 1) +
                       " raised: " + what;
    }
}

void
reset_peak_rss()
{
    // Hand freed heap back first, so the mark starts from live data.
    malloc_trim(0);
    // "5" resets the peak-RSS counter (see proc(5), clear_refs).
    std::ofstream f("/proc/self/clear_refs");
    if (f) f << "5";
}

double
peak_rss_mb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
        }
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now())
{
    if (enabled_) spans_.reserve(1 << 16);
}

int64_t
Tracer::begin(const char* name, uint64_t id, int64_t parent)
{
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.id = id;
    s.parent = parent;
    s.t0_us = 1000.0 * ms_since(origin_);
    spans_.push_back(s);
    return static_cast<int64_t>(spans_.size()) - 1;
}

void
Tracer::end(int64_t span)
{
    if (span < 0) return;
    spans_[static_cast<size_t>(span)].t1_us = 1000.0 * ms_since(origin_);
}

std::vector<Tracer::Summary>
Tracer::summarize() const
{
    // Children per span, then self = duration - union(children).
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span& s : spans_) {
        if (s.parent >= 0) {
            kids[static_cast<size_t>(s.parent)].emplace_back(s.t0_us,
                                                             s.t1_us);
        }
    }
    std::map<std::string, Summary> by_name;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        auto& iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, lo = 0.0, hi = -1.0;
        for (const auto& [a0, a1] : iv) {
            const double b0 = std::max(a0, s.t0_us);
            const double b1 = std::min(a1, s.t1_us);
            if (b1 <= b0) continue;
            if (b0 > hi) {
                if (hi > lo) covered += hi - lo;
                lo = b0;
                hi = b1;
            } else {
                hi = std::max(hi, b1);
            }
        }
        if (hi > lo) covered += hi - lo;
        Summary& m = by_name[s.name];
        m.name = s.name;
        m.count += 1;
        m.total_ms += (s.t1_us - s.t0_us) / 1000.0;
        m.self_ms += (s.t1_us - s.t0_us - covered) / 1000.0;
    }
    std::vector<Summary> out;
    for (auto& [name, m] : by_name) out.push_back(m);
    return out;
}

bool
Tracer::write_json(const std::string& path) const
{
    std::ofstream f(path);
    if (!f) return false;
    f << "[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        f << "{\"i\":" << i << ",\"name\":\"" << s.name << "\",\"id\":"
          << s.id << ",\"parent\":" << s.parent << ",\"t0_us\":"
          << num(s.t0_us) << ",\"t1_us\":" << num(s.t1_us) << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    f << "]\n";
    return static_cast<bool>(f);
}

std::string
num(double v)
{
    if (!std::isfinite(v)) return "null";  // refused by a JSON reader
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
result_json(const RunResult& r)
{
    std::ostringstream o;
    o << "{\"correct\": " << (r.correct() ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric& m = r.metrics[i];
        o << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
          << num(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    }
    o << "}}";
    return o.str();
}

}  // namespace ringbench
