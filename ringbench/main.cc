/**
 * @file
 * ringbench: one workload per process.
 *
 *   ringbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-out PATH] [--tiny]
 *   ringbench --self-test
 *
 * Prints the host fingerprint, `key value` notes, and as its last line
 * one JSON object {correct, attempted, failed, metrics}. Exit status:
 * 0 when every output matched its reference, 1 when some did not (the
 * result is still printed), 2 on a usage error or an exception (no
 * result).
 */
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/simd.h"
#include "harness.h"
#include "workloads.h"

namespace {

using namespace ringbench;

/** Cores this process may run on. */
int
available_cores()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        return std::max(1, CPU_COUNT(&set));
    }
    return std::max(1u, std::thread::hardware_concurrency());
}

/** Pool threads and server workers: fixed, never above the cores. */
int
pinned_threads()
{
    return std::min(4, available_cores());
}

std::string
compiler()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return "g++ " + std::to_string(__GNUC__) + "." +
           std::to_string(__GNUC_MINOR__) + "." +
           std::to_string(__GNUC_PATCHLEVEL__);
#else
    return "unknown";
#endif
}

void
print_host(const std::string& workload, const Options& opt)
{
    std::printf(
        "host {\"cores\": %d, \"isa\": \"%s\", \"compiler\": \"%s\", "
        "\"pool_threads\": %d, \"server_workers\": %d, \"seed\": %u, "
        "\"workload\": \"%s\", \"seconds\": %s, \"trace\": %d}\n",
        available_cores(), ringcnn::simd::active_isa(), compiler().c_str(),
        opt.threads, opt.threads, opt.seed, workload.c_str(),
        num(opt.seconds).c_str(), opt.trace ? 1 : 0);
}

int
run_one(const std::string& workload, const Options& opt)
{
    print_host(workload, opt);
    const RunResult r = run_workload(workload, opt);
    for (const std::string& n : r.notes) std::printf("note %s\n", n.c_str());
    if (!r.first_error.empty()) {
        std::printf("error %s\n", r.first_error.c_str());
    }
    std::printf("%s\n", result_json(r).c_str());
    std::fflush(stdout);
    return r.correct() ? 0 : 1;
}

// ---- self-test -------------------------------------------------------

int failures = 0;

void
expect(bool ok, const std::string& what)
{
    std::printf("%s %s\n", ok ? "pass" : "FAIL", what.c_str());
    if (!ok) ++failures;
}

const Metric*
find_metric(const RunResult& r, const std::string& name)
{
    for (const Metric& m : r.metrics) {
        if (m.name == name) return &m;
    }
    return nullptr;
}

int
self_test()
{
    // Tail rule: the highest listed percentile with >= 10 beyond.
    const std::map<size_t, std::pair<double, int>> tails = {
        {1000, {99.0, 10}}, {999, {95.0, 49}}, {120, {90.0, 12}},
        {119, {90.0, 11}},  {40, {75.0, 10}},  {10, {50.0, 5}},
        {10000, {99.9, 10}}};
    for (const auto& [n, want] : tails) {
        const TailRule t = tail_rule(n);
        char what[96];
        std::snprintf(what, sizeof(what), "tail_rule(%zu) = p%g with %d beyond",
                      n, t.pct, t.beyond);
        expect(t.pct == want.first && t.beyond == want.second, what);
    }
    std::vector<double> v;
    for (int i = 100; i >= 1; --i) v.push_back(i);
    expect(percentile(v, 90.0) == 90.0 && percentile(v, 50.0) == 50.0 &&
               percentile(v, 99.0) == 99.0,
           "nearest-rank percentiles of 1..100");

    Options base;
    base.tiny = true;
    base.seconds = 0.0;  // one round
    base.threads = pinned_threads();
    for (const std::string& w : workload_names()) {
        for (const bool trace : {false, true}) {
            Options o = base;
            o.trace = trace;
            const RunResult r = run_workload(w, o);
            expect(r.correct() && r.attempted > 0,
                   w + (trace ? " traced" : "") +
                       " tiny run: every output bit-identical");
            bool units = !r.metrics.empty();
            for (const Metric& m : r.metrics) units &= !m.unit.empty();
            expect(units, w + (trace ? " traced" : "") +
                              ": every metric printed with a unit");
        }
        Options bad = base;
        bad.corrupt_reference = true;
        const RunResult r = run_workload(w, bad);
        const Metric* okr = find_metric(r, "ok_ratio");
        expect(!r.correct() && r.failed >= 1 && okr != nullptr &&
                   okr->value < 1.0,
               w + ": a wrong reference lowers ok_ratio and fails the run");

        Options a = base;
        a.seed = 5;
        const RunResult r1 = run_workload(w, a);
        const RunResult r2 = run_workload(w, a);
        const Metric* s1 = find_metric(r1, "sim_nj_per_px");
        const Metric* s2 = find_metric(r2, "sim_nj_per_px");
        expect(s1 != nullptr && s2 != nullptr && s1->value > 0.0 &&
                   s1->value == s2->value,
               w + ": sim_nj_per_px repeats exactly across two runs");
    }
    std::printf("self-test: %s (%d failures)\n",
                failures == 0 ? "ok" : "FAILED", failures);
    return failures == 0 ? 0 : 1;
}

int
usage(const char* msg)
{
    std::fprintf(stderr,
                 "ringbench: %s\nusage: ringbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--trace-out PATH] [--tiny]\n"
                 "       ringbench --self-test\n",
                 msg);
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    Options opt;
    opt.threads = pinned_threads();

    std::string workload;
    bool selftest = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            auto value = [&]() -> std::string {
                if (i + 1 >= argc) {
                    throw std::invalid_argument(a + " needs a value");
                }
                return argv[++i];
            };
            if (a == "--workload") {
                workload = value();
            } else if (a == "--seed") {
                opt.seed = static_cast<unsigned>(std::stoul(value()));
            } else if (a == "--seconds") {
                opt.seconds = std::stod(value());
            } else if (a == "--trace") {
                opt.trace = std::stoi(value()) != 0;
            } else if (a == "--trace-out") {
                opt.trace_out = value();
            } else if (a == "--tiny") {
                opt.tiny = true;
            } else if (a == "--self-test") {
                selftest = true;
            } else {
                return usage(("unknown argument " + a).c_str());
            }
        }
    } catch (const std::exception& e) {
        return usage(e.what());
    }
    // The library's shared pool sizes itself from RINGCNN_THREADS on
    // first use; pin it before anything runs.
    setenv("RINGCNN_THREADS", std::to_string(opt.threads).c_str(), 1);
    try {
        if (selftest) return self_test();
        if (workload.empty()) return usage("--workload is required");
        return run_one(workload, opt);
    } catch (const std::exception& e) {
        std::fflush(stdout);
        std::fprintf(stderr, "ringbench: %s\n", e.what());
        return 2;
    }
}
