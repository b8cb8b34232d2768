/**
 * @file
 * The three ringbench workloads. Each runs in its own process through
 * the library's public facades (nn::Model, quant::QuantizedModel,
 * serve::ServeServer, stream::VideoPipeline / Tiler, sim::Accelerator),
 * checks every output bit for bit against a reference computed before
 * the setup clock starts, and reports either the end-to-end metrics
 * (tracing off) or the per-layer metrics plus a span dump (tracing on).
 */
#ifndef RINGBENCH_WORKLOADS_H
#define RINGBENCH_WORKLOADS_H

#include <string>
#include <vector>

#include "harness.h"

namespace ringbench {

struct Options
{
    unsigned seed = 1;
    double seconds = 10.0;
    /** Per-layer run: an untraced and a traced window, then probes. */
    bool trace = false;
    /** Pool threads and server workers (fixed, <= the core count). */
    int threads = 1;
    /** Span dump path of a traced run (empty: not written). */
    std::string trace_out;
    /** Self-test size: tiny frames, short rounds, one setup. */
    bool tiny = false;
    /** Self-test only: flip one bit of one reference output. */
    bool corrupt_reference = false;
};

/** Workload names in run order. */
const std::vector<std::string>& workload_names();

/** Runs workload `name`; throws std::invalid_argument on an unknown
 *  name. Output mismatches and exceptions are counted in the result,
 *  never dropped. */
RunResult run_workload(const std::string& name, const Options& opt);

}  // namespace ringbench

#endif  // RINGBENCH_WORKLOADS_H
