/**
 * @file
 * The benchmark's workloads. Each one has a set-up (repeatable; the
 * last repetition's state is kept) and an op, the unit a run repeats
 * and times. Every op checks its own outputs against values the
 * benchmark computes apart from the code path under test, and an op
 * whose check fails counts as failed.
 */

#ifndef PERFBENCH_OPS_HH
#define PERFBENCH_OPS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/snapshot_registry.hh"
#include "harness/workloads.hh"
#include "service/query_service.hh"
#include "trace.hh"

namespace perfbench {

/** The Fig 13 (GNMT) and Fig 14 (DS2) sensitivity sweep ranges. */
struct SlRange {
    const char *workload;
    int64_t lo, hi, step;
};
const std::vector<SlRange> &sensitivityRanges();

/** SLs of a sensitivity range, ascending. */
std::vector<int64_t> rangeSls(const SlRange &r);

/**
 * Factory for a workload by name ("DS2", "GNMT", "Transformer",
 * "CNN") at `seed`. With a tracer, each call records a "models.make"
 * span under the tracer's ambient span.
 */
seqpoint::harness::WorkloadFactory
factoryFor(const std::string &name, uint64_t seed, Tracer *tracer);

/** Outcome of one op. */
struct OpResult {
    double wallMs = 0.0;
    double cpuMs = 0.0;
    /** Time to the op's first result(s): the first figure grid, or
     *  the submit-to-answer time of each pair's first query. */
    std::vector<double> firstMs;
    bool ok = true;
    std::string error; ///< First failed check ("" when ok).
    /** Restart op only: the registry and service counters. */
    seqpoint::harness::SnapshotRegistryStats registry;
    seqpoint::service::ServiceStats service;
    std::vector<double> warmAnswerUs;
};

/** One benchmark workload. */
class BenchWorkload
{
  public:
    virtual ~BenchWorkload() = default;

    /** Build (or rebuild) everything the ops need. */
    virtual void setUp() = 0;

    /** Run and check one op; spans go to `tracer` when non-null. */
    virtual OpResult op(Tracer *tracer) = 0;

    /** Workloads (by factory name) the op touches. */
    virtual std::vector<std::string> workloadNames() const = 0;

    /** True when the op lowers and simulates (the figure ops). */
    virtual bool opComputes() const = 0;

    /** Threads the op keeps busy at once. */
    virtual unsigned busyThreads() const = 0;
};

/**
 * The figure workloads: the Fig 11/12 + 15/16 grids for DS2 and GNMT
 * and the Fig 13/14 sensitivity series, cold, at scheduler width
 * `width`. With `check_width`, set-up also runs the op at width 1 and
 * every op must match it bit for bit.
 */
std::unique_ptr<BenchWorkload>
makeFiguresWorkload(uint64_t seed, unsigned width, bool check_width);

/**
 * The restart workload: set-up fills an empty store under `work_dir`
 * with `workloads` x 5 Table II configurations through a
 * QueryService; each op restarts a service on that store and asks
 * every pair with each of the 5 selectors from 2 closed-loop clients.
 */
std::unique_ptr<BenchWorkload>
makeRestartWorkload(uint64_t seed, const std::string &work_dir,
                    const std::vector<std::string> &workloads);

} // namespace perfbench

#endif // PERFBENCH_OPS_HH
