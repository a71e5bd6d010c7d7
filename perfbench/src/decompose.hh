/**
 * @file
 * The traced run's decomposition pass: it drives the work of an op
 * through the lower layers' public functions one at a time
 * (lowerIteration, executeAll, epochLog, buildAllSelections,
 * snapshot, encode/decodeSnapshotPayload, tryLoadSnapshot, seedFrom)
 * so that each layer's cost shows as its own span and figure. The
 * op itself only exposes the harness and service entry points.
 */

#ifndef PERFBENCH_DECOMPOSE_HH
#define PERFBENCH_DECOMPOSE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ops.hh"
#include "trace.hh"

namespace perfbench {

/** Costs of one (workload, configuration) pair's cold start. */
struct PairCost {
    std::string workload;
    std::string config;
    double epochMs = 0.0;   ///< Experiment::epochLog, cold.
    double lowerMs = 0.0;   ///< Model::lowerIteration/Inference.
    double execMs = 0.0;    ///< Gpu::executeAll on those kernels.
    double selectUs = 0.0;  ///< Experiment::buildAllSelections.
    double captureMs = 0.0; ///< Experiment::snapshot, warm.
    double encodeMs = 0.0;  ///< encodeSnapshotPayload.
    double decodeMs = 0.0;  ///< decodeSnapshotPayload.
    double loadMs = 0.0;    ///< tryLoadSnapshot of the saved file.
    double seedMs = 0.0;    ///< seedFrom plus the first query.
    uint64_t kernels = 0;   ///< Kernels lowered.
    uint64_t sls = 0;       ///< Unique SLs profiled (train + eval).
    uint64_t bytes = 0;     ///< Encoded snapshot size.
    uint64_t lookups = 0;   ///< Kernel-timing-cache lookups.
    uint64_t hits = 0;      ///< ... of which hits.
};

/** Costs of one configuration's Fig 13/14 sensitivity series. */
struct SensCost {
    std::string workload;
    std::string config;
    double profileMs = 0.0; ///< Experiment::warmIterProfiles, cold.
    double lowerMs = 0.0;
    double execMs = 0.0;
    uint64_t kernels = 0;
    uint64_t sls = 0;
    uint64_t lookups = 0;
    uint64_t hits = 0;
};

/** Everything the decomposition pass measured. */
struct Decomposition {
    std::vector<PairCost> pairs;
    std::vector<SensCost> sens;
    std::map<std::string, double> modelMs; ///< Model build alone.
    std::map<std::string, double> dataMs;  ///< Dataset synthesis alone.
    std::vector<double> projectUs;        ///< projectedTrainSec calls.
    double cellSerialMs = 0.0;   ///< Sum of cell eval times, width 1.
    double cellParallelMs = 0.0; ///< The same at the parallel width.
    double seqpointErrPct = 0.0; ///< Geomean, DS2 and GNMT x 5 configs.
    double seqpointSpeedup = 0.0; ///< Geomean, DS2 and GNMT.
    OpResult probe; ///< A restart op over the pass's own store.
    std::string error; ///< First failed consistency check, or "".
};

/**
 * Run the pass over `workloads` x the Table II configurations, plus
 * the Fig 13/14 series of those workloads that have one. Files go
 * under `dir`; `width` is the parallel scheduler width for the cell
 * timings. Spans go to `tracer` under one "decompose" root.
 */
Decomposition decompose(const std::vector<std::string> &workloads,
                        uint64_t seed, unsigned width,
                        const std::string &dir, Tracer *tracer);

} // namespace perfbench

#endif // PERFBENCH_DECOMPOSE_HH
