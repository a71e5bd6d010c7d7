/**
 * @file
 * Gpu facade implementation.
 */

#include "sim/gpu.hh"

namespace seqpoint {
namespace sim {

Gpu::Gpu(GpuConfig config, bool enable_timing_cache)
    : cfg(std::move(config)), cacheEnabled(enable_timing_cache)
{
}

KernelRecord
Gpu::execute(const KernelDesc &desc) const
{
    KernelTiming kt = cacheEnabled ? cache.lookup(desc, cfg)
                                   : timeKernel(desc, cfg);

    KernelRecord rec;
    rec.name = desc.name();
    rec.klass = desc.klass;
    rec.launches = desc.repeat;
    rec.timeSec = kt.timeSec;
    rec.memoryBound = kt.memoryBound;
    rec.counters = kt.counters;
    if (desc.repeat != 1) {
        double r = static_cast<double>(desc.repeat);
        rec.timeSec *= r;
        rec.counters *= r;
    }
    return rec;
}

void
Gpu::accumulate(const KernelDesc &desc, ExecutionResult &result) const
{
    KernelTiming kt = cacheEnabled ? cache.lookup(desc, cfg)
                                   : timeKernel(desc, cfg);

    // Mirror execute()'s arithmetic exactly (scale, then add) so the
    // aggregates are bit-identical to the record-keeping path.
    double time = kt.timeSec;
    PerfCounters counters = kt.counters;
    if (desc.repeat != 1) {
        double r = static_cast<double>(desc.repeat);
        time *= r;
        counters *= r;
    }
    result.totalSec += time;
    result.counters += counters;
    result.launches += desc.repeat;
    result.classSec[static_cast<unsigned>(desc.klass)] += time;
}

ExecutionResult
Gpu::executeAll(const std::vector<KernelDesc> &kernels,
                bool keep_records) const
{
    ExecutionResult result;
    if (!keep_records) {
        for (const KernelDesc &desc : kernels)
            accumulate(desc, result);
        return result;
    }

    result.records.reserve(kernels.size());
    for (const KernelDesc &desc : kernels) {
        KernelRecord rec = execute(desc);
        result.totalSec += rec.timeSec;
        result.counters += rec.counters;
        result.launches += rec.launches;
        result.classSec[static_cast<unsigned>(rec.klass)] += rec.timeSec;
        result.records.push_back(std::move(rec));
    }
    return result;
}

} // namespace sim
} // namespace seqpoint
