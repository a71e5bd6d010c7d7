/**
 * @file
 * Snapshot codec for epoch logs. Kept apart from the trainer so that
 * the codec-pin lint, which hashes this file whole, only sees
 * wire-format changes, not edits to the epoch loop.
 */

#include "profiler/trainer.hh"

#include "common/strutil.hh"

namespace seqpoint {
namespace prof {

void
encodeTrainLog(ByteWriter &w, const TrainLog &log)
{
    w.u64(log.iterations.size());
    for (const IterationLog &it : log.iterations) {
        w.i64(it.seqLen);
        w.f64(it.timeSec);
    }
    w.f64(log.trainSec);
    w.f64(log.evalSec);
    w.f64(log.autotuneSec);
    sim::encodeCounters(w, log.counters);
}

TrainLog
decodeTrainLog(ByteReader &r)
{
    TrainLog log;
    uint64_t n = r.u64();
    // 16 bytes per iteration: an absurd count means a corrupt length
    // field, so reject it before reserve() tries to honour it.
    if (n > r.remaining() / 16) {
        r.fail(csprintf("%s: iteration count %llu exceeds the payload",
                        r.what().c_str(),
                        static_cast<unsigned long long>(n)));
    }
    log.iterations.reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n; ++i) {
        IterationLog it;
        it.seqLen = r.i64();
        it.timeSec = r.f64();
        log.iterations.push_back(it);
    }
    log.trainSec = r.f64();
    log.evalSec = r.f64();
    log.autotuneSec = r.f64();
    log.counters = sim::decodeCounters(r);
    return log;
}

} // namespace prof
} // namespace seqpoint
