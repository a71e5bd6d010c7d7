/**
 * @file
 * Epoch trainer implementation.
 */

#include "profiler/trainer.hh"

#include <algorithm>

#include "common/cancel.hh"
#include "common/logging.hh"

namespace seqpoint {
namespace prof {

double
TrainLog::totalSec(bool include_autotune) const
{
    double t = trainSec + evalSec;
    if (include_autotune)
        t += autotuneSec;
    return t;
}

double
TrainLog::throughput(unsigned batch) const
{
    if (trainSec <= 0.0)
        return 0.0;
    return static_cast<double>(iterations.size()) *
        static_cast<double>(batch) / trainSec;
}

bool
TrainLog::identicalTo(const TrainLog &other) const
{
    if (iterations.size() != other.iterations.size() ||
        trainSec != other.trainSec || evalSec != other.evalSec ||
        !(counters == other.counters))
        return false;
    for (size_t i = 0; i < iterations.size(); ++i) {
        if (iterations[i].seqLen != other.iterations[i].seqLen ||
            iterations[i].timeSec != other.iterations[i].timeSec)
            return false;
    }
    return true;
}

namespace {

/** Unique batch SLs in ascending order. */
std::vector<int64_t>
uniqueSls(const std::vector<data::Batch> &batches)
{
    std::vector<int64_t> sls;
    sls.reserve(batches.size());
    for (const data::Batch &b : batches)
        sls.push_back(b.seqLen);
    std::sort(sls.begin(), sls.end());
    sls.erase(std::unique(sls.begin(), sls.end()), sls.end());
    return sls;
}

/** Index of sl in the sorted unique-SL vector. */
std::size_t
slIndex(const std::vector<int64_t> &sls, int64_t sl)
{
    return static_cast<std::size_t>(
        std::lower_bound(sls.begin(), sls.end(), sl) - sls.begin());
}

} // anonymous namespace

std::vector<data::Batch>
epochBatchSchedule(const data::Dataset &dataset, const TrainConfig &cfg,
                   Rng *rng_out)
{
    Rng rng(cfg.seed, 0xba7c);
    std::vector<data::Batch> batches = data::makeEpochBatches(
        dataset.trainLens, cfg.batchSize, cfg.policy, rng);
    if (rng_out)
        *rng_out = rng;
    return batches;
}

TrainLog
runTrainingEpoch(Profiler &profiler, const data::Dataset &dataset,
                 const TrainConfig &cfg)
{
    fatal_if(dataset.trainLens.empty(), "runTrainingEpoch: empty dataset");
    fatal_if(profiler.batchSize() != cfg.batchSize,
             "runTrainingEpoch: profiler batch %u != config batch %u",
             profiler.batchSize(), cfg.batchSize);
    fatal_if(profiler.memoizing() != cfg.memoizeProfiles,
             "runTrainingEpoch: profiler/config memoization mismatch");
    fatal_if(profiler.autotuner().selectionMode() != cfg.tunerMode,
             "runTrainingEpoch: profiler/config autotuner-mode mismatch");

    // The epoch RNG continues from training-phase batching into the
    // evaluation phase, so take it back out of the schedule builder.
    Rng rng;
    std::vector<data::Batch> batches =
        epochBatchSchedule(dataset, cfg, &rng);

    bool do_eval = cfg.runEval && !dataset.evalLens.empty() &&
        dataset.evalLens.size() >= cfg.batchSize;
    std::vector<data::Batch> eval_batches;
    if (do_eval) {
        eval_batches = data::makeEpochBatches(
            dataset.evalLens, cfg.batchSize,
            data::BatchPolicy::Bucketed, rng);
    }

    // One-time autotune cost newly incurred by this epoch: with a
    // fresh profiler the delta is the tuner's whole cost, matching
    // the historical accounting.
    double tune_before = profiler.autotuner().tuningCostSec();

    TrainLog log;
    log.iterations.reserve(batches.size());

    if (profiler.memoizing()) {
        // Unique-SL epoch replay: fill the per-SL memo up front, each
        // unique SL profiled exactly once (in ascending order, on the
        // sweep pool when profileThreads > 1), resolve each unique
        // SL's profile once into a flat table, then replay the SL
        // schedule as table lookups. Profiles are pure functions of
        // SL and accumulation visits the same values in the same
        // (execution) order as profiling batch by batch, so the log
        // is bit-identical to that.
        std::vector<int64_t> train_sls = uniqueSls(batches);
        profiler.warmTrainProfiles(train_sls, cfg.profileThreads);
        std::vector<int64_t> eval_sls;
        if (do_eval) {
            eval_sls = uniqueSls(eval_batches);
            profiler.warmInferProfiles(eval_sls, cfg.profileThreads);
        }

        // Resolving a profile is the expensive part when the memo is
        // cold (each miss runs a full per-SL profile), so this is
        // where a deadline firing mid-resolve must be noticed; the
        // replay loops below are pure table lookups.
        std::vector<const IterationProfile *> table(train_sls.size());
        for (std::size_t i = 0; i < train_sls.size(); ++i) {
            cancelCheckpoint("trainer.resolve");
            table[i] = &profiler.profileIteration(train_sls[i]);
        }

        for (const data::Batch &b : batches) {
            const IterationProfile &p =
                *table[slIndex(train_sls, b.seqLen)];
            log.iterations.push_back(IterationLog{b.seqLen, p.timeSec});
            log.trainSec += p.timeSec;
            log.counters += p.counters;
        }

        if (do_eval) {
            std::vector<const IterationProfile *> etab(eval_sls.size());
            for (std::size_t i = 0; i < eval_sls.size(); ++i) {
                cancelCheckpoint("trainer.resolve");
                etab[i] = &profiler.profileInference(eval_sls[i]);
            }
            for (const data::Batch &b : eval_batches) {
                const IterationProfile &p =
                    *etab[slIndex(eval_sls, b.seqLen)];
                log.evalSec += p.timeSec * cfg.evalCostMultiplier;
            }
        }
    } else {
        // Without a memo every iteration is simulated from scratch
        // (the profiling-speedup bench's baseline). That is the
        // epoch's dominant cost, so this is where a deadline firing
        // mid-epoch must be noticed.
        for (const data::Batch &b : batches) {
            cancelCheckpoint("trainer.batch");
            const IterationProfile &p = profiler.profileIteration(b.seqLen);
            log.iterations.push_back(IterationLog{b.seqLen, p.timeSec});
            log.trainSec += p.timeSec;
            log.counters += p.counters;
        }

        for (const data::Batch &b : eval_batches) {
            cancelCheckpoint("trainer.batch");
            const IterationProfile &p = profiler.profileInference(b.seqLen);
            log.evalSec += p.timeSec * cfg.evalCostMultiplier;
        }
    }

    log.autotuneSec = profiler.autotuner().tuningCostSec() - tune_before;
    return log;
}

TrainLog
runTrainingEpoch(const sim::Gpu &gpu, const nn::Model &model,
                 const data::Dataset &dataset, const TrainConfig &cfg)
{
    nn::Autotuner tuner(cfg.tunerMode, &gpu);
    Profiler profiler(gpu, model, tuner, cfg.batchSize,
                      cfg.memoizeProfiles);
    return runTrainingEpoch(profiler, dataset, cfg);
}

} // namespace prof
} // namespace seqpoint
