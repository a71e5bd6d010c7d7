/**
 * @file
 * Profiling-cost benches.
 *
 * Part 1 regenerates the section VI-F numbers: how much less work
 * profiling only the SeqPoints is than profiling a full epoch -- as
 * an iteration-count reduction (the paper's 40x / 72x) and as
 * measured time, sequential and parallel (the paper's 214x / 345x).
 *
 * Part 2 measures the profiling *engine* itself on a GNMT-style
 * multi-epoch profile sweep: the serial uncached baseline
 * (re-simulate every kernel of every iteration) against the
 * kernel-memoized engine, serial and with the parallel per-SL sweep.
 * Results are checked bit-identical across modes and written to a
 * JSON report (default BENCH_profiling.json, argv[1] overrides).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <thread>
#include <vector>

#include "common/table.hh"
#include "support.hh"

using namespace seqpoint;

namespace {

void
emitPaperTable(Table &table, harness::Experiment &exp)
{
    auto cfg1 = sim::GpuConfig::config1();
    auto sp = exp.buildSelection(core::SelectorKind::SeqPoint, cfg1);

    double epoch = exp.actualTrainSec(cfg1);
    size_t iters = exp.epochLog(cfg1).numIterations();

    double sum_t = 0.0, max_t = 0.0;
    for (const auto &p : sp.points) {
        double t = exp.iterTime(cfg1, p.seqLen);
        sum_t += t;
        max_t = std::max(max_t, t);
    }

    table.addRow({exp.workload().name,
                  csprintf("%zu", iters),
                  csprintf("%zu", sp.points.size()),
                  csprintf("%.0fx", static_cast<double>(iters) /
                           static_cast<double>(sp.points.size())),
                  csprintf("%.0fx", epoch / sum_t),
                  csprintf("%.0fx", epoch / max_t)});
}

/** One engine mode of the multi-epoch sweep. */
struct SweepResult {
    double wallSec = 0.0;               ///< Measured wall time.
    std::vector<prof::TrainLog> logs;   ///< One log per epoch.
    sim::TimingCacheStats cacheStats;   ///< Kernel-cache accounting.
    size_t uniqueKernels = 0;           ///< Distinct signatures timed.
};

/**
 * Run `epochs` training epochs (fresh shuffle seed per epoch, as a
 * hardware sweep re-profiling the same workload would).
 */
SweepResult
runSweep(const harness::Workload &wl, unsigned epochs, bool memoize,
         bool timing_cache, unsigned threads)
{
    sim::Gpu gpu(sim::GpuConfig::config1(), timing_cache);

    prof::TrainConfig tc;
    tc.batchSize = wl.batchSize;
    tc.policy = wl.policy;
    tc.evalCostMultiplier = wl.evalCostMultiplier;
    tc.memoizeProfiles = memoize;
    tc.profileThreads = threads;

    SweepResult res;
    auto start = std::chrono::steady_clock::now();
    for (unsigned e = 0; e < epochs; ++e) {
        tc.seed = wl.seed + e;
        res.logs.push_back(
            prof::runTrainingEpoch(gpu, wl.model, wl.dataset, tc));
    }
    auto end = std::chrono::steady_clock::now();
    res.wallSec = std::chrono::duration<double>(end - start).count();
    res.cacheStats = gpu.timingCacheStats();
    res.uniqueKernels = gpu.uniqueKernelsTimed();
    return res;
}

/** Bit-exact comparison of two epoch-log sequences. */
bool
sweepsIdentical(const SweepResult &a, const SweepResult &b)
{
    if (a.logs.size() != b.logs.size())
        return false;
    for (size_t e = 0; e < a.logs.size(); ++e) {
        const prof::TrainLog &la = a.logs[e];
        const prof::TrainLog &lb = b.logs[e];
        if (la.numIterations() != lb.numIterations() ||
            la.trainSec != lb.trainSec || la.evalSec != lb.evalSec ||
            la.autotuneSec != lb.autotuneSec)
            return false;
        const sim::PerfCounters &ca = la.counters;
        const sim::PerfCounters &cb = lb.counters;
        if (ca.kernelsLaunched != cb.kernelsLaunched ||
            ca.valuInsts != cb.valuInsts ||
            ca.saluInsts != cb.saluInsts ||
            ca.bytesLoaded != cb.bytesLoaded ||
            ca.bytesStored != cb.bytesStored ||
            ca.l1HitBytes != cb.l1HitBytes ||
            ca.l2HitBytes != cb.l2HitBytes ||
            ca.dramBytes != cb.dramBytes ||
            ca.writeStallSec != cb.writeStallSec ||
            ca.busySec != cb.busySec || ca.launchSec != cb.launchSec)
            return false;
        for (size_t i = 0; i < la.iterations.size(); ++i) {
            if (la.iterations[i].seqLen != lb.iterations[i].seqLen ||
                la.iterations[i].timeSec != lb.iterations[i].timeSec)
                return false;
        }
    }
    return true;
}

size_t
uniqueSls(const SweepResult &r)
{
    std::set<int64_t> sls;
    for (const prof::TrainLog &log : r.logs)
        for (const prof::IterationLog &it : log.iterations)
            sls.insert(it.seqLen);
    return sls.size();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const char *json_path = argc > 1 ? argv[1] : "BENCH_profiling.json";

    // ------------------------------------------------------------------
    // Part 1: the paper's profiling-cost reduction (section VI-F).
    // ------------------------------------------------------------------
    harness::Experiment gnmt(harness::makeGnmtWorkload());
    harness::Experiment ds2(harness::makeDs2Workload());

    Table table({"network", "epoch iterations", "SeqPoints",
                 "iteration reduction", "time reduction (sequential)",
                 "time reduction (parallel)"});
    emitPaperTable(table, gnmt);
    emitPaperTable(table, ds2);

    std::printf("%s\n", table.render(
        "Section VI-F: profiling-cost reduction from running only the "
        "SeqPoints").c_str());

    bench::paperNote("paper: 40x (GNMT) and 72x (DS2) fewer "
                     "iterations; 214x and 345x when SeqPoints run in "
                     "parallel on separate machines.");

    // ------------------------------------------------------------------
    // Part 2: profiling-engine speedup on a GNMT-style multi-epoch
    // sweep.
    // ------------------------------------------------------------------
    const unsigned epochs = 6;
    // Enough threads to engage the pool without oversubscribing small
    // CI runners.
    const unsigned threads = std::max(2u,
        std::thread::hardware_concurrency());
    harness::Workload wl = harness::makeGnmtWorkload();

    SweepResult serial = runSweep(wl, epochs, /*memoize=*/false,
                                  /*timing_cache=*/false,
                                  /*threads=*/1);
    SweepResult memo = runSweep(wl, epochs, true, true, 1);
    SweepResult par = runSweep(wl, epochs, true, true, threads);

    bool identical = sweepsIdentical(serial, memo) &&
        sweepsIdentical(serial, par);

    size_t total_iters = 0;
    for (const prof::TrainLog &log : serial.logs)
        total_iters += log.numIterations();

    double sp_memo = serial.wallSec / memo.wallSec;
    double sp_par = serial.wallSec / par.wallSec;

    Table engine({"engine", "wall time", "speedup", "kernel-cache hits",
                  "hit rate", "unique kernels"});
    engine.addRow({"serial uncached", csprintf("%.3fs", serial.wallSec),
                   "1.0x", "-", "-", "-"});
    engine.addRow({"memoized", csprintf("%.3fs", memo.wallSec),
                   csprintf("%.1fx", sp_memo),
                   csprintf("%llu", static_cast<unsigned long long>(
                       memo.cacheStats.hits)),
                   csprintf("%.1f%%", 100.0 * memo.cacheStats.hitRate()),
                   csprintf("%zu", memo.uniqueKernels)});
    engine.addRow({"memoized + parallel", csprintf("%.3fs", par.wallSec),
                   csprintf("%.1fx", sp_par),
                   csprintf("%llu", static_cast<unsigned long long>(
                       par.cacheStats.hits)),
                   csprintf("%.1f%%", 100.0 * par.cacheStats.hitRate()),
                   csprintf("%zu", par.uniqueKernels)});
    std::printf("%s\n", engine.render(csprintf(
        "Profiling engine: GNMT x%u epochs (%zu iterations, %zu "
        "unique SLs), %u sweep threads", epochs, total_iters,
        uniqueSls(serial), threads)).c_str());

    std::printf("profile output bit-identical across engines: %s\n\n",
                identical ? "yes" : "NO -- BUG");

    // ------------------------------------------------------------------
    // JSON report. The CI bench guard gates on the keys below; the
    // marker keeps the guard and this export mirrored (seqpoint_lint
    // rule 4).
    // BENCH_GATE: bit_identical speedup_memoized
    // ------------------------------------------------------------------
    FILE *f = std::fopen(json_path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", json_path);
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"workload\": \"%s\",\n", wl.name.c_str());
    std::fprintf(f, "  \"epochs\": %u,\n", epochs);
    std::fprintf(f, "  \"iterations\": %zu,\n", total_iters);
    std::fprintf(f, "  \"unique_sls\": %zu,\n", uniqueSls(serial));
    std::fprintf(f, "  \"sweep_threads\": %u,\n", threads);
    std::fprintf(f, "  \"serial_uncached_sec\": %.6f,\n", serial.wallSec);
    std::fprintf(f, "  \"memoized_sec\": %.6f,\n", memo.wallSec);
    std::fprintf(f, "  \"memoized_parallel_sec\": %.6f,\n", par.wallSec);
    std::fprintf(f, "  \"speedup_memoized\": %.2f,\n", sp_memo);
    std::fprintf(f, "  \"speedup_memoized_parallel\": %.2f,\n", sp_par);
    // Cache accounting from the serial memoized run: the parallel
    // run's counters are race-dependent (concurrent misses and
    // autotune probes both compute outside the lock), and this file
    // is a committed artifact that should not churn across runs.
    std::fprintf(f, "  \"kernel_cache_hits\": %llu,\n",
                 static_cast<unsigned long long>(memo.cacheStats.hits));
    std::fprintf(f, "  \"kernel_cache_misses\": %llu,\n",
                 static_cast<unsigned long long>(memo.cacheStats.misses));
    std::fprintf(f, "  \"kernel_cache_hit_rate\": %.4f,\n",
                 memo.cacheStats.hitRate());
    std::fprintf(f, "  \"unique_kernels_timed\": %zu,\n",
                 memo.uniqueKernels);
    std::fprintf(f, "  \"bit_identical\": %s\n",
                 identical ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path);

    // The engine contract: with the kernel cache and thread pool
    // enabled, the sweep must be at least 3x the serial uncached
    // baseline with bit-identical output. Gate on the better of the
    // two memoized modes: on single-core or heavily shared runners
    // the pool adds overhead it cannot recoup, which says nothing
    // about the engine.
    double best = std::max(sp_memo, sp_par);
    if (!identical || best < 3.0) {
        std::fprintf(stderr, "FAIL: speedup %.2fx (need >= 3x), "
                     "identical=%d\n", best, identical);
        return 1;
    }
    return 0;
}
