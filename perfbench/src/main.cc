/**
 * @file
 * Benchmark program: sets a workload up, runs its op repeatedly for a
 * fixed time, checks every op, and prints the run's metrics as one
 * JSON line (the last line of standard output).
 *
 *   perfbench --workload <name> --work-dir <dir> [--seed N]
 *             [--seconds S] [--trace 0|1] [--spans FILE]
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 runs untraced
 * and traced ops alternately, then the decomposition pass, and
 * reports the per-layer metrics (spans go to --spans when given).
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "decompose.hh"
#include "ops.hh"
#include "trace.hh"

using namespace perfbench;

namespace {

/** Least set-up repetitions; setup_s is their median. */
constexpr int kSetupReps = 3;

struct Args {
    std::string workload;
    std::string workDir;
    std::string spans;
    uint64_t seed = 23;
    double seconds = 10.0;
    bool trace = false;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i];
        const char *v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--work-dir")
            a.workDir = v;
        else if (k == "--spans")
            a.spans = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::atof(v);
        else if (k == "--trace")
            a.trace = std::strcmp(v, "0") != 0;
        else
            return false;
    }
    return argc % 2 == 1 && !a.workload.empty() && !a.workDir.empty() &&
        a.seconds > 0.0;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double> &v) { return quantile(v, 0.5); }

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

/** "name n=.. p50=.. q1=.. q3=.." plus the highest percentile with at
 *  least ten samples beyond it, when there is one. */
void
printTiming(const char *name, const std::vector<double> &v)
{
    std::printf("# %s n=%zu p50=%.4f q1=%.4f q3=%.4f", name, v.size(),
                median(v), quantile(v, 0.25), quantile(v, 0.75));
    for (double p : {0.99, 0.95, 0.9}) {
        if (static_cast<double>(v.size()) * (1.0 - p) >= 10.0) {
            std::printf(" p%.0f=%.4f", p * 100.0, quantile(v, p));
            break;
        }
    }
    std::printf("\n");
}

class MetricSet
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "{\"value\": %.10g, \"unit\": \"%s\"}",
                      std::isfinite(value) ? value : 0.0, unit);
        items.emplace_back(name, buf);
    }

    std::string
    json() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < items.size(); ++i)
            out += (i ? ", \"" : "\"") + items[i].first + "\": " +
                items[i].second;
        return out + "}";
    }

  private:
    std::vector<std::pair<std::string, std::string>> items;
};

/**
 * Spreads ops evenly over the CPUs the process may use. An op that
 * keeps k threads busy runs with its threads confined to a window of
 * k CPUs, the window moving on by k CPUs each op, and a run's figures
 * are medians over whole rounds of windows that cover every CPU. The
 * vCPUs of a shared virtual machine can differ in speed for minutes
 * at a time; an op that the kernel leaves on a few of them would make
 * a whole run fast or slow. Threads an op starts inherit the window.
 * An op that can use every CPU is not confined.
 */
class CpuRotation
{
  public:
    explicit CpuRotation(unsigned busy)
    {
        if (sched_getaffinity(0, sizeof(all), &all) != 0)
            return;
        std::vector<int> usable;
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &all))
                usable.push_back(c);
        }
        if (busy == 0 || busy >= usable.size() || usable.size() % busy != 0)
            return;
        cpus = std::move(usable);
        window = busy;
    }

    /** @return Ops per round (1 when not rotating). */
    std::size_t
    round() const
    {
        return cpus.empty() ? 1 : cpus.size() / window;
    }

    /** Confine the calling thread, and what it starts, for op `i`. */
    void
    pin(std::size_t i)
    {
        if (cpus.empty())
            return;
        cpu_set_t set;
        CPU_ZERO(&set);
        for (std::size_t j = 0; j < window; ++j)
            CPU_SET(cpus[((i % round()) * window + j) % cpus.size()], &set);
        sched_setaffinity(0, sizeof(set), &set);
    }

    /** Let the calling thread run anywhere again. */
    void
    release()
    {
        if (!cpus.empty())
            sched_setaffinity(0, sizeof(all), &all);
    }

  private:
    cpu_set_t all{};
    std::vector<int> cpus;
    std::size_t window = 1;
};

/** Median over consecutive rounds of `round` values of their means. */
double
roundMedian(const std::vector<double> &v, std::size_t round)
{
    std::vector<double> means;
    for (std::size_t i = 0; i + round <= v.size(); i += round) {
        double s = 0.0;
        for (std::size_t j = i; j < i + round; ++j)
            s += v[j];
        means.push_back(s / static_cast<double>(round));
    }
    return median(means);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
printCounters(const OpResult &r)
{
    std::printf("# registry disk_hits=%llu memory_hits=%llu builds=%llu "
                "quarantines=%llu; service completed=%llu failed=%llu "
                "cold_builds=%llu warm_hits=%llu shed=%llu\n",
                static_cast<unsigned long long>(r.registry.diskHits),
                static_cast<unsigned long long>(r.registry.memoryHits),
                static_cast<unsigned long long>(r.registry.builds),
                static_cast<unsigned long long>(r.registry.quarantines),
                static_cast<unsigned long long>(r.service.completed),
                static_cast<unsigned long long>(r.service.failed),
                static_cast<unsigned long long>(r.service.coldBuilds),
                static_cast<unsigned long long>(r.service.warmHits),
                static_cast<unsigned long long>(r.service.shedOverload));
}

/**
 * Per-layer metrics of the traced run. The account splits the CPU
 * time of the last traced op among the layers: `models` from its
 * own factory spans, the rest from the decomposition pass, scaled to
 * the work the op does; what is left is the remainder (scheduling,
 * copies, queueing, and the slow-down of running side by side).
 */
void
layerMetrics(MetricSet &m, const BenchWorkload &w, const Decomposition &d,
             const std::vector<SpanRecord> &op_spans,
             const std::vector<OpResult> &plain,
             const std::vector<OpResult> &traced)
{
    bool computes = w.opComputes();
    double lower = 0, exec = 0, profile = 0;
    double kernels = 0, lookups = 0, hits = 0, sls = 0;
    double epoch = 0, sens = 0, capture = 0, encode = 0, decode = 0;
    double load = 0, seed = 0, bytes = 0;
    double ref_capture = 0, ref_seed = 0, ref_select_us = 0;
    std::vector<double> select_us;
    const std::string ref_cfg = d.pairs.empty() ? "" : d.pairs[0].config;
    for (const PairCost &p : d.pairs) {
        lower += p.lowerMs;
        exec += p.execMs;
        profile += p.epochMs;
        kernels += static_cast<double>(p.kernels);
        lookups += static_cast<double>(p.lookups);
        hits += static_cast<double>(p.hits);
        sls += static_cast<double>(p.sls);
        epoch += p.epochMs;
        capture += p.captureMs;
        encode += p.encodeMs;
        decode += p.decodeMs;
        load += p.loadMs;
        seed += p.seedMs;
        bytes += static_cast<double>(p.bytes);
        select_us.push_back(p.selectUs);
        if (p.config == ref_cfg) {
            ref_capture += p.captureMs;
            ref_seed += p.seedMs;
            ref_select_us += p.selectUs;
        }
    }
    for (const SensCost &s : d.sens) {
        sens += s.profileMs;
        if (!computes)
            continue; // the restart op runs no sensitivity series
        lower += s.lowerMs;
        exec += s.execMs;
        profile += s.profileMs;
        kernels += static_cast<double>(s.kernels);
        lookups += static_cast<double>(s.lookups);
        hits += static_cast<double>(s.hits);
        sls += static_cast<double>(s.sls);
    }

    // A factory call builds the model (models) and synthesises the
    // dataset (data); the CPU of the op's make spans is split by the
    // model build time measured alone.
    std::vector<double> make_ms;
    double make_cpu = 0.0, models_in_op = 0.0;
    for (const SpanRecord &s : op_spans) {
        if (s.name != "models.make")
            continue;
        make_ms.push_back(s.durMs());
        make_cpu += s.cpuMs;
        auto it = d.modelMs.find(s.detail);
        if (it != d.modelMs.end())
            models_in_op += it->second;
    }
    std::vector<double> data_ms;
    for (const auto &kv : d.dataMs)
        data_ms.push_back(kv.second);

    m.add("models.make_ms", median(make_ms), "ms");
    m.add("models.make_calls", static_cast<double>(make_ms.size()), "count");
    m.add("data.synth_ms", median(data_ms), "ms");
    m.add("nn.lower_ms", lower, "ms");
    m.add("nn.lower_ns_per_kernel", lower * 1e6 / std::max(1.0, kernels),
          "ns");
    m.add("nn.kernels_lowered", kernels, "count");
    m.add("sim.exec_ms", exec, "ms");
    m.add("sim.exec_ns_per_kernel", exec * 1e6 / std::max(1.0, kernels), "ns");
    m.add("sim.timing_lookups", lookups, "count");
    m.add("sim.timing_hit_ratio", hits / std::max(1.0, lookups), "ratio");
    m.add("profiler.epoch_ms", epoch, "ms");
    m.add("profiler.self_ms", profile - lower - exec, "ms");
    m.add("profiler.sls_profiled", sls, "count");
    m.add("profiler.sensitivity_ms", sens, "ms");
    m.add("core.select_us", median(select_us), "us");
    m.add("core.project_us", median(d.projectUs), "us");
    m.add("core.seqpoint_err_pct", d.seqpointErrPct, "%");
    m.add("core.seqpoint_speedup", d.seqpointSpeedup, "x");
    m.add("harness.capture_ms", capture, "ms");
    m.add("harness.encode_ms", encode, "ms");
    m.add("harness.snapshot_bytes", bytes, "bytes");
    m.add("harness.decode_ms", decode, "ms");
    m.add("harness.store_load_ms", load, "ms");
    m.add("harness.seed_ms", seed, "ms");
    m.add("harness.cell_eval_ms_serial", d.cellSerialMs, "ms");
    m.add("harness.cell_eval_ms_parallel", d.cellParallelMs, "ms");
    m.add("harness.cell_inflation",
          d.cellParallelMs / std::max(1e-9, d.cellSerialMs), "x");

    // The restart op reports its own counters; the figure ops use no
    // service, so theirs come from the decomposition's restart probe.
    const OpResult &svc = computes ? d.probe : traced.back();
    m.add("harness.registry_disk_hits",
          static_cast<double>(svc.registry.diskHits), "count");
    m.add("harness.registry_builds", static_cast<double>(svc.registry.builds),
          "count");
    m.add("service.warm_answer_us_p50", median(svc.warmAnswerUs), "us");
    m.add("service.cold_builds", static_cast<double>(svc.service.coldBuilds),
          "count");
    m.add("service.warm_hits", static_cast<double>(svc.service.warmHits),
          "count");

    std::vector<double> plain_ms, traced_ms;
    for (const OpResult &r : plain)
        plain_ms.push_back(r.wallMs);
    for (const OpResult &r : traced)
        traced_ms.push_back(r.wallMs);
    double untraced = median(plain_ms);
    m.add("op.untraced_ms", untraced, "ms");
    m.add("op.traced_ms", median(traced_ms), "ms");
    m.add("trace.overhead_pct",
          (median(traced_ms) - untraced) / untraced * 100.0, "%");

    double base = traced.back().cpuMs;
    double core_ms = sum(d.projectUs) / 1e3 +
        (computes ? ref_select_us / 1e3 : 0.0);
    std::vector<std::pair<const char *, double>> account = {
        {"models", models_in_op},
        {"data", make_cpu - models_in_op},
        {"nn", computes ? lower : 0.0},
        {"sim", computes ? exec : 0.0},
        {"profiler", computes ? profile - lower - exec : 0.0},
        {"core", core_ms},
        {"harness", computes ? ref_capture + ref_seed : load + seed},
    };
    double attributed = 0.0;
    m.add("op.cpu_ms", base, "ms");
    std::fprintf(stderr, "account of the last traced op (CPU %.3f ms):\n",
                 base);
    for (const auto &[layer, ms] : account) {
        attributed += ms;
        m.add(std::string("account.") + layer + "_pct", ms / base * 100.0, "%");
        std::fprintf(stderr, "  %-9s %10.3f ms %6.2f%%\n", layer, ms,
                     ms / base * 100.0);
    }
    m.add("account.remainder_pct", (base - attributed) / base * 100.0, "%");
    std::fprintf(stderr, "  %-9s %10.3f ms %6.2f%%\n", "remainder",
                 base - attributed, (base - attributed) / base * 100.0);
}

int
run(const Args &a)
{
    unsigned width =
        std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
    std::unique_ptr<BenchWorkload> w;
    if (a.workload == "figures_serial")
        w = makeFiguresWorkload(a.seed, 1, false);
    else if (a.workload == "figures_parallel")
        w = makeFiguresWorkload(a.seed, width, true);
    else if (a.workload == "service_restart")
        w = makeRestartWorkload(a.seed, a.workDir,
                                {"DS2", "GNMT", "Transformer", "CNN"});
    else {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     a.workload.c_str());
        return 2;
    }

    // Set-up repeats in whole rounds (at least kSetupReps times), so
    // that it samples the CPUs as the ops do.
    CpuRotation rotation(w->busyThreads());
    std::size_t round = rotation.round();
    std::size_t setup_reps =
        a.trace ? 1 : (kSetupReps + round - 1) / round * round;
    std::vector<double> setups;
    for (std::size_t i = 0; i < setup_reps; ++i) {
        rotation.pin(i);
        double t0 = wallMs();
        w->setUp();
        setups.push_back((wallMs() - t0) / 1e3);
        rotation.release();
    }

    uint64_t attempted = 0, failed = 0;
    auto run_op = [&](std::size_t i, Tracer *tr) {
        rotation.pin(i);
        OpResult r = w->op(tr);
        rotation.release();
        ++attempted;
        if (!r.ok) {
            ++failed;
            std::fprintf(stderr, "perfbench: op failed: %s\n",
                         r.error.c_str());
        }
        return r;
    };
    run_op(0, nullptr); // warm-up: first-touch and pool start-up

    MetricSet m;
    bool correct = true;
    double deadline = wallMs() + a.seconds * 1e3;
    if (!a.trace) {
        std::vector<OpResult> ops;
        do {
            ops.push_back(run_op(ops.size(), nullptr));
        } while (wallMs() < deadline || ops.size() % round != 0);
        // An op's first-answer figure is the mean over its first
        // answers: the restart op's 20 pairs answer at very different
        // speeds, and a median of the pooled answers would fall
        // between their clusters.
        std::vector<double> wall, cpu, first, pooled;
        for (const OpResult &r : ops) {
            wall.push_back(r.wallMs);
            cpu.push_back(r.cpuMs);
            first.push_back(sum(r.firstMs) /
                            static_cast<double>(r.firstMs.size()));
            pooled.insert(pooled.end(), r.firstMs.begin(), r.firstMs.end());
        }
        printTiming("op_ms", wall);
        printTiming("cpu_ms", cpu);
        printTiming("first_answer_ms (mean per op)", first);
        printTiming("first_answer_ms (every answer)", pooled);
        printCounters(ops.back());
        if (round > 1)
            std::printf("# ops confined to CPU windows in rounds of %zu; "
                        "the metrics are medians of round means\n", round);
        m.add("setup_s", median(setups), "s");
        m.add("op_ms_p50", roundMedian(wall, round), "ms");
        m.add("cpu_ms_p50", roundMedian(cpu, round), "ms");
        m.add("first_answer_ms_p50", roundMedian(first, round), "ms");
        m.add("peak_rss_mb", peakRssMb(), "MB");
    } else {
        Tracer tracer;
        std::vector<OpResult> plain, traced;
        do {
            plain.push_back(run_op(plain.size(), nullptr));
            tracer.clear();
            traced.push_back(run_op(traced.size(), &tracer));
        } while (wallMs() < deadline || plain.size() < 3);
        std::vector<SpanRecord> op_spans = tracer.spans();
        Decomposition d =
            decompose(w->workloadNames(), a.seed, width, a.workDir, &tracer);
        if (!d.error.empty()) {
            correct = false;
            std::fprintf(stderr, "perfbench: decomposition check failed: %s\n",
                         d.error.c_str());
        }
        printCounters(traced.back());
        layerMetrics(m, *w, d, op_spans, plain, traced);
        if (!a.spans.empty()) {
            std::ofstream out(a.spans);
            out << "{\"workload\": \"" << a.workload << "\", \"seed\": "
                << a.seed << ", \"metrics\": " << m.json()
                << ",\n\"spans\": " << spansJson(tracer.spans()) << "}\n";
            if (!out)
                std::fprintf(stderr, "perfbench: cannot write %s\n",
                             a.spans.c_str());
        }
    }

    correct = correct && failed == 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), m.json().c_str());
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload <name> --work-dir "
                     "<dir> [--seed N] [--seconds S] [--trace 0|1] "
                     "[--spans FILE]\n");
        return 2;
    }
    try {
        return run(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
