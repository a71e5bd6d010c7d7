/**
 * @file
 * Figure and restart workloads with their output checks.
 */

#include "ops.hh"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common/logging.hh"
#include "core/projection.hh"
#include "harness/figures.hh"
#include "sim/gpu_config.hh"

namespace perfbench {

namespace fs = std::filesystem;
namespace sh = seqpoint::harness;
namespace core = seqpoint::core;
namespace svc = seqpoint::service;
using seqpoint::csprintf;
using seqpoint::sim::GpuConfig;

const std::vector<SlRange> &
sensitivityRanges()
{
    static const std::vector<SlRange> ranges = {
        {"GNMT", 10, 210, 10}, // Fig 13
        {"DS2", 60, 440, 20},  // Fig 14
    };
    return ranges;
}

std::vector<int64_t>
rangeSls(const SlRange &r)
{
    std::vector<int64_t> sls;
    for (int64_t sl = r.lo; sl <= r.hi; sl += r.step)
        sls.push_back(sl);
    return sls;
}

sh::WorkloadFactory
factoryFor(const std::string &name, uint64_t seed, Tracer *tracer)
{
    sh::Workload (*make)(uint64_t) = nullptr;
    if (name == "DS2")
        make = sh::makeDs2Workload;
    else if (name == "GNMT")
        make = sh::makeGnmtWorkload;
    else if (name == "Transformer")
        make = sh::makeTransformerWorkload;
    else if (name == "CNN")
        make = sh::makeCnnWorkload;
    else
        throw std::invalid_argument("unknown workload " + name);
    return [make, seed, tracer, name] {
        Span span(tracer, "models.make", name,
                  tracer ? tracer->ambient() : 0);
        return make(seed);
    };
}

namespace {

/** Relative closeness for sums taken in a different order. */
bool
close(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b));
}

/** Run `f` inside a span that factory calls attach to. */
template <typename F>
auto
inSpan(Tracer *tr, uint64_t root, const char *name,
       const std::string &detail, F &&f)
{
    Span span(tr, name, detail, root);
    if (tr)
        tr->setAmbient(span.id());
    auto result = f();
    if (tr)
        tr->setAmbient(root);
    return result;
}

struct FigureSet {
    sh::FigureSweep ds2, gnmt;
    sh::SensitivitySweep fig13, fig14;
};

class FiguresWorkload : public BenchWorkload
{
  public:
    FiguresWorkload(uint64_t wl_seed, unsigned sched_width, bool check_width)
        : seed(wl_seed), width(sched_width), checkWidth(check_width)
    {
    }

    void
    setUp() override
    {
        // The reference: one plain Experiment per workload, serial,
        // with no scheduler, snapshot or registry in the path.
        refs.clear();
        for (const char *name : {"DS2", "GNMT"}) {
            auto exp = std::make_unique<sh::Experiment>(
                factoryFor(name, seed, nullptr)());
            exp->setProfileThreads(1);
            for (const GpuConfig &cfg : cfgs)
                exp->epochLog(cfg);
            exp->buildAllSelections(cfgs[0]);
            refs[name] = std::move(exp);
        }
        for (const SlRange &r : sensitivityRanges()) {
            for (const GpuConfig &cfg : cfgs)
                refs.at(r.workload)->warmIterProfiles(cfg, rangeSls(r));
        }
        expected.reset();
        if (checkWidth)
            expected = std::make_unique<FigureSet>(run(nullptr, 1, nullptr));
    }

    OpResult
    op(Tracer *tr) override
    {
        OpResult r;
        FigureSet set;
        {
            Span root(tr, "op", width > 1 ? "figures_parallel"
                                          : "figures_serial");
            if (tr)
                tr->setAmbient(root.id());
            double c0 = cpuMs();
            double t0 = wallMs();
            set = run(tr, width, &r.firstMs);
            r.wallMs = wallMs() - t0;
            r.cpuMs = cpuMs() - c0;
            for (double &f : r.firstMs)
                f -= t0;
        }
        r.error = check(set);
        r.ok = r.error.empty();
        return r;
    }

    std::vector<std::string>
    workloadNames() const override
    {
        return {"DS2", "GNMT"};
    }

    bool opComputes() const override { return true; }

    unsigned busyThreads() const override { return width; }

  private:
    uint64_t seed;
    unsigned width;
    bool checkWidth;
    const std::vector<GpuConfig> cfgs = GpuConfig::table2();
    std::map<std::string, std::unique_ptr<sh::Experiment>> refs;
    std::unique_ptr<FigureSet> expected;

    /** One op: the four sweeps, each through fresh factories. */
    FigureSet
    run(Tracer *tr, unsigned w, std::vector<double> *first)
    {
        uint64_t root = tr ? tr->ambient() : 0;
        FigureSet set;
        set.ds2 = inSpan(tr, root, "harness.figure_sweep", "DS2", [&] {
            return sh::runFigureSweepScheduled(
                factoryFor("DS2", seed, tr), w);
        });
        if (first)
            first->push_back(wallMs());
        set.gnmt = inSpan(tr, root, "harness.figure_sweep", "GNMT", [&] {
            return sh::runFigureSweepScheduled(
                factoryFor("GNMT", seed, tr), w);
        });
        const SlRange &f13 = sensitivityRanges()[0];
        const SlRange &f14 = sensitivityRanges()[1];
        set.fig13 = inSpan(tr, root, "harness.sensitivity_sweep",
                           f13.workload, [&] {
            return sh::runSensitivitySweepScheduled(
                factoryFor(f13.workload, seed, tr), f13.lo, f13.hi,
                f13.step, w);
        });
        set.fig14 = inSpan(tr, root, "harness.sensitivity_sweep",
                           f14.workload, [&] {
            return sh::runSensitivitySweepScheduled(
                factoryFor(f14.workload, seed, tr), f14.lo, f14.hi,
                f14.step, w);
        });
        return set;
    }

    std::string
    check(const FigureSet &set)
    {
        std::string err = checkSweep("DS2", set.ds2);
        if (err.empty())
            err = checkSweep("GNMT", set.gnmt);
        if (err.empty())
            err = checkSensitivity(sensitivityRanges()[0], set.fig13);
        if (err.empty())
            err = checkSensitivity(sensitivityRanges()[1], set.fig14);
        if (err.empty() && expected &&
            !(set.ds2.identicalTo(expected->ds2) &&
              set.gnmt.identicalTo(expected->gnmt) &&
              set.fig13.identicalTo(expected->fig13) &&
              set.fig14.identicalTo(expected->fig14)))
            err = csprintf("width %u results differ from width 1", width);
        return err;
    }

    std::string
    checkSweep(const std::string &name, const sh::FigureSweep &sweep)
    {
        sh::Experiment &ref = *refs.at(name);
        const char *wl = name.c_str();
        if (sweep.columns.size() != cfgs.size())
            return csprintf("%s: %zu columns for %zu configurations", wl,
                            sweep.columns.size(), cfgs.size());
        if (sweep.selections != ref.buildAllSelections(cfgs[0]))
            return csprintf("%s: selections differ from a plain "
                            "Experiment's", wl);

        double weight = 0.0;
        for (const core::SeqPointRecord &p :
             sweep.selections.at(core::SelectorKind::SeqPoint).points)
            weight += p.weight;
        std::size_t iters = ref.epochSamples(cfgs[0]).size();
        if (weight != static_cast<double>(iters))
            return csprintf("%s: SeqPoint weights sum to %.17g, the epoch "
                            "has %zu iterations", wl, weight, iters);

        const auto &order = sh::selectorOrder();
        for (std::size_t c = 0; c < cfgs.size(); ++c) {
            const sh::FigureColumn &col = sweep.columns[c];
            const GpuConfig &cfg = cfgs[c];
            const char *cn = cfg.name.c_str();
            auto iter_time = [&](int64_t sl) { return ref.iterTime(cfg, sl); };
            if (col.config != cfg.name)
                return csprintf("%s: column %zu is '%s', expected '%s'", wl,
                                c, col.config.c_str(), cn);

            double actual = 0.0;
            for (const core::IterationSample &s : ref.epochSamples(cfg))
                actual += iter_time(s.seqLen);
            if (!close(actual, col.actualSec))
                return csprintf("%s/%s: actual %.17g != sum of iteration "
                                "times %.17g", wl, cn, col.actualSec,
                                actual);

            core::SeqPointSet every;
            for (const core::SlEntry &e : ref.slStats(cfg).entries())
                every.points.push_back(
                    {e.seqLen, static_cast<double>(e.freq), e.statValue});
            double all_unique = core::projectTrainingTime(every, iter_time);
            if (!close(all_unique, actual))
                return csprintf("%s/%s: all-unique projection %.17g != "
                                "actual %.17g", wl, cn, all_unique, actual);

            if (col.projectedSec.size() != order.size())
                return csprintf("%s/%s: %zu projections for %zu selectors",
                                wl, cn, col.projectedSec.size(),
                                order.size());
            for (std::size_t k = 0; k < order.size(); ++k) {
                double projected = 0.0;
                for (const core::SeqPointRecord &p :
                     sweep.selections.at(order[k]).points)
                    projected += p.weight * iter_time(p.seqLen);
                if (!close(projected, col.projectedSec[k]))
                    return csprintf("%s/%s: selector %zu projects %.17g, "
                                    "recomputed %.17g", wl, cn, k,
                                    col.projectedSec[k], projected);
            }
        }
        return "";
    }

    std::string
    checkSensitivity(const SlRange &r, const sh::SensitivitySweep &s)
    {
        sh::Experiment &ref = *refs.at(r.workload);
        if (s.sls != rangeSls(r) || s.iterSec.size() != cfgs.size() ||
            s.configs.size() != cfgs.size() ||
            s.batchSize != ref.workload().batchSize)
            return csprintf("%s sensitivity: wrong shape", r.workload);
        for (std::size_t c = 0; c < cfgs.size(); ++c) {
            if (s.configs[c] != cfgs[c].name ||
                s.iterSec[c].size() != s.sls.size())
                return csprintf("%s sensitivity: wrong column %zu",
                                r.workload, c);
            for (std::size_t i = 0; i < s.sls.size(); ++i) {
                double want = ref.iterTime(cfgs[c], s.sls[i]);
                if (s.iterSec[c][i] != want)
                    return csprintf("%s sensitivity %s SL %lld: %.17g != "
                                    "%.17g", r.workload,
                                    cfgs[c].name.c_str(),
                                    static_cast<long long>(s.sls[i]),
                                    s.iterSec[c][i], want);
            }
        }
        return "";
    }
};

/** A plain-Experiment answer the service must reproduce exactly. */
struct RefAnswer {
    core::SeqPointSet selection;
    double projectedSec = 0.0;
    double actualSec = 0.0;
};

class RestartWorkload : public BenchWorkload
{
  public:
    static constexpr unsigned kWorkers = 2;
    static constexpr unsigned kClients = 2;

    RestartWorkload(uint64_t wl_seed, std::string work_dir,
                    std::vector<std::string> workloads)
        : seed(wl_seed), workDir(std::move(work_dir)),
          names(std::move(workloads))
    {
        // Round r asks every pair once, with selector (pair + r) mod 5,
        // so each pair's first query goes out before any repeat.
        const auto &order = sh::selectorOrder();
        for (std::size_t r = 0; r < order.size(); ++r) {
            std::size_t pair = 0;
            for (const std::string &wl : names) {
                for (const GpuConfig &cfg : cfgs) {
                    svc::QueryRequest q;
                    q.workload = wl;
                    q.config = cfg;
                    q.selector = order[(pair + r) % order.size()];
                    queries.push_back(q);
                    ++pair;
                }
            }
        }
    }

    void
    setUp() override
    {
        if (!store.empty())
            fs::remove_all(store);
        store = workDir + csprintf("/store%u", setups++);
        fs::create_directories(store);
        {
            svc::QueryService fill(serviceConfig());
            for (const std::string &wl : names)
                fill.registerWorkload(wl, factoryFor(wl, seed, nullptr));
            fill.start();
            std::vector<svc::PendingPtr> pending;
            for (std::size_t i = 0; i < pairs(); ++i)
                pending.push_back(fill.submit(queries[i]));
            for (const svc::PendingPtr &p : pending) {
                svc::QueryResult res = p->wait();
                if (!res.status.ok())
                    throw std::runtime_error("store fill failed: " +
                                             res.status.toString());
            }
            fill.drain();
        }

        // The reference: plain Experiments, no service, registry or
        // store in the path.
        refs.clear();
        for (const std::string &wl : names) {
            sh::Experiment exp(factoryFor(wl, seed, nullptr)());
            exp.setProfileThreads(1);
            for (const GpuConfig &cfg : cfgs) {
                for (core::SelectorKind kind : sh::selectorOrder()) {
                    RefAnswer a;
                    a.selection = exp.buildSelection(kind, cfg);
                    a.projectedSec = exp.projectedTrainSec(a.selection, cfg);
                    a.actualSec = exp.actualTrainSec(cfg);
                    refs[refKey(wl, cfg, kind)] = a;
                }
            }
        }
    }

    OpResult
    op(Tracer *tr) override
    {
        OpResult r;
        std::vector<svc::QueryResult> results(queries.size());
        std::vector<double> latency(queries.size(), 0.0);
        {
            std::optional<Span> root;
            root.emplace(tr, "op", "service_restart");
            if (tr)
                tr->setAmbient(root->id());
            double c0 = cpuMs();
            double t0 = wallMs();
            std::optional<svc::QueryService> service;
            {
                Span start(tr, "service.start", "", root->id());
                service.emplace(serviceConfig());
                for (const std::string &wl : names)
                    service->registerWorkload(wl, factoryFor(wl, seed, tr));
                service->start();
            }
            std::atomic<std::size_t> next{0};
            std::vector<std::string> client_error(kClients);
            auto client = [&](unsigned c) {
                try {
                    for (;;) {
                        std::size_t i = next.fetch_add(1);
                        if (i >= queries.size())
                            return;
                        Span q(tr, "service.query",
                               queries[i].workload + "/" +
                                   queries[i].config.name,
                               root->id());
                        double q0 = wallMs();
                        results[i] = service->query(queries[i]);
                        latency[i] = wallMs() - q0;
                    }
                } catch (const std::exception &e) {
                    client_error[c] = e.what();
                }
            };
            std::vector<std::thread> clients;
            for (unsigned c = 0; c < kClients; ++c)
                clients.emplace_back(client, c);
            for (std::thread &t : clients)
                t.join();
            for (const std::string &e : client_error) {
                if (!e.empty() && r.error.empty())
                    r.error = "client: " + e;
            }
            r.wallMs = wallMs() - t0;
            r.cpuMs = cpuMs() - c0;
            r.registry = service->registry().stats();
            r.service = service->stats();
            root.reset();
            service->drain();
        }

        for (std::size_t i = 0; i < queries.size(); ++i) {
            if (i < pairs())
                r.firstMs.push_back(latency[i]);
            else
                r.warmAnswerUs.push_back(latency[i] * 1e3);
        }
        if (r.error.empty())
            r.error = check(results, r.registry);
        r.ok = r.error.empty();
        return r;
    }

    std::vector<std::string> workloadNames() const override { return names; }

    bool opComputes() const override { return false; }

    unsigned busyThreads() const override { return kWorkers; }

  private:
    uint64_t seed;
    std::string workDir;
    std::string store;
    std::vector<std::string> names;
    unsigned setups = 0;
    const std::vector<GpuConfig> cfgs = GpuConfig::table2();
    std::vector<svc::QueryRequest> queries;
    std::map<std::string, RefAnswer> refs;

    std::size_t pairs() const { return names.size() * cfgs.size(); }

    svc::ServiceConfig
    serviceConfig() const
    {
        svc::ServiceConfig sc;
        sc.workers = kWorkers;
        sc.queueCapacity = queries.size();
        sc.profileThreads = 1;
        sc.storeDir = store;
        return sc;
    }

    static std::string
    refKey(const std::string &wl, const GpuConfig &cfg,
           core::SelectorKind kind)
    {
        return wl + "/" + cfg.name + "/" +
            std::to_string(static_cast<int>(kind));
    }

    std::string
    check(const std::vector<svc::QueryResult> &results,
          const sh::SnapshotRegistryStats &reg) const
    {
        for (std::size_t i = 0; i < results.size(); ++i) {
            const svc::QueryRequest &q = queries[i];
            const svc::QueryResult &res = results[i];
            const char *what = q.workload.c_str();
            const char *cn = q.config.name.c_str();
            if (!res.status.ok())
                return csprintf("%s/%s: %s", what, cn,
                                res.status.toString().c_str());
            const RefAnswer &ref = refs.at(refKey(q.workload, q.config,
                                                  q.selector));
            const svc::QueryAnswer &a = res.answer;
            double err = ref.actualSec > 0.0
                ? std::abs(ref.projectedSec - ref.actualSec) /
                    ref.actualSec * 100.0
                : 0.0;
            if (!(a.selection == ref.selection))
                return csprintf("%s/%s: selection differs from a plain "
                                "Experiment's", what, cn);
            if (a.projectedSec != ref.projectedSec ||
                a.actualSec != ref.actualSec || a.errorPct != err)
                return csprintf("%s/%s: answer (%.17g, %.17g, %.17g) != "
                                "plain Experiment (%.17g, %.17g, %.17g)",
                                what, cn, a.projectedSec, a.actualSec,
                                a.errorPct, ref.projectedSec,
                                ref.actualSec, err);
        }
        if (reg.diskHits != pairs() || reg.builds != 0)
            return csprintf("restart loaded %llu and rebuilt %llu of %zu "
                            "snapshots",
                            static_cast<unsigned long long>(reg.diskHits),
                            static_cast<unsigned long long>(reg.builds),
                            pairs());
        return "";
    }
};

} // anonymous namespace

std::unique_ptr<BenchWorkload>
makeFiguresWorkload(uint64_t seed, unsigned width, bool check_width)
{
    return std::make_unique<FiguresWorkload>(seed, width, check_width);
}

std::unique_ptr<BenchWorkload>
makeRestartWorkload(uint64_t seed, const std::string &work_dir,
                    const std::vector<std::string> &workloads)
{
    return std::make_unique<RestartWorkload>(seed, work_dir, workloads);
}

} // namespace perfbench
