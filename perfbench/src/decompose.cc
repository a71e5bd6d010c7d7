/**
 * @file
 * Decomposition pass implementation.
 */

#include "decompose.hh"

#include <cmath>
#include <filesystem>

#include "common/logging.hh"
#include "data/dataset.hh"
#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "harness/scheduler.hh"
#include "harness/snapshot_io.hh"
#include "models/cnn.hh"
#include "models/ds2.hh"
#include "models/gnmt.hh"
#include "models/transformer.hh"
#include "nn/autotune.hh"
#include "sim/gpu.hh"

namespace perfbench {

namespace fs = std::filesystem;
namespace sh = seqpoint::harness;
namespace core = seqpoint::core;
namespace sim = seqpoint::sim;
namespace nn = seqpoint::nn;
using seqpoint::csprintf;

namespace {

/** Time `f` (ms) inside a span. */
template <typename F>
double
timed(Tracer *tr, uint64_t parent, const char *name,
      const std::string &detail, F &&f)
{
    Span span(tr, name, detail, parent);
    double t0 = wallMs();
    f();
    return wallMs() - t0;
}

/**
 * Lower each of the `train`/`infer` SLs on a fresh device and execute
 * it right away, as the profiler does, timing the two calls apart.
 */
struct LowerExec {
    double lowerMs = 0.0, execMs = 0.0;
    uint64_t kernels = 0, lookups = 0, hits = 0;
    std::vector<double> trainSec; ///< Executed time per train SL.
};

LowerExec
lowerAndExecute(const sh::Workload &wl, const sim::GpuConfig &cfg,
                const std::vector<int64_t> &train,
                const std::vector<int64_t> &infer, Tracer *tr,
                uint64_t parent, const std::string &detail)
{
    LowerExec out;
    sim::Gpu gpu(cfg);
    nn::Autotuner tuner(nn::Autotuner::Mode::Measured, &gpu);
    for (std::size_t i = 0; i < train.size() + infer.size(); ++i) {
        bool is_train = i < train.size();
        int64_t sl = is_train ? train[i] : infer[i - train.size()];
        std::string what = csprintf("%s SL %lld%s", detail.c_str(),
                                    static_cast<long long>(sl),
                                    is_train ? "" : " eval");
        std::vector<sim::KernelDesc> kernels;
        out.lowerMs += timed(tr, parent, "nn.lower", what, [&] {
            kernels = is_train
                ? wl.model.lowerIteration(wl.batchSize, sl, tuner)
                : wl.model.lowerInference(wl.batchSize, sl, tuner);
        });
        out.kernels += kernels.size();
        sim::ExecutionResult res;
        out.execMs += timed(tr, parent, "sim.exec", what, [&] {
            res = gpu.executeAll(kernels, false);
        });
        if (is_train)
            out.trainSec.push_back(res.totalSec);
    }
    sim::TimingCacheStats st = gpu.timingCacheStats();
    out.lookups = st.lookups();
    out.hits = st.hits;
    return out;
}

template <typename M>
std::vector<int64_t>
keysOf(const M &m)
{
    std::vector<int64_t> keys;
    for (const auto &kv : m)
        keys.push_back(kv.first);
    return keys;
}

double
modelBuildMs(const std::string &name, Tracer *tr, uint64_t parent)
{
    namespace models = seqpoint::models;
    return timed(tr, parent, "models.build", name, [&] {
        if (name == "DS2")
            models::buildDs2();
        else if (name == "GNMT")
            models::buildGnmt();
        else if (name == "Transformer")
            models::buildTransformer();
        else
            models::buildCnn();
    });
}

/** Dataset synthesis alone; -1 for CNN, whose factory builds it inline
 *  without a data-layer call. */
double
synthMs(const std::string &name, uint64_t seed, Tracer *tr, uint64_t parent)
{
    namespace data = seqpoint::data;
    if (name != "DS2" && name != "GNMT" && name != "Transformer")
        return -1.0;
    return timed(tr, parent, "data.synth", name, [&] {
        if (name == "DS2")
            data::synthLibriSpeech100(seed);
        else if (name == "GNMT")
            data::synthIwslt15(seed);
        else
            data::synthWmt16(seed);
    });
}

} // anonymous namespace

Decomposition
decompose(const std::vector<std::string> &workloads, uint64_t seed,
          unsigned width, const std::string &dir, Tracer *tr)
{
    Decomposition d;
    Span root(tr, "decompose", "");
    uint64_t rid = root.id();
    auto fail = [&d](std::string msg) {
        if (d.error.empty())
            d.error = std::move(msg);
    };
    const std::vector<sim::GpuConfig> cfgs = sim::GpuConfig::table2();
    std::string store = dir + "/decompose";
    fs::create_directories(store);

    std::vector<double> err_pct, speedup;
    for (const std::string &name : workloads) {
        sh::WorkloadFactory make = factoryFor(name, seed, nullptr);
        d.modelMs[name] = modelBuildMs(name, tr, rid);
        double data_ms = synthMs(name, seed, tr, rid);
        if (data_ms >= 0.0)
            d.dataMs[name] = data_ms;

        sh::Experiment exp(make());
        exp.setProfileThreads(1);
        const sh::Workload &wl = exp.workload();
        for (const sim::GpuConfig &cfg : cfgs) {
            std::string detail = name + "/" + cfg.name;
            PairCost pc;
            pc.workload = name;
            pc.config = cfg.name;
            pc.epochMs = timed(tr, rid, "profiler.epoch", detail,
                               [&] { exp.epochLog(cfg); });
            pc.selectUs = 1e3 * timed(tr, rid, "core.select", detail,
                                      [&] { exp.buildAllSelections(cfg); });
            std::shared_ptr<const sh::ModelSnapshot> snap;
            pc.captureMs = timed(tr, rid, "harness.capture", detail,
                                 [&] { snap = exp.snapshot(cfg); });
            std::string payload;
            pc.encodeMs = timed(tr, rid, "harness.encode", detail, [&] {
                payload = sh::encodeSnapshotPayload(*snap);
            });
            pc.bytes = payload.size();
            sh::ModelSnapshot decoded;
            pc.decodeMs = timed(tr, rid, "harness.decode", detail, [&] {
                decoded = sh::decodeSnapshotPayload(
                    payload, detail, seqpoint::ByteReader::OnError::Throw);
            });
            if (sh::encodeSnapshotPayload(decoded) != payload)
                fail(detail + ": decode(encode(snapshot)) re-encodes "
                              "differently");

            sh::SnapshotKey key = sh::snapshotKeyOf(*snap);
            std::string path = store + "/" + key.fileName();
            if (!sh::saveSnapshot(*snap, path))
                fail(detail + ": saveSnapshot failed");
            std::shared_ptr<const sh::ModelSnapshot> loaded;
            pc.loadMs = timed(tr, rid, "harness.store_load", detail, [&] {
                auto res = sh::tryLoadSnapshot(path, &key);
                if (res.ok())
                    loaded = res.value();
            });
            if (!loaded) {
                fail(detail + ": tryLoadSnapshot found no valid file");
                loaded = snap;
            }

            // Built before and destroyed after the timed part, as the
            // service keeps its seeded Experiments alive.
            sh::Workload fresh = make();
            std::unique_ptr<sh::Experiment> seeded;
            pc.seedMs = timed(tr, rid, "harness.seed", detail, [&] {
                seeded = std::make_unique<sh::Experiment>(std::move(fresh));
                seeded->seedFrom(loaded);
                seeded->actualTrainSec(cfg);
                seeded->buildSelection(core::SelectorKind::SeqPoint, cfg);
            });
            if (seeded->actualTrainSec(cfg) != exp.actualTrainSec(cfg))
                fail(detail + ": seeded epoch differs from the cold one");
            seeded.reset();

            std::vector<int64_t> train = keysOf(snap->trainProfiles);
            LowerExec le = lowerAndExecute(wl, cfg, train,
                                           keysOf(snap->inferProfiles), tr,
                                           rid, detail);
            for (std::size_t i = 0; i < train.size(); ++i) {
                if (le.trainSec[i] != snap->trainProfiles.at(train[i]).timeSec)
                    fail(csprintf("%s: executeAll at SL %lld disagrees with "
                                  "the profiler", detail.c_str(),
                                  static_cast<long long>(train[i])));
            }
            pc.lowerMs = le.lowerMs;
            pc.execMs = le.execMs;
            pc.kernels = le.kernels;
            pc.lookups = le.lookups;
            pc.hits = le.hits;
            pc.sls = snap->trainProfiles.size() + snap->inferProfiles.size();
            d.pairs.push_back(pc);
        }

        // Projection of every selector built on config #1 onto every
        // configuration; SeqPoint's error and speed-up recomputed from
        // the per-SL iteration times, as in Figs 11 and 12.
        auto sels = exp.buildAllSelections(cfgs[0]);
        for (const auto &[kind, sel] : sels) {
            for (const sim::GpuConfig &cfg : cfgs) {
                d.projectUs.push_back(1e3 * timed(tr, rid, "core.project",
                                                  name, [&] {
                    exp.projectedTrainSec(sel, cfg);
                }));
            }
        }
        if (name == "DS2" || name == "GNMT") {
            const core::SeqPointSet &sp = sels.at(core::SelectorKind::SeqPoint);
            for (std::size_t c = 0; c < cfgs.size(); ++c) {
                double actual = 0.0, projected = 0.0, sample = 0.0;
                for (const core::IterationSample &s : exp.epochSamples(cfgs[c]))
                    actual += exp.iterTime(cfgs[c], s.seqLen);
                for (const core::SeqPointRecord &p : sp.points) {
                    projected += p.weight * exp.iterTime(cfgs[c], p.seqLen);
                    sample += exp.iterTime(cfgs[c], p.seqLen);
                }
                err_pct.push_back(std::max(
                    0.005, std::fabs(projected - actual) / actual * 100.0));
                if (c == 0)
                    speedup.push_back(actual / sample);
            }
        }
    }

    for (const SlRange &r : sensitivityRanges()) {
        bool present = false;
        for (const std::string &name : workloads)
            present = present || name == r.workload;
        if (!present)
            continue;
        std::vector<int64_t> sls = rangeSls(r);
        sh::Experiment exp(factoryFor(r.workload, seed, nullptr)());
        exp.setProfileThreads(1);
        for (const sim::GpuConfig &cfg : cfgs) {
            std::string detail = std::string(r.workload) + "/" + cfg.name;
            SensCost sc;
            sc.workload = r.workload;
            sc.config = cfg.name;
            sc.profileMs = timed(tr, rid, "profiler.sensitivity", detail,
                                 [&] { exp.warmIterProfiles(cfg, sls); });
            LowerExec le = lowerAndExecute(exp.workload(), cfg, sls, {}, tr,
                                           rid, detail);
            for (std::size_t i = 0; i < sls.size(); ++i) {
                if (le.trainSec[i] != exp.iterTime(cfg, sls[i]))
                    fail(detail + ": sensitivity executeAll disagrees");
            }
            sc.lowerMs = le.lowerMs;
            sc.execMs = le.execMs;
            sc.kernels = le.kernels;
            sc.lookups = le.lookups;
            sc.hits = le.hits;
            sc.sls = sls.size();
            d.sens.push_back(sc);
        }
    }

    // Per-cell eval time of the same epoch sweep at width 1 and at the
    // parallel width: their ratio is the per-cell slowdown that running
    // cells side by side costs.
    std::vector<sh::WorkloadFactory> makes;
    for (const std::string &name : workloads)
        makes.push_back(factoryFor(name, seed, nullptr));
    // The parallel sweep runs once untimed first: the first parallel
    // work in a process pays for thread start-up and fresh malloc
    // arenas, which would otherwise swamp the contention measured here.
    sh::ExperimentScheduler(width).epochSweep(makes, cfgs);
    for (auto [w, out] : {std::pair{1u, &d.cellSerialMs},
                          std::pair{width, &d.cellParallelMs}}) {
        std::vector<sh::CellTiming> timings;
        std::vector<sh::EpochCellResult> cells;
        timed(tr, rid, "harness.epoch_sweep", csprintf("width %u", w), [&] {
            cells = sh::ExperimentScheduler(w).epochSweep(makes, cfgs, {},
                                                          &timings);
        });
        double eval = 0.0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (cells[i].failed)
                fail("epoch sweep cell failed: " + cells[i].error);
            eval += timings[i].evalSec() * 1e3;
        }
        *out = eval;
    }

    auto geomean = [](const std::vector<double> &v) {
        double lsum = 0.0;
        for (double x : v)
            lsum += std::log(x);
        return v.empty() ? 0.0
                         : std::exp(lsum / static_cast<double>(v.size()));
    };
    d.seqpointErrPct = geomean(err_pct);
    d.seqpointSpeedup = geomean(speedup);

    // A restart over a store of this pass's pairs, for the registry
    // and service counters.
    {
        Span probe(tr, "service.probe", "", rid);
        auto restart = makeRestartWorkload(seed, dir + "/probe", workloads);
        restart->setUp();
        d.probe = restart->op(nullptr);
        if (!d.probe.ok)
            fail("service probe: " + d.probe.error);
    }
    return d;
}

} // namespace perfbench
