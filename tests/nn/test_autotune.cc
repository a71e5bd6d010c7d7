/**
 * @file
 * Tests for the GEMM autotuner.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <thread>
#include <vector>

#include "common/status.hh"
#include "nn/autotune.hh"
#include "nn/kernel_gen.hh"
#include "sim/gpu.hh"
#include "sim/timing_model.hh"

namespace seqpoint {
namespace nn {
namespace {

TEST(GemmVariant, SuffixFormat)
{
    GemmVariant v{128, 64, 16};
    EXPECT_EQ(gemmKernelForVariant("fc_fwd", 256, 256, 64, v).name(),
              "fc_fwd_MT128x64_K16");
}

TEST(VariantMenu, NonEmptyAndOrdered)
{
    const auto &menu = gemmVariantMenu();
    ASSERT_GE(menu.size(), 4u);
    for (size_t i = 1; i < menu.size(); ++i) {
        EXPECT_LE(menu[i].tileM * menu[i].tileN,
                  menu[i - 1].tileM * menu[i - 1].tileN);
    }
}

TEST(Autotuner, HeuristicCachesPerShape)
{
    Autotuner tuner(Autotuner::Mode::Heuristic);
    const GemmVariant &a = tuner.select(1024, 1024, 256);
    const GemmVariant &b = tuner.select(1024, 1024, 256);
    EXPECT_EQ(&a, &b); // same cached object
    EXPECT_EQ(tuner.cacheSize(), 1u);
    tuner.select(64, 64, 64);
    EXPECT_EQ(tuner.cacheSize(), 2u);
}

TEST(Autotuner, HeuristicHasZeroTuningCost)
{
    Autotuner tuner(Autotuner::Mode::Heuristic);
    tuner.select(512, 512, 512);
    EXPECT_DOUBLE_EQ(tuner.tuningCostSec(), 0.0);
}

TEST(Autotuner, HeuristicPrefersBigTilesForBigGemm)
{
    Autotuner tuner(Autotuner::Mode::Heuristic);
    const GemmVariant &v = tuner.select(4096, 4096, 1024);
    EXPECT_GE(v.tileM * v.tileN, 64u * 64u);
}

TEST(Autotuner, HeuristicAvoidsWasteOnSkinnyGemm)
{
    Autotuner tuner(Autotuner::Mode::Heuristic);
    const GemmVariant &v = tuner.select(4096, 64, 1024);
    // An N-64 GEMM should not pad the N dimension beyond 64.
    EXPECT_LE(v.tileN, 64u);
}

TEST(Autotuner, MeasuredAccruesTuningCost)
{
    sim::Gpu gpu(sim::GpuConfig::config1());
    Autotuner tuner(Autotuner::Mode::Measured, &gpu);
    tuner.select(1024, 1024, 512);
    EXPECT_GT(tuner.tuningCostSec(), 0.0);
    double cost_after_one = tuner.tuningCostSec();
    tuner.select(1024, 1024, 512); // cached: no extra cost
    EXPECT_DOUBLE_EQ(tuner.tuningCostSec(), cost_after_one);
}

TEST(Autotuner, MeasuredPicksFastestCandidate)
{
    sim::Gpu gpu(sim::GpuConfig::config1());
    Autotuner tuner(Autotuner::Mode::Measured, &gpu);
    const GemmVariant &chosen = tuner.select(2048, 2048, 512);

    double chosen_time = gpu.execute(
        gemmKernelForVariant("probe", 2048, 2048, 512, chosen)).timeSec;
    for (const GemmVariant &v : gemmVariantMenu()) {
        double t = gpu.execute(
            gemmKernelForVariant("probe", 2048, 2048, 512, v)).timeSec;
        EXPECT_LE(chosen_time, t + 1e-15) << v.tileM << "x" << v.tileN;
    }
}

TEST(Autotuner, MeasuredProbesBypassTimingMemo)
{
    // Probing times the variants with the timing model directly: the
    // device's memo sees neither a lookup nor an entry, and the
    // choice and its cost are exactly the min and the sum of the
    // per-variant model times.
    sim::Gpu gpu(sim::GpuConfig::config1());
    Autotuner tuner(Autotuner::Mode::Measured, &gpu);
    const int64_t m = 1536, n = 320, k = 768;
    const GemmVariant &chosen = tuner.select(m, n, k);
    EXPECT_EQ(gpu.uniqueKernelsTimed(), 0u);
    EXPECT_EQ(gpu.timingCacheStats().lookups(), 0u);

    double sum = 0.0;
    double best = 0.0;
    const GemmVariant *best_v = nullptr;
    for (const GemmVariant &v : gemmVariantMenu()) {
        double t = sim::timeKernel(
            gemmKernelForVariant("probe", m, n, k, v), gpu.config())
            .timeSec;
        sum += t;
        if (best_v == nullptr || t < best) {
            best = t;
            best_v = &v;
        }
    }
    ASSERT_NE(best_v, nullptr);
    EXPECT_EQ(chosen.tileM, best_v->tileM);
    EXPECT_EQ(chosen.tileN, best_v->tileN);
    EXPECT_EQ(chosen.tileK, best_v->tileK);
    EXPECT_EQ(tuner.tuningCostSec(), sum); // bit-exact
}

TEST(Autotuner, ConcurrentMeasuredSelectMatchesSerial)
{
    // Parallel SL sweeps share one tuner: racing threads that probe
    // overlapping shapes must leave the same choices and the same
    // (shape-key ordered) cost as one thread tuning them in turn.
    std::vector<std::array<int64_t, 3>> shapes;
    for (int64_t i = 1; i <= 12; ++i)
        shapes.push_back({256 * i, 64 * (i % 3 + 1), 512});

    sim::Gpu serial_gpu(sim::GpuConfig::config1());
    Autotuner serial(Autotuner::Mode::Measured, &serial_gpu);
    for (const auto &s : shapes)
        serial.select(s[0], s[1], s[2]);

    sim::Gpu gpu(sim::GpuConfig::config1());
    Autotuner shared(Autotuner::Mode::Measured, &gpu);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            for (size_t i = 0; i < shapes.size(); ++i) {
                const auto &s = shapes[(i + 3 * t) % shapes.size()];
                shared.select(s[0], s[1], s[2]);
            }
        });
    }
    for (std::thread &th : threads)
        th.join();

    EXPECT_EQ(shared.tuningCostSec(), serial.tuningCostSec());
    std::vector<AutotuneEntry> a = shared.snapshotEntries();
    std::vector<AutotuneEntry> b = serial.snapshotEntries();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].variant.tileM, b[i].variant.tileM);
        EXPECT_EQ(a[i].variant.tileN, b[i].variant.tileN);
        EXPECT_EQ(a[i].costSec, b[i].costSec);
    }
    EXPECT_EQ(gpu.uniqueKernelsTimed(), 0u);
}

TEST(Autotuner, ResetClearsCacheAndCost)
{
    sim::Gpu gpu(sim::GpuConfig::config1());
    Autotuner tuner(Autotuner::Mode::Measured, &gpu);
    tuner.select(256, 256, 256);
    tuner.reset();
    EXPECT_EQ(tuner.cacheSize(), 0u);
    EXPECT_DOUBLE_EQ(tuner.tuningCostSec(), 0.0);
}

std::vector<AutotuneEntry>
sampleEntries()
{
    std::vector<AutotuneEntry> v;
    v.push_back({1024, 1024, 256, {128, 128, 16}, 0.0});
    v.push_back({1024, 1024, 512, {128, 64, 16}, 1.5e-3});
    v.push_back({64, 4096, 64, {16, 16, 16}, 2.25e-4});
    v.push_back({2048, 32, 2048, {64, 32, 16}, 7.0});
    v.push_back({-3, 0, 9, {0, 0, 0}, -0.0}); // hostile but encodable
    return v;
}

TEST(AutotuneSection, RoundTripsBitExactly)
{
    std::vector<AutotuneEntry> in = sampleEntries();
    ByteWriter w;
    encodeAutotuneSection(w, in);

    ByteReader r(w.data(), "test-autotune-section");
    std::vector<AutotuneEntry> out = decodeAutotuneSection(r);
    ASSERT_EQ(out.size(), in.size());

    // decode returns canonical (shape-key) order; re-encoding must
    // reproduce the exact bytes.
    ByteWriter w2;
    encodeAutotuneSection(w2, out);
    EXPECT_EQ(w2.data(), w.data());

    // Every input entry survives bit-exactly (costSec included).
    for (const AutotuneEntry &e : in) {
        bool found = false;
        for (const AutotuneEntry &d : out) {
            found |= d.m == e.m && d.n == e.n && d.k == e.k &&
                     d.variant.tileM == e.variant.tileM &&
                     d.variant.tileN == e.variant.tileN &&
                     d.variant.tileK == e.variant.tileK &&
                     std::memcmp(&d.costSec, &e.costSec,
                                 sizeof(double)) == 0;
        }
        EXPECT_TRUE(found) << e.m << "x" << e.n << "x" << e.k;
    }
}

TEST(AutotuneSection, EncodingIsOrderIndependent)
{
    std::vector<AutotuneEntry> in = sampleEntries();
    ByteWriter w;
    encodeAutotuneSection(w, in);

    std::reverse(in.begin(), in.end());
    ByteWriter wr;
    encodeAutotuneSection(wr, in);
    EXPECT_EQ(wr.data(), w.data());
}

TEST(AutotuneSection, EmptyRoundTrips)
{
    ByteWriter w;
    encodeAutotuneSection(w, {});
    ByteReader r(w.data(), "test-autotune-empty");
    EXPECT_TRUE(decodeAutotuneSection(r).empty());
}

TEST(AutotuneSection, PacksTighterThanRawEntries)
{
    std::vector<AutotuneEntry> in;
    for (int i = 0; i < 64; ++i)
        in.push_back({512 + i, 512, 64 * (i % 4 + 1),
                      gemmVariantMenu()[i % gemmVariantMenu().size()],
                      0.0});
    ByteWriter packed;
    encodeAutotuneSection(packed, in);
    ByteWriter raw;
    for (const AutotuneEntry &e : in)
        encodeAutotuneEntry(raw, e);
    EXPECT_LT(packed.data().size(), raw.data().size() / 2);
}

TEST(AutotuneSection, TruncatedPayloadThrowsRecoverable)
{
    ByteWriter w;
    encodeAutotuneSection(w, sampleEntries());
    std::string bytes = w.data();
    bytes.resize(bytes.size() / 2);
    ByteReader r(bytes, "test-autotune-trunc",
                 ByteReader::OnError::Throw);
    EXPECT_THROW(decodeAutotuneSection(r), RecoverableError);
}

TEST(AutotuneSection, HostileCountIsBoundedBeforeAllocation)
{
    // A huge entry count with a near-empty payload must fail on
    // truncation, not allocate by the count.
    ByteWriter w;
    w.u64(uint64_t(1) << 62);
    ByteReader r(w.data(), "test-autotune-count",
                 ByteReader::OnError::Throw);
    EXPECT_THROW(decodeAutotuneSection(r), RecoverableError);
}

TEST(AutotunerDeath, MeasuredRequiresDevice)
{
    EXPECT_DEATH(Autotuner(Autotuner::Mode::Measured, nullptr),
                 "device");
}

TEST(AutotunerDeath, RejectsBadDims)
{
    Autotuner tuner(Autotuner::Mode::Heuristic);
    EXPECT_DEATH(tuner.select(0, 10, 10), "non-positive");
}

} // anonymous namespace
} // namespace nn
} // namespace seqpoint
