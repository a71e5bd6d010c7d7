/**
 * @file
 * Tests for the analytical cache model, including cross-validation
 * against the trace-driven cache simulator.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/rng.hh"
#include "common/units.hh"
#include "sim/access_gen.hh"
#include "sim/cache_model.hh"
#include "sim/cache_sim.hh"

namespace seqpoint {
namespace sim {
namespace {

TEST(CapacityHitFraction, FullReuseWhenFits)
{
    EXPECT_DOUBLE_EQ(capacityHitFraction(0.8, 1000.0, 2000.0), 0.8);
    EXPECT_DOUBLE_EQ(capacityHitFraction(0.8, 2000.0, 2000.0), 0.8);
}

TEST(CapacityHitFraction, PowerLawDecayBeyondCapacity)
{
    double h = capacityHitFraction(0.8, 4000.0, 1000.0, 0.5);
    EXPECT_NEAR(h, 0.8 * 0.5, 1e-12); // (1/4)^0.5 = 0.5
}

TEST(CapacityHitFraction, ZeroCapacityMeansNoHits)
{
    EXPECT_DOUBLE_EQ(capacityHitFraction(0.8, 100.0, 0.0), 0.0);
}

TEST(CapacityHitFraction, MonotoneInCapacity)
{
    double prev = 0.0;
    for (double cap = 1000.0; cap <= 64000.0; cap *= 2.0) {
        double h = capacityHitFraction(0.9, 100000.0, cap);
        EXPECT_GE(h, prev);
        prev = h;
    }
}

TEST(MemoryBreakdown, ConservesBytes)
{
    KernelDesc k = makeElementwise("ew", 1e6, 1.0, 2.0, 1.0);
    GpuConfig cfg = GpuConfig::config1();
    MemoryBreakdown mb = evalMemoryBreakdown(k, cfg);
    EXPECT_NEAR(mb.l1Bytes + mb.l2Bytes + mb.dramBytes,
                k.totalBytes(), 1.0);
}

TEST(MemoryBreakdown, DisabledL1SendsTrafficDown)
{
    KernelDesc k = makeElementwise("ew", 1e5, 1.0, 2.0, 1.0);
    k.reuseL1 = 0.5;
    k.workingSetL1 = 1000.0; // easily fits

    MemoryBreakdown with_l1 =
        evalMemoryBreakdown(k, GpuConfig::config1());
    MemoryBreakdown no_l1 = evalMemoryBreakdown(k, GpuConfig::config4());

    EXPECT_GT(with_l1.l1Bytes, 0.0);
    EXPECT_DOUBLE_EQ(no_l1.l1Bytes, 0.0);
    EXPECT_GT(no_l1.l2Bytes + no_l1.dramBytes,
              with_l1.l2Bytes + with_l1.dramBytes - 1.0);
}

TEST(MemoryBreakdown, DisabledL2SendsTrafficToDram)
{
    KernelDesc k = makeElementwise("ew", 1e5, 1.0, 2.0, 1.0);
    MemoryBreakdown no_l2 = evalMemoryBreakdown(k, GpuConfig::config5());
    EXPECT_DOUBLE_EQ(no_l2.l2Bytes, 0.0);
    EXPECT_GT(no_l2.dramBytes,
              evalMemoryBreakdown(k, GpuConfig::config1()).dramBytes);
}

/**
 * Cross-validation of the analytical capacity law against the
 * trace-driven simulator on a hot/cold access mix. At the exact
 * capacity == working-set boundary LRU churn from the cold stream
 * keeps the measured rate below the law's optimistic value, so the
 * validation asserts the physically meaningful structure: hit rate is
 * monotone in capacity, approaches the intrinsic reuse once capacity
 * comfortably exceeds the hot set, and collapses when capacity is a
 * small fraction of it. Away from the boundary the law also tracks
 * the measurement numerically.
 */
TEST(CacheModelValidation, PowerLawTracksSimulatorOnHotCold)
{
    const uint64_t hot = kib(64);
    const uint64_t cold = mib(8);
    const double hot_frac = 0.6;

    auto measure = [&](uint64_t cap_bytes) {
        CacheSim cache(cap_bytes, 8, 64);
        Rng rng(99);
        return measureHitRate(cache, genHotColdSegments(200000, hot,
                                                        cold, hot_frac,
                                                        rng));
    };

    // Monotone in capacity.
    double prev = -1.0;
    for (uint64_t cap_kib : {16, 32, 64, 128, 256, 512}) {
        double m = measure(kib(cap_kib));
        EXPECT_GE(m, prev - 0.02) << cap_kib;
        prev = m;
    }

    // Asymptote: 8x the hot set captures (nearly) all hot reuse.
    double big = measure(kib(512));
    EXPECT_NEAR(big, hot_frac, 0.08);

    // Far below capacity the power law is the right order: at cap =
    // hot/4, predicted = 0.6 * 0.25^p; measured should sit within a
    // factor-2 band of the p = 1 prediction.
    double small = measure(kib(16));
    double predicted_small = capacityHitFraction(hot_frac,
        static_cast<double>(hot), static_cast<double>(kib(16)), 1.0);
    EXPECT_GT(small, predicted_small * 0.4);
    EXPECT_LT(small, predicted_small * 2.5);
}

TEST(CacheModelValidation, StreamingHasNoReuse)
{
    CacheSim cache(kib(16), 4, 64);
    double measured =
        measureHitRate(cache, genStreamingSegments(mib(4), 64));
    EXPECT_LT(measured, 0.01);
}

TEST(CacheModelValidation, BlockedGemmReusesInLargeCache)
{
    // A 256x256x256 GEMM walked in 64-tiles against a cache large
    // enough for the panels shows substantial reuse; a tiny cache
    // keeps only the intra-line spatial hits of the element-granular
    // panel-row walks and misses several times more often.
    SegmentList gemm = genBlockedGemmSegments(256, 256, 256, 64);
    CacheSim big(mib(4), 16, 64);
    double hit_big = measureHitRate(big, gemm);

    CacheSim small(kib(8), 4, 64);
    double hit_small = measureHitRate(small, gemm);

    EXPECT_GT(hit_big, hit_small);
    EXPECT_GT(1.0 - hit_small, 2.0 * (1.0 - hit_big));
}

/** One cache-capacity ablation measurement and its exact counts. */
struct AblationCase {
    uint64_t capKib;       ///< Capacity (8-way, 64 B lines).
    const char *stream;    ///< "stream", "gemm" or "hotcold".
    CacheStats want;       ///< Exact oracle statistics.
};

/** The ablation's stream of the given class (bench/ablation_sweeps). */
SegmentList
ablationStream(const std::string &name)
{
    if (name == "stream")
        return genStreamingSegments(mib(4), 64);
    if (name == "gemm")
        return genBlockedGemmSegments(256, 256, 256, 64);
    Rng rng(99);
    return genHotColdSegments(100000, kib(64), mib(8), 0.6, rng);
}

class CacheCapacityAblation : public testing::TestWithParam<AblationCase>
{};

/**
 * Golden counts for the cache-capacity ablation's streams at its
 * smallest and largest capacity: any change to the oracle's LRU,
 * write-back or set mapping, or to the generators, moves them.
 */
TEST_P(CacheCapacityAblation, OracleCountsArePinned)
{
    const AblationCase &c = GetParam();
    CacheSim cache(kib(c.capKib), 8, 64);
    measureHitRate(cache, ablationStream(c.stream));
    EXPECT_EQ(cache.stats(), c.want)
        << c.stream << " @ " << c.capKib << " KiB: hits "
        << cache.stats().hits << " / " << cache.stats().accesses;
}

// Fields: accesses, hits, misses, evictions, writebacks.
INSTANTIATE_TEST_SUITE_P(
    Golden, CacheCapacityAblation,
    testing::Values(
        AblationCase{16, "stream", {65536, 0, 65536, 65280, 0}},
        AblationCase{16, "gemm", {393216, 368640, 24576, 24320, 4032}},
        AblationCase{16, "hotcold", {100000, 8779, 91221, 90965, 0}},
        AblationCase{512, "stream", {65536, 0, 65536, 57344, 0}},
        AblationCase{512, "gemm", {393216, 384000, 9216, 1024, 512}},
        AblationCase{512, "hotcold", {100000, 61022, 38978, 30786, 0}}),
    [](const testing::TestParamInfo<AblationCase> &info) {
        return std::string(info.param.stream) + "_" +
            std::to_string(info.param.capKib) + "KiB";
    });

} // anonymous namespace
} // namespace sim
} // namespace seqpoint
