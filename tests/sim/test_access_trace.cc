/**
 * @file
 * Tests for the segment-descriptor access stream (SegmentList): the
 * add() folding rules, the add()/replay() round trip, the generators'
 * stream shapes, and its replay through the cache oracle.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/units.hh"
#include "sim/access_gen.hh"

namespace seqpoint {
namespace sim {
namespace {

using Access = std::pair<uint64_t, bool>;

/** Expand a list to its per-access sequence. */
std::vector<Access>
expand(const SegmentList &list)
{
    std::vector<Access> out;
    list.replay([&](uint64_t a, bool w) { out.emplace_back(a, w); });
    return out;
}

/** Fold a per-access sequence into a list through add(). */
SegmentList
fold(const std::vector<Access> &accesses)
{
    SegmentList list;
    for (const Access &a : accesses)
        list.add(a.first, a.second);
    return list;
}

TEST(SegmentList, AddReplayRoundTripsArbitraryStreams)
{
    // A random hot/cold mix, a blocked GEMM and a direction + stride
    // flip, folded access by access: the list must expand back to
    // exactly the sequence it was built from.
    std::vector<Access> stream;
    Rng rng(3, 0xabcd);
    for (const SegmentList &part :
         {genHotColdSegments(500, kib(4), kib(64), 0.5, rng),
          genBlockedGemmSegments(32, 32, 32, 16)}) {
        for (const Access &a : expand(part))
            stream.push_back(a);
    }
    stream.emplace_back(100, true);
    stream.emplace_back(36, false);

    SegmentList list = fold(stream);
    EXPECT_EQ(list.accesses(), stream.size());
    EXPECT_LT(list.size(), stream.size());
    EXPECT_EQ(expand(list), stream);
}

TEST(SegmentList, AddFoldsEdgeShapes)
{
    // Zero-length stream.
    EXPECT_TRUE(fold({}).empty());

    // Single access: one count-1 run.
    SegmentList single = fold({{0x1000, true}});
    ASSERT_EQ(single.size(), 1u);
    EXPECT_EQ(single.segments()[0], (SegDesc{0x1000, 0, 1, true}));

    // Direction flip splits runs even on a perfect stride.
    SegmentList flipped =
        fold({{0, false}, {64, false}, {128, true}, {192, true}});
    ASSERT_EQ(flipped.size(), 2u);
    EXPECT_EQ(flipped.segments()[0], (SegDesc{0, 64, 2, false}));
    EXPECT_EQ(flipped.segments()[1], (SegDesc{128, 64, 2, true}));

    // Descending and zero strides fold into single runs.
    std::vector<Access> desc;
    for (int a = 512; a >= 0; a -= 64)
        desc.emplace_back(static_cast<uint64_t>(a), false);
    SegmentList descending = fold(desc);
    ASSERT_EQ(descending.size(), 1u);
    EXPECT_EQ(descending.segments()[0].stride, -64);
    EXPECT_EQ(expand(descending), desc);

    std::vector<Access> same(5, Access{0x40, false});
    SegmentList repeated = fold(same);
    ASSERT_EQ(repeated.size(), 1u);
    EXPECT_EQ(repeated.segments()[0], (SegDesc{0x40, 0, 5, false}));
}

TEST(SegmentList, StreamingIsOneDescriptor)
{
    SegmentList list = genStreamingSegments(4096, 64);
    ASSERT_EQ(list.size(), 1u);
    EXPECT_EQ(list.accesses(), 4096u / 64u);
    EXPECT_EQ(list.segments()[0].addr(1), 64u);
}

TEST(SegmentList, MeasureHitRateReplaysOnAResetCache)
{
    // The same stream measured twice on one cache reads the same
    // statistics (the second measurement starts cold too), and the
    // statistics cover every access of the stream.
    SegmentList gemm = genBlockedGemmSegments(256, 256, 128, 64);
    CacheSim cache(16 * 1024, 4, 64);
    double first = measureHitRate(cache, gemm);
    CacheStats stats = cache.stats();
    EXPECT_EQ(stats.accesses, gemm.accesses());
    EXPECT_EQ(measureHitRate(cache, gemm), first);
    EXPECT_EQ(cache.stats(), stats);

    // It matches feeding the oracle access by access.
    CacheSim direct(16 * 1024, 4, 64);
    gemm.replay([&](uint64_t a, bool w) { direct.access(a, w); });
    EXPECT_EQ(direct.stats(), stats);

    // An empty stream measures nothing.
    EXPECT_EQ(measureHitRate(cache, SegmentList{}), 0.0);
    EXPECT_EQ(cache.stats(), CacheStats{});

    // Hit rate grows with capacity on one stream.
    double prev = -1.0;
    for (uint64_t kb : {4u, 16u, 64u}) {
        CacheSim sized(kb * 1024, 4, 64);
        double rate = measureHitRate(sized, gemm);
        EXPECT_GE(rate, prev);
        prev = rate;
    }
}

} // anonymous namespace
} // namespace sim
} // namespace seqpoint
