/**
 * @file
 * Synthetic address-stream generators that mimic the memory behaviour
 * of the kernel classes the lowering library emits. Together with
 * CacheSim these validate the analytical cache model: the test suite
 * drives the same working sets through both and checks the hit-rate
 * power law.
 *
 * Streams are SegmentLists of segment descriptors -- (firstAddr,
 * stride, count, write) stride runs -- which the generators emit in
 * O(segments) and measureHitRate() expands access by access.
 */

#ifndef SEQPOINT_SIM_ACCESS_GEN_HH
#define SEQPOINT_SIM_ACCESS_GEN_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hh"
#include "sim/cache_sim.hh"

namespace seqpoint {
namespace sim {

/** Callback invoked for each generated access. */
using AccessSink = std::function<void(uint64_t addr, bool write)>;

/**
 * One segment descriptor: `count` accesses at
 * `firstAddr + i * stride` (i = 0..count-1), all with the same
 * read/write direction: a stride run, a repeated address (stride 0),
 * or a lone access (count 1).
 */
struct SegDesc {
    uint64_t firstAddr = 0; ///< Address of the first access.
    int64_t stride = 0;     ///< Signed byte stride between accesses.
    uint64_t count = 0;     ///< Number of accesses.
    bool write = false;     ///< Uniform access direction.

    /** @return Address of access i (i < count). */
    uint64_t addr(uint64_t i) const
    {
        return firstAddr +
            static_cast<uint64_t>(stride) * i; // wraps consistently
    }

    /** Field-wise equality. */
    bool operator==(const SegDesc &other) const = default;
};

/**
 * A compact access stream: a sequence of segment descriptors, each a
 * stride run. The incremental add() builder folds an arbitrary
 * access-by-access stream into maximal stride runs greedily, so a
 * SegmentList expands to exactly the access sequence it was built
 * from -- compression never changes replay semantics, only the
 * stream's size.
 */
class SegmentList
{
  public:
    /** Append one run descriptor (no merging; count may not be 0). */
    void addRun(const SegDesc &seg);

    /** Append a run by parts (convenience over addRun()). */
    void addRun(uint64_t first_addr, int64_t stride, uint64_t count,
                bool write)
    {
        addRun(SegDesc{first_addr, stride, count, write});
    }

    /**
     * Append one access, extending the trailing run when the address
     * continues its stride pattern (same direction flag; the second
     * access of a run fixes its stride). O(1).
     */
    void add(uint64_t addr, bool write);

    /** @return The run descriptors in stream order. */
    const std::vector<SegDesc> &segments() const { return segs; }

    /** @return Number of descriptors. */
    std::size_t size() const { return segs.size(); }

    /** @return True when no accesses were recorded. */
    bool empty() const { return segs.empty(); }

    /** @return Total accesses across all descriptors. */
    uint64_t accesses() const { return total; }

    /** Invoke `sink` for every access, in stream order. */
    void replay(const AccessSink &sink) const;

  private:
    std::vector<SegDesc> segs;
    uint64_t total = 0;
};

/**
 * Streaming access pattern: touch `bytes` bytes once, sequentially,
 * with `stride` between consecutive 4-byte elements. One descriptor.
 *
 * @param bytes Footprint in bytes.
 * @param stride Element stride in bytes (>= 4).
 */
SegmentList genStreamingSegments(uint64_t bytes, unsigned stride);

/**
 * Blocked-GEMM access pattern as segment descriptors: walk C tiles;
 * for each tile, walk the K dimension in blocks, re-reading the A
 * panel row by row and streaming B panel rows (element granularity,
 * 4 bytes, sampled every 4 elements), then store the C tile. The A
 * panel re-walks across the bj tiles and the B panel re-walks across
 * the bi tiles are what give a blocked GEMM its cache reuse.
 *
 * O(segments): one descriptor per panel-row walk, never a
 * materialized access.
 *
 * @param m Rows of A/C.
 * @param n Cols of B/C.
 * @param k Inner dimension.
 * @param tile Tile edge in elements (e.g. 64).
 */
SegmentList genBlockedGemmSegments(uint64_t m, uint64_t n, uint64_t k,
                                   unsigned tile);

/**
 * Hot/cold mixture: a fraction `hot_frac` of accesses target a
 * `hot_bytes` region (temporal locality), the rest sweep a large cold
 * region. Models embedding-table lookups. Random addresses have no
 * stride structure, so the descriptors are (mostly) short runs.
 *
 * @param accesses Number of accesses to generate.
 * @param hot_bytes Size of the hot region.
 * @param cold_bytes Size of the cold region.
 * @param hot_frac Fraction of accesses landing in the hot region.
 * @param rng Random source.
 */
SegmentList genHotColdSegments(uint64_t accesses, uint64_t hot_bytes,
                               uint64_t cold_bytes, double hot_frac,
                               Rng &rng);

/**
 * Replay a stream through a cache access by access and return its
 * hit rate.
 *
 * @param cache Cache to exercise (reset first; its stats() hold the
 *              full replay's statistics afterwards).
 * @param list Stream to replay.
 * @return Hit rate observed over the whole stream.
 */
double measureHitRate(CacheSim &cache, const SegmentList &list);

} // namespace sim
} // namespace seqpoint

#endif // SEQPOINT_SIM_ACCESS_GEN_HH
