/**
 * @file
 * Synthetic address-stream generators.
 */

#include "sim/access_gen.hh"

#include <algorithm>

#include "common/logging.hh"

namespace seqpoint {
namespace sim {

void
SegmentList::addRun(const SegDesc &seg)
{
    panic_if(seg.count == 0, "SegmentList: empty run");
    segs.push_back(seg);
    total += seg.count;
}

void
SegmentList::add(uint64_t addr, bool write)
{
    ++total;
    if (!segs.empty()) {
        SegDesc &last = segs.back();
        if (last.write == write) {
            if (last.count == 1) {
                // The second access fixes the run's stride.
                last.stride = static_cast<int64_t>(addr) -
                    static_cast<int64_t>(last.firstAddr);
                last.count = 2;
                return;
            }
            if (addr == last.addr(last.count)) {
                ++last.count;
                return;
            }
        }
    }
    segs.push_back(SegDesc{addr, 0, 1, write});
}

void
SegmentList::replay(const AccessSink &sink) const
{
    for (const SegDesc &seg : segs)
        for (uint64_t i = 0; i < seg.count; ++i)
            sink(seg.addr(i), seg.write);
}

SegmentList
genStreamingSegments(uint64_t bytes, unsigned stride)
{
    panic_if(stride < 4, "genStreaming: stride below element size");
    SegmentList list;
    uint64_t count = (bytes + stride - 1) / stride;
    if (count > 0)
        list.addRun(0, stride, count, false);
    return list;
}

SegmentList
genBlockedGemmSegments(uint64_t m, uint64_t n, uint64_t k, unsigned tile)
{
    panic_if(tile == 0, "genBlockedGemm: zero tile");
    constexpr uint64_t elem = 4;
    constexpr uint64_t kblock = 64; ///< K elements per inner block.
    constexpr int64_t step = elem;  ///< Element-granular walks.
    // Address map: A at 0, B after A, C after B.
    uint64_t base_a = 0;
    uint64_t base_b = m * k * elem;
    uint64_t base_c = base_b + k * n * elem;

    uint64_t mt = (m + tile - 1) / tile;
    uint64_t nt = (n + tile - 1) / tile;

    SegmentList list;
    for (uint64_t bi = 0; bi < mt; ++bi) {
        for (uint64_t bj = 0; bj < nt; ++bj) {
            uint64_t i_end = std::min<uint64_t>((bi + 1) * tile, m);
            uint64_t j_end = std::min<uint64_t>((bj + 1) * tile, n);
            uint64_t j_cnt = j_end - bj * tile;
            // Walk the K dimension in blocks: re-read the A panel
            // row by row, stream the B panel rows (every 4th row,
            // modelling the unrolled k loop). The walks themselves
            // are element-granular -- one descriptor per panel row,
            // whatever the element count.
            for (uint64_t kk0 = 0; kk0 < k; kk0 += kblock) {
                uint64_t kb_end = std::min<uint64_t>(kk0 + kblock, k);
                for (uint64_t i = bi * tile; i < i_end; ++i)
                    list.addRun(base_a + (i * k + kk0) * elem, step,
                                kb_end - kk0, false);
                for (uint64_t kk = kk0; kk < kb_end; kk += 4)
                    list.addRun(base_b + (kk * n + bj * tile) * elem,
                                step, j_cnt, false);
            }
            for (uint64_t i = bi * tile; i < i_end; ++i)
                list.addRun(base_c + (i * n + bj * tile) * elem, step,
                            j_cnt, true);
        }
    }
    return list;
}

SegmentList
genHotColdSegments(uint64_t accesses, uint64_t hot_bytes,
                   uint64_t cold_bytes, double hot_frac, Rng &rng)
{
    panic_if(hot_frac < 0.0 || hot_frac > 1.0,
             "genHotCold: hot_frac out of [0,1]");
    panic_if(hot_bytes < 64 || cold_bytes < 64,
             "genHotCold: regions too small");
    SegmentList list;
    for (uint64_t i = 0; i < accesses; ++i) {
        bool hot = rng.uniformDouble() < hot_frac;
        uint64_t region = hot ? hot_bytes : cold_bytes;
        uint64_t offset = hot ? 0 : hot_bytes;
        uint64_t addr = offset + static_cast<uint64_t>(
            rng.uniformInt(0, static_cast<int64_t>(region / 64 - 1))) * 64;
        list.add(addr, false);
    }
    return list;
}

double
measureHitRate(CacheSim &cache, const SegmentList &list)
{
    cache.reset();
    list.replay([&](uint64_t a, bool w) { cache.access(a, w); });
    return cache.stats().hitRate();
}

} // namespace sim
} // namespace seqpoint
