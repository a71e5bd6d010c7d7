/**
 * @file
 * Set-associative cache simulator implementation.
 */

#include "sim/cache_sim.hh"

#include <bit>

#include "common/logging.hh"

namespace seqpoint {
namespace sim {

double
CacheStats::hitRate() const
{
    return accesses ? static_cast<double>(hits) /
        static_cast<double>(accesses) : 0.0;
}

CacheSim::CacheSim(uint64_t size_bytes, unsigned ways, unsigned line_bytes)
    : size(size_bytes), assoc(ways), lineBytes(line_bytes)
{
    panic_if(ways == 0, "CacheSim: zero associativity");
    panic_if(line_bytes == 0 || (line_bytes & (line_bytes - 1)) != 0,
             "CacheSim: line size must be a power of two");
    panic_if(size_bytes == 0, "CacheSim: zero capacity");
    panic_if(size_bytes % (static_cast<uint64_t>(line_bytes) * ways) != 0,
             "CacheSim: capacity not divisible by line*ways");

    lineShift = static_cast<unsigned>(std::countr_zero(line_bytes));
    sets = size_bytes / (static_cast<uint64_t>(line_bytes) * ways);
    tags.assign(sets * ways, 0);
    lastUse.assign(sets * ways, 0);
    flags.assign(sets * ways, 0);
}

bool
CacheSim::access(uint64_t addr, bool write)
{
    ++stats_.accesses;
    ++useClock;

    uint64_t line_addr = addr >> lineShift;
    uint64_t set = line_addr % sets;
    uint64_t tag = line_addr / sets;
    std::size_t base = static_cast<std::size_t>(set) * assoc;

    // Probe for a hit.
    for (unsigned w = 0; w < assoc; ++w) {
        std::size_t i = base + w;
        if ((flags[i] & kValid) && tags[i] == tag) {
            lastUse[i] = useClock;
            if (write)
                flags[i] |= kDirty;
            ++stats_.hits;
            return true;
        }
    }

    ++stats_.misses;

    // Choose a victim: an invalid way, else true-LRU. Invalid lines
    // keep lastUse == 0 (valid lines are always >= 1), so a single
    // first-minimum pass picks the first invalid way when one exists
    // and the true-LRU way otherwise.
    std::size_t victim = base;
    uint64_t victim_use = (flags[base] & kValid) ? lastUse[base] : 0;
    for (unsigned w = 1; w < assoc; ++w) {
        std::size_t i = base + w;
        uint64_t use = (flags[i] & kValid) ? lastUse[i] : 0;
        if (use < victim_use) {
            victim = i;
            victim_use = use;
        }
    }

    if (flags[victim] & kValid) {
        ++stats_.evictions;
        if (flags[victim] & kDirty)
            ++stats_.writebacks;
    }

    tags[victim] = tag;
    lastUse[victim] = useClock;
    flags[victim] = static_cast<uint8_t>(kValid | (write ? kDirty : 0));
    return false;
}

void
CacheSim::reset()
{
    tags.assign(tags.size(), 0);
    lastUse.assign(lastUse.size(), 0);
    flags.assign(flags.size(), 0);
    useClock = 0;
    stats_ = CacheStats{};
}

} // namespace sim
} // namespace seqpoint
