/**
 * @file
 * Snapshot codecs for kernel-timing memo entries (one entry and the
 * packed timing section). Kept apart from the memo itself so that the
 * codec-pin lint, which hashes this file whole, only sees wire-format
 * changes.
 */

#include "sim/timing_cache.hh"

#include <algorithm>
#include <cstring>
#include <tuple>

#include "common/strutil.hh"

namespace seqpoint {
namespace sim {

void
encodeTimingCacheEntry(ByteWriter &w, const TimingCacheEntry &e)
{
    w.u32(static_cast<uint32_t>(e.sig.klass));
    w.f64(e.sig.flops);
    w.f64(e.sig.bytesIn);
    w.f64(e.sig.bytesOut);
    w.f64(e.sig.workingSetL1);
    w.f64(e.sig.workingSetL2);
    w.f64(e.sig.workItems);
    w.i64(e.sig.gemmM);
    w.i64(e.sig.gemmN);
    w.i64(e.sig.gemmK);
    w.f64(e.sig.effScale);
    w.f64(e.sig.reuseL1);
    w.f64(e.sig.reuseL2);
    w.f64(e.timing.timeSec);
    w.f64(e.timing.computeSec);
    w.f64(e.timing.memorySec);
    w.b(e.timing.memoryBound);
    encodeCounters(w, e.timing.counters);
}

TimingCacheEntry
decodeTimingCacheEntry(ByteReader &r)
{
    TimingCacheEntry e;
    uint32_t klass = r.u32();
    if (klass >= numKernelClasses) {
        r.fail(csprintf(
            "%s: invalid kernel class %u in timing-cache entry",
            r.what().c_str(), klass));
    }
    e.sig.klass = static_cast<KernelClass>(klass);
    e.sig.flops = r.f64();
    e.sig.bytesIn = r.f64();
    e.sig.bytesOut = r.f64();
    e.sig.workingSetL1 = r.f64();
    e.sig.workingSetL2 = r.f64();
    e.sig.workItems = r.f64();
    e.sig.gemmM = r.i64();
    e.sig.gemmN = r.i64();
    e.sig.gemmK = r.i64();
    e.sig.effScale = r.f64();
    e.sig.reuseL1 = r.f64();
    e.sig.reuseL2 = r.f64();
    e.timing.timeSec = r.f64();
    e.timing.computeSec = r.f64();
    e.timing.memorySec = r.f64();
    e.timing.memoryBound = r.b();
    e.timing.counters = decodeCounters(r);
    return e;
}

namespace {

/** Bit-pattern image of a double: a deterministic total order. */
inline uint64_t
orderBits(double d)
{
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
}

/**
 * Canonical signature order for the compact section: kernel class,
 * GEMM shape, then every descriptor double by bit pattern. The
 * signature fields are non-negative in practice, so bit-pattern
 * order matches value order while staying total (and deterministic)
 * for any input.
 */
bool
signatureLess(const TimingCacheEntry &a, const TimingCacheEntry &b)
{
    const KernelSignature &x = a.sig, &y = b.sig;
    auto key = [](const KernelSignature &s) {
        return std::tuple(static_cast<unsigned>(s.klass), s.gemmM,
                          s.gemmN, s.gemmK, orderBits(s.flops),
                          orderBits(s.bytesIn), orderBits(s.bytesOut),
                          orderBits(s.workingSetL1),
                          orderBits(s.workingSetL2),
                          orderBits(s.workItems),
                          orderBits(s.effScale), orderBits(s.reuseL1),
                          orderBits(s.reuseL2));
    };
    return key(x) < key(y);
}

} // anonymous namespace

void
encodeTimingSection(ByteWriter &w,
                    const std::vector<TimingCacheEntry> &entries)
{
    std::vector<const TimingCacheEntry *> order;
    order.reserve(entries.size());
    // seqlint:canonical-order -- `entries` is the caller's vector
    // (any order); the sort below canonicalises before encoding.
    for (const TimingCacheEntry &e : entries)
        order.push_back(&e);
    std::sort(order.begin(), order.end(),
              [](const TimingCacheEntry *a, const TimingCacheEntry *b) {
                  return signatureLess(*a, *b);
              });

    w.u64(order.size());
    TimingCacheEntry prev; // zero deltas for the first entry
    for (const TimingCacheEntry *ep : order) {
        const TimingCacheEntry &e = *ep;
        w.u8(static_cast<uint8_t>(e.sig.klass));
        w.vi64(e.sig.gemmM - prev.sig.gemmM);
        w.vi64(e.sig.gemmN - prev.sig.gemmN);
        w.vi64(e.sig.gemmK - prev.sig.gemmK);
        w.f64Packed(e.sig.flops, prev.sig.flops);
        w.f64Packed(e.sig.bytesIn, prev.sig.bytesIn);
        w.f64Packed(e.sig.bytesOut, prev.sig.bytesOut);
        w.f64Packed(e.sig.workingSetL1, prev.sig.workingSetL1);
        w.f64Packed(e.sig.workingSetL2, prev.sig.workingSetL2);
        w.f64Packed(e.sig.workItems, prev.sig.workItems);
        w.f64Packed(e.sig.effScale, prev.sig.effScale);
        w.f64Packed(e.sig.reuseL1, prev.sig.reuseL1);
        w.f64Packed(e.sig.reuseL2, prev.sig.reuseL2);
        w.f64Packed(e.timing.timeSec, prev.timing.timeSec);
        w.f64Packed(e.timing.computeSec, prev.timing.computeSec);
        w.f64Packed(e.timing.memorySec, prev.timing.memorySec);
        w.b(e.timing.memoryBound);
        encodeCountersPacked(w, e.timing.counters,
                             prev.timing.counters);
        prev = e;
    }
}

std::vector<TimingCacheEntry>
decodeTimingSection(ByteReader &r)
{
    uint64_t n = r.u64();
    std::vector<TimingCacheEntry> out;
    // Bound the up-front allocation by what the payload could
    // possibly hold: an entry is at least 26 wire bytes (class byte,
    // three 1-byte varints, 22 tag bytes), so a crafted count can
    // never amplify a small file into a huge reserve -- it runs into
    // the reader's truncation fatal instead.
    out.reserve(static_cast<size_t>(
        std::min<uint64_t>(n, r.remaining() / 26)));
    TimingCacheEntry prev;
    for (uint64_t i = 0; i < n; ++i) {
        TimingCacheEntry e;
        uint8_t klass = r.u8();
        if (klass >= numKernelClasses) {
            r.fail(csprintf(
                "%s: invalid kernel class %u in timing section",
                r.what().c_str(), klass));
        }
        e.sig.klass = static_cast<KernelClass>(klass);
        // addWrap: corrupted deltas must not overflow into UB.
        e.sig.gemmM = addWrap(prev.sig.gemmM, r.vi64());
        e.sig.gemmN = addWrap(prev.sig.gemmN, r.vi64());
        e.sig.gemmK = addWrap(prev.sig.gemmK, r.vi64());
        e.sig.flops = r.f64Packed(prev.sig.flops);
        e.sig.bytesIn = r.f64Packed(prev.sig.bytesIn);
        e.sig.bytesOut = r.f64Packed(prev.sig.bytesOut);
        e.sig.workingSetL1 = r.f64Packed(prev.sig.workingSetL1);
        e.sig.workingSetL2 = r.f64Packed(prev.sig.workingSetL2);
        e.sig.workItems = r.f64Packed(prev.sig.workItems);
        e.sig.effScale = r.f64Packed(prev.sig.effScale);
        e.sig.reuseL1 = r.f64Packed(prev.sig.reuseL1);
        e.sig.reuseL2 = r.f64Packed(prev.sig.reuseL2);
        e.timing.timeSec = r.f64Packed(prev.timing.timeSec);
        e.timing.computeSec = r.f64Packed(prev.timing.computeSec);
        e.timing.memorySec = r.f64Packed(prev.timing.memorySec);
        e.timing.memoryBound = r.b();
        e.timing.counters =
            decodeCountersPacked(r, prev.timing.counters);
        out.push_back(e);
        prev = e;
    }
    return out;
}

} // namespace sim
} // namespace seqpoint
