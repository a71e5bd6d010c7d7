/**
 * @file
 * Snapshot codecs for frozen autotune decisions (one entry and the
 * packed tuner section). Kept apart from the tuner itself so that the
 * codec-pin lint, which hashes this file whole, only sees wire-format
 * changes.
 */

#include "nn/autotune.hh"

#include <algorithm>
#include <cstring>
#include <tuple>

namespace seqpoint {
namespace nn {

void
encodeAutotuneEntry(ByteWriter &w, const AutotuneEntry &e)
{
    w.i64(e.m);
    w.i64(e.n);
    w.i64(e.k);
    w.u32(e.variant.tileM);
    w.u32(e.variant.tileN);
    w.u32(e.variant.tileK);
    w.f64(e.costSec);
}

AutotuneEntry
decodeAutotuneEntry(ByteReader &r)
{
    AutotuneEntry e;
    e.m = r.i64();
    e.n = r.i64();
    e.k = r.i64();
    e.variant.tileM = r.u32();
    e.variant.tileN = r.u32();
    e.variant.tileK = r.u32();
    e.costSec = r.f64();
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
 * Canonical order for the packed section: the tuner's shape key,
 * then the variant and cost so the order is total for any input
 * (snapshotEntries() never repeats a shape, but the codec must be
 * canonical for whatever the fuzzer decodes).
 */
bool
entryLess(const AutotuneEntry &a, const AutotuneEntry &b)
{
    auto key = [](const AutotuneEntry &e) {
        return std::tuple(e.m, e.n, e.k, e.variant.tileM,
                          e.variant.tileN, e.variant.tileK,
                          orderBits(e.costSec));
    };
    return key(a) < key(b);
}

} // anonymous namespace

void
encodeAutotuneSection(ByteWriter &w,
                      const std::vector<AutotuneEntry> &entries)
{
    std::vector<const AutotuneEntry *> order;
    order.reserve(entries.size());
    // seqlint:canonical-order -- `entries` is the caller's vector
    // (any order); the sort below canonicalises before encoding.
    for (const AutotuneEntry &e : entries)
        order.push_back(&e);
    std::sort(order.begin(), order.end(),
              [](const AutotuneEntry *a, const AutotuneEntry *b) {
                  return entryLess(*a, *b);
              });

    w.u64(order.size());
    AutotuneEntry prev; // zero deltas for the first entry
    for (const AutotuneEntry *ep : order) {
        const AutotuneEntry &e = *ep;
        w.vi64(e.m - prev.m);
        w.vi64(e.n - prev.n);
        w.vi64(e.k - prev.k);
        w.vi64(static_cast<int64_t>(e.variant.tileM) -
               static_cast<int64_t>(prev.variant.tileM));
        w.vi64(static_cast<int64_t>(e.variant.tileN) -
               static_cast<int64_t>(prev.variant.tileN));
        w.vi64(static_cast<int64_t>(e.variant.tileK) -
               static_cast<int64_t>(prev.variant.tileK));
        w.f64Packed(e.costSec, prev.costSec);
        prev = e;
    }
}

std::vector<AutotuneEntry>
decodeAutotuneSection(ByteReader &r)
{
    uint64_t n = r.u64();
    std::vector<AutotuneEntry> out;
    // Bound the up-front allocation by what the payload could
    // possibly hold: an entry is at least 7 wire bytes (six 1-byte
    // varints plus the cost tag byte), so a crafted count can never
    // amplify a small file into a huge reserve -- it runs into the
    // reader's truncation error instead.
    out.reserve(static_cast<size_t>(
        std::min<uint64_t>(n, r.remaining() / 7)));
    AutotuneEntry prev;
    for (uint64_t i = 0; i < n; ++i) {
        AutotuneEntry e;
        // addWrap: corrupted deltas must not overflow into UB. The
        // tile fields reconstruct through the same wrapping add and
        // truncate to their unsigned width.
        e.m = addWrap(prev.m, r.vi64());
        e.n = addWrap(prev.n, r.vi64());
        e.k = addWrap(prev.k, r.vi64());
        e.variant.tileM = static_cast<unsigned>(static_cast<uint64_t>(
            addWrap(static_cast<int64_t>(prev.variant.tileM),
                    r.vi64())));
        e.variant.tileN = static_cast<unsigned>(static_cast<uint64_t>(
            addWrap(static_cast<int64_t>(prev.variant.tileN),
                    r.vi64())));
        e.variant.tileK = static_cast<unsigned>(static_cast<uint64_t>(
            addWrap(static_cast<int64_t>(prev.variant.tileK),
                    r.vi64())));
        e.costSec = r.f64Packed(prev.costSec);
        out.push_back(e);
        prev = e;
    }
    return out;
}

} // namespace nn
} // namespace seqpoint
