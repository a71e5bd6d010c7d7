/**
 * @file
 * Kernel descriptors: the interface between the NN lowering library and
 * the GPU timing model. A KernelDesc captures everything the simulator
 * needs -- operation class, FLOPs, global-memory request volumes,
 * working sets and available parallelism -- plus a compact key for the
 * mangled kernel name (including the autotuned tile variant) used for
 * the paper's unique-kernel analyses (Figs 5 and 6).
 */

#ifndef SEQPOINT_SIM_KERNEL_HH
#define SEQPOINT_SIM_KERNEL_HH

#include <cstdint>
#include <string>
#include <type_traits>

namespace seqpoint {
namespace sim {

/** Broad operation classes that the lowering library emits. */
enum class KernelClass {
    Gemm,        ///< Dense matrix multiply (incl. implicit-GEMM conv).
    Elementwise, ///< Pointwise math: activations, gate math, adds.
    Reduction,   ///< Reductions: losses, norm statistics, grad sums.
    Softmax,     ///< Fused softmax (attention scores / final layer).
    BatchNorm,   ///< Batch-norm statistics + normalisation.
    Embedding,   ///< Vocabulary-table gather / scatter.
    Transpose,   ///< Layout changes (time-major <-> batch-major).
    Memcpy,      ///< Bulk copies (padding, reorder buffers).
    Scalar,      ///< Tiny bookkeeping launches (optimizer scalars).
};

/** @return Short stable name for a kernel class ("gemm", ...). */
const char *kernelClassName(KernelClass klass);

/** Number of distinct KernelClass values. */
constexpr unsigned numKernelClasses = 9;

/**
 * Compact, trivially-copyable key for a mangled kernel name. Lowering
 * runs on every profiled iteration, but only detailed profiles (Figs 5
 * and 6) and the Table 1 bench ever read a name, so the string is
 * formatted on demand by str() instead of being built per emitted
 * kernel.
 *
 * The name is stem + suffix, then "_MT<m>x<n>_K<k>" for a GEMM tile
 * variant or "_b<block>" for a softmax block variant. Both character
 * pointers must outlive the key: they are string literals or a
 * layer's own name, so a kernel lowered from a model may only be
 * named while that model lives.
 */
struct KernelName {
    const char *stem = "";   ///< Op literal or layer-owned name.
    const char *suffix = ""; ///< Literal appended to the stem.
    bool gemmTile = false;   ///< Append the tile-variant suffix.
    uint32_t tileM = 0;      ///< GEMM output-tile rows.
    uint32_t tileN = 0;      ///< GEMM output-tile columns.
    uint32_t tileK = 0;      ///< GEMM K-panel depth.
    uint32_t softmaxBlock = 0; ///< Softmax block size (0: none).

    KernelName() = default;

    /** Key for stem + suffix (implicit, so literals convert). */
    KernelName(const char *name_stem, const char *name_suffix = "")
        : stem(name_stem), suffix(name_suffix)
    {
    }

    /** @return The formatted kernel name. */
    std::string str() const;
};

/**
 * One GPU kernel launch as seen by the timing model.
 *
 * `bytesIn`/`bytesOut` are global-memory *request* volumes after
 * register/LDS blocking (i.e. what reaches the L1), not algorithmic
 * footprints. `workingSetL1` is the per-CU hot set, `workingSetL2` the
 * chip-wide hot set; the cache model turns these into hit fractions.
 */
struct KernelDesc {
    /** Mangled-name key (includes the variant); see name(). */
    KernelName nameKey;

    /** Operation class. */
    KernelClass klass = KernelClass::Elementwise;

    /** Total floating-point operations. */
    double flops = 0.0;

    /** Bytes requested from the memory system (loads). */
    double bytesIn = 0.0;

    /** Bytes written toward memory (stores). */
    double bytesOut = 0.0;

    /** Per-CU working set in bytes (L1-visible hot data). */
    double workingSetL1 = 0.0;

    /** Chip-wide working set in bytes (L2-visible hot data). */
    double workingSetL2 = 0.0;

    /** Total work-items in the launch grid. */
    double workItems = 0.0;

    /**
     * Back-to-back launches of this exact kernel (e.g. one per RNN
     * time step). Timing and counters scale linearly; the name is
     * still counted once in unique-kernel analyses.
     */
    uint64_t repeat = 1;

    /** GEMM dimensions when klass == Gemm (0 otherwise). */
    int64_t gemmM = 0;
    int64_t gemmN = 0; ///< GEMM N dimension.
    int64_t gemmK = 0; ///< GEMM K dimension.

    /**
     * Implementation-efficiency scale in (0, 1]: how close this
     * kernel variant gets to its class's peak efficiency (small GEMM
     * tiles lose register blocking, for example).
     */
    double effScale = 1.0;

    /**
     * Fraction of loads that hit in L1 at full capacity; class- and
     * shape-dependent, filled in by the lowering library.
     */
    double reuseL1 = 0.0;

    /** Fraction of L1 misses that hit in an unbounded L2. */
    double reuseL2 = 0.0;

    /** @return flops / (bytesIn + bytesOut); 0 when no traffic. */
    double arithmeticIntensity() const;

    /** @return Total bytes moved (loads + stores). */
    double totalBytes() const { return bytesIn + bytesOut; }

    /** @return The mangled kernel name, formatted from nameKey. */
    std::string name() const { return nameKey.str(); }
};

static_assert(std::is_trivially_copyable_v<KernelDesc>);

/**
 * Convenience builder for elementwise kernels.
 *
 * @param name Kernel name key.
 * @param elems Number of elements processed.
 * @param flops_per_elem FLOPs per element.
 * @param streams_in Number of distinct input operands streamed.
 * @param streams_out Number of distinct output operands streamed.
 */
KernelDesc makeElementwise(KernelName name, double elems,
                           double flops_per_elem, double streams_in,
                           double streams_out);

/**
 * Convenience builder for reduction kernels over `elems` inputs.
 */
KernelDesc makeReduction(KernelName name, double elems);

/**
 * Convenience builder for memcpy-like kernels moving `bytes` bytes.
 */
KernelDesc makeMemcpy(KernelName name, double bytes);

} // namespace sim
} // namespace seqpoint

#endif // SEQPOINT_SIM_KERNEL_HH
