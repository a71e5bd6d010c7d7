/**
 * @file
 * Kernel descriptor helpers.
 */

#include "sim/kernel.hh"

#include "common/strutil.hh"

namespace seqpoint {
namespace sim {

const char *
kernelClassName(KernelClass klass)
{
    switch (klass) {
      case KernelClass::Gemm: return "gemm";
      case KernelClass::Elementwise: return "elementwise";
      case KernelClass::Reduction: return "reduce";
      case KernelClass::Softmax: return "softmax";
      case KernelClass::BatchNorm: return "batchnorm";
      case KernelClass::Embedding: return "embedding";
      case KernelClass::Transpose: return "transpose";
      case KernelClass::Memcpy: return "memcpy";
      case KernelClass::Scalar: return "scalar-op";
    }
    return "?";
}

std::string
KernelName::str() const
{
    std::string out(stem);
    out += suffix;
    if (gemmTile)
        out += csprintf("_MT%ux%u_K%u", tileM, tileN, tileK);
    else if (softmaxBlock != 0)
        out += csprintf("_b%u", softmaxBlock);
    return out;
}

double
KernelDesc::arithmeticIntensity() const
{
    double bytes = totalBytes();
    return bytes > 0.0 ? flops / bytes : 0.0;
}

KernelDesc
makeElementwise(KernelName name, double elems,
                double flops_per_elem, double streams_in,
                double streams_out)
{
    KernelDesc k;
    k.nameKey = name;
    k.klass = KernelClass::Elementwise;
    k.flops = elems * flops_per_elem;
    k.bytesIn = elems * 4.0 * streams_in;
    k.bytesOut = elems * 4.0 * streams_out;
    // Streaming kernels touch each byte once: working set is the
    // whole footprint, so only very small launches cache well.
    k.workingSetL1 = (k.bytesIn + k.bytesOut);
    k.workingSetL2 = (k.bytesIn + k.bytesOut);
    k.workItems = elems;
    k.reuseL1 = 0.10;
    k.reuseL2 = 0.55;
    return k;
}

KernelDesc
makeReduction(KernelName name, double elems)
{
    KernelDesc k;
    k.nameKey = name;
    k.klass = KernelClass::Reduction;
    k.flops = elems;
    k.bytesIn = elems * 4.0;
    k.bytesOut = 4.0 * 64.0; // partial sums
    k.workingSetL1 = elems * 4.0;
    k.workingSetL2 = elems * 4.0;
    k.workItems = elems;
    k.reuseL1 = 0.05;
    k.reuseL2 = 0.45;
    return k;
}

KernelDesc
makeMemcpy(KernelName name, double bytes)
{
    KernelDesc k;
    k.nameKey = name;
    k.klass = KernelClass::Memcpy;
    k.flops = 0.0;
    k.bytesIn = bytes;
    k.bytesOut = bytes;
    k.workingSetL1 = 2.0 * bytes;
    k.workingSetL2 = 2.0 * bytes;
    k.workItems = bytes / 4.0;
    k.reuseL1 = 0.0;
    k.reuseL2 = 0.35;
    return k;
}

} // namespace sim
} // namespace seqpoint
