/**
 * @file
 * Peak live heap of the benchmark process. heap_peak.cc replaces the
 * global operator new and delete with versions that count the live
 * bytes in blocks of at least 64 KiB, where nearly all of the
 * simulator's memory is.
 *
 * Peak RSS is not used: under glibc's adaptive mmap threshold, how
 * much freed memory the per-thread arenas keep depends on which pool
 * thread allocated what, and peak RSS of identical work varies by a
 * factor of two between runs. The live heap does not depend on that.
 */

#ifndef PERFBENCH_HEAP_PEAK_H
#define PERFBENCH_HEAP_PEAK_H

#include <cstdint>

namespace perfbench {

/** Most bytes that were live on the heap at once, so far. */
std::uint64_t peakHeapBytes();

} // namespace perfbench

#endif // PERFBENCH_HEAP_PEAK_H
