#ifndef SPNET_COMMON_HUGE_PAGES_H_
#define SPNET_COMMON_HUGE_PAGES_H_

#include <cstddef>
#include <cstdint>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace spnet {

/// Asks the kernel to back the 2 MiB-aligned interior of the `bytes` at
/// `data` with transparent huge pages, so first-touching a large buffer
/// takes one fault per 2 MiB instead of one per 4 KiB. Call it before the
/// buffer is touched. Advice only: a no-op where MADV_HUGEPAGE does not
/// exist, and a failure (for instance THP disabled) is ignored.
inline void AdviseHugePages(void* data, size_t bytes) {
#ifdef MADV_HUGEPAGE
  constexpr uintptr_t kHugePage = uintptr_t{2} << 20;
  const uintptr_t start = reinterpret_cast<uintptr_t>(data);
  const uintptr_t begin = (start + kHugePage - 1) & ~(kHugePage - 1);
  const uintptr_t end = (start + bytes) & ~(kHugePage - 1);
  if (end > begin) {
    (void)madvise(reinterpret_cast<void*>(begin), end - begin, MADV_HUGEPAGE);
  }
#else
  (void)data;
  (void)bytes;
#endif
}

}  // namespace spnet

#endif  // SPNET_COMMON_HUGE_PAGES_H_
