#include "sim/config.hh"

#include "common/logging.hh"

namespace hsu
{

namespace
{

/** Structures a zero size would leave unable to ever accept a miss. */
void
validateCache(const char *level, const CacheParams &c)
{
    if (c.mshrEntries == 0) {
        hsu_fatal("GpuConfig.mem.", level,
                  ".mshrEntries = 0: every read miss would be refused "
                  "forever");
    }
    if (c.missQueueCapacity == 0) {
        hsu_fatal("GpuConfig.mem.", level,
                  ".missQueueCapacity = 0: every miss and write would "
                  "be refused forever");
    }
}

} // namespace

void
GpuConfig::validate() const
{
    if (numSms == 0)
        hsu_fatal("GpuConfig.numSms = 0: the GPU needs at least one SM");
    if (subCoresPerSm == 0) {
        hsu_fatal("GpuConfig.subCoresPerSm = 0: an SM needs at least one "
                  "sub-core");
    }
    // Warp slot s belongs to sub-core s % subCoresPerSm.
    const unsigned per_sub_core =
        (maxWarpsPerSm + subCoresPerSm - 1) / subCoresPerSm;
    if (per_sub_core > kMaxWarpsPerSubCore) {
        hsu_fatal("GpuConfig.maxWarpsPerSm = ", maxWarpsPerSm,
                  " gives a sub-core ", per_sub_core, " warp slots; at most ",
                  kMaxWarpsPerSubCore, " per sub-core (subCoresPerSm = ",
                  subCoresPerSm, ")");
    }
    if (lsuQueueSize == 0) {
        hsu_fatal("GpuConfig.lsuQueueSize = 0: no memory instruction "
                  "could ever issue");
    }
    if (rtUnitEnabled && warpBufferSize == 0) {
        hsu_fatal("GpuConfig.warpBufferSize = 0: the RT unit needs at "
                  "least one warp-buffer entry");
    }
    validateCache("l1", mem.l1);
    validateCache("l2", mem.l2);
}

} // namespace hsu
