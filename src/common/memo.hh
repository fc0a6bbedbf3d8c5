/**
 * @file
 * Build-once asset memoization shared by the dataset store
 * (workloads/datasets), the runner and the shard layer.
 *
 * cachedAssets<Assets>(key, build) returns a process-lifetime reference
 * to the Assets built for @p key, constructing them exactly once no
 * matter how many threads race on the same key. A global mutex guards
 * only the slot map; the (expensive) build itself runs under the
 * slot's once_flag outside that lock, so two threads wanting
 * *different* keys build concurrently while two wanting the same key
 * build exactly once. Slots are pinned behind unique_ptr, so returned
 * references stay valid across map rehashes.
 *
 * Extracted from search/runner.cc so the sharded-serving layer can key
 * per-shard sub-indexes through the same build-once discipline instead
 * of growing a second cache implementation.
 */

#ifndef HSU_COMMON_MEMO_HH
#define HSU_COMMON_MEMO_HH

#include <map>
#include <memory>
#include <mutex>

namespace hsu
{

template <typename Assets>
struct AssetSlot
{
    std::once_flag once;
    Assets assets;
};

template <typename Assets, typename Key, typename Build>
const Assets &
cachedAssets(const Key &key, Build build)
{
    static std::mutex mutex;
    static std::map<Key, std::unique_ptr<AssetSlot<Assets>>> cache;

    AssetSlot<Assets> *slot;
    {
        std::lock_guard lock(mutex);
        auto &entry = cache[key];
        if (!entry)
            entry = std::make_unique<AssetSlot<Assets>>();
        slot = entry.get(); // slots are pinned; the map may rehash
    }
    std::call_once(slot->once, [&] { build(slot->assets); });
    return slot->assets;
}

} // namespace hsu

#endif // HSU_COMMON_MEMO_HH
