/**
 * @file
 * Shared helpers for the test suite: trace well-formedness checking,
 * small deterministic data generators and a scoped environment variable.
 */

#ifndef HSU_TESTS_TEST_UTIL_HH
#define HSU_TESTS_TEST_UTIL_HH

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "sim/trace.hh"
#include "structures/kdtree.hh"
#include "structures/pointset.hh"

namespace hsu::test
{

/** Structural well-formedness of a warp trace. */
inline bool
traceWellFormed(const WarpTrace &wt, std::string *why = nullptr)
{
    auto fail = [why](const char *msg) {
        if (why)
            *why = msg;
        return false;
    };
    for (const TraceOp &op : wt.ops) {
        if (op.count < 1)
            return fail("op with zero count");
        if (op.produces != kNoToken && op.produces >= 16)
            return fail("token id out of range");
        switch (op.type) {
          case OpType::Load:
          case OpType::Store:
          case OpType::HsuOp:
            if (op.activeMask == 0)
                return fail("memory op with empty mask");
            if (op.bytesPerLane == 0)
                return fail("memory op with zero bytes");
            if (op.addr.poolIndex >= 0 &&
                static_cast<std::size_t>(op.addr.poolIndex) +
                        kWarpSize >
                    wt.addrPool.size()) {
                return fail("pool index out of range");
            }
            break;
          default:
            break;
        }
    }
    return true;
}

/** Every warp of a kernel trace is well formed. */
inline bool
traceWellFormed(const KernelTrace &kt)
{
    for (const auto &w : kt.warps) {
        if (!traceWellFormed(w))
            return false;
    }
    return true;
}

/** Count ops of a type across a kernel trace. */
inline std::size_t
countOps(const KernelTrace &kt, OpType type)
{
    std::size_t n = 0;
    for (const auto &w : kt.warps) {
        for (const auto &op : w.ops) {
            if (op.type == type)
                ++n;
        }
    }
    return n;
}

/** Uniform random point cloud. */
inline PointSet
randomCloud(std::size_t n, unsigned dim, std::uint64_t seed)
{
    PointSet pts(dim);
    pts.reserve(n);
    Rng rng(seed);
    std::vector<float> p(dim);
    for (std::size_t i = 0; i < n; ++i) {
        for (auto &x : p)
            x = rng.uniform(-10.0f, 10.0f);
        pts.add(p.data());
    }
    return pts;
}

/** Brute-force k nearest neighbors (squared Euclidean). */
inline std::vector<Neighbor>
bruteKnn(const PointSet &pts, const float *q, unsigned k)
{
    std::vector<Neighbor> all;
    all.reserve(pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
        all.push_back({static_cast<std::uint32_t>(i),
                       pointDist2(q, pts[i], pts.dim())});
    }
    std::sort(all.begin(), all.end());
    if (all.size() > k)
        all.resize(k);
    return all;
}

/** Sets environment variable @p name for its lifetime (unsets it when
 *  @p value is null), then restores what it was. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            old_ = old;
        set(value);
    }
    ~ScopedEnv() { set(old_ ? old_->c_str() : nullptr); }
    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    void
    set(const char *value)
    {
        if (value)
            setenv(name_, value, 1);
        else
            unsetenv(name_);
    }

    const char *name_;
    std::optional<std::string> old_;
};

} // namespace hsu::test

#endif // HSU_TESTS_TEST_UTIL_HH
