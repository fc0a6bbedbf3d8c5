/**
 * @file
 * Contract-macro semantics and the nondeterminism-source registry.
 *
 * The exactly-once guarantees are pinned at compile time: each macro's
 * condition is a `++i` inside a constexpr function, and static_asserts
 * record how often it ran per build flavor (once when the check is
 * active, zero when compiled out — HSU_DETAIL_UNEVALUATED must not
 * evaluate side effects). A double evaluation fails the build, not a
 * test run.
 */

#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/audit.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/threadpool.hh"
#include "mem/cache.hh"
#include "rtunit/rtunit.hh"
#include "search/ggnn.hh"
#include "structures/graph.hh"

#include "../test_util.hh"

namespace hsu
{
namespace
{

// --- Exactly-once / never evaluation, pinned at compile time ---------

constexpr int
assertEvals()
{
    int i = 0;
    hsu_assert(++i > 0, "side effect must run exactly once");
    return i;
}
static_assert(assertEvals() == 1,
              "hsu_assert must evaluate its condition exactly once");

constexpr int
debugAssertEvals()
{
    int i = 0;
    hsu_debug_assert(++i > 0, "hot-loop check");
    return i;
}
#ifdef NDEBUG
static_assert(debugAssertEvals() == 0,
              "hsu_debug_assert must not evaluate under NDEBUG");
#else
static_assert(debugAssertEvals() == 1,
              "hsu_debug_assert must evaluate exactly once in debug");
#endif

constexpr int
contractEvals()
{
    int i = 0;
    hsu_contract(++i > 0, "ordering discipline");
    return i;
}
#ifdef HSU_AUDIT
static_assert(contractEvals() == 1,
              "hsu_contract must evaluate exactly once under HSU_AUDIT");
static_assert(audit::enabled());
#else
static_assert(contractEvals() == 0,
              "hsu_contract must not evaluate outside HSU_AUDIT");
static_assert(!audit::enabled());
#endif

TEST(Contract, AssertEvaluatesExactlyOnceAtRuntime)
{
    int i = 0;
    hsu_assert(++i == 1, "i = ", i);
    EXPECT_EQ(i, 1);
}

TEST(Contract, DebugAssertMatchesBuildFlavor)
{
    int i = 0;
    hsu_debug_assert(++i == 1, "i = ", i);
#ifdef NDEBUG
    EXPECT_EQ(i, 0);
#else
    EXPECT_EQ(i, 1);
#endif
}

TEST(Contract, ContractMatchesBuildFlavor)
{
    int i = 0;
    hsu_contract(++i == 1, "i = ", i);
#ifdef HSU_AUDIT
    EXPECT_EQ(i, 1);
#else
    EXPECT_EQ(i, 0);
#endif
}

TEST(ContractDeathTest, AssertPanicsOnViolation)
{
    EXPECT_DEATH(hsu_assert(1 == 2, "forced failure"),
                 "assertion failed");
}

#ifdef HSU_AUDIT
TEST(ContractDeathTest, ContractPanicsOnViolationUnderAudit)
{
    EXPECT_DEATH(hsu_contract(1 == 2, "forced failure"),
                 "contract violated");
}
#endif

// --- Nondeterminism-source registry ----------------------------------

/**
 * Registrations run in static initializers of the TUs that own the
 * sources. With static libraries the linker only pulls a TU into the
 * binary when something references its symbols, so each expected site's
 * owning TU is referenced here before the registry is inspected.
 */
void
forceLinkage()
{
    Rng rng(1);                                  // rng.cc
    (void)rng.next();
    (void)defaultJobs();                         // threadpool.cc
    StatGroup stats;
    Cache l1(CacheParams{}, stats);
    RtUnit rtu(RtUnitParams{}, l1, stats);       // rtunit.cc
    const PointSet pts = test::randomCloud(64, 4, 7);
    const HnswGraph g = HnswGraph::build(pts, Metric::Euclidean);
    const GgnnKernel kernel(g, GgnnConfig{});     // ggnn.cc
    (void)kernel;
}

TEST(AuditRegistry, KnownSourcesAreRegistered)
{
    forceLinkage();
    const char *expected[] = {
        "rng.cc:Rng",
        "rng.cc:deriveSeed",
        "rtunit.cc:pendingLines_",
        "ggnn.cc:visited",
        "threadpool.hh:parallelMap",
    };
    for (const char *site : expected)
        EXPECT_TRUE(audit::hasSource(site)) << site;
}

TEST(AuditRegistry, EverySourceNamesItsDiscipline)
{
    forceLinkage();
    EXPECT_FALSE(audit::sources().empty());
    for (const audit::NondetSource &s : audit::sources()) {
        ASSERT_NE(s.site, nullptr);
        ASSERT_NE(s.discipline, nullptr);
        EXPECT_NE(s.discipline[0], '\0') << s.site;
    }
}

TEST(AuditRegistry, SourcesOfKindFilters)
{
    forceLinkage();
    for (const audit::NondetSource &s :
         audit::sourcesOfKind(audit::NondetKind::Rng)) {
        EXPECT_EQ(static_cast<int>(s.kind),
                  static_cast<int>(audit::NondetKind::Rng));
    }
    EXPECT_FALSE(
        audit::sourcesOfKind(audit::NondetKind::UnorderedIteration)
            .empty());
}

TEST(AuditRegistry, UseCountsAccumulate)
{
    const std::size_t id = audit::registerNondetSource(
        audit::NondetKind::FloatAccumulation, "test_contract.cc:probe",
        "test-only source; never feeds simulator output");
    EXPECT_EQ(audit::useCount(id), 0u);
    audit::noteUse(id);
    audit::noteUse(id);
    EXPECT_EQ(audit::useCount(id), 2u);
}

TEST(AuditRegistry, OrderedKeysSortsUnorderedContainers)
{
    std::unordered_map<int, int> m{{3, 0}, {1, 0}, {2, 0}};
    EXPECT_EQ(audit::orderedKeys(m), (std::vector<int>{1, 2, 3}));
    std::unordered_set<int> s{9, 4, 6};
    EXPECT_EQ(audit::orderedKeys(s), (std::vector<int>{4, 6, 9}));
}

} // namespace
} // namespace hsu
