/**
 * @file
 * schedule_lint regression corpus: valid synthetic serve/cluster event
 * logs lint clean, then each log is corrupted one invariant at a time
 * and every corruption must trigger exactly its SV/SH/CH rule ID — no
 * more, no less — mirroring the trace_lint corpus discipline. The
 * fixed-function SH001/SH002 checks get their own corruption corpus
 * over plain partition/merge data.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/schedule_lint.hh"

namespace hsu
{
namespace
{

ScheduleEvent
ev(Cycle cycle, std::uint32_t lane, ScheduleEventKind kind,
   std::uint64_t a = 0, std::uint64_t b = 0, std::uint64_t c = 0)
{
    return ScheduleEvent{cycle, a, b, c, lane, kind};
}

using K = ScheduleEventKind;

/**
 * A hand-built single-lane serving schedule that satisfies every
 * SV/CH invariant: three queued admissions (one later expired), one
 * overload shed, a sealed/dispatched/resolved batch whose dispatch
 * order permutes the seal order, and an exact-key LRU cache at
 * capacity 2 going through miss/insert/hit/evict.
 */
ScheduleLog
validServeLog()
{
    constexpr std::uint32_t lane = 0;
    ScheduleLog log;
    auto &e = log.events;
    // highWater 4, shedWater 6, maxBatch 8; cache capacity 2.
    e.push_back(ev(0, lane, K::PipelineConfig, 4, 6, 8));
    e.push_back(ev(0, lane, K::CacheConfig, 2, kCacheExactOnly, 100));
    // Three queued arrivals (query ids 1..3), then one shed at the
    // recorded watermark depth.
    e.push_back(ev(100, lane, K::CacheMiss, 1, 1));
    e.push_back(ev(100, lane, K::Admit, 10, 1, kAdmitQueued | 0 << 2));
    e.push_back(ev(200, lane, K::CacheMiss, 2, 2));
    e.push_back(ev(200, lane, K::Admit, 11, 2, kAdmitQueued | 1 << 2));
    e.push_back(ev(300, lane, K::CacheMiss, 3, 3));
    e.push_back(ev(300, lane, K::Admit, 12, 3, kAdmitQueued | 2 << 2));
    e.push_back(ev(400, lane, K::CacheMiss, 4, 4));
    e.push_back(ev(400, lane, K::Admit, 13, 4, kAdmitShed | 6 << 2));
    // Batch 1 forms at cycle 1000 from depth 3: request 12's deadline
    // (900) already passed, 10 and 11 seal in FIFO order.
    e.push_back(ev(1000, lane, K::Expire, 12, 900));
    e.push_back(ev(1000, lane, K::BatchSeal, 1, 2, 0 | 3 << 1));
    e.push_back(ev(1000, lane, K::SealMember, 10, 10'000, 1));
    e.push_back(ev(1000, lane, K::SealMember, 11, 10'000, 1));
    // The ordering policy swapped the two members: allowed.
    e.push_back(ev(1000, lane, K::Dispatch, 1, 2, 0));
    e.push_back(ev(1000, lane, K::DispatchMember, 11, 2, 1));
    e.push_back(ev(1000, lane, K::DispatchMember, 10, 1, 1));
    e.push_back(ev(6000, lane, K::Resolve, 1, 4000, 6000));
    // Completion fills the cache; the third insert evicts key 2 (key 1
    // was refreshed by the hit in between).
    e.push_back(ev(6000, lane, K::CacheInsert, 1, 1, 0));
    e.push_back(ev(6000, lane, K::CacheInsert, 2, 2, 0));
    e.push_back(ev(7000, lane, K::CacheHit, 1, 1));
    e.push_back(ev(8000, lane, K::CacheInsert, 5, 5, 0));
    e.push_back(ev(8000, lane, K::CacheEvict, 2));
    return log;
}

/**
 * A hand-built 2-lane cluster schedule satisfying the SH invariants:
 * one request fanned out to both lanes over a 100/50-cycle link, lane
 * 0 serves it, lane 1 sheds it, and the join completes at
 * merge-ready + mergeCyclesPerShard x served.
 */
ScheduleLog
validClusterLog()
{
    constexpr std::uint32_t router = kRouterLane;
    ScheduleLog log;
    auto &e = log.events;
    // scatterHop 100, gatherHop 50, mergeCyclesPerShard 10.
    e.push_back(ev(0, router, K::ClusterConfig, 100, 50, 10));
    e.push_back(ev(0, 0, K::PipelineConfig, 4, 6, 8));
    e.push_back(ev(0, 1, K::PipelineConfig, 4, 6, 8));
    e.push_back(ev(1000, router, K::RouterRoute, 1, 7, 2));
    e.push_back(ev(1000, router, K::Scatter, 1, 0, 1100));
    e.push_back(ev(1000, router, K::Scatter, 1, 1, 1100));
    e.push_back(ev(1100, 0, K::Admit, 1, 7, kAdmitQueued | 0 << 2));
    e.push_back(ev(1100, 1, K::Admit, 1, 7, kAdmitShed | 6 << 2));
    e.push_back(ev(1100, router, K::SubShed, 1));
    e.push_back(ev(1200, 0, K::BatchSeal, 1, 1, 0 | 1 << 1));
    e.push_back(ev(1200, 0, K::SealMember, 1, kNeverCycle, 1));
    e.push_back(ev(1200, 0, K::Dispatch, 1, 1, 0));
    e.push_back(ev(1200, 0, K::DispatchMember, 1, 7, 1));
    e.push_back(ev(5000, 0, K::Resolve, 1, 3700, 5000));
    e.push_back(ev(5000, 0, K::Gather, 1, 5000, 5050));
    e.push_back(ev(5060, router, K::JoinDone, 1, 1, 1));
    return log;
}

/** The corruption fired its rule and nothing else (at error level). */
void
expectOnly(const LintReport &report, const char *rule_id)
{
    EXPECT_GT(report.countRule(rule_id), 0u)
        << "expected " << rule_id << ":\n"
        << report.str();
    EXPECT_EQ(report.errorCount() + report.warningCount(),
              report.countRule(rule_id))
        << "extra findings beyond " << rule_id << ":\n"
        << report.str();
}

/** The first event matching @p kind (asserts existence). */
ScheduleEvent &
firstOf(ScheduleLog &log, ScheduleEventKind kind)
{
    const auto it = std::find_if(
        log.events.begin(), log.events.end(),
        [kind](const ScheduleEvent &e) { return e.kind == kind; });
    EXPECT_NE(it, log.events.end());
    return *it;
}

TEST(ScheduleLint, ValidServeLogIsClean)
{
    const LintReport report = lintScheduleLog(validServeLog());
    EXPECT_TRUE(report.clean()) << report.str();
}

TEST(ScheduleLint, ValidClusterLogIsClean)
{
    const LintReport report = lintScheduleLog(validClusterLog());
    EXPECT_TRUE(report.clean()) << report.str();
}

TEST(ScheduleLint, EmptyLogIsClean)
{
    const LintReport report = lintScheduleLog(ScheduleLog{});
    EXPECT_TRUE(report.clean()) << report.str();
}

// --- SV corruption corpus --------------------------------------------

TEST(ScheduleLint, PhantomTerminationIsSv001)
{
    // An expiry for a request that was never queued on the lane.
    ScheduleLog log = validServeLog();
    log.events.push_back(ev(1000, 0, K::Expire, 99, 900));
    expectOnly(lintScheduleLog(log), "SV001");
}

TEST(ScheduleLint, LostRequestIsSv001)
{
    // A queued admission that never seals or expires.
    ScheduleLog log = validServeLog();
    log.events.push_back(
        ev(9000, 0, K::Admit, 99, 9, kAdmitQueued | 0 << 2));
    expectOnly(lintScheduleLog(log), "SV001");
}

TEST(ScheduleLint, DispatchMembershipDriftIsSv002)
{
    // The dispatched batch contains a request the seal never had:
    // the ordering policy must permute, never substitute.
    ScheduleLog log = validServeLog();
    firstOf(log, K::DispatchMember).a = 99;
    LintReport report = lintScheduleLog(log);
    EXPECT_GT(report.countRule("SV002"), 0u) << report.str();
}

TEST(ScheduleLint, DuplicateSealIsSv002)
{
    ScheduleLog log = validServeLog();
    log.events.push_back(ev(1000, 0, K::BatchSeal, 1, 2, 0 | 3 << 1));
    expectOnly(lintScheduleLog(log), "SV002");
}

TEST(ScheduleLint, ResolveBeforeDispatchIsSv003)
{
    ScheduleLog log = validServeLog();
    firstOf(log, K::Resolve).cycle = 500;
    expectOnly(lintScheduleLog(log), "SV003");
}

TEST(ScheduleLint, ExpiryOfLiveDeadlineIsSv003)
{
    // Expired at cycle 1000 although the deadline was 2000.
    ScheduleLog log = validServeLog();
    firstOf(log, K::Expire).b = 2000;
    expectOnly(lintScheduleLog(log), "SV003");
}

TEST(ScheduleLint, AdmissionOrderRegressionIsSv003)
{
    // A later-logged admission with an earlier cycle: arrivals must be
    // nondecreasing per lane.
    ScheduleLog log = validServeLog();
    log.events.push_back(
        ev(50, 0, K::Admit, 50, 5, kAdmitShed | 6 << 2));
    expectOnly(lintScheduleLog(log), "SV003");
}

TEST(ScheduleLint, ShedBelowWatermarkIsSv004)
{
    // The shed admission's sampled depth is under shedWater.
    ScheduleLog log = validServeLog();
    for (ScheduleEvent &e : log.events) {
        if (e.kind == K::Admit && (e.c & 3) == kAdmitShed)
            e.c = kAdmitShed | 2 << 2;
    }
    expectOnly(lintScheduleLog(log), "SV004");
}

TEST(ScheduleLint, DegradeBelowWatermarkIsSv004)
{
    // The batch claims degraded knobs at a depth under highWater.
    ScheduleLog log = validServeLog();
    firstOf(log, K::BatchSeal).c = 1 | 3 << 1;
    expectOnly(lintScheduleLog(log), "SV004");
}

// --- SH corruption corpus --------------------------------------------

TEST(ScheduleLint, UnbalancedJoinIsSh003)
{
    // Fan-out 2 but only one gather and no shed: a sub-query vanished.
    ScheduleLog log = validClusterLog();
    log.events.erase(std::remove_if(log.events.begin(),
                                    log.events.end(),
                                    [](const ScheduleEvent &e) {
                                        return e.kind == K::SubShed;
                                    }),
                     log.events.end());
    LintReport report = lintScheduleLog(log);
    EXPECT_GT(report.countRule("SH003"), 0u) << report.str();
}

TEST(ScheduleLint, MergeTimingDriftIsSh003)
{
    // The join completes one cycle before merge-ready + merge cost.
    ScheduleLog log = validClusterLog();
    firstOf(log, K::JoinDone).cycle = 5059;
    expectOnly(lintScheduleLog(log), "SH003");
}

TEST(ScheduleLint, JoinCountMismatchIsSh003)
{
    // The join under-reports its served sub-answers.
    ScheduleLog log = validClusterLog();
    firstOf(log, K::JoinDone).b = 0;
    expectOnly(lintScheduleLog(log), "SH003");
}

TEST(ScheduleLint, ScatterSkipsLinkLatencyIsSh004)
{
    // A scatter that delivers before paying the link hop.
    ScheduleLog log = validClusterLog();
    firstOf(log, K::Scatter).c = 1000;
    expectOnly(lintScheduleLog(log), "SH004");
}

TEST(ScheduleLint, GatherPrecedesScatterIsSh004)
{
    // Lane 0's sub-answer gathers although no sub-query was ever
    // scattered to lane 0.
    ScheduleLog log = validClusterLog();
    const auto it = std::find_if(
        log.events.begin(), log.events.end(),
        [](const ScheduleEvent &e) {
            return e.kind == K::Scatter && e.b == 0;
        });
    ASSERT_NE(it, log.events.end());
    // Keep SH003's fan-out accounting balanced while removing the hop.
    firstOf(log, K::RouterRoute).c = 2;
    it->b = 1; // rescatter to lane 1: lane 0 never sees the request
    LintReport report = lintScheduleLog(log);
    EXPECT_GT(report.countRule("SH004"), 0u) << report.str();
    EXPECT_EQ(report.countRule("SH003"), 0u) << report.str();
}

// --- CH corruption corpus --------------------------------------------

TEST(ScheduleLint, InexactCacheKeyIsCh001)
{
    // An exact-only cache whose recorded key differs from the id.
    ScheduleLog log = validServeLog();
    firstOf(log, K::CacheMiss).b = 99;
    expectOnly(lintScheduleLog(log), "CH001");
}

TEST(ScheduleLint, MissOnResidentKeyIsCh001)
{
    // A recorded miss for a key the insert/evict replay holds.
    ScheduleLog log = validServeLog();
    log.events.push_back(ev(6500, 0, K::CacheMiss, 1, 1));
    // Re-sort nothing: appended events replay after the inserts.
    expectOnly(lintScheduleLog(log), "CH001");
}

TEST(ScheduleLint, WrongInsertFlagIsCh001)
{
    // A fresh insert flagged as a recency refresh.
    ScheduleLog log = validServeLog();
    firstOf(log, K::CacheInsert).c = 1;
    expectOnly(lintScheduleLog(log), "CH001");
}

TEST(ScheduleLint, TolerantBtreeCacheIsCh002)
{
    ScheduleLog log;
    log.events.push_back(ev(
        0, 0, K::CacheConfig, 4, kCacheBtree | kCacheTolerantMode,
        100));
    expectOnly(lintScheduleLog(log), "CH002");
}

TEST(ScheduleLint, EvictionOutOfLruOrderIsCh003)
{
    // The eviction takes the most-recently-used key instead of the LRU
    // tail.
    ScheduleLog log = validServeLog();
    firstOf(log, K::CacheEvict).a = 1;
    expectOnly(lintScheduleLog(log), "CH003");
}

TEST(ScheduleLint, EvictionWithinCapacityIsCh003)
{
    // An eviction while the cache still has room.
    ScheduleLog log = validServeLog();
    log.events.push_back(ev(9000, 0, K::CacheEvict, 1));
    expectOnly(lintScheduleLog(log), "CH003");
}

// --- SH001/SH002 fixed functions -------------------------------------

TEST(ScheduleLint, PartitionCoverageCleanOnExactSplit)
{
    const LintReport report =
        lintPartitionCoverage({{0, 2}, {1, 3}}, 4);
    EXPECT_TRUE(report.clean()) << report.str();
}

TEST(ScheduleLint, DuplicateAssignmentIsSh001)
{
    expectOnly(lintPartitionCoverage({{0, 1}, {1, 2}}, 3), "SH001");
}

TEST(ScheduleLint, UncoveredElementIsSh001)
{
    expectOnly(lintPartitionCoverage({{0}, {2}}, 3), "SH001");
}

TEST(ScheduleLint, OutOfRangeElementIsSh001)
{
    expectOnly(lintPartitionCoverage({{0, 1}, {2, 7}}, 3), "SH001");
}

TEST(ScheduleLint, MergeOrderCleanOnSortedUnique)
{
    const LintReport report = lintMergeOrder(
        {{0.5, 3}, {0.5, 9}, {1.25, 1}}, 10);
    EXPECT_TRUE(report.clean()) << report.str();
}

TEST(ScheduleLint, UnsortedMergeIsSh002)
{
    expectOnly(lintMergeOrder({{1.0, 3}, {0.5, 9}}, 10), "SH002");
}

TEST(ScheduleLint, DuplicateGlobalIdIsSh002)
{
    expectOnly(lintMergeOrder({{0.5, 3}, {1.0, 3}}, 10), "SH002");
}

TEST(ScheduleLint, OverlongMergeIsSh002)
{
    expectOnly(lintMergeOrder({{0.5, 3}, {1.0, 4}, {2.0, 5}}, 2),
               "SH002");
}

// --- Catalog ---------------------------------------------------------

TEST(ScheduleLint, CatalogCoversAllRuleFamilies)
{
    const std::vector<LintRuleInfo> catalog =
        scheduleLintRuleCatalog();
    const char *expected[] = {"SV001", "SV002", "SV003", "SV004",
                              "SH001", "SH002", "SH003", "SH004",
                              "CH001", "CH002", "CH003"};
    for (const char *id : expected) {
        const bool found = std::any_of(
            catalog.begin(), catalog.end(),
            [id](const LintRuleInfo &r) { return r.id == id; });
        EXPECT_TRUE(found) << "catalog is missing " << id;
    }
    for (const LintRuleInfo &rule : catalog) {
        EXPECT_FALSE(rule.summary.empty()) << rule.id;
        EXPECT_FALSE(rule.fixit.empty()) << rule.id;
    }
}

} // namespace
} // namespace hsu
