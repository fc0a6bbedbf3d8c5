#include "analysis/schedule_lint.hh"

#include <algorithm>
#include <list>
#include <map>
#include <sstream>

#include "common/logging.hh"

namespace hsu
{

namespace
{

using Kind = ScheduleEventKind;

template <typename... Args>
std::string
cat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

/** Admit outcome code (low 2 bits of c). */
std::uint64_t
admitOutcome(const ScheduleEvent &e)
{
    return e.c & 3;
}

/** Queue depth sampled at the admit decision. */
std::uint64_t
admitDepth(const ScheduleEvent &e)
{
    return e.c >> 2;
}

/** Queue depth sampled at batch formation (BatchSeal c payload). */
std::uint64_t
sealDepth(const ScheduleEvent &e)
{
    return e.c >> 1;
}

bool
sealDegraded(const ScheduleEvent &e)
{
    return (e.c & 1) != 0;
}

/** Deterministically ordered event indexes per lane (log order). */
std::map<std::uint32_t, std::vector<std::size_t>>
eventsByLane(const ScheduleLog &log)
{
    std::map<std::uint32_t, std::vector<std::size_t>> out;
    for (std::size_t i = 0; i < log.events.size(); ++i)
        out[log.events[i].lane].push_back(i);
    return out;
}

// --- Rule tables -----------------------------------------------------

/** Context handed to schedule-log rules. */
struct ScheduleLintContext
{
    const ScheduleLog &log;
};

struct ScheduleRule
{
    LintRuleInfo info;
    /** Null for SH001/SH002, which check plain data, not the log. */
    void (*fn)(const ScheduleLintContext &, const LintRuleInfo &,
               LintReport &);
};

// --- SV: serve-schedule rules ----------------------------------------

/** SV001: every request admitted as Queued leaves its lane exactly
 *  once — sealed into a batch or deadline-expired; nothing terminates
 *  that was never queued. */
void
ruleServeConservation(const ScheduleLintContext &ctx,
                      const LintRuleInfo &rule, LintReport &report)
{
    struct LaneFlow
    {
        std::vector<std::uint64_t> queued;
        std::vector<std::uint64_t> terminal; //!< sealed or expired
        std::size_t anchor = 0;
    };
    std::map<std::uint32_t, LaneFlow> lanes;
    for (std::size_t i = 0; i < ctx.log.events.size(); ++i) {
        const ScheduleEvent &e = ctx.log.events[i];
        LaneFlow &lane = lanes[e.lane];
        if (e.kind == Kind::Admit && admitOutcome(e) == kAdmitQueued) {
            lane.queued.push_back(e.a);
            lane.anchor = i;
        } else if (e.kind == Kind::SealMember ||
                   e.kind == Kind::Expire) {
            lane.terminal.push_back(e.a);
            lane.anchor = i;
        }
    }
    for (auto &[lane_id, lane] : lanes) {
        std::sort(lane.queued.begin(), lane.queued.end());
        std::sort(lane.terminal.begin(), lane.terminal.end());
        std::vector<std::uint64_t> lost, phantom;
        std::set_difference(lane.queued.begin(), lane.queued.end(),
                            lane.terminal.begin(), lane.terminal.end(),
                            std::back_inserter(lost));
        std::set_difference(lane.terminal.begin(), lane.terminal.end(),
                            lane.queued.begin(), lane.queued.end(),
                            std::back_inserter(phantom));
        for (const std::uint64_t id : lost) {
            report.add(rule, lane_id, lane.anchor,
                       cat("request ", id, " was queued but never "
                           "sealed into a batch or expired"));
        }
        for (const std::uint64_t id : phantom) {
            report.add(rule, lane_id, lane.anchor,
                       cat("request ", id, " was sealed or expired "
                           "more often than it was queued"));
        }
    }
}

/** SV002: batch membership is fixed at seal time and conserved —
 *  exactly one seal/dispatch/resolve per batch, the dispatch member
 *  multiset equals the seal member multiset (the ordering policy may
 *  permute, never add or drop), sizes agree. */
void
ruleBatchMembership(const ScheduleLintContext &ctx,
                    const LintRuleInfo &rule, LintReport &report)
{
    struct BatchRec
    {
        std::size_t seals = 0, dispatches = 0, resolves = 0;
        std::uint64_t sealSize = 0, dispatchSize = 0;
        std::vector<std::uint64_t> sealed, launched;
        std::size_t anchor = 0;
    };
    std::map<std::pair<std::uint32_t, std::uint64_t>, BatchRec> batches;
    for (std::size_t i = 0; i < ctx.log.events.size(); ++i) {
        const ScheduleEvent &e = ctx.log.events[i];
        switch (e.kind) {
          case Kind::BatchSeal: {
            BatchRec &b = batches[{e.lane, e.a}];
            b.seals += 1;
            b.sealSize = e.b;
            b.anchor = i;
            break;
          }
          case Kind::Dispatch: {
            BatchRec &b = batches[{e.lane, e.a}];
            b.dispatches += 1;
            b.dispatchSize = e.b;
            b.anchor = i;
            break;
          }
          case Kind::Resolve:
            batches[{e.lane, e.a}].resolves += 1;
            break;
          case Kind::SealMember:
            batches[{e.lane, e.c}].sealed.push_back(e.a);
            break;
          case Kind::DispatchMember:
            batches[{e.lane, e.c}].launched.push_back(e.a);
            break;
          default:
            break;
        }
    }
    for (auto &[key, b] : batches) {
        const std::uint32_t lane = key.first;
        const std::uint64_t seq = key.second;
        if (b.seals != 1 || b.dispatches != 1 || b.resolves != 1) {
            report.add(rule, lane, b.anchor,
                       cat("batch ", seq, " has ", b.seals, " seals, ",
                           b.dispatches, " dispatches, ", b.resolves,
                           " resolves (want exactly 1 of each)"));
            continue;
        }
        if (b.sealSize != b.sealed.size() ||
            b.dispatchSize != b.launched.size()) {
            report.add(rule, lane, b.anchor,
                       cat("batch ", seq, " sizes disagree: sealed ",
                           b.sealSize, "/", b.sealed.size(),
                           " members, dispatched ", b.dispatchSize, "/",
                           b.launched.size()));
        }
        std::vector<std::uint64_t> s = b.sealed, l = b.launched;
        std::sort(s.begin(), s.end());
        std::sort(l.begin(), l.end());
        if (s != l) {
            report.add(rule, lane, b.anchor,
                       cat("batch ", seq, " dispatch membership is not "
                           "a permutation of its sealed membership "
                           "(policy reorder must be timing-only)"));
        }
    }
}

/** SV003: the schedule is causal on the unified clock — admissions
 *  arrive in nondecreasing cycle order per lane, expiry only drops
 *  requests whose deadline has really passed, sealed members still
 *  meet their deadline at seal time, and each batch's
 *  seal -> dispatch -> resolve cycles are monotone. */
void
ruleScheduleMonotonicity(const ScheduleLintContext &ctx,
                         const LintRuleInfo &rule, LintReport &report)
{
    std::map<std::uint32_t, Cycle> lastAdmit;
    std::map<std::pair<std::uint32_t, std::uint64_t>, Cycle> sealCycle,
        dispatchCycle;
    for (std::size_t i = 0; i < ctx.log.events.size(); ++i) {
        const ScheduleEvent &e = ctx.log.events[i];
        switch (e.kind) {
          case Kind::Admit: {
            const auto it = lastAdmit.find(e.lane);
            if (it != lastAdmit.end() && e.cycle < it->second) {
                report.add(rule, e.lane, i,
                           cat("admission at cycle ", e.cycle,
                               " precedes an earlier admission at ",
                               it->second));
            }
            lastAdmit[e.lane] = std::max(
                it == lastAdmit.end() ? Cycle{0} : it->second, e.cycle);
            break;
          }
          case Kind::Expire:
            if (e.b >= e.cycle) {
                report.add(rule, e.lane, i,
                           cat("request ", e.a, " expired at cycle ",
                               e.cycle, " with deadline ", e.b,
                               " still live"));
            }
            break;
          case Kind::SealMember:
            if (e.b < e.cycle) {
                report.add(rule, e.lane, i,
                           cat("request ", e.a, " sealed into batch ",
                               e.c, " at cycle ", e.cycle,
                               " past its deadline ", e.b));
            }
            break;
          case Kind::BatchSeal:
            sealCycle[{e.lane, e.a}] = e.cycle;
            break;
          case Kind::Dispatch: {
            dispatchCycle[{e.lane, e.a}] = e.cycle;
            const auto it = sealCycle.find({e.lane, e.a});
            if (it != sealCycle.end() && e.cycle < it->second) {
                report.add(rule, e.lane, i,
                           cat("batch ", e.a, " dispatched at cycle ",
                               e.cycle, " before its seal at ",
                               it->second));
            }
            break;
          }
          case Kind::Resolve: {
            const auto it = dispatchCycle.find({e.lane, e.a});
            if (it != dispatchCycle.end() && e.cycle < it->second) {
                report.add(rule, e.lane, i,
                           cat("batch ", e.a, " resolved at cycle ",
                               e.cycle, " before its dispatch at ",
                               it->second));
            }
            break;
          }
          default:
            break;
        }
    }
}

/** SV004: shed and degrade decisions follow the configured
 *  watermarks: an arrival is shed iff the sampled queue depth is at
 *  shedWater, a batch runs degraded iff the formation depth is at
 *  highWater. */
void
ruleWatermarkLegality(const ScheduleLintContext &ctx,
                      const LintRuleInfo &rule, LintReport &report)
{
    struct LaneCfg
    {
        bool present = false;
        std::uint64_t highWater = 0, shedWater = 0;
    };
    std::map<std::uint32_t, LaneCfg> cfgs;
    for (const ScheduleEvent &e : ctx.log.events) {
        if (e.kind == Kind::PipelineConfig)
            cfgs[e.lane] = LaneCfg{true, e.a, e.b};
    }
    for (std::size_t i = 0; i < ctx.log.events.size(); ++i) {
        const ScheduleEvent &e = ctx.log.events[i];
        if (e.kind != Kind::Admit && e.kind != Kind::BatchSeal)
            continue;
        const LaneCfg cfg = cfgs[e.lane];
        if (!cfg.present) {
            report.add(rule, e.lane, i,
                       cat("lane has scheduling events but no "
                           "PipelineConfig to check watermarks "
                           "against"));
            continue;
        }
        if (e.kind == Kind::Admit) {
            const std::uint64_t outcome = admitOutcome(e);
            const std::uint64_t depth = admitDepth(e);
            if (outcome == kAdmitShed && depth < cfg.shedWater) {
                report.add(rule, e.lane, i,
                           cat("request ", e.a, " shed at depth ",
                               depth, " below shedWater ",
                               cfg.shedWater));
            } else if (outcome == kAdmitQueued &&
                       depth >= cfg.shedWater) {
                report.add(rule, e.lane, i,
                           cat("request ", e.a, " queued at depth ",
                               depth, " at/above shedWater ",
                               cfg.shedWater));
            }
        } else {
            const bool degraded = sealDegraded(e);
            const std::uint64_t depth = sealDepth(e);
            if (degraded != (depth >= cfg.highWater)) {
                report.add(rule, e.lane, i,
                           cat("batch ", e.a, " formed at depth ",
                               depth, (degraded ? " degraded"
                                                : " undegraded"),
                               " against highWater ", cfg.highWater));
            }
        }
    }
}

// --- SH: shard rules over the event log ------------------------------

/** SH003: per-request scatter/gather/join accounting balances — the
 *  routed fan-out equals gathered plus shed sub-queries, the join
 *  records those counts, and the completion cycle pays the merge cost
 *  on top of the last merge-ready sub-answer. */
void
ruleJoinAccounting(const ScheduleLintContext &ctx,
                   const LintRuleInfo &rule, LintReport &report)
{
    bool haveMerge = false;
    Cycle mergePerShard = 0;
    for (const ScheduleEvent &e : ctx.log.events) {
        if (e.kind == Kind::ClusterConfig) {
            haveMerge = true;
            mergePerShard = e.c;
        }
    }
    struct Flow
    {
        std::size_t routes = 0;
        std::uint64_t fanout = 0;
        std::size_t gathers = 0, subSheds = 0, joins = 0;
        Cycle mergeReadyMax = 0;
        std::uint64_t joinServed = 0, joinShed = 0;
        Cycle joinCycle = 0;
        std::size_t anchor = 0;
    };
    std::map<std::uint64_t, Flow> flows;
    for (std::size_t i = 0; i < ctx.log.events.size(); ++i) {
        const ScheduleEvent &e = ctx.log.events[i];
        switch (e.kind) {
          case Kind::RouterRoute: {
            Flow &f = flows[e.a];
            f.routes += 1;
            f.fanout = e.c;
            f.anchor = i;
            break;
          }
          case Kind::Gather: {
            Flow &f = flows[e.a];
            f.gathers += 1;
            f.mergeReadyMax = std::max(f.mergeReadyMax, e.c);
            break;
          }
          case Kind::SubShed:
            flows[e.a].subSheds += 1;
            break;
          case Kind::JoinDone: {
            Flow &f = flows[e.a];
            f.joins += 1;
            f.joinServed = e.b;
            f.joinShed = e.c;
            f.joinCycle = e.cycle;
            break;
          }
          default:
            break;
        }
    }
    for (const auto &[id, f] : flows) {
        if (f.routes == 0) {
            report.add(rule, kRouterLane, f.anchor,
                       cat("request ", id, " has join events but was "
                           "never routed"));
            continue;
        }
        if (f.routes > 1) {
            report.add(rule, kRouterLane, f.anchor,
                       cat("request ", id, " routed ", f.routes,
                           " times"));
            continue;
        }
        if (f.fanout == 0) {
            if (f.gathers + f.subSheds + f.joins > 0) {
                report.add(rule, kRouterLane, f.anchor,
                           cat("request ", id, " answered empty at the "
                               "router but has join events"));
            }
            continue;
        }
        if (f.gathers + f.subSheds != f.fanout) {
            report.add(rule, kRouterLane, f.anchor,
                       cat("request ", id, " fanned out to ", f.fanout,
                           " shards but resolved ", f.gathers,
                           " gathers + ", f.subSheds, " sheds"));
            continue;
        }
        if (f.joins != 1) {
            report.add(rule, kRouterLane, f.anchor,
                       cat("request ", id, " has ", f.joins,
                           " join completions (want exactly 1)"));
            continue;
        }
        if (f.joinServed != f.gathers || f.joinShed != f.subSheds) {
            report.add(rule, kRouterLane, f.anchor,
                       cat("request ", id, " join recorded ",
                           f.joinServed, " served / ", f.joinShed,
                           " shed but the log shows ", f.gathers,
                           " / ", f.subSheds));
            continue;
        }
        if (f.joinServed > 0 && haveMerge) {
            const Cycle want =
                f.mergeReadyMax + mergePerShard * f.joinServed;
            if (f.joinCycle != want) {
                report.add(rule, kRouterLane, f.anchor,
                           cat("request ", id, " completed at cycle ",
                               f.joinCycle, " but its last sub-answer "
                               "merged ready at ", f.mergeReadyMax,
                               " plus ", mergePerShard, " x ",
                               f.joinServed, " merge = ", want));
            }
        }
    }
}

/** SH004: link-hop causality — every scatter/gather hop pays exactly
 *  the configured link latency on the unified clock, a gathered
 *  sub-answer's lane saw its sub-query delivered (gather never
 *  precedes scatter), and every delivery admits at its lane at the
 *  delivery cycle. */
void
ruleLinkCausality(const ScheduleLintContext &ctx,
                  const LintRuleInfo &rule, LintReport &report)
{
    bool haveCfg = false;
    Cycle scatterHop = 0, gatherHop = 0;
    for (const ScheduleEvent &e : ctx.log.events) {
        if (e.kind == Kind::ClusterConfig) {
            haveCfg = true;
            scatterHop = e.a;
            gatherHop = e.b;
        }
    }
    // (request, lane) -> pending scatter delivery cycles / lane admits.
    std::map<std::pair<std::uint64_t, std::uint64_t>,
             std::vector<Cycle>>
        deliveries, admits;
    for (const ScheduleEvent &e : ctx.log.events) {
        if (e.kind == Kind::Scatter)
            deliveries[{e.a, e.b}].push_back(e.c);
        else if (e.kind == Kind::Admit)
            admits[{e.a, e.lane}].push_back(e.cycle);
    }
    auto consume = [](std::vector<Cycle> &v, Cycle value) {
        const auto it = std::find(v.begin(), v.end(), value);
        if (it == v.end())
            return false;
        v.erase(it);
        return true;
    };
    for (std::size_t i = 0; i < ctx.log.events.size(); ++i) {
        const ScheduleEvent &e = ctx.log.events[i];
        if (e.kind != Kind::Scatter && e.kind != Kind::Gather)
            continue;
        if (!haveCfg) {
            report.add(rule, e.lane, i,
                       "scatter/gather events without a ClusterConfig "
                       "to check link latency against");
            return;
        }
        if (e.kind == Kind::Scatter) {
            if (e.c != e.cycle + scatterHop) {
                report.add(rule, e.lane, i,
                           cat("request ", e.a, " scattered at cycle ",
                               e.cycle, " delivers at ", e.c,
                               " instead of paying the ", scatterHop,
                               "-cycle scatter hop"));
            }
            if (!consume(admits[{e.a, e.b}], e.c)) {
                report.add(rule, e.lane, i,
                           cat("request ", e.a, " delivered to lane ",
                               e.b, " at cycle ", e.c,
                               " was never admitted there at that "
                               "cycle"));
            }
        } else {
            if (e.c != e.b + gatherHop || e.cycle != e.b) {
                report.add(rule, e.lane, i,
                           cat("request ", e.a, " gathered from lane "
                               "ready cycle ", e.b, " (event cycle ",
                               e.cycle, ") merges ready at ", e.c,
                               " instead of paying the ", gatherHop,
                               "-cycle gather hop"));
            }
            // The gather must consume a delivery that happened by its
            // lane-ready cycle: gather never precedes scatter.
            std::vector<Cycle> &pend = deliveries[{e.a, e.lane}];
            bool matched = false;
            for (auto it = pend.begin(); it != pend.end(); ++it) {
                if (*it <= e.cycle) {
                    pend.erase(it);
                    matched = true;
                    break;
                }
            }
            if (!matched) {
                report.add(rule, e.lane, i,
                           cat("request ", e.a, " gathered from lane ",
                               e.lane, " at cycle ", e.cycle,
                               " with no sub-query delivered there "
                               "by then (gather precedes scatter)"));
            }
        }
    }
}

// --- CH: answer-cache rules ------------------------------------------

/** CH001: hits and misses replay exactly against a resident-set
 *  oracle rebuilt from the insert/evict sequence, and exact-key
 *  caches use keys that bit-match the query id. */
void
ruleCacheReplay(const ScheduleLintContext &ctx,
                const LintRuleInfo &rule, LintReport &report)
{
    const auto lanes = eventsByLane(ctx.log);
    for (const auto &[lane_id, indexes] : lanes) {
        bool haveCfg = false;
        bool exactOnly = false;
        std::vector<std::uint64_t> resident; //!< few entries: linear
        auto find = [&](std::uint64_t key) {
            return std::find(resident.begin(), resident.end(), key);
        };
        for (const std::size_t i : indexes) {
            const ScheduleEvent &e = ctx.log.events[i];
            switch (e.kind) {
              case Kind::CacheConfig:
                haveCfg = true;
                exactOnly = (e.b & kCacheExactOnly) != 0;
                break;
              case Kind::CacheHit:
              case Kind::CacheMiss:
              case Kind::CacheInsert: {
                if (!haveCfg) {
                    report.add(rule, lane_id, i,
                               "cache events before any CacheConfig");
                    return;
                }
                if (exactOnly && e.b != e.a) {
                    report.add(rule, lane_id, i,
                               cat("exact-only cache used key ", e.b,
                                   " for query id ", e.a,
                                   " (keys must bit-match the id)"));
                }
                const bool isResident = find(e.b) != resident.end();
                if (e.kind == Kind::CacheHit && !isResident) {
                    report.add(rule, lane_id, i,
                               cat("cache hit on key ", e.b,
                                   " which the insert/evict replay "
                                   "says is not resident"));
                } else if (e.kind == Kind::CacheMiss && isResident) {
                    report.add(rule, lane_id, i,
                               cat("cache miss on key ", e.b,
                                   " which the insert/evict replay "
                                   "says is resident"));
                } else if (e.kind == Kind::CacheInsert) {
                    if (isResident != (e.c == 1)) {
                        report.add(rule, lane_id, i,
                                   cat("cache insert of key ", e.b,
                                       (e.c == 1
                                            ? " flagged refresh but "
                                              "the key is new"
                                            : " flagged new but the "
                                              "key is resident")));
                    }
                    if (!isResident)
                        resident.push_back(e.b);
                }
                break;
              }
              case Kind::CacheEvict: {
                const auto it = find(e.a);
                if (it == resident.end()) {
                    report.add(rule, lane_id, i,
                               cat("evicted key ", e.a,
                                   " was not resident"));
                } else {
                    resident.erase(it);
                }
                break;
              }
              default:
                break;
            }
        }
    }
}

/** CH002: B+tree answers are exact values — a Keys-family cache must
 *  run exact-only regardless of the requested tolerance mode. */
void
ruleBtreeExactness(const ScheduleLintContext &ctx,
                   const LintRuleInfo &rule, LintReport &report)
{
    for (std::size_t i = 0; i < ctx.log.events.size(); ++i) {
        const ScheduleEvent &e = ctx.log.events[i];
        if (e.kind != Kind::CacheConfig)
            continue;
        if ((e.b & kCacheBtree) != 0 &&
            (e.b & kCacheExactOnly) == 0) {
            report.add(rule, e.lane, i,
                       "B+tree workload configured with recall-"
                       "tolerant cache keys; Keys datasets must "
                       "always use exact keys");
        }
    }
}

/** CH003: evictions happen in LRU order, only at capacity, and the
 *  replayed occupancy never exceeds capacity. */
void
ruleLruDiscipline(const ScheduleLintContext &ctx,
                  const LintRuleInfo &rule, LintReport &report)
{
    const auto lanes = eventsByLane(ctx.log);
    for (const auto &[lane_id, indexes] : lanes) {
        bool haveCfg = false;
        std::uint64_t capacity = 0;
        std::list<std::uint64_t> lru; //!< front = most recent
        auto touch = [&](std::uint64_t key) {
            const auto it = std::find(lru.begin(), lru.end(), key);
            if (it != lru.end())
                lru.splice(lru.begin(), lru, it);
        };
        for (std::size_t n = 0; n < indexes.size(); ++n) {
            const std::size_t i = indexes[n];
            const ScheduleEvent &e = ctx.log.events[i];
            switch (e.kind) {
              case Kind::CacheConfig:
                haveCfg = true;
                capacity = e.a;
                break;
              case Kind::CacheHit:
                touch(e.b);
                break;
              case Kind::CacheInsert:
                if (std::find(lru.begin(), lru.end(), e.b) !=
                    lru.end()) {
                    touch(e.b); // refresh (CH001 audits the flag)
                } else {
                    lru.push_front(e.b);
                }
                break;
              case Kind::CacheEvict: {
                if (lru.empty())
                    break; // CH001's finding
                if (haveCfg && lru.size() <= capacity) {
                    report.add(rule, lane_id, i,
                               cat("eviction of key ", e.a, " at "
                                   "occupancy ", lru.size(),
                                   " within capacity ", capacity));
                }
                if (lru.back() != e.a) {
                    report.add(rule, lane_id, i,
                               cat("evicted key ", e.a,
                                   " but LRU order expects key ",
                                   lru.back()));
                }
                const auto it =
                    std::find(lru.begin(), lru.end(), e.a);
                if (it != lru.end())
                    lru.erase(it);
                else
                    lru.pop_back();
                break;
              }
              default:
                break;
            }
            // An insert may transiently overflow by one entry; the
            // very next cache action on the lane must be its eviction.
            if (haveCfg && lru.size() > capacity) {
                const bool evictNext =
                    n + 1 < indexes.size() &&
                    ctx.log.events[indexes[n + 1]].kind ==
                        Kind::CacheEvict;
                if (lru.size() > capacity + 1 ||
                    (!evictNext && e.kind != Kind::CacheEvict)) {
                    report.add(rule, lane_id, i,
                               cat("cache occupancy ", lru.size(),
                                   " exceeds capacity ", capacity,
                                   " without an immediate eviction"));
                }
            }
        }
    }
}

// --- Fixed-function rule descriptors ---------------------------------

const LintRuleInfo kSh001{
    "SH001", LintSeverity::Error,
    "shard slices are pairwise disjoint and jointly cover every "
    "element of the dataset",
    "partitionDataset must assign each element id to exactly one "
    "shard for every (family, policy, N); fix contiguousRuns / "
    "hashShardOf, not the check"};

const LintRuleInfo kSh002{
    "SH002", LintSeverity::Error,
    "merged answers are strictly ordered by (dist2, global id) with "
    "no duplicate ids and at most k entries",
    "merge through shard/merge mergeTopK only; its comparator is the "
    "total order that makes sharded answers bit-reproducible"};

/** Every schedule rule, in catalog order. */
const std::vector<ScheduleRule> &
scheduleRules()
{
    static const std::vector<ScheduleRule> rules = {
        {{"SV001", LintSeverity::Error,
          "every queued request is sealed into a batch or expired, "
          "exactly once (admitted = answered + expired + shed)",
          "pop requests only through DynamicBatcher::popBatch and record "
          "seal/expiry through the pipeline recorder, never around it"},
         ruleServeConservation},
        {{"SV002", LintSeverity::Error,
          "batch membership is sealed before policy ordering and "
          "conserved through dispatch (coherent reorder is timing-only)",
          "record SealMember in FIFO pop order before orderBatch runs; "
          "dispatch exactly the FormedBatch the pipeline sealed"},
         ruleBatchMembership},
        {{"SV003", LintSeverity::Error,
          "admission/seal/dispatch/resolve cycles are monotone and "
          "expiry respects deadlines on the unified clock",
          "keep the event loop's now monotone and route every deadline "
          "check through the batcher's pop-time expiry"},
         ruleScheduleMonotonicity},
        {{"SV004", LintSeverity::Error,
          "shed and degrade decisions match the configured queue "
          "watermarks",
          "sample the queue depth once per decision (before the "
          "push/pop) and compare against DegradePolicy only"},
         ruleWatermarkLegality},
        {kSh001, nullptr},
        {kSh002, nullptr},
        {{"SH003", LintSeverity::Error,
          "scatter fan-out, gather/shed joins, and merge timing balance "
          "per request",
          "resolve every routed sub-query exactly once through "
          "subquery_resolved and charge mergeCyclesPerShard per served "
          "sub-answer"},
         ruleJoinAccounting},
        {{"SH004", LintSeverity::Error,
          "gather never precedes scatter and every hop pays the link "
          "latency on the unified clock",
          "put every sub-query on the wire with deliver = send + "
          "hopCycles(scatterBytes) and gather at lane-ready + "
          "hopCycles(gatherBytes)"},
         ruleLinkCausality},
        {{"CH001", LintSeverity::Error,
          "cache hits/misses replay exactly against a resident-set "
          "oracle; exact-only keys bit-match the query id",
          "drive all residency through AnswerCache::lookup/insert; never "
          "construct hit keys outside keyFor"},
         ruleCacheReplay},
        {{"CH002", LintSeverity::Error,
          "B+tree workloads never use recall-tolerant cache keys",
          "AnswerCache must force exactOnly for Algo::Btree regardless "
          "of the configured CacheMode"},
         ruleBtreeExactness},
        {{"CH003", LintSeverity::Error,
          "evictions follow LRU order, happen only at capacity, and "
          "occupancy never exceeds capacity",
          "evict exactly lru_.back() when size() > capacity inside "
          "AnswerCache::insert; never erase by key elsewhere"},
         ruleLruDiscipline},
    };
    return rules;
}

} // namespace

// --- Catalog ---------------------------------------------------------

std::vector<LintRuleInfo>
scheduleLintRuleCatalog()
{
    std::vector<LintRuleInfo> out;
    for (const ScheduleRule &r : scheduleRules())
        out.push_back(r.info);
    return out;
}

// --- Entry points ----------------------------------------------------

LintReport
lintScheduleLog(const ScheduleLog &log)
{
    LintReport report;
    const ScheduleLintContext ctx{log};
    for (const ScheduleRule &r : scheduleRules()) {
        if (r.fn)
            r.fn(ctx, r.info, report);
    }
    return report;
}

LintReport
lintPartitionCoverage(
    const std::vector<std::vector<std::uint32_t>> &shard_ids,
    std::size_t total_elements)
{
    LintReport report;
    std::vector<std::uint8_t> seen(total_elements, 0);
    for (std::size_t s = 0; s < shard_ids.size(); ++s) {
        for (const std::uint32_t id : shard_ids[s]) {
            if (id >= total_elements) {
                report.add(kSh001, s, id,
                           cat("element id ", id, " outside the "
                               "dataset's ", total_elements,
                               " elements"));
            } else if (seen[id]) {
                report.add(kSh001, s, id,
                           cat("element id ", id,
                               " assigned to more than one shard"));
            } else {
                seen[id] = 1;
            }
        }
    }
    for (std::size_t id = 0; id < total_elements; ++id) {
        if (!seen[id]) {
            report.add(kSh001, 0, id,
                       cat("element id ", id, " covered by no shard"));
        }
    }
    return report;
}

LintReport
lintMergeOrder(
    const std::vector<std::pair<double, std::uint32_t>> &merged,
    std::size_t k)
{
    LintReport report;
    if (merged.size() > k) {
        report.add(kSh002, 0, 0,
                   cat("merged answer holds ", merged.size(),
                       " entries for k=", k));
    }
    std::vector<std::uint32_t> ids;
    ids.reserve(merged.size());
    for (std::size_t i = 0; i < merged.size(); ++i) {
        ids.push_back(merged[i].second);
        if (i == 0)
            continue;
        const auto &prev = merged[i - 1];
        const auto &cur = merged[i];
        const bool ordered =
            prev.first < cur.first ||
            (prev.first == cur.first && prev.second < cur.second);
        if (!ordered) {
            report.add(kSh002, 0, i,
                       cat("entry (", cur.first, ", ", cur.second,
                           ") does not follow (", prev.first, ", ",
                           prev.second,
                           ") under the (dist2, id) total order"));
        }
    }
    std::sort(ids.begin(), ids.end());
    for (std::size_t i = 1; i < ids.size(); ++i) {
        if (ids[i] == ids[i - 1]) {
            report.add(kSh002, 0, i,
                       cat("global id ", ids[i],
                           " appears more than once in one merged "
                           "answer"));
        }
    }
    return report;
}

} // namespace hsu
