#include "analysis/trace_lint.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>

#include "common/logging.hh"
#include "sim/trace_stats.hh"

namespace hsu
{

namespace
{

/** Human-readable TraceOrigin name (finding messages). */
const char *
originName(TraceOrigin o)
{
    switch (o) {
      case TraceOrigin::Generic:
        return "Generic";
      case TraceOrigin::Distance:
        return "Distance";
      case TraceOrigin::KeyCompare:
        return "KeyCompare";
      case TraceOrigin::BoxTest:
        return "BoxTest";
      case TraceOrigin::TriTest:
        return "TriTest";
    }
    return "?";
}

std::string
loweringName(const Lowering &low)
{
    std::ostringstream os;
    switch (low.kind) {
      case Lowering::Kind::Baseline:
        os << "Baseline";
        break;
      case Lowering::Kind::Hsu:
        os << "Hsu";
        break;
      case Lowering::Kind::PartialOffload:
        if (low.policy == OffloadPolicy::ByKind)
            os << "PartialOffload(ByKind mask=0x" << std::hex
               << low.kindMask << ")";
        else
            os << "PartialOffload(f=" << low.fraction << ")";
        break;
    }
    return os.str();
}

template <typename... Args>
std::string
cat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

/** Semantic ops whose lowering reads the warp's address pool. */
bool
semNeedsPool(const SemOp &op)
{
    switch (op.kind) {
      case SemKind::Distance:
      case SemKind::BoxTest:
      case SemKind::TriTest:
        return true;
      case SemKind::KeyCompare:
        return op.laneProbe;
      default:
        return false;
    }
}

// --- Rule tables -----------------------------------------------------

/** Context handed to semantic-trace rules. */
struct SemLintContext
{
    const SemKernelTrace &sem;
    DatapathConfig dp;
};

/** Context handed to lowered-trace rules. */
struct LoweredLintContext
{
    const KernelTrace &trace;
};

struct SemRule
{
    LintRuleInfo info;
    void (*fn)(const SemLintContext &, const LintRuleInfo &, LintReport &);
};

struct LoweredRule
{
    LintRuleInfo info;
    void (*fn)(const LoweredLintContext &, const LintRuleInfo &,
               LintReport &);
};

// --- Built-in semantic rules (IRxxx) ---------------------------------

void
ruleUnresolvedVirtToken(const SemLintContext &ctx,
                        const LintRuleInfo &rule, LintReport &report)
{
    for (std::size_t w = 0; w < ctx.sem.warps.size(); ++w) {
        const SemWarpTrace &warp = ctx.sem.warps[w];
        std::vector<bool> produced(warp.numVirtTokens, false);
        for (std::size_t i = 0; i < warp.ops.size(); ++i) {
            const SemOp &op = warp.ops[i];
            for (std::uint32_t c = 0; c < op.consumeCount; ++c) {
                const std::size_t slot = op.consumeOffset + c;
                if (slot >= warp.consumePool.size())
                    break; // IR004's finding
                const VirtToken tok = warp.consumePool[slot];
                if (tok < 0 ||
                    static_cast<std::uint32_t>(tok) >=
                        warp.numVirtTokens) {
                    report.add(rule, w, i,
                               cat("consumed virtual token ", tok,
                                   " is outside [0, ",
                                   warp.numVirtTokens, ")"));
                } else if (!produced[static_cast<std::size_t>(tok)]) {
                    report.add(rule, w, i,
                               cat("consumed virtual token ", tok,
                                   " has no producing op earlier in "
                                   "the warp"));
                }
            }
            if (op.produces != kNoVirt && op.produces >= 0 &&
                static_cast<std::uint32_t>(op.produces) <
                    warp.numVirtTokens) {
                produced[static_cast<std::size_t>(op.produces)] = true;
            }
        }
    }
}

void
ruleVirtTokenRedefined(const SemLintContext &ctx,
                       const LintRuleInfo &rule, LintReport &report)
{
    for (std::size_t w = 0; w < ctx.sem.warps.size(); ++w) {
        const SemWarpTrace &warp = ctx.sem.warps[w];
        std::vector<bool> produced(warp.numVirtTokens, false);
        for (std::size_t i = 0; i < warp.ops.size(); ++i) {
            const SemOp &op = warp.ops[i];
            if (op.produces == kNoVirt)
                continue;
            if (op.produces < 0 ||
                static_cast<std::uint32_t>(op.produces) >=
                    warp.numVirtTokens) {
                report.add(rule, w, i,
                           cat("produced virtual token ", op.produces,
                               " is outside [0, ", warp.numVirtTokens,
                               ")"));
                continue;
            }
            const auto idx = static_cast<std::size_t>(op.produces);
            if (produced[idx]) {
                report.add(rule, w, i,
                           cat("virtual token ", op.produces,
                               " produced twice (SSA form: one "
                               "producer per token)"));
            }
            produced[idx] = true;
        }
    }
}

void
ruleSemAddrPool(const SemLintContext &ctx, const LintRuleInfo &rule,
                LintReport &report)
{
    for (std::size_t w = 0; w < ctx.sem.warps.size(); ++w) {
        const SemWarpTrace &warp = ctx.sem.warps[w];
        for (std::size_t i = 0; i < warp.ops.size(); ++i) {
            const SemOp &op = warp.ops[i];
            if (semNeedsPool(op) && op.addr.poolIndex < 0) {
                report.add(rule, w, i,
                           "semantic batch op carries no address-pool "
                           "block (poolIndex < 0)");
                continue;
            }
            if (op.addr.poolIndex >= 0 &&
                static_cast<std::size_t>(op.addr.poolIndex) + kWarpSize >
                    warp.addrPool.size()) {
                report.add(rule, w, i,
                           cat("address-pool block [", op.addr.poolIndex,
                               ", ", op.addr.poolIndex + kWarpSize,
                               ") overruns the pool (size ",
                               warp.addrPool.size(), ")"));
            }
        }
    }
}

void
ruleConsumePool(const SemLintContext &ctx, const LintRuleInfo &rule,
                LintReport &report)
{
    for (std::size_t w = 0; w < ctx.sem.warps.size(); ++w) {
        const SemWarpTrace &warp = ctx.sem.warps[w];
        for (std::size_t i = 0; i < warp.ops.size(); ++i) {
            const SemOp &op = warp.ops[i];
            const std::uint64_t end =
                std::uint64_t(op.consumeOffset) + op.consumeCount;
            if (end > warp.consumePool.size()) {
                report.add(rule, w, i,
                           cat("consume list [", op.consumeOffset, ", ",
                               end, ") overruns the consume pool (size ",
                               warp.consumePool.size(), ")"));
            }
        }
    }
}

void
ruleDistanceBeats(const SemLintContext &ctx, const LintRuleInfo &rule,
                  LintReport &report)
{
    for (std::size_t w = 0; w < ctx.sem.warps.size(); ++w) {
        const SemWarpTrace &warp = ctx.sem.warps[w];
        for (std::size_t i = 0; i < warp.ops.size(); ++i) {
            const SemOp &op = warp.ops[i];
            if (op.kind != SemKind::Distance)
                continue;
            if (op.dim == 0) {
                report.add(rule, w, i,
                           "DistanceBatch over zero-dimensional points");
                continue;
            }
            const DistanceShape &s = op.dist;
            if (s.warpCooperative) {
                // Calibration: the baseline loads the whole candidate
                // in coalesced 128B chunks (4B per lane).
                const unsigned want =
                    std::max(1u, (op.dim * 4u + 127u) / 128u);
                if (s.chunkCount != want) {
                    report.add(
                        rule, w, i,
                        cat("warp-cooperative DistanceBatch over dim=",
                            op.dim, " declares ", s.chunkCount,
                            " baseline chunks; the coalesced-load "
                            "calibration requires ", want));
                }
            } else {
                const std::uint64_t covered =
                    std::uint64_t(s.chunkCount) * s.chunkBytes;
                if (covered < std::uint64_t(op.dim) * 4) {
                    report.add(
                        rule, w, i,
                        cat("lane-parallel DistanceBatch over dim=",
                            op.dim, " fetches only ", covered,
                            " bytes per candidate (", s.chunkCount,
                            " x ", s.chunkBytes, "B); needs ",
                            op.dim * 4));
                }
            }
        }
    }
}

void
ruleDistanceShape(const SemLintContext &ctx, const LintRuleInfo &rule,
                  LintReport &report)
{
    for (std::size_t w = 0; w < ctx.sem.warps.size(); ++w) {
        const SemWarpTrace &warp = ctx.sem.warps[w];
        for (std::size_t i = 0; i < warp.ops.size(); ++i) {
            const SemOp &op = warp.ops[i];
            if (op.kind != SemKind::Distance)
                continue;
            if (op.dist.warpCooperative) {
                if (op.produces != kNoVirt) {
                    report.add(rule, w, i,
                               "warp-cooperative DistanceBatch is fully "
                               "encapsulated but produces a virtual "
                               "token");
                }
                if (op.nCands < 1 || op.nCands > kWarpSize) {
                    report.add(rule, w, i,
                               cat("warp-cooperative candidate count ",
                                   op.nCands, " outside [1, ",
                                   kWarpSize, "]"));
                } else if (op.activeMask !=
                           SemBuilder::lowLanes(op.nCands)) {
                    report.add(
                        rule, w, i,
                        cat("active mask 0x", std::hex, op.activeMask,
                            std::dec,
                            " disagrees with candidate count ",
                            op.nCands, " (expected lowLanes)"));
                }
            } else {
                if (op.produces == kNoVirt) {
                    report.add(rule, w, i,
                               "lane-parallel DistanceBatch produces no "
                               "virtual token (its consumer cannot "
                               "wait on the HSU result)");
                }
                if (op.nCands != 0) {
                    report.add(rule, w, i,
                               cat("lane-parallel DistanceBatch sets "
                                   "nCands=", op.nCands,
                                   " (warp-cooperative field)"));
                }
            }
        }
    }
}

void
ruleKeyCompareFanIn(const SemLintContext &ctx, const LintRuleInfo &rule,
                    LintReport &report)
{
    const unsigned width = std::max(1u, ctx.dp.keyCompareWidth);
    for (std::size_t w = 0; w < ctx.sem.warps.size(); ++w) {
        const SemWarpTrace &warp = ctx.sem.warps[w];
        for (std::size_t i = 0; i < warp.ops.size(); ++i) {
            const SemOp &op = warp.ops[i];
            if (op.kind != SemKind::KeyCompare)
                continue;
            if (op.laneProbe) {
                if (op.bytesPerLane == 0 ||
                    op.bytesPerLane > width * 4) {
                    report.add(
                        rule, w, i,
                        cat("lane-probe KeyCompareBatch fetches ",
                            op.bytesPerLane,
                            " bytes per lane; one KEY_COMPARE handles "
                            "at most ", width * 4,
                            " (one ", width, "-key chunk per lane)"));
                }
                continue;
            }
            if (op.nKeys < 1) {
                report.add(rule, w, i,
                           "warp-scan KeyCompareBatch over zero "
                           "separators");
                continue;
            }
            const unsigned chunks = (op.nKeys + width - 1) / width;
            if (chunks > kWarpSize) {
                report.add(
                    rule, w, i,
                    cat("warp-scan KeyCompareBatch over ", op.nKeys,
                        " separators needs ", chunks, " ", width,
                        "-key chunks; one KEY_COMPARE carries at most ",
                        kWarpSize, " (one per lane)"));
            }
        }
    }
}

void
ruleEmptyActiveMask(const SemLintContext &ctx, const LintRuleInfo &rule,
                    LintReport &report)
{
    for (std::size_t w = 0; w < ctx.sem.warps.size(); ++w) {
        const SemWarpTrace &warp = ctx.sem.warps[w];
        for (std::size_t i = 0; i < warp.ops.size(); ++i) {
            if (warp.ops[i].activeMask == 0) {
                report.add(rule, w, i,
                           "op with empty active mask (no lane "
                           "executes it; dead emission?)");
            }
        }
    }
}

void
ruleBoxShape(const SemLintContext &ctx, const LintRuleInfo &rule,
             LintReport &report)
{
    for (std::size_t w = 0; w < ctx.sem.warps.size(); ++w) {
        const SemWarpTrace &warp = ctx.sem.warps[w];
        for (std::size_t i = 0; i < warp.ops.size(); ++i) {
            const SemOp &op = warp.ops[i];
            if (op.kind != SemKind::BoxTest)
                continue;
            if (op.box.nodeBytes == 0) {
                report.add(rule, w, i, "BoxTestBatch over a 0-byte node");
                continue;
            }
            if (std::uint32_t(op.box.blChunks) * 16 != op.box.nodeBytes) {
                report.add(
                    rule, w, i,
                    cat("BoxTestBatch baseline fetch (", op.box.blChunks,
                        " x 16B) does not cover the ", op.box.nodeBytes,
                        "B node the CISC fetch reads"));
            }
        }
    }
}

// --- Built-in lowered-trace rules (LTxxx) ----------------------------

void
ruleScoreboardTokens(const LoweredLintContext &ctx,
                     const LintRuleInfo &rule, LintReport &report)
{
    for (std::size_t w = 0; w < ctx.trace.warps.size(); ++w) {
        const WarpTrace &warp = ctx.trace.warps[w];
        std::uint16_t produced = 0;
        for (std::size_t i = 0; i < warp.ops.size(); ++i) {
            const TraceOp &op = warp.ops[i];
            const std::uint16_t unknown =
                static_cast<std::uint16_t>(op.consumesMask & ~produced);
            if (unknown != 0) {
                report.add(rule, w, i,
                           cat("consume mask 0x", std::hex,
                               op.consumesMask, " waits on tokens 0x",
                               unknown, std::dec,
                               " no earlier op produced"));
            }
            if (op.produces != kNoToken && op.produces < 16)
                produced |= static_cast<std::uint16_t>(1u << op.produces);
        }
    }
}

void
ruleLoweredOpShape(const LoweredLintContext &ctx,
                   const LintRuleInfo &rule, LintReport &report)
{
    for (std::size_t w = 0; w < ctx.trace.warps.size(); ++w) {
        const WarpTrace &warp = ctx.trace.warps[w];
        for (std::size_t i = 0; i < warp.ops.size(); ++i) {
            const TraceOp &op = warp.ops[i];
            if (op.produces != kNoToken && op.produces >= 16) {
                report.add(rule, w, i,
                           cat("produced token ", unsigned(op.produces),
                               " beyond the 16-entry scoreboard"));
            }
            switch (op.type) {
              case OpType::Alu:
              case OpType::Shared:
                if (op.count == 0) {
                    report.add(rule, w, i,
                               "zero-instruction Alu/Shared block "
                               "(builders drop these)");
                }
                break;
              case OpType::Load:
              case OpType::Store:
              case OpType::HsuOp:
                if (op.bytesPerLane == 0) {
                    report.add(rule, w, i,
                               "memory op touching 0 bytes per lane");
                }
                if (op.type == OpType::HsuOp && op.count == 0) {
                    report.add(rule, w, i, "HSU op with zero beats");
                }
                break;
            }
        }
    }
}

void
ruleLoweredAddrPool(const LoweredLintContext &ctx,
                    const LintRuleInfo &rule, LintReport &report)
{
    for (std::size_t w = 0; w < ctx.trace.warps.size(); ++w) {
        const WarpTrace &warp = ctx.trace.warps[w];
        for (std::size_t i = 0; i < warp.ops.size(); ++i) {
            const TraceOp &op = warp.ops[i];
            if (op.type == OpType::HsuOp && op.addr.poolIndex < 0) {
                report.add(rule, w, i,
                           "HSU op without per-lane node addresses "
                           "(poolIndex < 0)");
                continue;
            }
            if (op.addr.poolIndex >= 0 &&
                static_cast<std::size_t>(op.addr.poolIndex) + kWarpSize >
                    warp.addrPool.size()) {
                report.add(rule, w, i,
                           cat("address-pool block [", op.addr.poolIndex,
                               ", ", op.addr.poolIndex + kWarpSize,
                               ") overruns the pool (size ",
                               warp.addrPool.size(), ")"));
            }
        }
    }
}

void
ruleOriginStamp(const LoweredLintContext &ctx, const LintRuleInfo &rule,
                LintReport &report)
{
    for (std::size_t w = 0; w < ctx.trace.warps.size(); ++w) {
        const WarpTrace &warp = ctx.trace.warps[w];
        for (std::size_t i = 0; i < warp.ops.size(); ++i) {
            const TraceOp &op = warp.ops[i];
            if (op.type != OpType::HsuOp)
                continue;
            if (static_cast<unsigned>(op.origin) >= kNumTraceOrigins)
                continue; // LT005's finding
            bool ok = false;
            switch (op.hsuOp) {
              case HsuOpcode::PointEuclid:
              case HsuOpcode::PointAngular:
                ok = op.origin == TraceOrigin::Distance;
                break;
              case HsuOpcode::KeyCompare:
                ok = op.origin == TraceOrigin::KeyCompare;
                break;
              case HsuOpcode::RayIntersect:
                ok = op.origin == TraceOrigin::BoxTest ||
                     op.origin == TraceOrigin::TriTest;
                break;
            }
            if (!ok) {
                report.add(rule, w, i,
                           cat("HSU op (", toString(op.hsuOp),
                               ") stamped with origin ",
                               originName(op.origin),
                               op.origin == TraceOrigin::Generic
                                   ? " (missing provenance stamp)"
                                   : " (wrong semantic family)"));
            }
        }
    }
}

void
ruleOriginRange(const LoweredLintContext &ctx, const LintRuleInfo &rule,
                LintReport &report)
{
    for (std::size_t w = 0; w < ctx.trace.warps.size(); ++w) {
        const WarpTrace &warp = ctx.trace.warps[w];
        for (std::size_t i = 0; i < warp.ops.size(); ++i) {
            const auto raw =
                static_cast<unsigned>(warp.ops[i].origin);
            if (raw >= kNumTraceOrigins) {
                report.add(rule, w, i,
                           cat("origin byte ", raw,
                               " outside the TraceOrigin range [0, ",
                               kNumTraceOrigins, ")"));
            }
        }
    }
}

/** The IR rules, in catalog order. */
const std::vector<SemRule> &
semRules()
{
    static const std::vector<SemRule> rules = {
        {{"IR001", LintSeverity::Error,
          "every consumed virtual token has an earlier producer",
          "emit the producing op before its consumer, or drop the stale "
          "token from the consume list"},
         ruleUnresolvedVirtToken},
        {{"IR002", LintSeverity::Error,
          "virtual tokens are produced exactly once and stay in range",
          "hand out tokens through SemBuilder only (nextVirt keeps them "
          "dense and single-assignment)"},
         ruleVirtTokenRedefined},
        {{"IR003", LintSeverity::Error,
          "semantic batch ops carry a full in-bounds address-pool block",
          "push kWarpSize lane addresses via the SemBuilder batch calls; "
          "never hand-roll poolIndex"},
         ruleSemAddrPool},
        {{"IR004", LintSeverity::Error,
          "consume lists stay inside the warp's consume pool",
          "build consume lists through SemBuilder::setConsumes; do not "
          "splice SemOps across warps"},
         ruleConsumePool},
        {{"IR005", LintSeverity::Error,
          "DistanceBatch chunk calibration covers the point dimension",
          "derive the shape from the lower.hh factories "
          "(ggnnDistanceShape / flannDistanceShape / bvhnnLeafShape) "
          "instead of hand-writing chunk counts"},
         ruleDistanceBeats},
        {{"IR006", LintSeverity::Error,
          "DistanceBatch form matches its token/mask contract",
          "warp-cooperative batches encapsulate their result (no token, "
          "lowLanes mask); lane-parallel batches must produce a token"},
         ruleDistanceShape},
        {{"IR007", LintSeverity::Error,
          "KeyCompareBatch fan-in fits one KEY_COMPARE instruction",
          "split oversized separator scans into multiple "
          "keyCompareScan calls (one node each)"},
         ruleKeyCompareFanIn},
        {{"IR008", LintSeverity::Warning,
          "no op is emitted with an empty active mask",
          "guard the emission on the candidate count (SemBuilder "
          "lowLanes(0) is not a valid mask)"},
         ruleEmptyActiveMask},
        {{"IR009", LintSeverity::Error,
          "BoxTestBatch baseline chunks cover exactly the CISC node",
          "use the bvhBoxShape / bvh4BoxShape / rtindexBoxShape "
          "factories; blChunks * 16 must equal nodeBytes"},
         ruleBoxShape},
    };
    return rules;
}

/** The LT rules, in catalog order. */
const std::vector<LoweredRule> &
loweredRules()
{
    static const std::vector<LoweredRule> rules = {
        {{"LT001", LintSeverity::Error,
          "consume masks only wait on previously produced scoreboard "
          "tokens",
          "lower virtual tokens through WarpLowerer::bind/consumeMask; "
          "never guess concrete token masks"},
         ruleScoreboardTokens},
        {{"LT002", LintSeverity::Error,
          "lowered ops are shape-valid (counts, bytes, token range)",
          "emit through TraceBuilder, which clamps and validates these "
          "fields"},
         ruleLoweredOpShape},
        {{"LT003", LintSeverity::Error,
          "pool-addressed ops stay inside the warp's address pool and "
          "HSU ops carry node addresses",
          "let TraceBuilder::loadGather/hsuOp manage the pool; never "
          "reuse pool indices across warps"},
         ruleLoweredAddrPool},
        {{"LT004", LintSeverity::Error,
          "every HSU op carries the provenance stamp of its semantic "
          "family",
          "WarpLowerer::stamp must run after each semantic expansion; "
          "new lowerings must stamp before returning"},
         ruleOriginStamp},
        {{"LT005", LintSeverity::Error,
          "origin bytes decode to a TraceOrigin value",
          "stamp origins with the TraceOrigin enum; never memset or "
          "cast raw bytes into TraceOp"},
         ruleOriginRange},
    };
    return rules;
}

// --- Cross-lowering rule descriptors (fixed functions) ---------------

const LintRuleInfo kXl001{
    "XL001", LintSeverity::Error,
    "per-origin CISC op counts match a replay of the offload decision",
    "keep lowerTrace's offloadDecision and the per-kind expansion in "
    "sync; unit-resident ops lower to the unit under every lowering"};

const LintRuleInfo kXl002{
    "XL002", LintSeverity::Error,
    "PartialOffload at f=0 / f=1 is bit-identical to Baseline / Hsu",
    "route every offload choice through offloadDecision so the "
    "fraction endpoints degenerate to the pure lowerings"};

const LintRuleInfo kXl003{
    "XL003", LintSeverity::Error,
    "ByKind offload masks offload exactly the selected kinds",
    "check Lowering::kindBit usage: the kindMask must partition "
    "offloadable ops, not drop or double-count them"};

} // namespace

// --- LintReport ------------------------------------------------------

void
LintReport::add(const LintRuleInfo &rule, std::size_t warp,
                std::size_t op, std::string message)
{
    RuleCount *rc = nullptr;
    for (RuleCount &c : counts_) {
        if (c.id == rule.id) {
            rc = &c;
            break;
        }
    }
    if (!rc) {
        counts_.push_back(RuleCount{rule.id, 0});
        rc = &counts_.back();
    }
    ++rc->count;
    if (rule.severity == LintSeverity::Error)
        ++errors_;
    else
        ++warnings_;
    if (rc->count > kMaxStoredPerRule) {
        ++suppressed_;
        return;
    }
    findings_.push_back(LintFinding{rule.id, rule.severity, warp, op,
                                    std::move(message)});
}

std::size_t
LintReport::countRule(std::string_view rule_id) const
{
    for (const RuleCount &c : counts_) {
        if (c.id == rule_id)
            return c.count;
    }
    return 0;
}

void
LintReport::merge(const LintReport &other)
{
    findings_.insert(findings_.end(), other.findings_.begin(),
                     other.findings_.end());
    for (const RuleCount &c : other.counts_) {
        bool found = false;
        for (RuleCount &mine : counts_) {
            if (mine.id == c.id) {
                mine.count += c.count;
                found = true;
                break;
            }
        }
        if (!found)
            counts_.push_back(c);
    }
    errors_ += other.errors_;
    warnings_ += other.warnings_;
    suppressed_ += other.suppressed_;
}

std::string
LintReport::str() const
{
    std::ostringstream os;
    for (const LintFinding &f : findings_) {
        os << f.ruleId << " ["
           << (f.severity == LintSeverity::Error ? "error" : "warning")
           << "] warp " << f.warp << " op " << f.op << ": " << f.message
           << "\n";
    }
    if (suppressed_ > 0)
        os << "(" << suppressed_ << " further findings suppressed)\n";
    return os.str();
}

// --- Catalog ---------------------------------------------------------

std::vector<LintRuleInfo>
lintRuleCatalog()
{
    std::vector<LintRuleInfo> out;
    for (const SemRule &r : semRules())
        out.push_back(r.info);
    for (const LoweredRule &r : loweredRules())
        out.push_back(r.info);
    out.push_back(kXl001);
    out.push_back(kXl002);
    out.push_back(kXl003);
    return out;
}

// --- Entry points ----------------------------------------------------

LintReport
lintSemTrace(const SemKernelTrace &sem, const DatapathConfig &dp)
{
    LintReport report;
    const SemLintContext ctx{sem, dp};
    for (const SemRule &r : semRules())
        r.fn(ctx, r.info, report);
    return report;
}

LintReport
lintLoweredTrace(const KernelTrace &trace)
{
    LintReport report;
    const LoweredLintContext ctx{trace};
    for (const LoweredRule &r : loweredRules())
        r.fn(ctx, r.info, report);
    return report;
}

LintReport
lintLoweringAccounting(const SemKernelTrace &sem,
                       const KernelTrace &lowered, const Lowering &low)
{
    LintReport report;
    const LintRuleInfo &rule =
        (low.kind == Lowering::Kind::PartialOffload &&
         low.policy == OffloadPolicy::ByKind)
            ? kXl003
            : kXl001;

    if (sem.warps.size() != lowered.warps.size()) {
        report.add(rule, 0, 0,
                   cat("semantic trace has ", sem.warps.size(),
                       " warps but the lowered trace has ",
                       lowered.warps.size()));
        return report;
    }

    const double fraction = std::clamp(low.fraction, 0.0, 1.0);
    for (std::size_t w = 0; w < sem.warps.size(); ++w) {
        // Replay the per-warp offload decision. The site counter must
        // advance exactly when lowerTrace's offloadDecision runs —
        // unit-resident box tests short-circuit past it.
        unsigned site = 0;
        auto decide = [&](SemKind kind) -> bool {
            switch (low.kind) {
              case Lowering::Kind::Baseline:
                return false;
              case Lowering::Kind::Hsu:
                return true;
              case Lowering::Kind::PartialOffload: {
                if (low.policy == OffloadPolicy::ByKind)
                    return (low.kindMask & Lowering::kindBit(kind)) != 0;
                const double i = static_cast<double>(site++);
                return std::floor((i + 1.0) * fraction) >
                       std::floor(i * fraction);
              }
            }
            hsu_panic("unknown lowering kind");
        };

        std::array<std::size_t, kNumTraceOrigins> expected{};
        for (const SemOp &op : sem.warps[w].ops) {
            switch (op.kind) {
              case SemKind::Distance:
                if (decide(SemKind::Distance)) {
                    ++expected[static_cast<std::size_t>(
                        TraceOrigin::Distance)];
                }
                break;
              case SemKind::KeyCompare:
                if (op.laneProbe || decide(SemKind::KeyCompare)) {
                    ++expected[static_cast<std::size_t>(
                        TraceOrigin::KeyCompare)];
                }
                break;
              case SemKind::BoxTest:
                if (op.box.unitResident || decide(SemKind::BoxTest)) {
                    ++expected[static_cast<std::size_t>(
                        TraceOrigin::BoxTest)];
                }
                break;
              case SemKind::TriTest:
                ++expected[static_cast<std::size_t>(
                    TraceOrigin::TriTest)];
                break;
              default:
                break;
            }
        }

        std::array<std::size_t, kNumTraceOrigins> actual{};
        for (const TraceOp &op : lowered.warps[w].ops) {
            if (op.type != OpType::HsuOp)
                continue;
            const auto o = static_cast<std::size_t>(op.origin);
            if (o < kNumTraceOrigins)
                ++actual[o];
        }

        for (std::size_t o = 0; o < kNumTraceOrigins; ++o) {
            if (expected[o] == actual[o])
                continue;
            report.add(
                rule, w, 0,
                cat("origin ", originName(static_cast<TraceOrigin>(o)),
                    ": ", actual[o],
                    " CISC ops in the lowered trace, but a replay of ",
                    loweringName(low), " expects ", expected[o]));
        }
    }
    return report;
}

LintReport
lintEndpointEquivalence(const SemKernelTrace &sem,
                        const DatapathConfig &dp)
{
    LintReport report;
    const std::uint64_t base =
        traceFingerprint(lowerTrace(sem, Lowering::baseline(dp)));
    const std::uint64_t f0 =
        traceFingerprint(lowerTrace(sem, Lowering::partial(0.0, dp)));
    if (base != f0) {
        report.add(kXl002, 0, 0,
                   cat("PartialOffload(f=0) fingerprint 0x", std::hex,
                       f0, " differs from Baseline 0x", base));
    }
    const std::uint64_t hsu =
        traceFingerprint(lowerTrace(sem, Lowering::hsu(dp)));
    const std::uint64_t f1 =
        traceFingerprint(lowerTrace(sem, Lowering::partial(1.0, dp)));
    if (hsu != f1) {
        report.add(kXl002, 0, 0,
                   cat("PartialOffload(f=1) fingerprint 0x", std::hex,
                       f1, " differs from Hsu 0x", hsu));
    }
    return report;
}

LintReport
lintWorkload(const SemKernelTrace &sem, const DatapathConfig &dp,
             double partial_fraction)
{
    LintReport report = lintSemTrace(sem, dp);

    const Lowering lowerings[] = {
        Lowering::baseline(dp),
        Lowering::hsu(dp),
        Lowering::partial(partial_fraction, dp),
    };
    for (const Lowering &low : lowerings) {
        const KernelTrace trace = lowerTrace(sem, low);
        report.merge(lintLoweredTrace(trace));
        report.merge(lintLoweringAccounting(sem, trace, low));
    }
    report.merge(lintEndpointEquivalence(sem, dp));
    return report;
}

void
lintSemTraceOrDie(const SemKernelTrace &sem, const char *what,
                  const DatapathConfig &dp)
{
    const LintReport report = lintSemTrace(sem, dp);
    if (report.errorCount() > 0) {
        hsu_panic(what, ": semantic trace failed lint (",
                  report.errorCount(), " errors):\n", report.str());
    }
}

} // namespace hsu
