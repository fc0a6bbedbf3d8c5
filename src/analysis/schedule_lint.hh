/**
 * @file
 * Schedule auditor: rule-based verification of recorded serving
 * schedules (analysis/schedule_log) plus fixed-function checks of the
 * shard partitioning and merge layers. The serving-side counterpart of
 * the trace linter (analysis/trace_lint) — same LintReport and fixed
 * rule tables, new rule families (the catalog lives in DESIGN.md §11):
 *
 *  - SVxxx: serve-schedule rules over the event log (conservation of
 *    queued requests, seal-before-policy batch membership, cycle and
 *    deadline monotonicity, shed/degrade watermark legality),
 *  - SHxxx: shard rules — partition disjointness/coverage and merge
 *    total-order as fixed functions of plain data, scatter/gather
 *    join accounting and link-hop causality over the event log,
 *  - CHxxx: answer-cache rules (hit/miss replay against a resident-set
 *    oracle with bit-matching exact keys, B+tree exactness, LRU
 *    eviction order and capacity bounds).
 *
 * Findings anchor to (lane, event index) through LintFinding's
 * (warp, op) slots — "warp" reads as the scheduling lane here.
 * Linting never mutates the log and allocates only the report.
 */

#ifndef HSU_ANALYSIS_SCHEDULE_LINT_HH
#define HSU_ANALYSIS_SCHEDULE_LINT_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "analysis/schedule_log.hh"
#include "analysis/trace_lint.hh"

namespace hsu
{

/** Every schedule rule in catalog order: SV, then SH (including the
 *  SH001/SH002 fixed functions), then CH. */
std::vector<LintRuleInfo> scheduleLintRuleCatalog();

/** Run every schedule-log rule over @p log. */
LintReport lintScheduleLog(const ScheduleLog &log);

/**
 * SH001 (fixed function): @p shard_ids — per-shard element-id lists —
 * must be pairwise disjoint and jointly cover exactly the ids
 * [0, @p total_elements).
 */
LintReport
lintPartitionCoverage(const std::vector<std::vector<std::uint32_t>> &shard_ids,
                      std::size_t total_elements);

/**
 * SH002 (fixed function): @p merged — one merged top-k answer list as
 * (dist2, global id) pairs — must be strictly increasing under the
 * merge layer's total order (dist2, then id; no duplicate ids) and at
 * most @p k long.
 */
LintReport
lintMergeOrder(const std::vector<std::pair<double, std::uint32_t>> &merged,
               std::size_t k);

} // namespace hsu

#endif // HSU_ANALYSIS_SCHEDULE_LINT_HH
