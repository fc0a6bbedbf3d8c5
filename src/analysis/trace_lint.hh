/**
 * @file
 * Static trace/IR linter: rule-based well-formedness checks over
 * semantic kernel traces (sim/ir.hh), lowered warp traces
 * (sim/trace.hh), and the relation between the two under a given
 * lowering (sim/lower.hh).
 *
 * Three rule families exist (the catalog lives in DESIGN.md):
 *
 *  - IRxxx: semantic-trace rules (token resolution, shape/calibration
 *    consistency, pool bounds, datapath fan-in limits),
 *  - LTxxx: lowered-trace rules (scoreboard discipline, provenance
 *    stamps, op shape),
 *  - XLxxx: cross-lowering rules (per-origin CISC op conservation
 *    against a replay of the offload decision, f=0/f=1 endpoint
 *    equivalence, ByKind mask balance).
 *
 * Every rule has a stable ID, a severity, and a fix-it hint. IR and LT
 * rules run from fixed tables in catalog order; XL rules are fixed
 * functions of (sem, lowered, lowering). Linting never mutates its
 * inputs and allocates only the report, so the debug-build emission
 * hook (lintSemTraceOrDie) is safe to run on every kernel emission.
 */

#ifndef HSU_ANALYSIS_TRACE_LINT_HH
#define HSU_ANALYSIS_TRACE_LINT_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "hsu/isa.hh"
#include "sim/ir.hh"
#include "sim/lower.hh"
#include "sim/trace.hh"

namespace hsu
{

/** Finding severity. Errors fail lintWorkload / the CLI; warnings are
 *  reported but non-fatal. */
enum class LintSeverity : std::uint8_t
{
    Warning,
    Error,
};

/** Static description of one lint rule. */
struct LintRuleInfo
{
    std::string id;       //!< stable rule ID ("IR001", "LT004", ...)
    LintSeverity severity = LintSeverity::Error;
    std::string summary;  //!< one-line statement of the invariant
    std::string fixit;    //!< how to repair a violating emitter
};

/** One rule violation, anchored to a (warp, op) site. */
struct LintFinding
{
    std::string ruleId;
    LintSeverity severity = LintSeverity::Error;
    std::size_t warp = 0;
    std::size_t op = 0;   //!< op index within the warp (0 if warp-level)
    std::string message;
};

/**
 * Accumulated findings of one lint run. Per-rule counters are exact;
 * the stored finding list is capped per rule (a corrupted
 * million-op trace must not allocate a million messages), with the
 * overflow recorded in suppressed().
 */
class LintReport
{
  public:
    /** Stored findings per rule before suppression kicks in. */
    static constexpr std::size_t kMaxStoredPerRule = 64;

    void add(const LintRuleInfo &rule, std::size_t warp, std::size_t op,
             std::string message);

    const std::vector<LintFinding> &findings() const { return findings_; }

    std::size_t errorCount() const { return errors_; }
    std::size_t warningCount() const { return warnings_; }
    bool clean() const { return errors_ == 0 && warnings_ == 0; }

    /** Exact number of violations of @p rule_id (incl. suppressed). */
    std::size_t countRule(std::string_view rule_id) const;
    bool hasRule(std::string_view rule_id) const
    {
        return countRule(rule_id) > 0;
    }

    /** Findings dropped beyond the per-rule storage cap. */
    std::size_t suppressed() const { return suppressed_; }

    /** Merge another report into this one (counters + findings). */
    void merge(const LintReport &other);

    /** Render as "RULE [severity] warp W op O: message" lines. */
    std::string str() const;

  private:
    struct RuleCount
    {
        std::string id;
        std::size_t count = 0;
    };

    std::vector<LintFinding> findings_;
    std::vector<RuleCount> counts_; //!< few rules: linear scan is fine
    std::size_t errors_ = 0;
    std::size_t warnings_ = 0;
    std::size_t suppressed_ = 0;
};

/** Every rule in catalog order: IR, then LT, then XL. */
std::vector<LintRuleInfo> lintRuleCatalog();

/** Run every semantic-trace rule. */
LintReport lintSemTrace(const SemKernelTrace &sem,
                        const DatapathConfig &dp = DatapathConfig{});

/** Run every lowered-trace rule. */
LintReport lintLoweredTrace(const KernelTrace &trace);

/**
 * Cross-lowering conservation: replay @p low's offload decision over
 * @p sem and check the per-TraceOrigin CISC instruction counts of
 * @p lowered against the replay (XL001), or against the ByKind mask
 * (XL003). The lowered trace must have warps.size() ==
 * sem.warps.size().
 */
LintReport lintLoweringAccounting(const SemKernelTrace &sem,
                                  const KernelTrace &lowered,
                                  const Lowering &low);

/**
 * Endpoint equivalence (XL002): PartialOffload at fraction 0 must be
 * bit-identical to Baseline and at fraction 1 to Hsu (compared by
 * trace fingerprint). Lowers @p sem four times.
 */
LintReport lintEndpointEquivalence(const SemKernelTrace &sem,
                                   const DatapathConfig &dp);

/**
 * Full audit of one workload: semantic rules, lowered rules over the
 * Baseline / Hsu / PartialOffload(@p partial_fraction) lowerings,
 * conservation for each, and endpoint equivalence.
 */
LintReport lintWorkload(const SemKernelTrace &sem,
                        const DatapathConfig &dp = DatapathConfig{},
                        double partial_fraction = 0.5);

/**
 * Debug-build emission hook: lint @p sem and panic with the rendered
 * report if any error-severity finding exists. @p what names the
 * emitting kernel in the panic message.
 */
void lintSemTraceOrDie(const SemKernelTrace &sem, const char *what,
                       const DatapathConfig &dp = DatapathConfig{});

} // namespace hsu

#endif // HSU_ANALYSIS_TRACE_LINT_HH
