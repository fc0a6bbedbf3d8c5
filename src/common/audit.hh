/**
 * @file
 * The determinism-audit registry: every known nondeterminism source in
 * the simulator declares itself here, together with the discipline
 * that keeps it out of the bit-identical outputs.
 *
 * The repo's headline numbers rest on outputs being bit-identical
 * across HSU_JOBS, fast-forward, and the shared emission cache. Three
 * mechanism classes can silently break that: iteration over unordered
 * containers feeding stats or trace emission, float accumulation whose
 * order varies with thread interleaving, and RNG draws outside
 * hsu::Rng. Rather than hoping a diff of two full runs catches drift,
 * each such site registers a NondetSource at static initialization
 * naming its discipline ("key-lookup only, never iterated", "merged in
 * submission order", ...). Under HSU_AUDIT builds a source registered
 * without a discipline panics at init — before a single simulated
 * cycle — and tests/common/test_contract.cc pins the expected registry
 * contents so an unregistered new source is caught in review.
 *
 * The hsu_contract() macro (common/logging.hh) is the dynamic half:
 * HSU_AUDIT builds check ordering contracts inline and the full ctest
 * suite (golden fingerprints, determinism sweeps) runs under them.
 */

#ifndef HSU_COMMON_AUDIT_HH
#define HSU_COMMON_AUDIT_HH

#include <algorithm>
#include <cstdint>
#include <vector>

namespace hsu::audit
{

/** Classes of nondeterminism the audit tracks. */
enum class NondetKind : std::uint8_t
{
    UnorderedIteration, //!< hash-ordered container feeding output
    FloatAccumulation,  //!< float sum whose order could vary
    Rng,                //!< random draws
};

/** One registered nondeterminism source. */
struct NondetSource
{
    NondetKind kind;
    const char *site;       //!< "file.cc:member" style location
    const char *discipline; //!< why outputs stay deterministic
};

/** True in HSU_AUDIT builds (contracts checked), false otherwise. */
constexpr bool
enabled()
{
#ifdef HSU_AUDIT
    return true;
#else
    return false;
#endif
}

/**
 * Register a nondeterminism source (call at static initialization via
 * HSU_AUDIT_NONDET_SOURCE). Under HSU_AUDIT a null or empty discipline
 * panics immediately — an undisciplined source is a build error of the
 * audit mode, not a runtime roll of the dice.
 * @return a dense source id (index into sources()).
 */
std::size_t registerNondetSource(NondetKind kind, const char *site,
                                 const char *discipline);

/** All registered sources, in registration order. */
const std::vector<NondetSource> &sources();

/** Sources of one kind (test / report convenience). */
std::vector<NondetSource> sourcesOfKind(NondetKind kind);

/** True if a source with this exact site string is registered. */
bool hasSource(const char *site);

/**
 * Count a dynamic use of a registered source. Cheap (one relaxed
 * atomic add) but still only worth calling from non-per-cycle paths;
 * useCount() lets tests assert a source actually runs under audit.
 */
void noteUse(std::size_t id);

/** Dynamic use count of a source (0 if never noted). */
std::uint64_t useCount(std::size_t id);

/** Key extraction for map entries (pair) and set entries (value). */
template <typename K, typename V>
const K &
keyOf(const std::pair<const K, V> &entry)
{
    return entry.first;
}

template <typename K>
const K &
keyOf(const K &entry)
{
    return entry;
}

/**
 * Deterministically ordered key copy of an associative container —
 * the sanctioned way to iterate an unordered map/set into anything
 * that feeds stats, traces, or printed tables.
 */
template <typename Container>
std::vector<typename Container::key_type>
orderedKeys(const Container &c)
{
    std::vector<typename Container::key_type> keys;
    keys.reserve(c.size());
    for (const auto &entry : c) // audit[unordered-iteration]: sorted below
        keys.push_back(keyOf(entry));
    std::sort(keys.begin(), keys.end());
    return keys;
}

} // namespace hsu::audit

/**
 * Register a nondeterminism source at static initialization. Place at
 * namespace scope in the .cc that owns the source:
 *
 *   HSU_AUDIT_NONDET_SOURCE(kPendingLinesAudit,
 *       hsu::audit::NondetKind::UnorderedIteration,
 *       "rtunit.cc:pendingLines_",
 *       "key-lookup only; never iterated into stats or traces");
 */
#define HSU_AUDIT_NONDET_SOURCE(var, kind, site, discipline)                \
    const std::size_t var =                                                 \
        ::hsu::audit::registerNondetSource(kind, site, discipline)

#endif // HSU_COMMON_AUDIT_HH
