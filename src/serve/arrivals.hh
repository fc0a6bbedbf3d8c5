/**
 * @file
 * Open-loop request arrival processes for the query-serving subsystem.
 *
 * The offline benches replay pre-batched query sets (closed loop); the
 * serving model instead draws requests from a seeded stochastic arrival
 * process on the simulated clock, so offered load is independent of
 * service progress — the regime where queueing delay and saturation
 * knees exist. Two processes are modeled:
 *
 *  - Poisson: i.i.d. exponential inter-arrival gaps at a fixed rate.
 *  - Bursty: a two-state Markov-modulated Poisson process (MMPP-2);
 *    exponential sojourns in a "calm" and a "burst" state whose rates
 *    are derived so the long-run mean equals the configured rate.
 *
 * Generation is a pure function of the config (seed included): the
 * same config yields the same request stream on every run, thread
 * count, and platform that shares IEEE doubles — the serving results'
 * bit-reproducibility rests on this.
 */

#ifndef HSU_SERVE_ARRIVALS_HH
#define HSU_SERVE_ARRIVALS_HH

#include <cstdint>
#include <vector>

#include "common/cycletime.hh"
#include "common/rng.hh"
#include "search/runner.hh"

namespace hsu::serve
{

/** Nominal clock for cycle <-> wall-time conversions (matches the
 *  1 GHz operating point of the area/power model, DESIGN.md section 6). */
inline constexpr double kClockHz = 1.0e9;

/** Supported arrival processes. */
enum class ArrivalProcess : std::uint8_t
{
    Poisson, //!< memoryless, fixed rate
    Bursty,  //!< 2-state Markov-modulated Poisson
};

/**
 * Query-id popularity distribution, layered on the timing process:
 * WHICH pool query a request asks for, independent of WHEN it
 * arrives. Zipf models the skewed repeat-query traffic real serving
 * sees (and the regime where the frontend answer cache earns its
 * keep): query id r is drawn with probability proportional to
 * 1/(r+1)^s, so id 0 is the most popular (rank == id).
 */
enum class QueryDist : std::uint8_t
{
    Uniform, //!< every pool query equally likely
    Zipf,    //!< rank-r probability ~ 1/(r+1)^zipfExponent
};

/** Arrival-process parameters. */
struct ArrivalConfig
{
    ArrivalProcess process = ArrivalProcess::Poisson;
    /** Mean arrival rate, in requests per simulated cycle. */
    double ratePerCycle = 1.0e-5;
    /** Bursty: burst-state rate multiplier (relative to the mean). */
    double burstFactor = 4.0;
    /** Bursty: long-run fraction of time spent in the burst state. */
    double burstFraction = 0.2;
    /** Bursty: mean burst-state sojourn, in cycles. */
    double meanBurstCycles = 200'000.0;
    /** Per-request latency SLO; 0 disables deadlines. A deadline past
     *  kNeverCycle saturates there (never expires). */
    Cycle deadlineCycles = 0;
    /** Serving query pool size request query-ids are drawn from. */
    std::uint32_t queryPoolSize = 1024;
    /** Query-id popularity (orthogonal to the timing process). */
    QueryDist queryDist = QueryDist::Uniform;
    /** Zipf skew s; larger = more concentrated on the head. */
    double zipfExponent = 1.0;
    /** Stream seed. */
    std::uint64_t seed = 1;

    /** Convenience: set ratePerCycle from a QPS at kClockHz. */
    static double
    ratePerCycleFromQps(double qps)
    {
        return qps / kClockHz;
    }
};

/** One in-flight request: a single query against one workload. */
struct Request
{
    std::uint64_t id = 0;        //!< stream-order sequence number
    Cycle arrivalCycle = 0;
    Algo algo = Algo::Ggnn;
    DatasetId dataset{};
    std::uint32_t queryId = 0;   //!< index into the serving query pool
    Cycle deadlineCycle = kNeverCycle; //!< absolute SLO (kNeverCycle = none)
};

/**
 * Seeded generator of one workload's request stream.
 *
 * next() returns requests in nondecreasing arrival order; generate(n)
 * materializes a prefix of the stream for open-loop replay.
 */
class ArrivalGenerator
{
  public:
    ArrivalGenerator(const ArrivalConfig &cfg, Algo algo,
                     DatasetId dataset);

    /** The next request in the stream. */
    Request next();

    /** The first @p count requests of the stream. */
    std::vector<Request> generate(std::size_t count);

    const ArrivalConfig &config() const { return cfg_; }

  private:
    /** Draw the next inter-arrival gap, in cycles (>= 1). */
    Cycle nextGapCycles();

    /** Exponential variate with the given rate (per cycle). */
    double exponential(double rate);

    /** Draw the next query id under cfg_.queryDist. */
    std::uint32_t nextQueryId();

    ArrivalConfig cfg_;
    Algo algo_;
    DatasetId dataset_;
    Rng rng_;
    std::uint64_t nextId_ = 0;
    double clockCycles_ = 0.0; //!< fractional arrival clock
    bool inBurst_ = false;
    double stateLeftCycles_ = 0.0; //!< remaining sojourn in cur. state
    double calmRate_ = 0.0;
    double burstRate_ = 0.0;
    double meanCalmCycles_ = 0.0;
    /** Zipf inverse-CDF table: zipfCum_[i] = sum of the (unnormalized)
     *  weights of ids 0..i; empty under Uniform. */
    std::vector<double> zipfCum_;
};

} // namespace hsu::serve

#endif // HSU_SERVE_ARRIVALS_HH
