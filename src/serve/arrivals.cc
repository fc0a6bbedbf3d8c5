#include "serve/arrivals.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace hsu::serve
{

ArrivalGenerator::ArrivalGenerator(const ArrivalConfig &cfg, Algo algo,
                                   DatasetId dataset)
    : cfg_(cfg), algo_(algo), dataset_(dataset), rng_(cfg.seed)
{
    if (cfg_.ratePerCycle <= 0.0)
        hsu_fatal("arrival rate must be positive: ", cfg_.ratePerCycle);
    if (cfg_.queryPoolSize == 0)
        hsu_fatal("arrival query pool must be non-empty");

    if (cfg_.queryDist == QueryDist::Zipf) {
        if (cfg_.zipfExponent <= 0.0) {
            hsu_fatal("zipf exponent must be positive: ",
                      cfg_.zipfExponent);
        }
        // Unnormalized prefix sums of 1/(r+1)^s: inverse-CDF sampling
        // needs only one uniform draw per request, and the table is a
        // pure function of (pool size, exponent).
        zipfCum_.reserve(cfg_.queryPoolSize);
        double total = 0.0;
        for (std::uint32_t r = 0; r < cfg_.queryPoolSize; ++r) {
            total += std::pow(static_cast<double>(r) + 1.0,
                              -cfg_.zipfExponent);
            zipfCum_.push_back(total);
        }
    }

    if (cfg_.process == ArrivalProcess::Bursty) {
        const double f = cfg_.burstFraction;
        const double b = cfg_.burstFactor;
        if (f <= 0.0 || f >= 1.0)
            hsu_fatal("burst fraction must be in (0,1): ", f);
        if (b <= 1.0 || f * b >= 1.0) {
            hsu_fatal("burst factor must satisfy 1 < factor < 1/",
                      "fraction (got ", b, " with fraction ", f, ")");
        }
        if (cfg_.meanBurstCycles <= 0.0)
            hsu_fatal("mean burst length must be positive");
        // Split the mean rate into the two state rates so the long-run
        // average is exactly ratePerCycle:
        //   f * burstRate + (1 - f) * calmRate = rate.
        burstRate_ = b * cfg_.ratePerCycle;
        calmRate_ = cfg_.ratePerCycle * (1.0 - f * b) / (1.0 - f);
        meanCalmCycles_ = cfg_.meanBurstCycles * (1.0 - f) / f;
        inBurst_ = false;
        stateLeftCycles_ = exponential(1.0 / meanCalmCycles_);
    }
}

double
ArrivalGenerator::exponential(double rate)
{
    // -log(1 - U) / rate with U in [0, 1): strictly positive, finite.
    return -std::log(1.0 - rng_.nextDouble()) / rate;
}

Cycle
ArrivalGenerator::nextGapCycles()
{
    double gap = 0.0;
    if (cfg_.process == ArrivalProcess::Poisson) {
        gap = exponential(cfg_.ratePerCycle);
    } else {
        // Competing clocks: an arrival drawn at the current state's
        // rate either lands inside the remaining sojourn, or the state
        // flips and (by memorylessness) the draw restarts.
        for (;;) {
            const double rate = inBurst_ ? burstRate_ : calmRate_;
            const double e = exponential(rate);
            if (e <= stateLeftCycles_) {
                stateLeftCycles_ -= e;
                gap += e;
                break;
            }
            gap += stateLeftCycles_;
            inBurst_ = !inBurst_;
            stateLeftCycles_ = exponential(
                1.0 / (inBurst_ ? cfg_.meanBurstCycles
                                : meanCalmCycles_));
        }
    }
    return static_cast<Cycle>(std::llround(std::max(1.0, gap)));
}

Request
ArrivalGenerator::next()
{
    clockCycles_ += static_cast<double>(nextGapCycles());
    Request req;
    req.id = nextId_++;
    req.arrivalCycle = static_cast<Cycle>(clockCycles_);
    req.algo = algo_;
    req.dataset = dataset_;
    req.queryId = nextQueryId();
    req.deadlineCycle =
        cfg_.deadlineCycles
            ? saturatingAdd(req.arrivalCycle, cfg_.deadlineCycles)
            : kNeverCycle;
    return req;
}

std::uint32_t
ArrivalGenerator::nextQueryId()
{
    if (cfg_.queryDist == QueryDist::Uniform) {
        return static_cast<std::uint32_t>(
            rng_.nextBounded(cfg_.queryPoolSize));
    }
    // Inverse CDF: u < total because nextDouble() < 1, but the product
    // can round up to total itself, so clamp to the last id.
    const double u = rng_.nextDouble() * zipfCum_.back();
    const auto it =
        std::upper_bound(zipfCum_.begin(), zipfCum_.end(), u);
    const auto idx = static_cast<std::uint32_t>(it - zipfCum_.begin());
    return std::min(idx, cfg_.queryPoolSize - 1);
}

std::vector<Request>
ArrivalGenerator::generate(std::size_t count)
{
    std::vector<Request> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        out.push_back(next());
    return out;
}

} // namespace hsu::serve
