/**
 * @file
 * HBM-style DRAM model with per-bank row buffers and an FR-FCFS
 * (First-Row, First-Come-First-Served) scheduler: queued accesses to the
 * currently open row are prioritized over older requests to other rows
 * (Section VI-J / Fig 14 of the paper).
 */

#ifndef HSU_MEM_DRAM_HH
#define HSU_MEM_DRAM_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "common/cycletime.hh"
#include "common/stats.hh"
#include "mem/cache.hh" // MemCompletion, CompletionStreams

namespace hsu
{

/** DRAM geometry and timing. */
struct DramParams
{
    unsigned banks = 16;        //!< power of two
    unsigned linesPerRow = 16;  //!< 2KB rows with 128B lines
    unsigned rowHitLatency = 20;
    unsigned rowMissLatency = 60;
    /** Minimum cycles between successive services on one bank. */
    unsigned bankCycleTime = 4;
};

/**
 * The DRAM device. Requests always enqueue (the upstream channel bounds
 * outstanding traffic); banks service them FR-FCFS.
 */
class Dram
{
  public:
    Dram(DramParams params, StatGroup &stats);

    /** Queue a line access. @p done fires when data is returned (reads);
     *  writes pass an empty completion. */
    void enqueue(std::uint64_t line_addr, bool write, MemCompletion done,
                 std::uint64_t now);

    /** Advance one cycle: start bank services, fire due completions. */
    void tick(std::uint64_t now);

    /** True when all queues and in-flight services are empty. */
    bool idle() const;

    /**
     * Earliest future cycle at which tick() could fire a completion or
     * start a bank service; kNeverCycle when fully drained.
     */
    Cycle nextEventCycle(Cycle now) const;

    /** Mean row-buffer accesses per activation so far (Fig 14 metric). */
    double rowLocality() const;

  private:
    struct Request
    {
        std::uint64_t lineAddr;
        std::uint64_t row;
        bool write;
        MemCompletion done;
        std::uint64_t arrival;
    };

    struct Bank
    {
        std::deque<Request> queue;
        std::uint64_t openRow = ~0ULL;
        bool rowValid = false;
        std::uint64_t readyAt = 0;
    };

    /** Completion streams: due rowHitLatency or rowMissLatency on. */
    static constexpr unsigned kRowHitStream = 0;
    static constexpr unsigned kRowMissStream = 1;

    unsigned bankOf(std::uint64_t line_addr) const;
    std::uint64_t rowOf(std::uint64_t line_addr) const;

    DramParams params_;
    std::vector<Bank> banks_;
    /** Bit b of word w set: bank 64w + b has queued requests. */
    std::vector<std::uint64_t> queuedBanks_;
    /** In-service accesses (writes too), fired when their data is out. */
    CompletionStreams inService_;

    Stat &statAccesses_;
    Stat &statActivations_;
    Stat &statRowHits_;
};

} // namespace hsu

#endif // HSU_MEM_DRAM_HH
