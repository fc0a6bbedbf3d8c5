/**
 * @file
 * Table III reproduction: the simulator configuration actually used
 * (paper values, with the documented SM-count scaling).
 */

#include "bench_common.hh"

using namespace hsu;

int
main()
{
    const GpuConfig cfg = bench::defaultGpu();
    Table t("Table III: Simulator Configuration",
            {"Parameter", "Paper", "This run"});
    t.addRow({"# SMs", "80", std::to_string(cfg.numSms) + " (scaled)"});
    t.addRow({"Sub-cores / SM", "4", std::to_string(cfg.subCoresPerSm)});
    t.addRow({"Warp Scheduler Policy", "GTO",
              cfg.scheduler == SchedulerPolicy::Gto ? "GTO" : "RR"});
    t.addRow({"Max Warps / SM", "64", std::to_string(cfg.maxWarpsPerSm)});
    // The model builds exactly one RT unit per SM (sim/sm.cc).
    t.addRow({"RT Units / SM", "1", "1"});
    t.addRow({"Warp Buffer Size", "8",
              std::to_string(cfg.warpBufferSize)});
    t.addRow({"L1 / Shared Memory Cache", "128 KB",
              std::to_string(cfg.mem.l1.sizeBytes / 1024) + " KB"});
    t.addRow({"L2 Cache", "24-way 6MB",
              std::to_string(cfg.mem.l2.assoc) + "-way " +
                  std::to_string(cfg.mem.l2.sizeBytes / (1024 * 1024)) +
                  "MB"});
    t.addRow({"Euclid datapath width", "16",
              std::to_string(cfg.datapath.euclidWidth)});
    t.addRow({"Angular datapath width", "8",
              std::to_string(cfg.datapath.angularWidth())});
    t.addRow({"Key-compare width", "36",
              std::to_string(cfg.datapath.keyCompareWidth)});
    t.addRow({"Pipeline depth", "9",
              std::to_string(cfg.datapath.pipelineDepth)});
    t.print(std::cout);
    return 0;
}
