/**
 * @file
 * Figure 7 reproduction: the proportion of a non-RT V100's execution
 * that consists of operations the HSU could execute (distance tests,
 * box tests, key compares — including their operand loads). This is the
 * theoretical ceiling on HSU benefit per workload.
 */

#include "bench_common.hh"

using namespace hsu;

int
main()
{
    const GpuConfig gpu = bench::defaultGpu();
    Table t("Fig 7: Proportion of baseline execution offloadable to HSU",
            {"Workload", "Offloadable fraction"});

    const auto work = bench::allWorkloads();
    const std::vector<RunResult> res =
        parallelMap(work.size(), [&](std::size_t i) {
            const auto &[algo, id] = work[i];
            StatGroup stats;
            return runBaseOnly(algo, id, gpu,
                               bench::benchOptions(datasetInfo(id)),
                               stats);
        });

    for (std::size_t i = 0; i < work.size(); ++i) {
        const auto &[algo, id] = work[i];
        t.addRow({workloadLabel(algo, datasetInfo(id)),
                  Table::pct(res[i].offloadableFraction)});
    }
    t.print(std::cout);
    return 0;
}
