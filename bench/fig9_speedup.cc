/**
 * @file
 * The paper's fleet figures: the 21 (algorithm, dataset) pairs, each
 * simulated once on a baseline GPU without ray-tracing hardware and
 * once with the HSU, printed as six views of that one run:
 *
 * - Fig 7: the proportion of the baseline's execution that consists of
 *   operations the HSU could execute (distance tests, box tests, key
 *   compares, with their operand loads), the ceiling on HSU benefit.
 * - Fig 8: HSU roofline. Performance is HSU instructions completed per
 *   cycle per unit (compute bound: 1); operational intensity is
 *   instructions per L2 line accessed (memory bound: one line per
 *   cycle). Euclid instructions fetch 64B and angular 32B, so intensity
 *   > 4 (euclid) or > 8 (angular) indicates inter-instruction data
 *   reuse (Section VI-B).
 * - Fig 9: speedup with HSU over the baseline. The paper reports
 *   average improvements of 24.8% (GGNN), 16.4% (FLANN), 33.9%
 *   (BVH-NN), and 13.5% (B+tree).
 * - Fig 12: HSU L1D accesses normalized to the baseline. The CISC node
 *   fetch coalesces what the baseline issues as several sequential
 *   loads; BVH-NN shows the effect most prominently (Section VI-J).
 * - Fig 13: L1D miss rate. Accesses that hit on a pending MSHR entry
 *   count as hits, so workloads whose accesses the HSU coalesces away
 *   can show a *higher* miss rate on fewer accesses (Section VI-J).
 * - Fig 14: DRAM row access locality (accesses per row activation)
 *   under FR-FCFS. The CISC fetches reorder traffic slightly, but most
 *   locality is already captured by coalescing and the MSHRs
 *   (Section VI-J).
 */

#include <map>

#include "analysis/roofline.hh"
#include "bench_common.hh"

using namespace hsu;

int
main()
{
    const GpuConfig gpu = bench::defaultGpu();
    const std::vector<WorkloadResult> fleet =
        runWorkloadsParallel(bench::allWorkloads(), gpu, quickScale());

    Table f7("Fig 7: Proportion of baseline execution offloadable to HSU",
             {"Workload", "Offloadable fraction"});
    for (const WorkloadResult &r : fleet)
        f7.addRow({r.label, Table::pct(r.base.offloadableFraction)});
    f7.print(std::cout);

    Table f8("Fig 8: HSU roofline",
             {"Workload", "Ops/L2-line", "Ops/cycle", "Roof",
              "Utilization"});
    for (const WorkloadResult &r : fleet) {
        const RooflinePoint p = rooflinePoint(r.label, r.hsu, gpu.numSms);
        f8.addRow({p.label, Table::num(p.intensity, 3),
                   Table::num(p.performance, 4), Table::num(p.bound(), 3),
                   Table::pct(p.utilization())});
    }
    f8.print(std::cout);

    Table f9("Fig 9: Speedup with HSU over non-RT baseline",
             {"Workload", "Base cycles", "HSU cycles", "Speedup"});
    std::map<Algo, std::vector<double>> per_algo;
    for (const WorkloadResult &r : fleet) {
        f9.addRow({r.label, std::to_string(r.base.cycles),
                   std::to_string(r.hsu.cycles),
                   Table::num(r.speedup(), 3)});
        per_algo[r.algo].push_back(r.speedup());
    }
    f9.print(std::cout);

    Table s("Fig 9 summary: average speedup per algorithm (paper: GGNN "
            "1.248, FLANN 1.164, BVH-NN 1.339, B+ 1.135)",
            {"Algorithm", "Geomean speedup"});
    for (const auto &[algo, vals] : per_algo) {
        s.addRow({toString(algo),
                  Table::num(bench::geomean(vals), 3)});
    }
    s.print(std::cout);

    Table f12("Fig 12: HSU L1D accesses normalized to non-RT baseline",
              {"Workload", "Base accesses", "HSU accesses", "Normalized"});
    for (const WorkloadResult &r : fleet) {
        const double norm = r.base.l1Accesses > 0
            ? r.hsu.l1Accesses / r.base.l1Accesses
            : 0.0;
        f12.addRow({r.label, Table::num(r.base.l1Accesses, 0),
                    Table::num(r.hsu.l1Accesses, 0), Table::num(norm, 3)});
    }
    f12.print(std::cout);

    Table f13("Fig 13: L1D miss rate (MSHR hits count as hits)",
              {"Workload", "Base miss rate", "HSU miss rate"});
    for (const WorkloadResult &r : fleet) {
        f13.addRow({r.label, Table::pct(r.base.l1MissRate()),
                    Table::pct(r.hsu.l1MissRate())});
    }
    f13.print(std::cout);

    Table f14("Fig 14: DRAM row access locality (FR-FCFS)",
              {"Workload", "Base acc/activation", "HSU acc/activation"});
    for (const WorkloadResult &r : fleet) {
        f14.addRow({r.label, Table::num(r.base.dramRowLocality, 2),
                    Table::num(r.hsu.dramRowLocality, 2)});
    }
    f14.print(std::cout);
    return 0;
}
