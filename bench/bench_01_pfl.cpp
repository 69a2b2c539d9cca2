/**
 * @file
 * §V.01 pfl — ray-casting share across five building regions (paper:
 * 67-78% of execution time), plus the Fig. 2 convergence series.
 *
 * The ray-caster probes every traversed cell — the cost profile the
 * paper measured. Warmup runs (bench_common.h) keep first-touch faults
 * out of the reported times.
 */

#include "bench_common.h"

int
main(int argc, char **argv)
{
    rtr::bench::Harness harness(argc, argv);
    rtr::bench::requireKnownOptions(argc, argv);
    using namespace rtr;
    using namespace rtr::bench;

    banner("01.pfl — particle filter localization",
           "ray-casting is 67%-78% of execution time across 5 regions; "
           "particles converge (Fig. 2)");

    Table table({"region", "raycast share", "weight share",
                 "final err (m)", "spread: start -> end (m)",
                 "ROI (ms)"});
    RunningStat raycast;
    for (int region = 0; region < 5; ++region) {
        KernelReport report =
            runKernelWarm("pfl", {"--region", std::to_string(region)});
        raycast.add(report.metrics.at("raycast_fraction"));
        const auto &spread = report.series.at("spread");
        table.addRow({std::to_string(region),
                      Table::pct(report.metrics.at("raycast_fraction")),
                      Table::pct(report.phaseFraction("weight")),
                      Table::num(report.metrics.at("final_error_m"), 2),
                      Table::num(spread.front(), 2) + " -> " +
                          Table::num(spread.back(), 2),
                      Table::num(report.roi_seconds * 1e3, 0)});
    }
    table.print();
    std::cout << "\nmeasured ray-casting share: "
              << Table::pct(raycast.min()) << " - "
              << Table::pct(raycast.max()) << "   (paper: 67% - 78%)\n";

    // Fig. 2 series detail for the default region.
    KernelReport fig2 = runKernelWarm("pfl");
    std::cout << "\nFig. 2 particle spread over time (m): "
              << seriesSummary(fig2.series.at("spread")) << "\n";
    return 0;
}
