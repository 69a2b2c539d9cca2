/**
 * @file
 * §V.04 pp2d — collision-detection share (paper: > 65% of execution
 * time) for the car footprint on city maps, and what precomputed
 * validity planes (FootprintPlanes) would do to it.
 */

#include <map>

#include "bench_common.h"
#include "grid/map_gen.h"
#include "kernels/kernel_pp2d.h"
#include "util/stopwatch.h"

int
main(int argc, char **argv)
{
    rtr::bench::Harness harness(argc, argv);
    rtr::bench::requireKnownOptions(argc, argv);
    using namespace rtr;
    using namespace rtr::bench;

    banner("04.pp2d — 2-D car path planning",
           "collision detection takes > 65% of execution time (Fig. 5)");

    Table table({"map (cells)", "collision share", "expanded",
                 "collision checks", "path (m)", "ROI (ms)"});
    std::map<int, KernelReport> reports;
    for (int size : {256, 512, 1024}) {
        KernelReport report =
            runKernel("pp2d", {"--map-size", std::to_string(size)});
        table.addRow(
            {std::to_string(size) + "x" + std::to_string(size),
             Table::pct(report.metrics.at("collision_fraction")),
             Table::count(static_cast<long long>(
                 report.metrics.at("expanded"))),
             Table::count(static_cast<long long>(
                 report.metrics.at("collision_checks"))),
             Table::num(report.metrics.at("path_cost_m"), 0),
             Table::num(report.roi_seconds * 1e3, 0)});
        reports.emplace(size, std::move(report));
    }
    table.print();
    std::cout << "\n(paper: > 65% of time in collision detection on "
                 "Boston_1_1024 with a 4.8 x 1.8 m car)\n";

    // The same queries with every state check read from validity
    // planes (the service World's path). Evidence only: the kernel
    // keeps the per-expansion sweep that Table I characterizes.
    Table planes_table({"map (cells)", "sweep collision (ms)",
                        "plane build (ms)", "plane collision (ms)",
                        "sweep ROI (ms)", "plane ROI (ms)", "same plan"});
    for (int size : {512, 1024}) {
        const KernelReport &sweep = reports.at(size);
        OccupancyGrid2D map = makeCityMap(size, 0.5, 1);
        RectFootprint car(4.8, 1.8);
        Stopwatch build_timer;
        const auto planes = FootprintPlanes::build(
            map, car, GridPlanner2D::moveHeadings());
        const double build_ms = build_timer.elapsedSec() * 1e3;
        if (!planes)
            fatal("pp2d map geometry declined validity planes");
        GridPlanner2D planner(map, &car, defaultSearchEngine(), &*planes);
        Cell2 start = pp2dValidCellNear(planner, map, 0.03, 0.03);
        Cell2 goal = pp2dValidCellNear(planner, map, 0.97, 0.97);
        PhaseProfiler profiler;
        Stopwatch plan_timer;
        GridPlan2D plan = planner.plan(start, goal, 1.0, &profiler);
        const double plan_ms = plan_timer.elapsedSec() * 1e3;
        const bool same =
            plan.found == sweep.success &&
            static_cast<double>(plan.expanded) ==
                sweep.metrics.at("expanded") &&
            plan.cost == sweep.metrics.at("path_cost_m");
        planes_table.addRow(
            {std::to_string(size) + "x" + std::to_string(size),
             Table::num(sweep.profiler.phaseNs("collision") * 1e-6, 1),
             Table::num(build_ms, 1),
             Table::num(profiler.phaseNs("collision") * 1e-6, 1),
             Table::num(sweep.roi_seconds * 1e3, 0),
             Table::num(plan_ms, 0), same ? "yes" : "NO"});
    }
    std::cout << "\nValidity-plane A/B (kernel default stays the sweep):\n";
    planes_table.print();
    return 0;
}
