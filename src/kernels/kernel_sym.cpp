#include "kernels/kernel_sym.h"

#include <cmath>

#include "symbolic/blocks_world.h"
#include "symbolic/firefight.h"
#include "symbolic/planner.h"
#include "util/logging.h"
#include "util/roi.h"
#include "util/stopwatch.h"

namespace rtr {

namespace {

/** Shared execution path of both symbolic kernels. */
KernelReport
runSymbolic(const SymbolicProblem &problem, const ArgParser &args)
{
    KernelReport report;
    SymbolicPlannerConfig config;
    config.epsilon = args.getDouble("epsilon");
    if (!std::isfinite(config.epsilon) || config.epsilon < 1.0)
        fatal("--epsilon must be a finite number >= 1, got '",
              args.get("epsilon"), "'");
    const std::string heuristic_name = args.get("heuristic");
    if (heuristic_name == "hadd")
        config.heuristic = SymbolicPlannerConfig::Heuristic::HAdd;
    else if (heuristic_name == "goal-count")
        config.heuristic = SymbolicPlannerConfig::Heuristic::GoalCount;
    else
        fatal("--heuristic must be 'hadd' or 'goal-count', got '",
              heuristic_name, "'");

    SymbolicPlanner planner(problem, config);

    Stopwatch roi_timer;
    SymbolicPlanResult result;
    {
        ScopedRoi roi;
        result = planner.plan(&report.profiler);
    }
    report.roi_seconds = roi_timer.elapsedSec();

    report.success = result.found;
    // Node expansion (applicability tests, effect application) and the
    // heuristic's relaxed-reachability fixpoint are both set/string
    // manipulation over the node's atoms — together they are the
    // paper's "graph search, string manipulation" bottleneck. "expand"
    // includes the nested heuristic evaluations.
    double expand = report.phaseFraction("expand");
    double heuristic = report.phaseFraction("heuristic");
    report.metrics["string_ops_fraction"] = std::max(expand, heuristic);
    report.metrics["heuristic_fraction"] = heuristic;
    report.metrics["plan_length"] = result.cost;
    report.metrics["expanded"] = static_cast<double>(result.expanded);
    report.metrics["generated"] = static_cast<double>(result.generated);
    report.metrics["ground_actions"] =
        static_cast<double>(result.ground_action_count);
    report.metrics["branching_factor"] = result.avg_applicable_actions;
    return report;
}

} // namespace

void
SymBlkwKernel::addOptions(ArgParser &parser) const
{
    parser.addOption("blocks", "6", "Number of blocks");
    parser.addOption("epsilon", "1.5", "Heuristic inflation (WA*)");
    parser.addOption("heuristic", "hadd",
                     "Heuristic: hadd or goal-count");
    parser.addOption("seed", "1", "Random seed");
}

KernelReport
SymBlkwKernel::run(const ArgParser &args) const
{
    std::int64_t blocks = args.getInt("blocks");
    if (blocks < 2)
        fatal("--blocks must be >= 2, got ", blocks);
    SymbolicProblem problem =
        makeBlocksWorld(static_cast<int>(blocks),
                        static_cast<std::uint64_t>(args.getInt("seed")));
    return runSymbolic(problem, args);
}

void
SymFextKernel::addOptions(ArgParser &parser) const
{
    parser.addOption("waypoints", "12", "Waypoint locations");
    parser.addOption("epsilon", "1.5", "Heuristic inflation (WA*)");
    parser.addOption("heuristic", "hadd",
                     "Heuristic: hadd or goal-count");
    parser.addOption("seed", "1", "Random seed");
}

KernelReport
SymFextKernel::run(const ArgParser &args) const
{
    std::int64_t waypoints = args.getInt("waypoints");
    if (waypoints < 2)
        fatal("--waypoints must be >= 2, got ", waypoints);
    SymbolicProblem problem = makeFirefight(static_cast<int>(waypoints));
    return runSymbolic(problem, args);
}

} // namespace rtr
