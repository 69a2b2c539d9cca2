#include "kernels/kernel_mpc.h"

#include "control/mpc.h"

#include <cmath>
#include "util/roi.h"
#include "util/stopwatch.h"

namespace rtr {

void
MpcKernel::addOptions(ArgParser &parser) const
{
    parser.addOption("ref-points", "150", "Reference trajectory length");
    parser.addOption("spacing", "0.15", "Reference point spacing (m)");
    parser.addOption("horizon", "15", "MPC horizon (steps)");
    parser.addOption("opt-iterations", "40",
                     "Optimizer iterations per solve");
    parser.addOption("v-max", "2.0", "Velocity limit (m/s)");
    parser.addOption("a-max", "1.5", "Acceleration limit (m/s^2)");
    addThreadsOption(parser);
    addBatchOption(parser);
}

KernelReport
MpcKernel::run(const ArgParser &args) const
{
    KernelReport report;
    applyThreadsOption(args);

    // ---- Reference generation (outside the ROI) ----
    std::vector<Vec2> reference = makeReferenceTrajectory(
        intOptionInRange(args, "ref-points", 2), args.getDouble("spacing"));

    MpcConfig config;
    config.horizon = intOptionInRange(args, "horizon", 1);
    config.opt_iterations =
        static_cast<int>(args.getInt("opt-iterations"));
    config.v_max = args.getDouble("v-max");
    config.a_max = args.getDouble("a-max");
    config.batch_engine = batchEngineFromArgs(args);
    MpcController controller(config);

    // Start on the reference, aligned with it and at cruise speed, as
    // after a hand-off from the planner.
    UnicycleState start;
    start.x = reference.front().x;
    start.y = reference.front().y;
    Vec2 first_step = reference[1] - reference[0];
    start.theta = std::atan2(first_step.y, first_step.x);
    start.v = first_step.norm() / config.dt;

    // ---- Tracking (the ROI) ----
    Stopwatch roi_timer;
    TrackingResult tracking;
    {
        ScopedRoi roi;
        tracking =
            trackTrajectory(controller, reference, start, &report.profiler);
    }
    report.roi_seconds = roi_timer.elapsedSec();

    report.success = tracking.avg_error < 0.5 &&
                     tracking.max_velocity <= config.v_max + 1e-9;
    report.metrics["optimize_fraction"] =
        report.phaseFraction("optimize");
    report.metrics["avg_tracking_error_m"] = tracking.avg_error;
    report.metrics["max_tracking_error_m"] = tracking.max_error;
    report.metrics["max_velocity"] = tracking.max_velocity;
    report.metrics["cost_evals"] =
        static_cast<double>(tracking.cost_evals);
    return report;
}

} // namespace rtr
