#include "kernels/kernel_dmp.h"

#include <cmath>

#include "control/dmp.h"
#include "util/roi.h"
#include "util/stopwatch.h"

namespace rtr {

void
DmpKernel::addOptions(ArgParser &parser) const
{
    parser.addOption("basis", "25", "Gaussian basis functions");
    parser.addOption("demo-samples", "200", "Demonstration samples");
    parser.addOption("dt", "0.01", "Integration timestep (s)");
    parser.addOption("rollouts", "200",
                     "Rollouts executed (control-loop repetitions)");
}

KernelReport
DmpKernel::run(const ArgParser &args) const
{
    KernelReport report;
    const int demo_samples = intOptionInRange(args, "demo-samples", 3);
    const double dt = args.getDouble("dt");
    const int rollouts = intOptionInRange(args, "rollouts", 1);
    const int n_basis = intOptionInRange(args, "basis", 2);

    // ---- Demonstration (outside the ROI) ----
    std::vector<std::vector<double>> demo =
        makeDemoTrajectory(demo_samples, dt);

    DmpConfig config;
    config.n_basis = n_basis;
    DmpND dmp(2, config);

    // ---- Fit + repeated rollout (the ROI) ----
    std::vector<DmpTrajectory> trajs;
    Stopwatch roi_timer;
    {
        ScopedRoi roi;
        dmp.fit(demo, dt, &report.profiler);
        for (int r = 0; r < rollouts; ++r)
            trajs = dmp.rollout(demo_samples, dt, &report.profiler);
    }
    report.roi_seconds = roi_timer.elapsedSec();

    // Tracking error against the demonstration (Fig. 15's black-vs-
    // orange agreement).
    double err = 0.0;
    for (int t = 0; t < demo_samples; ++t) {
        double dx = trajs[0].position[static_cast<std::size_t>(t)] -
                    demo[0][static_cast<std::size_t>(t)];
        double dy = trajs[1].position[static_cast<std::size_t>(t)] -
                    demo[1][static_cast<std::size_t>(t)];
        err += std::sqrt(dx * dx + dy * dy);
    }
    err /= demo_samples;

    const double steps_total =
        static_cast<double>(rollouts) * demo_samples * 2.0;
    report.success = err < 0.5;
    report.metrics["tracking_error_m"] = err;
    report.metrics["rollout_fraction"] =
        report.phaseFraction("rollout");
    report.metrics["fit_fraction"] = report.phaseFraction("fit");
    report.metrics["ns_per_step"] =
        static_cast<double>(report.profiler.phaseNs("rollout")) /
        steps_total;
    report.series["traj_x"] = trajs[0].position;
    report.series["traj_y"] = trajs[1].position;
    report.series["vel_x"] = trajs[0].velocity;
    report.series["vel_y"] = trajs[1].velocity;
    return report;
}

} // namespace rtr
