#include "kernels/kernel_ekfslam.h"

#include <cmath>
#include <cstdint>

#include "geom/angle.h"
#include "perception/ekf_slam.h"
#include "util/roi.h"
#include "util/stopwatch.h"

namespace rtr {

void
EkfSlamKernel::addOptions(ArgParser &parser) const
{
    parser.addOption("landmarks", "6", "Number of landmarks");
    parser.addOption("steps", "400", "Simulation steps");
    parser.addOption("dt", "0.1", "Timestep (s)");
    parser.addOption("velocity", "1.2", "Robot linear velocity (m/s)");
    parser.addOption("omega", "0.18", "Robot angular velocity (rad/s)");
    parser.addOption("seed", "1", "Random seed");
}

KernelReport
EkfSlamKernel::run(const ArgParser &args) const
{
    KernelReport report;
    const int n_landmarks = intOptionInRange(args, "landmarks", 1);
    const int steps = intOptionInRange(args, "steps", 1);
    const double dt = args.getDouble("dt");
    const double v = args.getDouble("velocity");
    const double omega = args.getDouble("omega");
    const auto seed = static_cast<std::uint64_t>(args.getInt("seed"));

    // ---- Input generation (outside the ROI) ----
    SlamWorld world = SlamWorld::make(n_landmarks, seed);
    EkfNoise noise;
    Rng world_rng(seed * 104729 + 3);

    // Ground-truth circular drive starting on the ring's inside.
    std::vector<Pose2> truth;
    Pose2 pose{6.0, 0.0, kPi / 2.0};
    truth.push_back(pose);
    for (int t = 1; t < steps; ++t) {
        pose.x += v * dt * std::cos(pose.theta);
        pose.y += v * dt * std::sin(pose.theta);
        pose.theta = normalizeAngle(pose.theta + omega * dt);
        truth.push_back(pose);
    }
    std::vector<std::vector<RangeBearing>> observations;
    std::vector<std::pair<double, double>> controls;
    for (int t = 0; t < steps; ++t) {
        observations.push_back(world.observe(
            truth[static_cast<std::size_t>(t)], noise, world_rng));
        // Noisy odometry controls.
        controls.emplace_back(v + world_rng.normal(0.0, 0.05),
                              omega + world_rng.normal(0.0, 0.01));
    }

    // The filter starts at the origin; truth starts at (6,0) facing +y.
    // Errors are measured in the filter frame: truth rotated by -θ₀.
    const double cos0 = std::cos(-truth.front().theta);
    const double sin0 = std::sin(-truth.front().theta);

    // ---- Filter execution (the ROI) ----
    EkfSlam slam(n_landmarks, noise);
    std::vector<double> cov_trace_series;
    std::vector<double> pose_error_series;

    Stopwatch roi_timer;
    {
        ScopedRoi roi;
        // Align the filter's frame with the truth's initial pose.
        slam.predict(0.0, 0.0, 0.0, &report.profiler);
        for (int t = 0; t < steps; ++t) {
            if (t > 0)
                slam.predict(controls[static_cast<std::size_t>(t)].first,
                             controls[static_cast<std::size_t>(t)].second,
                             dt, &report.profiler);
            slam.update(observations[static_cast<std::size_t>(t)],
                        &report.profiler);
            cov_trace_series.push_back(slam.covarianceTrace());
            Pose2 est = slam.robotEstimate();
            const Pose2 &gt = truth[static_cast<std::size_t>(t)];
            double gx = gt.x - truth.front().x;
            double gy = gt.y - truth.front().y;
            double fx = cos0 * gx - sin0 * gy;
            double fy = sin0 * gx + cos0 * gy;
            double dx = est.x - fx;
            double dy = est.y - fy;
            pose_error_series.push_back(std::sqrt(dx * dx + dy * dy));
        }
    }
    report.roi_seconds = roi_timer.elapsedSec();

    // Landmark mapping error (in the filter frame).
    double landmark_error = 0.0;
    int known = 0;
    for (int id = 0; id < n_landmarks; ++id) {
        if (!slam.landmarkKnown(id))
            continue;
        Vec2 est = slam.landmarkEstimate(id);
        double gx = world.landmarks[static_cast<std::size_t>(id)].x -
                    truth.front().x;
        double gy = world.landmarks[static_cast<std::size_t>(id)].y -
                    truth.front().y;
        double fx = cos0 * gx - sin0 * gy;
        double fy = sin0 * gx + cos0 * gy;
        landmark_error += std::hypot(est.x - fx, est.y - fy);
        ++known;
    }
    if (known > 0)
        landmark_error /= known;

    report.success = known == n_landmarks && pose_error_series.back() < 1.0;
    report.metrics["matrix_ops_fraction"] =
        report.phaseFraction("matrix-ops");
    report.metrics["final_pose_error_m"] = pose_error_series.back();
    report.metrics["mean_landmark_error_m"] = landmark_error;
    report.metrics["landmarks_mapped"] = known;
    report.metrics["final_cov_trace"] = cov_trace_series.back();
    report.series["cov_trace"] = std::move(cov_trace_series);
    report.series["pose_error"] = std::move(pose_error_series);
    return report;
}

} // namespace rtr
