#include "kernels/kernel_srec.h"

#include <cmath>
#include <cstdint>

#include "perception/scene_reconstruction.h"
#include "pointcloud/scene_gen.h"
#include "util/logging.h"
#include "util/roi.h"
#include "util/stopwatch.h"

namespace rtr {

void
SrecKernel::addOptions(ArgParser &parser) const
{
    parser.addOption("frames", "14", "Depth frames to fuse");
    parser.addOption("scan-width", "100", "Horizontal rays per frame");
    parser.addOption("scan-height", "75", "Vertical rays per frame");
    parser.addOption("voxel", "0.04", "Model voxel size (m)");
    parser.addOption("icp-iterations", "25", "Max ICP iterations/frame");
    parser.addOption("seed", "1", "Random seed");
    addThreadsOption(parser);
    addNnOption(parser);
}

KernelReport
SrecKernel::run(const ArgParser &args) const
{
    KernelReport report;
    applyThreadsOption(args);
    const int frames = intOptionInRange(args, "frames", 2);
    const double voxel = args.getDouble("voxel");
    if (!std::isfinite(voxel) || voxel <= 0.0)
        fatal("--voxel must be a finite number > 0, got '",
              args.get("voxel"), "'");
    const auto seed = static_cast<std::uint64_t>(args.getInt("seed"));

    // ---- Input generation (outside the ROI) ----
    IndoorScene scene = IndoorScene::livingRoom(seed);
    DepthCamera camera;
    camera.width = static_cast<int>(args.getInt("scan-width"));
    camera.height = static_cast<int>(args.getInt("scan-height"));
    std::vector<CameraPose> trajectory = makeTrajectory(scene, frames);

    Rng scan_rng(seed * 31 + 5);
    std::vector<PointCloud> scans;
    scans.reserve(static_cast<std::size_t>(frames));
    for (const CameraPose &pose : trajectory)
        scans.push_back(simulateScan(scene, pose, camera, scan_rng));

    SceneRecConfig config;
    config.voxel_size = voxel;
    config.icp.max_iterations =
        static_cast<int>(args.getInt("icp-iterations"));
    config.icp.max_correspondence_distance = 0.5;
    config.icp.nn_engine = nnEngineFromArgs(args);

    // ---- Reconstruction (the ROI) ----
    SceneReconstructor reconstructor(config);
    std::vector<double> rmse_series;
    Stopwatch roi_timer;
    {
        ScopedRoi roi;
        for (const PointCloud &scan : scans) {
            reconstructor.addScan(scan, &report.profiler);
            rmse_series.push_back(reconstructor.lastRmse());
        }
    }
    report.roi_seconds = roi_timer.elapsedSec();

    // Trajectory error: estimated camera positions vs ground truth,
    // both relative to the first frame.
    double pose_error = 0.0;
    const RigidTransform3 world_from_first =
        trajectory.front().worldFromCamera();
    for (int f = 0; f < frames; ++f) {
        // Ground-truth pose of frame f expressed in frame 0.
        RigidTransform3 gt = world_from_first.inverted().compose(
            trajectory[static_cast<std::size_t>(f)].worldFromCamera());
        const Vec3 est =
            reconstructor.poses()[static_cast<std::size_t>(f)]
                .translation;
        pose_error += (est - gt.translation).norm();
    }
    pose_error /= frames;

    // Point-cloud operations: correspondence search, neighborhood
    // gathering, transform application, model merging — the irregular
    // memory traffic the paper identifies. Matrix operations: the
    // per-iteration 6x6 solves plus the per-point covariance
    // eigendecompositions of normal estimation.
    double nn = report.phaseFraction("icp-nn") +
                report.phaseFraction("icp-nn-build");
    double solve = report.phaseFraction("icp-solve");
    double apply = report.phaseFraction("icp-apply");
    double merge = report.phaseFraction("merge");
    double normals_nn = report.phaseFraction("normals-nn") +
                        report.phaseFraction("normals-nn-build");
    double normals_eigen = report.phaseFraction("normals-eigen");

    report.success = pose_error < 0.10;
    report.metrics["pointcloud_fraction"] =
        nn + merge + apply + normals_nn;
    report.metrics["matrix_ops_fraction"] = solve + normals_eigen;
    report.metrics["mean_pose_error_m"] = pose_error;
    report.metrics["final_rmse_m"] = rmse_series.back();
    report.metrics["model_points"] =
        static_cast<double>(reconstructor.model().size());
    report.series["icp_rmse"] = std::move(rmse_series);
    return report;
}

} // namespace rtr
