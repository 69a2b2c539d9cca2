#include "perception/scene_reconstruction.h"

#include <optional>

namespace rtr {

SceneReconstructor::SceneReconstructor(const SceneRecConfig &config)
    : config_(config)
{
}

RigidTransform3
SceneReconstructor::addScan(const PointCloud &scan, PhaseProfiler *profiler)
{
    if (model_.empty()) {
        // First scan defines the world frame.
        ScopedPhase phase(profiler, "merge");
        model_ = scan;
        poses_.push_back(RigidTransform3{});
        last_rmse_ = 0.0;
        return poses_.back();
    }

    // One index of the model serves both the normal estimation and
    // the registration below.
    std::optional<PointCloudIndex> index;
    {
        ScopedPhase phase(profiler, "normals-nn-build");
        index.emplace(model_, config_.icp.nn_engine);
    }

    // Surface normals of the current model (point-to-plane ICP target).
    // The camera stays near the model centroid's side; orienting
    // towards the previous camera position is sufficient.
    std::vector<Vec3> normals =
        estimateNormals(*index, 10, poses_.back().translation, profiler);

    // Constant-velocity seed: extrapolate the previous inter-frame
    // motion, as a visual-odometry front end would.
    RigidTransform3 seed = last_delta_.compose(poses_.back());
    PointCloud seeded = scan.transformed(seed);
    IcpResult icp =
        icpPointToPlane(seeded, *index, normals, config_.icp, profiler);
    // The index refers into model_, which the merge below changes.
    index.reset();
    last_rmse_ = icp.rmse;

    RigidTransform3 pose = icp.transform.compose(seed);
    last_delta_ = pose.compose(poses_.back().inverted());
    poses_.push_back(pose);

    {
        ScopedPhase phase(profiler, "merge");
        model_.append(scan.transformed(pose));
        if (++scans_since_downsample_ >= config_.downsample_interval) {
            model_ = model_.voxelDownsampled(config_.voxel_size);
            scans_since_downsample_ = 0;
        }
    }
    return pose;
}

} // namespace rtr
