/**
 * @file
 * Incremental 3-D scene reconstruction via ICP (kernel 03.srec).
 *
 * Point-based fusion in the style the paper builds on: each incoming
 * depth scan is registered against the accumulated model cloud with
 * ICP, transformed into the world frame, merged, and the model is kept
 * bounded by voxel downsampling (paper Fig. 4).
 */

#ifndef RTR_PERCEPTION_SCENE_RECONSTRUCTION_H
#define RTR_PERCEPTION_SCENE_RECONSTRUCTION_H

#include <vector>

#include "pointcloud/icp.h"
#include "pointcloud/point_cloud.h"
#include "util/profiler.h"

namespace rtr {

/** Reconstruction tuning knobs. */
struct SceneRecConfig
{
    /** ICP parameters for per-frame registration. */
    IcpConfig icp;
    /** Model resolution (voxel edge, world units). */
    double voxel_size = 0.05;
    /** Downsample the model every this many merged scans. */
    int downsample_interval = 4;

    SceneRecConfig()
    {
        icp.max_iterations = 30;
        icp.max_correspondence_distance = 0.4;
        icp.trim_fraction = 1.0;
    }
};

/** Incremental reconstructor. */
class SceneReconstructor
{
  public:
    explicit SceneReconstructor(const SceneRecConfig &config = {});

    /**
     * Register a new scan (camera-frame points) against the model and
     * merge it.
     *
     * The first scan defines the world frame. The model is indexed
     * once per scan ("normals-nn-build"), and that index serves the
     * point-to-plane registration ("icp-nn", "icp-solve",
     * "icp-apply"), which estimates the normals of the model points it
     * matches as it first matches them ("normals-nn",
     * "normals-eigen", per iteration); then "merge".
     *
     * @return Estimated world-from-camera transform of this scan.
     */
    RigidTransform3 addScan(const PointCloud &scan,
                            PhaseProfiler *profiler = nullptr);

    /** Accumulated world-frame model cloud. */
    const PointCloud &model() const { return model_; }

    /** Estimated camera poses, one per added scan. */
    const std::vector<RigidTransform3> &poses() const { return poses_; }

    /** RMSE of the most recent registration. */
    double lastRmse() const { return last_rmse_; }

    /** Number of scans merged. */
    std::size_t scanCount() const { return poses_.size(); }

  private:
    SceneRecConfig config_;
    PointCloud model_;
    std::vector<RigidTransform3> poses_;
    /** Last inter-frame motion, for constant-velocity seeding. */
    RigidTransform3 last_delta_;
    double last_rmse_ = 0.0;
    int scans_since_downsample_ = 0;
};

} // namespace rtr

#endif // RTR_PERCEPTION_SCENE_RECONSTRUCTION_H
