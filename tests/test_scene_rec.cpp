/**
 * @file
 * Tests for incremental scene reconstruction.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "perception/scene_reconstruction.h"
#include "pointcloud/scene_gen.h"
#include "util/rng.h"

namespace rtr {
namespace {

TEST(SceneRec, FirstScanDefinesFrame)
{
    SceneReconstructor rec;
    PointCloud scan({{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 1}});
    RigidTransform3 pose = rec.addScan(scan);
    EXPECT_TRUE(pose.rotation.approxEquals(Matrix::identity(3)));
    EXPECT_NEAR(pose.translation.norm(), 0.0, 1e-12);
    EXPECT_EQ(rec.model().size(), 4u);
    EXPECT_EQ(rec.scanCount(), 1u);
}

TEST(SceneRec, RecoversCameraTrajectory)
{
    IndoorScene scene = IndoorScene::livingRoom(1);
    DepthCamera camera;
    camera.width = 80;
    camera.height = 60;
    const int frames = 8;
    std::vector<CameraPose> trajectory = makeTrajectory(scene, frames);
    Rng rng(2);

    SceneReconstructor rec;
    for (const CameraPose &pose : trajectory)
        rec.addScan(simulateScan(scene, pose, camera, rng));

    ASSERT_EQ(rec.poses().size(), static_cast<std::size_t>(frames));
    RigidTransform3 world_from_first =
        trajectory.front().worldFromCamera();
    double total_error = 0.0;
    for (int f = 0; f < frames; ++f) {
        RigidTransform3 gt = world_from_first.inverted().compose(
            trajectory[static_cast<std::size_t>(f)].worldFromCamera());
        total_error += (rec.poses()[static_cast<std::size_t>(f)]
                            .translation -
                        gt.translation)
                           .norm();
    }
    EXPECT_LT(total_error / frames, 0.08);
    EXPECT_LT(rec.lastRmse(), 0.1);
}

TEST(SceneRec, ModelGrowthBoundedByDownsampling)
{
    IndoorScene scene = IndoorScene::livingRoom(3);
    DepthCamera camera;
    camera.width = 60;
    camera.height = 45;
    Rng rng(4);
    SceneRecConfig config;
    config.downsample_interval = 2;
    config.voxel_size = 0.08;
    SceneReconstructor rec(config);

    std::vector<CameraPose> trajectory = makeTrajectory(scene, 6);
    std::size_t raw_total = 0;
    for (const CameraPose &pose : trajectory) {
        PointCloud scan = simulateScan(scene, pose, camera, rng);
        raw_total += scan.size();
        rec.addScan(scan);
    }
    // Fusion keeps the model far smaller than the raw concatenation.
    EXPECT_LT(rec.model().size(), raw_total / 2);
    EXPECT_GT(rec.model().size(), 1000u);
}

TEST(SceneRec, ProfilerCoversPipelinePhases)
{
    IndoorScene scene = IndoorScene::livingRoom(5);
    DepthCamera camera;
    camera.width = 40;
    camera.height = 30;
    Rng rng(6);
    SceneReconstructor rec;
    PhaseProfiler profiler;
    auto trajectory = makeTrajectory(scene, 3);
    for (const CameraPose &pose : trajectory)
        rec.addScan(simulateScan(scene, pose, camera, rng),
                    &profiler);
    EXPECT_GT(profiler.phaseNs("icp-nn"), 0);
    EXPECT_GT(profiler.phaseNs("icp-solve"), 0);
    EXPECT_GT(profiler.phaseNs("merge"), 0);
    EXPECT_GT(profiler.phaseNs("normals-nn"), 0);
    EXPECT_GT(profiler.phaseNs("normals-eigen"), 0);
}

TEST(SceneRec, BuildsOneModelIndexPerFrame)
{
    IndoorScene scene = IndoorScene::livingRoom(5);
    DepthCamera camera;
    camera.width = 40;
    camera.height = 30;
    Rng rng(6);
    SceneReconstructor rec;
    PhaseProfiler profiler;
    auto trajectory = makeTrajectory(scene, 4);
    for (const CameraPose &pose : trajectory)
        rec.addScan(simulateScan(scene, pose, camera, rng), &profiler);
    // The first scan only seeds the model; each later one indexes the
    // model once for both normals and registration.
    EXPECT_EQ(profiler.phaseCount("normals-nn-build"), 3);
    EXPECT_EQ(profiler.phaseCount("icp-nn-build"), 0);
    // Normals are estimated inside ICP, in each iteration that first
    // matches some model point: the first iteration of every frame,
    // at most every iteration (each enters "icp-nn" twice).
    const std::int64_t normal_passes = profiler.phaseCount("normals-nn");
    EXPECT_EQ(profiler.phaseCount("normals-eigen"), normal_passes);
    EXPECT_GE(normal_passes, 3);
    EXPECT_LE(normal_passes, profiler.phaseCount("icp-nn") / 2);
}

} // namespace
} // namespace rtr
