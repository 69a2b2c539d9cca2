/**
 * @file
 * Tests for ICP registration (Horn's method, point-to-point,
 * point-to-plane) and the synthetic depth-scan generator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "geom/angle.h"
#include "pointcloud/icp.h"
#include "pointcloud/scene_gen.h"
#include "util/rng.h"

namespace rtr {
namespace {

PointCloud
randomCloud(std::size_t n, Rng &rng, double extent = 1.0)
{
    PointCloud cloud;
    for (std::size_t i = 0; i < n; ++i)
        cloud.add({rng.uniform(-extent, extent),
                   rng.uniform(-extent, extent),
                   rng.uniform(-extent, extent)});
    return cloud;
}

TEST(Horn, RecoversExactTransform)
{
    Rng rng(2);
    for (int trial = 0; trial < 20; ++trial) {
        PointCloud src = randomCloud(50, rng);
        RigidTransform3 gt;
        gt.rotation = rotationZ(rng.uniform(-kPi, kPi));
        gt.translation = {rng.uniform(-3, 3), rng.uniform(-3, 3),
                          rng.uniform(-3, 3)};
        std::vector<Vec3> dst;
        for (const Vec3 &p : src.points())
            dst.push_back(gt.apply(p));

        RigidTransform3 est = bestRigidTransform(src.points(), dst);
        EXPECT_NEAR((est.rotation - gt.rotation).frobeniusNorm(), 0.0,
                    1e-9);
        EXPECT_NEAR((est.translation - gt.translation).norm(), 0.0,
                    1e-9);
    }
}

TEST(Horn, ReturnsProperRotation)
{
    Rng rng(3);
    PointCloud src = randomCloud(30, rng);
    std::vector<Vec3> dst;
    RigidTransform3 gt;
    gt.rotation = rotationZ(0.7);
    for (const Vec3 &p : src.points())
        dst.push_back(gt.apply(p));
    RigidTransform3 est = bestRigidTransform(src.points(), dst);
    // R^T R = I and det R = +1.
    EXPECT_TRUE((est.rotation.transposed() * est.rotation)
                    .approxEquals(Matrix::identity(3), 1e-9));
}

TEST(IcpPointToPoint, ConvergesFromSmallOffset)
{
    Rng rng(4);
    PointCloud target = randomCloud(300, rng, 2.0);
    RigidTransform3 offset;
    offset.rotation = rotationZ(0.1);
    offset.translation = {0.05, -0.08, 0.02};
    PointCloud source = target.transformed(offset.inverted());

    IcpConfig config;
    config.max_iterations = 50;
    IcpResult result = icpRegister(source, target, config);
    EXPECT_TRUE(result.converged);
    EXPECT_LT(result.rmse, 1e-4);
    EXPECT_NEAR((result.transform.rotation - offset.rotation)
                    .frobeniusNorm(),
                0.0, 1e-3);
}

TEST(IcpPointToPoint, ProfilerPhasesPopulated)
{
    Rng rng(5);
    PointCloud target = randomCloud(100, rng);
    PointCloud source = target;
    PhaseProfiler profiler;
    icpRegister(source, target, {}, &profiler);
    EXPECT_GT(profiler.phaseNs("icp-nn"), 0);
}

TEST(IcpPointToPoint, TrimmedVariantStillConverges)
{
    Rng rng(6);
    PointCloud target = randomCloud(300, rng, 2.0);
    RigidTransform3 offset;
    offset.translation = {0.1, 0.05, -0.03};
    PointCloud source = target.transformed(offset.inverted());

    IcpConfig config;
    config.max_iterations = 60;
    config.trim_fraction = 0.8;
    IcpResult result = icpRegister(source, target, config);
    EXPECT_LT(result.rmse, 1e-3);
}

TEST(IcpPointToPlane, RecoversTransformOnStructuredScene)
{
    // A synthetic corner: three orthogonal planes pin all 6 DoF.
    PointCloud target;
    Rng rng(7);
    for (int i = 0; i < 400; ++i) {
        double u = rng.uniform(0.0, 2.0), v = rng.uniform(0.0, 2.0);
        int plane = i % 3;
        if (plane == 0)
            target.add({u, v, 0.0});
        else if (plane == 1)
            target.add({u, 0.0, v});
        else
            target.add({0.0, u, v});
    }
    std::vector<Vec3> normals = estimateNormals(target, 10, {1.0, 1.0, 1.0});

    RigidTransform3 offset;
    offset.rotation = rotationZ(0.05);
    offset.translation = {0.03, -0.04, 0.05};
    PointCloud source = target.transformed(offset.inverted());

    IcpConfig config;
    config.max_iterations = 40;
    IcpResult result = icpPointToPlane(source, target, normals, config);
    EXPECT_LT(result.rmse, 1e-3);
    EXPECT_NEAR((result.transform.translation - offset.translation).norm(),
                0.0, 0.02);
}

TEST(IcpPointToPlane, DoesNotSlideOnPlaneWithFeatures)
{
    // A plane with a ridge: point-to-plane must recover in-plane
    // translation thanks to the ridge.
    PointCloud target;
    Rng rng(8);
    for (int i = 0; i < 500; ++i) {
        double x = rng.uniform(0.0, 4.0), y = rng.uniform(0.0, 4.0);
        double z = (x > 1.9 && x < 2.1) ? 0.3 : 0.0;
        target.add({x, y, z});
    }
    std::vector<Vec3> normals =
        estimateNormals(target, 10, {2.0, 2.0, 5.0});

    RigidTransform3 offset;
    offset.translation = {0.08, 0.0, 0.0};  // tangential shift
    PointCloud source = target.transformed(offset.inverted());

    IcpConfig config;
    config.max_iterations = 40;
    IcpResult result = icpPointToPlane(source, target, normals, config);
    EXPECT_NEAR(result.transform.translation.x, 0.08, 0.03);
}

/** Bitwise equality of two doubles. */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Two consecutive living-room scans: the srec per-frame workload. */
struct ScanPair
{
    PointCloud model;
    PointCloud scan;
};

ScanPair
livingRoomScans()
{
    IndoorScene scene = IndoorScene::livingRoom(3);
    DepthCamera camera;
    camera.width = 60;
    camera.height = 45;
    Rng rng(12);
    auto trajectory = makeTrajectory(scene, 4);
    ScanPair out;
    out.model = simulateScan(scene, trajectory[0], camera, rng)
                    .transformed(trajectory[0].worldFromCamera());
    out.scan = simulateScan(scene, trajectory[1], camera, rng)
                   .transformed(trajectory[0].worldFromCamera());
    return out;
}

/** Bitwise equality of two ICP results. */
void
expectSameResult(const IcpResult &a, const IcpResult &b)
{
    EXPECT_TRUE(sameBits(a.rmse, b.rmse));
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.converged, b.converged);
    for (std::size_t i = 0; i < 9; ++i)
        EXPECT_TRUE(sameBits(a.transform.rotation.data()[i],
                             b.transform.rotation.data()[i]))
            << "rotation " << i;
    EXPECT_TRUE(sameBits(a.transform.translation.x, b.transform.translation.x));
    EXPECT_TRUE(sameBits(a.transform.translation.y, b.transform.translation.y));
    EXPECT_TRUE(sameBits(a.transform.translation.z, b.transform.translation.z));
}

TEST(SharedIndex, NormalsAndPointToPlaneMatchPerCallBuild)
{
    const ScanPair scans = livingRoomScans();
    ASSERT_GT(scans.model.size(), 1000u);
    const Vec3 viewpoint{0.0, 0.0, 1.0};
    for (NnEngine engine : {NnEngine::Bucket, NnEngine::Node}) {
        SCOPED_TRACE(nnEngineName(engine));
        IcpConfig config;
        config.nn_engine = engine;
        config.max_correspondence_distance = 0.4;

        // Per-call builds: one index inside each function.
        PhaseProfiler per_call_profiler;
        const std::vector<Vec3> per_call_normals = estimateNormals(
            scans.model, 10, viewpoint, &per_call_profiler, engine);
        const IcpResult per_call =
            icpPointToPlane(scans.scan, scans.model, per_call_normals,
                            config, &per_call_profiler);
        EXPECT_GT(per_call_profiler.phaseCount("normals-nn-build"), 0);
        EXPECT_GT(per_call_profiler.phaseCount("icp-nn-build"), 0);

        // One shared index, as SceneReconstructor::addScan uses it; the
        // functions that take it build nothing.
        PhaseProfiler shared_profiler;
        const PointCloudIndex index(scans.model, engine);
        EXPECT_EQ(&index.cloud(), &scans.model);
        const std::vector<Vec3> shared_normals =
            estimateNormals(index, 10, viewpoint, &shared_profiler);
        const IcpResult shared =
            icpPointToPlane(scans.scan, index, shared_normals, config,
                            &shared_profiler);
        EXPECT_EQ(shared_profiler.phaseCount("normals-nn-build"), 0);
        EXPECT_EQ(shared_profiler.phaseCount("icp-nn-build"), 0);

        ASSERT_EQ(shared_normals.size(), per_call_normals.size());
        for (std::size_t i = 0; i < shared_normals.size(); ++i) {
            EXPECT_TRUE(sameBits(shared_normals[i].x, per_call_normals[i].x) &&
                        sameBits(shared_normals[i].y, per_call_normals[i].y) &&
                        sameBits(shared_normals[i].z, per_call_normals[i].z))
                << "normal " << i;
        }
        expectSameResult(shared, per_call);
    }
}

/**
 * The distinct model points that one ICP iteration from the identity
 * keeps a match to: each scan point's nearest model point under the
 * (dist2, id) order, by brute force, unless it lies beyond the cap.
 */
std::size_t
distinctKeptMatches(const PointCloud &scan, const PointCloud &model,
                    double max_distance)
{
    std::vector<bool> matched(model.size(), false);
    for (const Vec3 &s : scan.points()) {
        double best = std::numeric_limits<double>::max();
        std::size_t best_id = 0;
        for (std::size_t j = 0; j < model.size(); ++j) {
            const double d[3] = {model[j].x - s.x, model[j].y - s.y,
                                 model[j].z - s.z};
            double d2 = 0.0;
            for (double v : d)
                d2 += v * v;
            if (d2 < best) {
                best = d2;
                best_id = j;
            }
        }
        if (max_distance == 0.0 || !(best > max_distance * max_distance))
            matched[best_id] = true;
    }
    return static_cast<std::size_t>(
        std::count(matched.begin(), matched.end(), true));
}

TEST(SharedIndex, LazyNormalsMatchEagerPointToPlane)
{
    const ScanPair scans = livingRoomScans();
    const Vec3 viewpoint{0.0, 0.0, 1.0};
    for (NnEngine engine : {NnEngine::Bucket, NnEngine::Node}) {
        const PointCloudIndex index(scans.model, engine);
        const std::vector<Vec3> eager_normals =
            estimateNormals(index, 10, viewpoint);
        for (double max_distance : {0.4, 0.0}) {
            SCOPED_TRACE(std::string(nnEngineName(engine)) + " cap " +
                         std::to_string(max_distance));
            IcpConfig config;
            config.max_correspondence_distance = max_distance;
            const IcpResult eager =
                icpPointToPlane(scans.scan, index, eager_normals, config);

            NormalTable table(index, 10, viewpoint);
            const IcpResult lazy =
                icpPointToPlane(scans.scan, index, table, config);
            expectSameResult(lazy, eager);

            // Every normal the table holds is the eager one, and it
            // estimated each once: far fewer than the model has.
            std::size_t held = 0;
            for (std::size_t i = 0; i < scans.model.size(); ++i) {
                if (!table.has(i))
                    continue;
                ++held;
                EXPECT_TRUE(sameBits(table[i].x, eager_normals[i].x) &&
                            sameBits(table[i].y, eager_normals[i].y) &&
                            sameBits(table[i].z, eager_normals[i].z))
                    << "normal " << i;
            }
            EXPECT_EQ(table.estimatedCount(), held);
            EXPECT_GT(held, 0u);
            EXPECT_LT(held, scans.model.size());

            // One iteration estimates exactly the normals of the
            // points it keeps a match to: all matched points when
            // nothing is capped.
            config.max_iterations = 1;
            NormalTable one_pass(index, 10, viewpoint);
            expectSameResult(
                icpPointToPlane(scans.scan, index, one_pass, config),
                icpPointToPlane(scans.scan, index, eager_normals, config));
            EXPECT_EQ(one_pass.estimatedCount(),
                      distinctKeptMatches(scans.scan, scans.model,
                                          max_distance));
        }
    }
}

TEST(SharedIndex, EnginesAgreeOnNormals)
{
    const ScanPair scans = livingRoomScans();
    const PointCloudIndex bucket(scans.model, NnEngine::Bucket);
    const PointCloudIndex node(scans.model, NnEngine::Node);
    const std::vector<Vec3> a = estimateNormals(bucket, 10, {0, 0, 1});
    const std::vector<Vec3> b = estimateNormals(node, 10, {0, 0, 1});
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(sameBits(a[i].x, b[i].x) && sameBits(a[i].y, b[i].y) &&
                    sameBits(a[i].z, b[i].z))
            << "normal " << i;
}

TEST(SceneGen, LivingRoomIsDeterministic)
{
    IndoorScene a = IndoorScene::livingRoom(9);
    IndoorScene b = IndoorScene::livingRoom(9);
    ASSERT_EQ(a.furniture().size(), b.furniture().size());
    EXPECT_GT(a.furniture().size(), 3u);
}

TEST(SceneGen, RaycastHitsRoomShell)
{
    IndoorScene scene = IndoorScene::livingRoom(1);
    Vec3 center = scene.room().center();
    // Straight up must hit the ceiling.
    double up = scene.raycast(center, {0, 0, 1}, 100.0);
    EXPECT_NEAR(up, scene.room().hi.z - center.z, 1e-9);
    // Distance is capped at max range.
    EXPECT_DOUBLE_EQ(scene.raycast(center, {0, 0, 1}, 0.5), 0.5);
}

TEST(SceneGen, ScanPointsMatchSceneGeometry)
{
    IndoorScene scene = IndoorScene::livingRoom(2);
    DepthCamera camera;
    camera.noise_stddev = 0.0;
    CameraPose pose;
    pose.position = scene.room().center();
    pose.yaw = 0.4;
    Rng rng(3);
    PointCloud scan = simulateScan(scene, pose, camera, rng);
    ASSERT_GT(scan.size(), 100u);

    // Every camera-frame point, mapped to world, must lie on a surface:
    // re-raycasting towards it gives (almost) its distance.
    RigidTransform3 world_from_cam = pose.worldFromCamera();
    for (std::size_t i = 0; i < scan.size(); i += 97) {
        Vec3 world = world_from_cam.apply(scan[i]);
        Vec3 dir = (world - pose.position).normalized();
        double dist = scene.raycast(pose.position, dir, 100.0);
        EXPECT_NEAR(dist, (world - pose.position).norm(), 1e-6);
    }
}

TEST(SceneGen, TrajectoryStaysInsideRoom)
{
    IndoorScene scene = IndoorScene::livingRoom(4);
    auto poses = makeTrajectory(scene, 20);
    ASSERT_EQ(poses.size(), 20u);
    for (const CameraPose &pose : poses)
        EXPECT_TRUE(scene.room().contains(pose.position));
}

} // namespace
} // namespace rtr
