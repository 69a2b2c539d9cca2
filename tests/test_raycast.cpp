/**
 * @file
 * Tests for the DDA ray-caster, including a property sweep against the
 * brute-force reference implementation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

#include "geom/angle.h"
#include "grid/map_gen.h"
#include "grid/raycast.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace rtr {
namespace {

OccupancyGrid2D
boxWorld()
{
    // 20 x 20 room with walls on the border and a block at x:10..12,
    // y:8..10.
    OccupancyGrid2D grid(20, 20, 1.0);
    for (int i = 0; i < 20; ++i) {
        grid.setOccupied(i, 0);
        grid.setOccupied(i, 19);
        grid.setOccupied(0, i);
        grid.setOccupied(19, i);
    }
    for (int x = 10; x <= 12; ++x) {
        for (int y = 8; y <= 10; ++y)
            grid.setOccupied(x, y);
    }
    return grid;
}

TEST(Raycast, AxisAlignedKnownDistances)
{
    OccupancyGrid2D grid = boxWorld();
    Vec2 origin{5.5, 9.5};
    // Ray along +x hits the block face at x = 10.
    EXPECT_NEAR(castRay(grid, origin, 0.0, 100.0), 4.5, 1e-9);
    // Ray along -x hits the left wall face at x = 1.
    EXPECT_NEAR(castRay(grid, origin, kPi, 100.0), 4.5, 1e-9);
    // Ray along +y hits the top wall face at y = 19.
    EXPECT_NEAR(castRay(grid, origin, kPi / 2.0, 100.0), 9.5, 1e-9);
}

TEST(Raycast, MaxRangeWhenNothingHit)
{
    OccupancyGrid2D grid = boxWorld();
    Vec2 origin{5.5, 5.5};
    EXPECT_DOUBLE_EQ(castRay(grid, origin, kPi / 4.0, 2.0), 2.0);
}

TEST(Raycast, OriginInsideObstacleIsZero)
{
    OccupancyGrid2D grid = boxWorld();
    EXPECT_DOUBLE_EQ(castRay(grid, {11.0, 9.0}, 0.3, 100.0), 0.0);
}

TEST(Raycast, DiagonalDistance)
{
    OccupancyGrid2D grid(10, 10, 1.0);
    grid.setOccupied(5, 5);
    // 45-degree ray from (3.5, 3.5) enters cell (5,5) at (5,5): the
    // distance is sqrt(2) * 1.5.
    double d = castRay(grid, {3.5, 3.5}, kPi / 4.0, 100.0);
    EXPECT_NEAR(d, std::sqrt(2.0) * 1.5, 1e-9);
}

TEST(Raycast, ScanProducesOneRangePerBeam)
{
    OccupancyGrid2D grid = boxWorld();
    std::vector<double> out;
    castScan(grid, {9.5, 4.5}, -kPi, kTwoPi, 36, 50.0, out);
    ASSERT_EQ(out.size(), 36u);
    for (double r : out) {
        EXPECT_GT(r, 0.0);
        EXPECT_LE(r, 50.0);
    }
}

TEST(Raycast, ResolutionIndependence)
{
    // The same world geometry at finer resolution gives the same
    // distances.
    OccupancyGrid2D coarse = boxWorld();
    OccupancyGrid2D fine = scaleMap(coarse, 4);
    Rng rng(5);
    for (int i = 0; i < 100; ++i) {
        Vec2 origin{rng.uniform(1.5, 8.5), rng.uniform(1.5, 7.5)};
        double angle = rng.uniform(-kPi, kPi);
        double dc = castRay(coarse, origin, angle, 40.0);
        double df = castRay(fine, origin, angle, 40.0);
        EXPECT_NEAR(dc, df, 1e-9) << "origin (" << origin.x << ","
                                  << origin.y << ") angle " << angle;
    }
}

/** Property sweep: DDA matches the brute-force small-step reference. */
class RaycastVsReference : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RaycastVsReference, AgreesOnRandomMaps)
{
    Rng rng(GetParam());
    OccupancyGrid2D grid = makeRandomObstacleMap(48, 48, 0.15, GetParam());
    int tested = 0;
    while (tested < 60) {
        Vec2 origin{rng.uniform(1.0, 47.0), rng.uniform(1.0, 47.0)};
        if (grid.occupiedWorld(origin))
            continue;
        ++tested;
        double angle = rng.uniform(-kPi, kPi);
        double fast = castRay(grid, origin, angle, 30.0);
        double slow = castRayReference(grid, origin, angle, 30.0);
        // The reference steps at resolution/50, so tolerate that much.
        EXPECT_NEAR(fast, slow, grid.resolution() * 0.05)
            << "origin (" << origin.x << "," << origin.y << ") angle "
            << angle;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RaycastVsReference,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(RaycastHier, MatchesReferenceOnIndoorMap)
{
    OccupancyGrid2D grid = makeIndoorMap(120, 80, 0.25, 3);
    Rng rng(9);
    int tested = 0;
    while (tested < 120) {
        Vec2 origin{rng.uniform(1.0, 29.0), rng.uniform(1.0, 19.0)};
        if (grid.occupiedWorld(origin))
            continue;
        ++tested;
        double angle = rng.uniform(-kPi, kPi);
        double fast = castRay(grid, origin, angle, 15.0);
        double slow = castRayReference(grid, origin, angle, 15.0);
        EXPECT_NEAR(fast, slow, grid.resolution() * 0.05);
    }
}

/** FNV-1a over the bytes of @p ranges. */
std::uint64_t
digest(const std::vector<double> &ranges)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    const auto *bytes =
        reinterpret_cast<const unsigned char *>(ranges.data());
    for (std::size_t i = 0; i < ranges.size() * sizeof(double); ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/*
 * castRay's ranges, pinned bit for bit: one FNV-1a digest per input
 * set, recorded when the scalar DDA was cross-checked against a
 * hierarchical (pyramid-skipping) and a packet (SIMD) caster on these
 * inputs. The RaycastHier* and RaycastPacket* names are kept from that
 * time; the engines they compared are gone, so each now pins the
 * scalar ranges those comparisons agreed on.
 */

/**
 * Random maps at four densities: origins free, occupied and off the
 * map, and ranges past the map edge.
 */
class RaycastHierFuzz : public ::testing::TestWithParam<double>
{
};

TEST_P(RaycastHierFuzz, BitwiseIdenticalToScalarAcrossDensities)
{
    const double density = GetParam();
    const std::pair<double, std::uint64_t> pins[] = {
        {0.0, 0x7f482f215f6d9e03ULL},
        {0.02, 0x54e0680ef089d75fULL},
        {0.15, 0xa67f299cefa87d7eULL},
        {0.45, 0xaed2556f2aa7b7b2ULL},
    };
    std::uint64_t pinned = 0;
    for (const auto &[d, pin] : pins) {
        if (d == density)
            pinned = pin;
    }
    ASSERT_NE(pinned, 0u) << "no pin for density " << density;

    std::vector<double> ranges;
    Rng rng(static_cast<std::uint64_t>(density * 1000.0) + 3);
    for (std::uint64_t map_seed = 1; map_seed <= 4; ++map_seed) {
        OccupancyGrid2D grid =
            makeRandomObstacleMap(96, 64, density, map_seed);
        for (int i = 0; i < 250; ++i) {
            Vec2 origin{rng.uniform(-2.0, 98.0), rng.uniform(-2.0, 66.0)};
            double angle = rng.uniform(-kPi, kPi);
            double max_range = rng.uniform(0.5, 140.0);
            ranges.push_back(castRay(grid, origin, angle, max_range));
        }
    }
    EXPECT_EQ(digest(ranges), pinned)
        << "density " << density << ": 0x" << std::hex << digest(ranges);
}

INSTANTIATE_TEST_SUITE_P(Densities, RaycastHierFuzz,
                         ::testing::Values(0.0, 0.02, 0.15, 0.45));

/** Cell-corner origins on axis and diagonal rays: the DDA's ties. */
TEST(RaycastHier, CornerGrazingAndAxisAlignedRaysMatchScalar)
{
    OccupancyGrid2D box = boxWorld();
    const double angles[] = {0.0,       kPi / 4.0,  kPi / 2.0,
                             3 * kPi / 4.0, kPi,    -kPi / 4.0,
                             -kPi / 2.0, -3 * kPi / 4.0};
    std::vector<double> ranges;
    for (int x = 1; x <= 18; x += 3) {
        for (int y = 1; y <= 18; y += 3) {
            for (double angle : angles) {
                Vec2 corner{static_cast<double>(x),
                            static_cast<double>(y)};
                ranges.push_back(castRay(box, corner, angle, 50.0));
            }
        }
    }
    EXPECT_EQ(digest(ranges), 0x37bb018b6ca52b2aULL)
        << "corners: 0x" << std::hex << digest(ranges);
}

/** Rays interleaved with bursts of cell edits. */
TEST(RaycastHier, TracksDynamicEdits)
{
    OccupancyGrid2D grid(100, 70, 0.5);
    Rng rng(31);
    std::vector<double> ranges;
    for (int round = 0; round < 40; ++round) {
        for (int e = 0; e < 25; ++e) {
            grid.setOccupied(static_cast<int>(rng.index(100)),
                             static_cast<int>(rng.index(70)),
                             rng.uniform() < 0.5);
        }
        for (int i = 0; i < 25; ++i) {
            Vec2 origin{rng.uniform(0.0, 50.0), rng.uniform(0.0, 35.0)};
            double angle = rng.uniform(-kPi, kPi);
            ranges.push_back(castRay(grid, origin, angle, 60.0));
        }
    }
    EXPECT_EQ(digest(ranges), 0x0002278bcebcd047ULL)
        << "edits: 0x" << std::hex << digest(ranges);
}

/**
 * castScanBatch splits the poses over the parallel pool; every thread
 * count must give the per-pose casts bit for bit.
 */
TEST(RaycastPacket, BatchBitwiseIdenticalAcrossThreadCountsAndEngines)
{
    OccupancyGrid2D grid = makeIndoorMap(120, 80, 0.25, 5);
    Rng rng(19);
    std::vector<Pose2> poses;
    while (poses.size() < 30) {
        Pose2 pose{rng.uniform(1.0, 29.0), rng.uniform(1.0, 19.0),
                   rng.uniform(-kPi, kPi)};
        if (!grid.occupiedWorld(pose.position()))
            poses.push_back(pose);
    }
    const int n_beams = 32;
    const double start_angle = -2.0, fov = 4.0, max_range = 12.0;
    const double beam_step = fov / static_cast<double>(n_beams);
    std::vector<double> reference;
    for (const Pose2 &pose : poses) {
        for (int b = 0; b < n_beams; ++b) {
            double angle = pose.theta + start_angle +
                           static_cast<double>(b) * beam_step;
            reference.push_back(
                castRay(grid, pose.position(), angle, max_range));
        }
    }
    for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                std::size_t{0}}) {
        setParallelThreads(threads);
        std::vector<double> batch;
        castScanBatch(grid, poses, start_angle, fov, n_beams, max_range,
                      batch);
        ASSERT_EQ(batch.size(), reference.size());
        EXPECT_EQ(0, std::memcmp(batch.data(), reference.data(),
                                 batch.size() * sizeof(double)))
            << "threads " << threads;
    }
    setParallelThreads(0);
}

TEST(CastScanBatch, MatchesPerPoseCastRay)
{
    OccupancyGrid2D grid = makeIndoorMap(120, 80, 0.25, 5);
    Rng rng(13);
    std::vector<Pose2> poses;
    while (poses.size() < 40) {
        Pose2 pose{rng.uniform(1.0, 29.0), rng.uniform(1.0, 19.0),
                   rng.uniform(-kPi, kPi)};
        if (!grid.occupiedWorld(pose.position()))
            poses.push_back(pose);
    }
    const int n_beams = 24;
    const double start_angle = -2.0, fov = 4.0, max_range = 12.0;
    std::vector<double> batch;
    castScanBatch(grid, poses, start_angle, fov, n_beams, max_range,
                  batch);
    ASSERT_EQ(batch.size(), poses.size() * n_beams);
    const double beam_step = fov / static_cast<double>(n_beams);
    for (std::size_t i = 0; i < poses.size(); ++i) {
        for (int b = 0; b < n_beams; ++b) {
            double angle = poses[i].theta + start_angle +
                           static_cast<double>(b) * beam_step;
            double expected = castRay(grid, poses[i].position(), angle,
                                      max_range);
            EXPECT_EQ(batch[i * n_beams + b], expected);
        }
    }
}

} // namespace
} // namespace rtr
