/**
 * @file
 * Tests for oriented-footprint collision detection.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <optional>
#include <vector>

#include "geom/angle.h"
#include "grid/footprint.h"
#include "grid/map_gen.h"
#include "search/grid_planner2d.h"
#include "service/world.h"
#include "util/rng.h"

namespace rtr {
namespace {

OccupancyGrid2D
emptyWithBlock()
{
    OccupancyGrid2D grid(40, 40, 0.25);
    // Block covering world [5, 6] x [5, 6].
    for (int x = 20; x < 24; ++x) {
        for (int y = 20; y < 24; ++y)
            grid.setOccupied(x, y);
    }
    return grid;
}

TEST(Footprint, FreeSpaceDoesNotCollide)
{
    OccupancyGrid2D grid = emptyWithBlock();
    RectFootprint car(4.8, 1.8);
    EXPECT_FALSE(car.collides(grid, Pose2{2.5, 2.5, 0.0}));
    EXPECT_GT(car.lastCellsChecked(), 0u);
}

TEST(Footprint, OverlapDetected)
{
    OccupancyGrid2D grid = emptyWithBlock();
    RectFootprint car(4.8, 1.8);
    // Centered on the block.
    EXPECT_TRUE(car.collides(grid, Pose2{5.5, 5.5, 0.0}));
    // Nose of the car reaching into the block (center 2.5 m left of
    // the block, half-length 2.4 + conservative padding reaches in).
    EXPECT_TRUE(car.collides(grid, Pose2{2.8, 5.5, 0.0}));
}

TEST(Footprint, RotationMatters)
{
    OccupancyGrid2D grid = emptyWithBlock();
    RectFootprint long_thin(6.0, 0.5);
    // Placed below the block pointing along +x: clear.
    Pose2 horizontal{5.5, 3.0, 0.0};
    EXPECT_FALSE(long_thin.collides(grid, horizontal));
    // Same position pointing along +y: the nose reaches the block.
    Pose2 vertical{5.5, 3.0, kPi / 2.0};
    EXPECT_TRUE(long_thin.collides(grid, vertical));
}

TEST(Footprint, OutOfBoundsCollides)
{
    OccupancyGrid2D grid = emptyWithBlock();
    RectFootprint car(4.8, 1.8);
    // Nose beyond the map edge; out-of-bounds cells count as occupied.
    EXPECT_TRUE(car.collides(grid, Pose2{0.5, 5.0, kPi}));
}

TEST(Footprint, PointCollision)
{
    OccupancyGrid2D grid = emptyWithBlock();
    EXPECT_TRUE(pointCollides(grid, {5.5, 5.5}));
    EXPECT_FALSE(pointCollides(grid, {2.0, 2.0}));
    EXPECT_TRUE(pointCollides(grid, {-1.0, 2.0}));
}

/**
 * Property: the footprint check must agree with a dense point-sampling
 * oracle of the same oriented rectangle (up to the conservative padding
 * of half a cell diagonal).
 */
class FootprintOracle : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FootprintOracle, NeverMissesARealOverlap)
{
    Rng rng(GetParam());
    OccupancyGrid2D grid = makeRandomObstacleMap(64, 64, 0.1, GetParam());
    RectFootprint robot(3.0, 1.5);

    for (int trial = 0; trial < 120; ++trial) {
        Pose2 pose{rng.uniform(4.0, 60.0), rng.uniform(4.0, 60.0),
                   rng.uniform(-kPi, kPi)};
        bool reported = robot.collides(grid, pose);

        // Dense oracle: sample the rectangle interior.
        bool oracle = false;
        for (double l = -1.5; l <= 1.5 && !oracle; l += 0.1) {
            for (double w = -0.75; w <= 0.75 && !oracle; w += 0.1) {
                Vec2 p = pose.transform({l, w});
                oracle = grid.occupiedWorld(p);
            }
        }
        // The check is conservative: it may report collision when the
        // oracle does not (padding), but must never miss one.
        if (oracle)
            EXPECT_TRUE(reported)
                << "missed collision at (" << pose.x << "," << pose.y
                << "," << pose.theta << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FootprintOracle,
                         ::testing::Values(11, 22, 33, 44));

TEST(Footprint, BitboardFastPathProvesFreeBoxWithoutProbes)
{
    // A fully in-bounds AABB over free space is cleared by whole-word
    // scans of the bitboard: no per-cell membership test runs at all.
    OccupancyGrid2D grid = emptyWithBlock();
    RectFootprint car(1.0, 0.5);
    EXPECT_FALSE(car.collides(grid, Pose2{2.5, 2.5, 0.3}));
    EXPECT_EQ(car.lastCellsChecked(), 0u);
}

TEST(Footprint, FastPathAgreesWithDenseProbing)
{
    // Word-scan fast path and the dense per-cell loop must return the
    // same verdict for arbitrary poses, including occupied and edge
    // cases where the AABB leaves the map.
    Rng rng(55);
    OccupancyGrid2D grid = makeRandomObstacleMap(64, 64, 0.12, 9);
    RectFootprint robot(3.0, 1.5);
    for (int trial = 0; trial < 200; ++trial) {
        Pose2 pose{rng.uniform(-2.0, 66.0), rng.uniform(-2.0, 66.0),
                   rng.uniform(-kPi, kPi)};
        bool fast = robot.collides(grid, pose);
        // Dense reference: the pre-bitboard sweep — probe every AABB
        // cell, identical padding, extents, and membership arithmetic
        // to RectFootprint::collides.
        const double res = grid.resolution();
        const double half_l = 1.5, half_w = 0.75;
        const double pad = res * 0.5 * std::numbers::sqrt2_v<double>;
        const double cos_t = std::cos(pose.theta);
        const double sin_t = std::sin(pose.theta);
        const double ext_x =
            std::abs(cos_t) * half_l + std::abs(sin_t) * half_w;
        const double ext_y =
            std::abs(sin_t) * half_l + std::abs(cos_t) * half_w;
        Cell2 lo = grid.worldToCell(
            {pose.x - ext_x - res, pose.y - ext_y - res});
        Cell2 hi = grid.worldToCell(
            {pose.x + ext_x + res, pose.y + ext_y + res});
        bool dense = false;
        for (int cy = lo.y; cy <= hi.y && !dense; ++cy) {
            for (int cx = lo.x; cx <= hi.x && !dense; ++cx) {
                if (!grid.occupied(cx, cy))
                    continue;
                Vec2 center = grid.cellCenter({cx, cy});
                double dx = center.x - pose.x;
                double dy = center.y - pose.y;
                double local_l = dx * cos_t + dy * sin_t;
                double local_w = -dx * sin_t + dy * cos_t;
                dense = std::abs(local_l) <= half_l + pad &&
                        std::abs(local_w) <= half_w + pad;
            }
        }
        EXPECT_EQ(fast, dense)
            << "pose (" << pose.x << "," << pose.y << ","
            << pose.theta << ")";
    }
}

std::optional<FootprintPlanes>
buildPlanes(const OccupancyGrid2D &grid, const RectFootprint &footprint)
{
    return FootprintPlanes::build(grid, footprint,
                                  GridPlanner2D::moveHeadings());
}

/**
 * The oracle: for every (cell, heading), the plane bit must equal the
 * sweep planner's verdict through collides(). Also asserts that the
 * grid is non-trivial (some states valid, some not).
 */
void
expectPlanesMatchSweep(const OccupancyGrid2D &grid,
                       const RectFootprint &footprint,
                       const FootprintPlanes &planes)
{
    GridPlanner2D sweep(grid, &footprint);
    std::size_t blocked = 0;
    std::size_t mismatches = 0;
    for (int h = 0; h < FootprintPlanes::kHeadings; ++h) {
        ASSERT_EQ(planes.plane(h).width(), grid.width());
        ASSERT_EQ(planes.plane(h).height(), grid.height());
        std::size_t blocked_here = 0;
        for (int y = 0; y < grid.height(); ++y) {
            for (int x = 0; x < grid.width(); ++x) {
                const bool bit = planes.blocked(h, x, y);
                blocked_here += bit ? 1 : 0;
                if (bit == sweep.stateValid({x, y}, h) &&
                    ++mismatches <= 5)
                    ADD_FAILURE() << "heading " << h << " cell (" << x
                                  << ", " << y << "): plane " << bit;
            }
        }
        // No bit set past the last column (BitPlane's zero padding).
        EXPECT_EQ(planes.plane(h).countSet(), blocked_here);
        blocked += blocked_here;
    }
    EXPECT_EQ(mismatches, 0u);
    const std::size_t states = static_cast<std::size_t>(grid.width()) *
                               grid.height() * FootprintPlanes::kHeadings;
    EXPECT_GT(blocked, 0u);
    EXPECT_LT(blocked, states);
}

void
expectExactPlanes(const OccupancyGrid2D &grid,
                  const RectFootprint &footprint)
{
    const std::optional<FootprintPlanes> planes =
        buildPlanes(grid, footprint);
    ASSERT_TRUE(planes.has_value());
    expectPlanesMatchSweep(grid, footprint, *planes);
}

/** A grid with another grid's occupancy but its own geometry. */
OccupancyGrid2D
copyOccupancy(const OccupancyGrid2D &from, double resolution, Vec2 origin)
{
    OccupancyGrid2D grid(from.width(), from.height(), resolution, origin);
    for (int y = 0; y < from.height(); ++y) {
        for (int x = 0; x < from.width(); ++x) {
            if (from.occupied(x, y))
                grid.setOccupied(x, y);
        }
    }
    return grid;
}

/** First valid cell in row-major order, from the top when @p last. */
Cell2
firstValidCell(const GridPlanner2D &planner, const OccupancyGrid2D &grid,
               bool last)
{
    const int n = grid.width() * grid.height();
    for (int i = 0; i < n; ++i) {
        const int id = last ? n - 1 - i : i;
        const Cell2 cell{id % grid.width(), id / grid.width()};
        if (planner.stateValid(cell, 0))
            return cell;
    }
    ADD_FAILURE() << "no valid cell";
    return {};
}

TEST(FootprintPlanes, MatchSweepOnServiceWorld)
{
    const service::World world;
    ASSERT_NE(world.footprintPlanes(), nullptr);
    expectPlanesMatchSweep(world.grid(), world.footprint(),
                           *world.footprintPlanes());
}

TEST(FootprintPlanes, MatchSweepOnCityMaps)
{
    const service::WorldConfig config;
    const RectFootprint robot(config.footprint_length,
                              config.footprint_width);
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        for (int size : {64, 128}) {
            for (double resolution : {0.25, 0.5}) {
                SCOPED_TRACE(testing::Message()
                             << "seed " << seed << " size " << size
                             << " resolution " << resolution);
                expectExactPlanes(makeCityMap(size, resolution, seed),
                                  robot);
            }
        }
    }
}

TEST(FootprintPlanes, MatchSweepForCarFootprint)
{
    // pp2d's car at its 0.5 m resolution: masks reach 7 cells, so rows
    // read windows that straddle two words and cross the grid edge.
    const RectFootprint car(4.8, 1.8);
    for (std::uint64_t seed : {1, 2}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        expectExactPlanes(makeCityMap(128, 0.5, seed), car);
    }
}

TEST(FootprintPlanes, MatchSweepAfterEdits)
{
    OccupancyGrid2D grid = makeCityMap(64, 0.25, 3);
    Rng rng(17);
    std::vector<CellEdit> edits;
    for (int i = 0; i < 300; ++i) {
        edits.push_back({static_cast<int>(rng.index(64)),
                         static_cast<int>(rng.index(64)),
                         rng.uniform(0.0, 1.0) < 0.5});
    }
    grid.applyEdits(edits);
    grid.setRect(10, 40, 17, 44, true);
    grid.setRect(30, 5, 45, 20, false);
    expectExactPlanes(grid, RectFootprint(0.6, 0.4));
    expectExactPlanes(grid, RectFootprint(1.3, 0.5));
}

TEST(FootprintPlanes, MatchSweepWithDyadicOriginAndRaggedWidth)
{
    // A width that is not a multiple of 64 exercises the last-word
    // mask; the origin is dyadic, so centers stay exact.
    const OccupancyGrid2D random = makeRandomObstacleMap(100, 70, 0.08, 5);
    expectExactPlanes(copyOccupancy(random, 0.25, {-3.5, 1.25}),
                      RectFootprint(0.6, 0.4));
    expectExactPlanes(copyOccupancy(random, 0.5, {12.0, -0.75}),
                      RectFootprint(2.0, 0.9));
}

TEST(FootprintPlanes, DeclineInexactGeometryAndPlannerKeepsSweep)
{
    const OccupancyGrid2D city = makeCityMap(64, 0.25, 2);
    const RectFootprint robot(0.6, 0.4);
    const OccupancyGrid2D coarse = copyOccupancy(city, 0.3, {0.0, 0.0});
    const OccupancyGrid2D shifted = copyOccupancy(city, 0.25, {0.1, 0.0});
    for (const OccupancyGrid2D *grid : {&coarse, &shifted}) {
        const std::optional<FootprintPlanes> planes =
            buildPlanes(*grid, robot);
        EXPECT_FALSE(planes.has_value());
        // What a World does with the result: no planes, so the planner
        // sweeps, and its plans are the sweep's.
        const GridPlanner2D planner(*grid, &robot, SearchEngine::Flat,
                                    planes ? &*planes : nullptr);
        const GridPlanner2D sweep(*grid, &robot, SearchEngine::Flat);
        const Cell2 start = firstValidCell(sweep, *grid, false);
        const Cell2 goal = firstValidCell(sweep, *grid, true);
        const GridPlan2D a = planner.plan(start, goal, 1.5);
        const GridPlan2D b = sweep.plan(start, goal, 1.5);
        EXPECT_TRUE(b.found);
        EXPECT_EQ(a.found, b.found);
        EXPECT_EQ(a.path, b.path);
        EXPECT_EQ(a.cost, b.cost);
        EXPECT_EQ(a.expanded, b.expanded);
    }
}

TEST(FootprintPlanes, PlannerPlansMatchSweep)
{
    // Same plans, costs and statistics with and without planes, on
    // both engines, including an out-of-grid goal.
    const OccupancyGrid2D grid = makeCityMap(128, 0.5, 4);
    const RectFootprint car(4.8, 1.8);
    const std::optional<FootprintPlanes> planes = buildPlanes(grid, car);
    ASSERT_TRUE(planes.has_value());
    Rng rng(8);
    std::size_t found = 0;
    for (SearchEngine engine : {SearchEngine::Flat, SearchEngine::Heap}) {
        const GridPlanner2D fast(grid, &car, engine, &*planes);
        const GridPlanner2D sweep(grid, &car, engine);
        for (int trial = 0; trial < 12; ++trial) {
            const Cell2 start{static_cast<int>(rng.index(128)),
                              static_cast<int>(rng.index(128))};
            const Cell2 goal =
                trial == 0 ? Cell2{128, 5}
                           : Cell2{static_cast<int>(rng.index(128)),
                                   static_cast<int>(rng.index(128))};
            const GridPlan2D a = fast.plan(start, goal, 1.5);
            const GridPlan2D b = sweep.plan(start, goal, 1.5);
            found += a.found ? 1 : 0;
            EXPECT_EQ(a.found, b.found);
            EXPECT_EQ(a.path, b.path);
            EXPECT_EQ(a.cost, b.cost);
            EXPECT_EQ(a.expanded, b.expanded);
            EXPECT_EQ(a.collision_checks, b.collision_checks);
            EXPECT_EQ(a.peak_open, b.peak_open);
        }
    }
    EXPECT_GE(found, 6u);
}

} // namespace
} // namespace rtr
