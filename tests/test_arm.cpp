/**
 * @file
 * Tests for the planar arm: forward kinematics, workspace collision
 * checking, configuration-space helpers, and the checker's
 * zero-allocation contract for warm calls.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "alloc_counter.h"
#include "arm/cspace.h"
#include "arm/planar_arm.h"
#include "arm/workspace.h"
#include "geom/angle.h"
#include "util/rng.h"

namespace rtr {
namespace {

TEST(PlanarArm, StraightArmReachesFullExtension)
{
    PlanarArm arm({0.0, 0.0}, {1.0, 1.0, 1.0});
    EXPECT_EQ(arm.dof(), 3u);
    EXPECT_DOUBLE_EQ(arm.reach(), 3.0);
    Vec2 tip = arm.endEffector({0.0, 0.0, 0.0});
    EXPECT_NEAR(tip.x, 3.0, 1e-12);
    EXPECT_NEAR(tip.y, 0.0, 1e-12);
}

TEST(PlanarArm, RightAngleElbow)
{
    PlanarArm arm({0.0, 0.0}, {1.0, 1.0});
    // First link along +x, second bent 90 degrees up.
    Vec2 tip = arm.endEffector({0.0, kPi / 2.0});
    EXPECT_NEAR(tip.x, 1.0, 1e-12);
    EXPECT_NEAR(tip.y, 1.0, 1e-12);
}

TEST(PlanarArm, JointPositionsChainCorrectly)
{
    PlanarArm arm({1.0, 2.0}, {0.5, 0.5});
    std::vector<Vec2> joints;
    arm.forwardKinematics({kPi / 2.0, 0.0}, joints);
    ASSERT_EQ(joints.size(), 3u);
    EXPECT_EQ(joints[0], (Vec2{1.0, 2.0}));
    EXPECT_NEAR(joints[1].x, 1.0, 1e-12);
    EXPECT_NEAR(joints[1].y, 2.5, 1e-12);
    EXPECT_NEAR(joints[2].y, 3.0, 1e-12);
    // Link lengths are preserved by FK.
    EXPECT_NEAR(joints[0].distanceTo(joints[1]), 0.5, 1e-12);
    EXPECT_NEAR(joints[1].distanceTo(joints[2]), 0.5, 1e-12);
}

TEST(PlanarArm, UniformFactory)
{
    PlanarArm arm = PlanarArm::uniform({0.25, 0.0}, 5, 0.45);
    EXPECT_EQ(arm.dof(), 5u);
    EXPECT_NEAR(arm.reach(), 0.45, 1e-12);
    for (double len : arm.linkLengths())
        EXPECT_NEAR(len, 0.09, 1e-12);
}

TEST(Workspace, MapFIsFree)
{
    Workspace ws = makeMapF();
    EXPECT_TRUE(ws.obstacles.empty());
    EXPECT_DOUBLE_EQ(ws.bounds.width(), 0.5);
}

TEST(Workspace, MapCHasClutter)
{
    Workspace ws = makeMapC();
    EXPECT_GE(ws.obstacles.size(), 3u);
    for (const Aabb2 &box : ws.obstacles) {
        EXPECT_TRUE(ws.bounds.contains(box.lo));
        EXPECT_TRUE(ws.bounds.contains(box.hi));
    }
}

TEST(CollisionChecker, FoldedArmFreeInMapC)
{
    PlanarArm arm = PlanarArm::uniform({0.25, 0.0}, 5, 0.45);
    Workspace ws = makeMapC();
    ArmCollisionChecker checker(arm, ws);
    // Arm folded low, zig-zagging below Map-C's clutter band.
    ArmConfig folded{kPi / 2.0, kPi / 2.0, -kPi / 2.0, -kPi / 2.0, 0.0};
    EXPECT_FALSE(checker.configCollides(folded));
    EXPECT_EQ(checker.checksPerformed(), 1u);
    // Straight up runs into the (0.20..0.30, 0.42..0.48) obstacle.
    ArmConfig up{kPi / 2.0, 0.0, 0.0, 0.0, 0.0};
    EXPECT_TRUE(checker.configCollides(up));
}

TEST(CollisionChecker, OutOfBoundsCollides)
{
    PlanarArm arm = PlanarArm::uniform({0.25, 0.0}, 3, 0.45);
    Workspace ws = makeMapF();
    ArmCollisionChecker checker(arm, ws);
    // Pointing straight down leaves the workspace (y < 0).
    EXPECT_TRUE(checker.configCollides({-kPi / 2.0, 0.0, 0.0}));
    // Pointing along +x from (0.25, 0): tip at 0.7 > 0.5 bound.
    EXPECT_TRUE(checker.configCollides({0.0, 0.0, 0.0}));
}

TEST(CollisionChecker, ObstacleHitDetected)
{
    PlanarArm arm = PlanarArm::uniform({0.25, 0.0}, 2, 0.4);
    Workspace ws = makeMapF();
    // Obstacle above the base, in the upper half of the reach.
    ws.obstacles.push_back(Aabb2{{0.2, 0.3}, {0.3, 0.4}});
    ArmCollisionChecker checker(arm, ws);
    // Straight up passes through the obstacle.
    EXPECT_TRUE(checker.configCollides({kPi / 2.0, 0.0}));
    // Up then bent left stays below it.
    EXPECT_FALSE(checker.configCollides({kPi / 2.0, kPi / 2.0}));
}

TEST(CollisionChecker, MotionDetectsMidpointCollision)
{
    PlanarArm arm = PlanarArm::uniform({0.25, 0.0}, 2, 0.4);
    Workspace ws = makeMapF();
    // Thin pillar straight above the base.
    ws.obstacles.push_back(Aabb2{{0.24, 0.3}, {0.26, 0.4}});
    ArmCollisionChecker checker(arm, ws);
    // ~126 and ~54 degrees: tilted enough to clear the pillar while
    // keeping the whole arm inside the 0.5 m workspace.
    ArmConfig left{2.2, 0.0};
    ArmConfig right{0.94, 0.0};
    ASSERT_FALSE(checker.configCollides(left));
    ASSERT_FALSE(checker.configCollides(right));
    // Sweeping between them passes straight up, through the pillar.
    EXPECT_TRUE(checker.motionCollides(left, right, 0.02));
}

TEST(CollisionChecker, MotionFreeWhenNothingInTheWay)
{
    PlanarArm arm = PlanarArm::uniform({0.25, 0.0}, 2, 0.3);
    Workspace ws = makeMapF();
    ArmCollisionChecker checker(arm, ws);
    EXPECT_FALSE(checker.motionCollides({2.2, 0.0}, {0.94, 0.0}, 0.02));
}

/**
 * A warm checker validates configurations and motions without touching
 * the allocator: forward kinematics writes into the checker's joint
 * scratch and motionCollides() interpolates into its own.
 */
TEST(CollisionChecker, WarmChecksDoNotAllocate)
{
    PlanarArm arm = PlanarArm::uniform({0.25, 0.0}, 5, 0.45);
    Workspace ws = makeMapC();
    ArmCollisionChecker checker(arm, ws);
    ConfigSpace space(5, -kPi, kPi);
    Rng rng(8);
    std::vector<ArmConfig> configs;
    for (int i = 0; i < 32; ++i)
        configs.push_back(space.sample(rng));
    // Warm-up sizes the scratch.
    (void)checker.motionCollides(configs[0], configs[1], 0.05);

    std::size_t collisions = 0;
    const std::size_t allocs = rtr_test::allocationsDuring([&] {
        for (std::size_t i = 0; i + 1 < configs.size(); ++i) {
            collisions += checker.configCollides(configs[i]) ? 1 : 0;
            collisions += checker.motionCollides(configs[i],
                                                 configs[i + 1], 0.05)
                              ? 1
                              : 0;
        }
    });
    EXPECT_EQ(allocs, 0u);
    EXPECT_GT(collisions, 0u); // the loop reached the obstacle tests
    EXPECT_GT(checker.checksPerformed(), 2 * configs.size());
}

TEST(ConfigSpace, SampleWithinBounds)
{
    ConfigSpace space(5, -kPi, kPi);
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        ArmConfig q = space.sample(rng);
        ASSERT_EQ(q.size(), 5u);
        EXPECT_TRUE(space.inBounds(q));
    }
}

TEST(ConfigSpace, DistanceProperties)
{
    ArmConfig a{0.0, 0.0, 0.0};
    ArmConfig b{1.0, 2.0, 2.0};
    EXPECT_DOUBLE_EQ(ConfigSpace::distance(a, b), 3.0);
    EXPECT_DOUBLE_EQ(ConfigSpace::squaredDistance(a, b), 9.0);
    EXPECT_DOUBLE_EQ(ConfigSpace::distance(a, a), 0.0);
    // Symmetry and triangle inequality on random triples.
    Rng rng(5);
    ConfigSpace space(4, -1.0, 1.0);
    for (int i = 0; i < 50; ++i) {
        ArmConfig x = space.sample(rng);
        ArmConfig y = space.sample(rng);
        ArmConfig z = space.sample(rng);
        EXPECT_DOUBLE_EQ(ConfigSpace::distance(x, y),
                         ConfigSpace::distance(y, x));
        EXPECT_LE(ConfigSpace::distance(x, z),
                  ConfigSpace::distance(x, y) +
                      ConfigSpace::distance(y, z) + 1e-12);
    }
}

TEST(ConfigSpace, InterpolateEndpoints)
{
    ArmConfig a{0.0, 1.0};
    ArmConfig b{2.0, -1.0};
    EXPECT_EQ(ConfigSpace::interpolate(a, b, 0.0), a);
    EXPECT_EQ(ConfigSpace::interpolate(a, b, 1.0), b);
    ArmConfig mid = ConfigSpace::interpolate(a, b, 0.5);
    EXPECT_DOUBLE_EQ(mid[0], 1.0);
    EXPECT_DOUBLE_EQ(mid[1], 0.0);
}

TEST(ConfigSpace, SteerLimitsStepLength)
{
    ArmConfig from{0.0, 0.0};
    ArmConfig to{3.0, 4.0};  // distance 5
    ArmConfig stepped = ConfigSpace::steer(from, to, 1.0);
    EXPECT_NEAR(ConfigSpace::distance(from, stepped), 1.0, 1e-12);
    // Direction preserved.
    EXPECT_NEAR(stepped[0] / stepped[1], 3.0 / 4.0, 1e-12);
    // Within range: returns the target itself.
    ArmConfig direct = ConfigSpace::steer(from, to, 10.0);
    EXPECT_EQ(direct, to);
}

TEST(ConfigSpace, InBoundsRejectsWrongSizeAndRange)
{
    ConfigSpace space(3, -1.0, 1.0);
    EXPECT_FALSE(space.inBounds({0.0, 0.0}));
    EXPECT_FALSE(space.inBounds({0.0, 0.0, 1.5}));
    EXPECT_TRUE(space.inBounds({0.0, -1.0, 1.0}));
}

TEST(RandomWorkspace, Deterministic)
{
    Workspace a = makeRandomWorkspace(5, 42);
    Workspace b = makeRandomWorkspace(5, 42);
    ASSERT_EQ(a.obstacles.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(a.obstacles[i].lo, b.obstacles[i].lo);
        EXPECT_EQ(a.obstacles[i].hi, b.obstacles[i].hi);
    }
}

} // namespace
} // namespace rtr
