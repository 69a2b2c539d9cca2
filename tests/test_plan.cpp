/**
 * @file
 * Tests for the sampling-based planners: RRT, RRT*, shortcut
 * post-processing, PRM.
 */

#include <gtest/gtest.h>

#include <memory>

#include "arm/cspace.h"
#include "arm/workspace.h"
#include "geom/angle.h"
#include "kernels/kernel_arm_common.h"
#include "kernels/registry.h"
#include "plan/prm.h"
#include "plan/rrt.h"
#include "plan/rrt_star.h"
#include "plan/shortcut.h"
#include "util/rng.h"

namespace rtr {
namespace {

/** Shared fixture: 4-DoF arm in a cluttered workspace. */
class PlannersTest : public ::testing::Test
{
  protected:
    PlannersTest()
        : arm_(PlanarArm::uniform({0.25, 0.0}, 4, 0.45)),
          workspace_(makeMapC()),
          space_(4, -kPi, kPi),
          checker_(arm_, workspace_)
    {
        // Deterministic well-separated free endpoints.
        Rng rng(77);
        start_ = sampleFree(rng);
        do {
            goal_ = sampleFree(rng);
        } while (ConfigSpace::distance(start_, goal_) < 1.2);
    }

    ArmConfig
    sampleFree(Rng &rng)
    {
        while (true) {
            ArmConfig q = space_.sample(rng);
            if (!checker_.configCollides(q))
                return q;
        }
    }

    /** Assert a waypoint path is collision-free and connects A to B. */
    void
    checkPath(const std::vector<ArmConfig> &path, const ArmConfig &a,
              const ArmConfig &b)
    {
        ASSERT_GE(path.size(), 2u);
        EXPECT_EQ(path.front(), a);
        EXPECT_EQ(path.back(), b);
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
            EXPECT_FALSE(
                checker_.motionCollides(path[i], path[i + 1], 0.02))
                << "segment " << i << " collides";
        }
    }

    PlanarArm arm_;
    Workspace workspace_;
    ConfigSpace space_;
    ArmCollisionChecker checker_;
    ArmConfig start_, goal_;
};

TEST_F(PlannersTest, RrtFindsValidPath)
{
    RrtPlanner planner(space_, checker_, {});
    Rng rng(1);
    MotionPlan plan = planner.plan(start_, goal_, rng);
    ASSERT_TRUE(plan.found);
    checkPath(plan.path, start_, goal_);
    EXPECT_GT(plan.samples_drawn, 0u);
    EXPECT_GT(plan.collision_checks, 0u);
    EXPECT_GE(plan.cost,
              ConfigSpace::distance(start_, goal_) - 1e-9);
}

TEST_F(PlannersTest, RrtDeterministicGivenSeed)
{
    RrtPlanner planner(space_, checker_, {});
    Rng rng_a(9), rng_b(9);
    MotionPlan a = planner.plan(start_, goal_, rng_a);
    MotionPlan b = planner.plan(start_, goal_, rng_b);
    ASSERT_EQ(a.found, b.found);
    EXPECT_EQ(a.samples_drawn, b.samples_drawn);
    EXPECT_DOUBLE_EQ(a.cost, b.cost);
}

TEST_F(PlannersTest, RrtBruteForceNnGivesSameTree)
{
    RrtConfig with_tree;
    RrtConfig brute;
    brute.use_kdtree = false;
    RrtPlanner planner_a(space_, checker_, with_tree);
    RrtPlanner planner_b(space_, checker_, brute);
    Rng rng_a(4), rng_b(4);
    MotionPlan a = planner_a.plan(start_, goal_, rng_a);
    MotionPlan b = planner_b.plan(start_, goal_, rng_b);
    // Identical NN answers => identical trees and plans.
    ASSERT_EQ(a.found, b.found);
    EXPECT_EQ(a.tree_size, b.tree_size);
    EXPECT_DOUBLE_EQ(a.cost, b.cost);
}

TEST_F(PlannersTest, RrtFailsWhenStartColliding)
{
    RrtPlanner planner(space_, checker_, {});
    Rng rng(2);
    ArmConfig colliding(4, -kPi / 2.0);  // straight down, out of bounds
    MotionPlan plan = planner.plan(colliding, goal_, rng);
    EXPECT_FALSE(plan.found);
}

TEST_F(PlannersTest, RrtStarValidAndNotWorseOverSeeds)
{
    RrtConfig rrt_config;
    RrtStarConfig star_config;
    star_config.max_samples = 2500;
    star_config.refine_factor = 1e18;  // full refinement budget
    RrtPlanner rrt(space_, checker_, rrt_config);
    RrtStarPlanner rrt_star(space_, checker_, star_config);

    double rrt_total = 0.0, star_total = 0.0;
    int both_found = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        Rng rng_a(seed), rng_b(seed);
        MotionPlan plan_a = rrt.plan(start_, goal_, rng_a);
        RrtStarPlan plan_b = rrt_star.plan(start_, goal_, rng_b);
        if (plan_a.found && plan_b.found) {
            checkPath(plan_b.path, start_, goal_);
            rrt_total += plan_a.cost;
            star_total += plan_b.cost;
            ++both_found;
        }
    }
    ASSERT_GE(both_found, 3);
    // RRT* paths are shorter on average (the paper's 1.6x claim; we
    // only require improvement here).
    EXPECT_LT(star_total, rrt_total);
}

/**
 * Every RRT* tree node's cost-to-come is, bit for bit, its parent's
 * cost plus the edge length: what a fresh pass from the root gives.
 */
void
expectTreeCostsFollowParents(const RrtStarPlan &plan)
{
    ASSERT_EQ(plan.tree_nodes.size(), plan.tree_size);
    ASSERT_EQ(plan.tree_parents.size(), plan.tree_size);
    ASSERT_EQ(plan.tree_costs.size(), plan.tree_size);
    ASSERT_GT(plan.tree_size, 0u);
    EXPECT_EQ(plan.tree_parents[0], 0u);
    EXPECT_EQ(plan.tree_costs[0], 0.0);
    for (std::size_t i = 1; i < plan.tree_size; ++i) {
        const std::uint32_t up = plan.tree_parents[i];
        EXPECT_EQ(plan.tree_costs[i],
                  plan.tree_costs[up] +
                      ConfigSpace::distance(plan.tree_nodes[up],
                                            plan.tree_nodes[i]))
            << "node " << i << " parent " << up;
    }
}

TEST_F(PlannersTest, RrtStarReportsRewires)
{
    RrtStarConfig config;
    config.max_samples = 3000;
    config.rewire_radius = 1.0;
    config.refine_factor = 1e18;
    RrtStarPlanner planner(space_, checker_, config);
    Rng rng(3);
    RrtStarPlan plan = planner.plan(start_, goal_, rng);
    ASSERT_TRUE(plan.found);
    EXPECT_GT(plan.rewires, 0u);
    expectTreeCostsFollowParents(plan);
}

TEST(RrtStarRewire, SubtreeCostsFollowTheirParents)
{
    // The rrtstar kernel's problem at `--samples 5000 --refine`, which
    // rewires nodes that already have children.
    const std::unique_ptr<Kernel> kernel = makeKernel("rrtstar");
    ArgParser args("rrtstar");
    kernel->addOptions(args);
    args.parse(std::vector<std::string>{"--samples", "5000", "--refine"});
    ArmProblem problem = makeArmProblem(args);
    RrtStarConfig config;
    config.max_samples = static_cast<std::size_t>(args.getInt("samples"));
    config.step_size = args.getDouble("epsilon");
    config.goal_bias = args.getDouble("bias");
    config.rewire_radius = args.getDouble("radius");
    config.refine_factor = 1e18;
    RrtStarPlanner planner(problem.space, *problem.checker, config);
    Rng rng(static_cast<std::uint64_t>(args.getInt("seed")));
    RrtStarPlan plan = planner.plan(problem.start, problem.goal, rng);
    ASSERT_TRUE(plan.found);
    EXPECT_GT(plan.rewires, 0u);
    expectTreeCostsFollowParents(plan);
}

TEST_F(PlannersTest, ShortcutNeverIncreasesCostAndStaysValid)
{
    RrtPlanner planner(space_, checker_, {});
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        Rng rng(seed);
        MotionPlan plan = planner.plan(start_, goal_, rng);
        if (!plan.found)
            continue;
        double before = plan.cost;
        ShortcutStats stats =
            shortcutPath(plan.path, checker_, {}, rng);
        EXPECT_DOUBLE_EQ(stats.cost_before, before);
        EXPECT_LE(stats.cost_after, before + 1e-9);
        checkPath(plan.path, start_, goal_);
    }
}

TEST_F(PlannersTest, ShortcutOnTwoPointPathIsNoop)
{
    std::vector<ArmConfig> path{start_, goal_};
    Rng rng(1);
    ShortcutStats stats = shortcutPath(path, checker_, {}, rng);
    EXPECT_EQ(stats.shortcuts_applied, 0u);
    EXPECT_EQ(path.size(), 2u);
}

TEST_F(PlannersTest, PrmBuildAndQuery)
{
    PrmConfig config;
    config.n_samples = 800;
    PrmPlanner planner(space_, checker_, config);
    Rng rng(5);
    PrmBuildStats build = planner.build(rng);
    EXPECT_EQ(build.nodes, 800u);
    EXPECT_GT(build.edges, 400u);
    EXPECT_GE(build.samples_drawn, build.nodes);

    MotionPlan plan = planner.query(start_, goal_);
    ASSERT_TRUE(plan.found);
    checkPath(plan.path, start_, goal_);
    EXPECT_GT(planner.lastHeuristicEvals(), 0u);
}

TEST_F(PlannersTest, PrmQueriesAreRepeatable)
{
    PrmConfig config;
    config.n_samples = 600;
    PrmPlanner planner(space_, checker_, config);
    Rng rng(6);
    planner.build(rng);
    MotionPlan a = planner.query(start_, goal_);
    MotionPlan b = planner.query(start_, goal_);
    EXPECT_EQ(a.found, b.found);
    if (a.found)
        EXPECT_DOUBLE_EQ(a.cost, b.cost);
}

TEST(PathCost, SumsSegmentLengths)
{
    std::vector<ArmConfig> path{{0.0, 0.0}, {3.0, 4.0}, {3.0, 7.0}};
    EXPECT_DOUBLE_EQ(pathCost(path), 8.0);
    EXPECT_DOUBLE_EQ(pathCost({}), 0.0);
    EXPECT_DOUBLE_EQ(pathCost({{1.0, 1.0}}), 0.0);
}

} // namespace
} // namespace rtr
