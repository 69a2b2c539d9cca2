/**
 * @file
 * Failure-injection tests: user errors must die through fatal() with a
 * diagnostic (exit code 1), and internal contract violations through
 * panic() (abort). Uses gtest death tests.
 */

#include <gtest/gtest.h>

#include <limits>

#include "arm/planar_arm.h"
#include "arm/workspace.h"
#include "geom/angle.h"
#include "grid/map_io.h"
#include "kernels/registry.h"
#include "linalg/decomp.h"
#include "util/args.h"
#include "util/stats.h"

namespace rtr {
namespace {

using FailuresDeathTest = ::testing::Test;

TEST(FailuresDeathTest, UnknownOptionIsFatal)
{
    ArgParser parser("tool");
    parser.addOption("known", "1", "a known option");
    EXPECT_EXIT(parser.parse({"--unknown", "3"}),
                ::testing::ExitedWithCode(1), "unknown argument");
}

TEST(FailuresDeathTest, MissingOptionValueIsFatal)
{
    ArgParser parser("tool");
    parser.addOption("samples", "1", "sample count");
    EXPECT_EXIT(parser.parse({"--samples"}),
                ::testing::ExitedWithCode(1), "expects a value");
}

TEST(FailuresDeathTest, NonNumericValueIsFatal)
{
    ArgParser parser("tool");
    parser.addOption("epsilon", "1.0", "weight");
    parser.parse({"--epsilon", "fast"});
    EXPECT_EXIT(parser.getDouble("epsilon"),
                ::testing::ExitedWithCode(1), "expects a number");
}

TEST(FailuresDeathTest, FlagWithValueIsFatal)
{
    ArgParser parser("tool");
    parser.addFlag("verbose", "chatty");
    EXPECT_EXIT(parser.parse({"--verbose=1"}),
                ::testing::ExitedWithCode(1), "does not take a value");
}

TEST(FailuresDeathTest, MissingMapFileIsFatal)
{
    EXPECT_EXIT(loadMovingAiMapFile("/nonexistent/path/boston.map"),
                ::testing::ExitedWithCode(1), "cannot open map file");
}

TEST(FailuresDeathTest, MalformedMapHeaderIsFatal)
{
    std::stringstream stream("type octile\nbananas 7\nmap\n");
    EXPECT_EXIT(loadMovingAiMap(stream), ::testing::ExitedWithCode(1),
                "unexpected token");
}

TEST(FailuresDeathTest, TruncatedMapBodyIsFatal)
{
    std::stringstream stream("height 3\nwidth 3\nmap\n...\n");
    EXPECT_EXIT(loadMovingAiMap(stream), ::testing::ExitedWithCode(1),
                "truncated");
}

TEST(FailuresDeathTest, SingularInverseIsFatal)
{
    Matrix singular{{1, 2}, {2, 4}};
    EXPECT_EXIT(inverse(singular), ::testing::ExitedWithCode(1),
                "singular");
}

TEST(FailuresDeathTest, UnknownKernelIsFatal)
{
    EXPECT_EXIT(makeKernel("warp-drive"), ::testing::ExitedWithCode(1),
                "unknown kernel");
}

TEST(FailuresDeathTest, SymbolicHeuristicTypoIsFatal)
{
    auto kernel = makeKernel("sym-blkw");
    EXPECT_EXIT(kernel->runWithDefaults({"--heuristic", "hdd"}),
                ::testing::ExitedWithCode(1),
                "--heuristic must be 'hadd' or 'goal-count'");
}

TEST(FailuresDeathTest, SymbolicBadEpsilonIsFatal)
{
    for (const char *name : {"sym-blkw", "sym-fext"}) {
        auto kernel = makeKernel(name);
        for (const char *epsilon : {"nan", "inf", "0.5", "-1"}) {
            EXPECT_EXIT(kernel->runWithDefaults({"--epsilon", epsilon}),
                        ::testing::ExitedWithCode(1),
                        "--epsilon must be a finite number >= 1")
                << name << " --epsilon " << epsilon;
        }
    }
}

TEST(FailuresDeathTest, SymbolicTooFewObjectsIsFatal)
{
    EXPECT_EXIT(makeKernel("sym-blkw")->runWithDefaults({"--blocks", "1"}),
                ::testing::ExitedWithCode(1), "--blocks must be >= 2");
    EXPECT_EXIT(
        makeKernel("sym-fext")->runWithDefaults({"--waypoints", "-3"}),
        ::testing::ExitedWithCode(1), "--waypoints must be >= 2");
}

TEST(FailuresDeathTest, QuantileOfEmptySetPanics)
{
    EXPECT_DEATH(quantile({}, 0.5), "empty sample set");
}

TEST(FailuresDeathTest, MatrixShapeMismatchPanics)
{
    Matrix a(2, 3), b(2, 3);
    EXPECT_DEATH(a * b, "matmul shape mismatch");
}

TEST(FailuresDeathTest, ReportFileToUnwritablePathIsFatal)
{
    KernelReport report;
    EXPECT_EXIT(writeReportFile(report, "/nonexistent/dir/report.csv"),
                ::testing::ExitedWithCode(1), "cannot write report");
}

/**
 * The checker's exact segment-vs-box fast path needs finite boxes with
 * lo <= hi, so a workspace that breaks that dies at construction.
 */
TEST(FailuresDeathTest, MalformedWorkspaceIsFatal)
{
    const PlanarArm arm = PlanarArm::uniform({0.25, 0.0}, 3, 0.45);
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();

    Workspace inverted_bounds = makeMapF();
    inverted_bounds.bounds = Aabb2{{0.5, 0.0}, {0.0, 0.5}};
    EXPECT_EXIT(ArmCollisionChecker(arm, inverted_bounds),
                ::testing::ExitedWithCode(1), "workspace bounds");

    Workspace infinite_bounds = makeMapF();
    infinite_bounds.bounds.hi.y = inf;
    EXPECT_EXIT(ArmCollisionChecker(arm, infinite_bounds),
                ::testing::ExitedWithCode(1), "workspace bounds");

    Workspace inverted_obstacle = makeMapC();
    inverted_obstacle.obstacles.push_back(
        Aabb2{{0.3, 0.3}, {0.2, 0.4}});
    EXPECT_EXIT(ArmCollisionChecker(arm, inverted_obstacle),
                ::testing::ExitedWithCode(1),
                "workspace obstacle 5 must be finite with lo <= hi");

    Workspace nan_obstacle = makeMapF();
    nan_obstacle.obstacles.push_back(Aabb2{{0.2, nan}, {0.3, 0.4}});
    EXPECT_EXIT(ArmCollisionChecker(arm, nan_obstacle),
                ::testing::ExitedWithCode(1), "workspace obstacle 0");

    // A zero-width box is well formed, and the straight-up arm's last
    // link runs along it.
    Workspace flat_obstacle = makeMapF();
    flat_obstacle.obstacles.push_back(Aabb2{{0.25, 0.32}, {0.25, 0.4}});
    ArmCollisionChecker checker(arm, flat_obstacle);
    EXPECT_TRUE(checker.configCollides({kPi / 2.0, 0.0, 0.0}));
    EXPECT_FALSE(checker.configCollides({2.0, 0.0, 0.0}));
}

} // namespace
} // namespace rtr
