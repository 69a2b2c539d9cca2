/**
 * @file
 * Failure-injection tests: user errors must die through fatal() with a
 * diagnostic (exit code 1), and internal contract violations through
 * panic() (abort). Uses gtest death tests.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>

#include "arm/planar_arm.h"
#include "arm/workspace.h"
#include "geom/angle.h"
#include "grid/map_io.h"
#include "kernels/registry.h"
#include "linalg/decomp.h"
#include "pointcloud/nn_engine.h"
#include "util/args.h"
#include "util/batch_engine.h"
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

TEST(FailuresDeathTest, EkfSlamEmptyRunIsFatal)
{
    auto kernel = makeKernel("ekfslam");
    EXPECT_EXIT(kernel->runWithDefaults({"--steps", "0"}),
                ::testing::ExitedWithCode(1), "--steps must be >= 1");
    EXPECT_EXIT(kernel->runWithDefaults({"--landmarks", "0"}),
                ::testing::ExitedWithCode(1), "--landmarks must be >= 1");
}

TEST(FailuresDeathTest, SrecBadFramesOrVoxelIsFatal)
{
    auto kernel = makeKernel("srec");
    for (const char *frames : {"0", "1", "-4"}) {
        EXPECT_EXIT(kernel->runWithDefaults({"--frames", frames}),
                    ::testing::ExitedWithCode(1), "--frames must be >= 2")
            << "--frames " << frames;
    }
    for (const char *voxel : {"0", "-0.04", "nan", "inf"}) {
        EXPECT_EXIT(kernel->runWithDefaults({"--voxel", voxel}),
                    ::testing::ExitedWithCode(1),
                    "--voxel must be a finite number > 0")
            << "--voxel " << voxel;
    }
}

/**
 * pfl's size flags die through fatal() before any input is built: with
 * no steps there is no first scan, a start outside regions 0-4 has no
 * free corridor to walk, and zero particles or beams break the
 * filter's own preconditions.
 */
TEST(FailuresDeathTest, PflBadFlagsAreFatal)
{
    auto kernel = makeKernel("pfl");
    for (const char *flag : {"--steps", "--particles", "--beams"}) {
        for (const char *value : {"0", "-3"}) {
            EXPECT_EXIT(kernel->runWithDefaults({flag, value}),
                        ::testing::ExitedWithCode(1),
                        std::string(flag) + " must be >= 1")
                << flag << " " << value;
        }
    }
    EXPECT_EXIT(kernel->runWithDefaults({"--region", "9"}),
                ::testing::ExitedWithCode(1), "--region must be <= 4");
    EXPECT_EXIT(kernel->runWithDefaults({"--region", "-1"}),
                ::testing::ExitedWithCode(1), "--region must be >= 0");
    EXPECT_EXIT(kernel->runWithDefaults({"--map-width", "0"}),
                ::testing::ExitedWithCode(1), "--map-width must be >= 40");
}

/**
 * The control kernels' size flags die through fatal() before any input
 * is built: mpc's start heading needs two reference points, bo needs a
 * candidate to pick, and dmp's error is measured on its last rollout.
 */
TEST(FailuresDeathTest, ControlKernelBadFlagsAreFatal)
{
    struct Case
    {
        const char *kernel, *flag, *value, *message;
    };
    for (const Case &c : {
             Case{"mpc", "--ref-points", "0", "--ref-points must be >= 2"},
             Case{"mpc", "--ref-points", "1", "--ref-points must be >= 2"},
             Case{"mpc", "--horizon", "0", "--horizon must be >= 1"},
             Case{"bo", "--candidates", "0", "--candidates must be >= 1"},
             Case{"bo", "--iterations", "0", "--iterations must be >= 1"},
             Case{"dmp", "--rollouts", "0", "--rollouts must be >= 1"},
             Case{"dmp", "--demo-samples", "2",
                  "--demo-samples must be >= 3"},
             Case{"dmp", "--basis", "1", "--basis must be >= 2"},
         }) {
        EXPECT_EXIT(makeKernel(c.kernel)->runWithDefaults({c.flag, c.value}),
                    ::testing::ExitedWithCode(1), c.message)
            << c.kernel << " " << c.flag << " " << c.value;
    }
}

/**
 * A typo in RTR_NN_ENGINE or RTR_BATCH_ENGINE would silently re-test
 * the default engine, so it exits 2; an empty value means unset. The
 * threadsafe style runs each statement in a freshly started process,
 * where the once-read default has not been cached yet.
 */
TEST(FailuresDeathTest, EngineEnvTypoExitsTwo)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT((setenv("RTR_NN_ENGINE", "nodes", 1), defaultNnEngine()),
                ::testing::ExitedWithCode(2),
                "RTR_NN_ENGINE=nodes is not a nearest-neighbor engine");
    EXPECT_EXIT(
        (setenv("RTR_BATCH_ENGINE", "sclar", 1), defaultBatchEngine()),
        ::testing::ExitedWithCode(2),
        "RTR_BATCH_ENGINE=sclar is not a batch engine");
    EXPECT_EXIT(
        {
            setenv("RTR_NN_ENGINE", "", 1);
            setenv("RTR_BATCH_ENGINE", "", 1);
            std::exit(defaultNnEngine() == NnEngine::Bucket &&
                              defaultBatchEngine() == BatchEngine::Soa &&
                              !batchEngineOverridden()
                          ? 0
                          : 3);
        },
        ::testing::ExitedWithCode(0), "");
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
