/**
 * @file
 * Integration tests: every RTRBench kernel runs end-to-end at a
 * reduced configuration, succeeds, and reports the phases and metrics
 * its paper section promises.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "kernels/registry.h"

namespace rtr {
namespace {

TEST(Registry, HasAllSixteenKernels)
{
    EXPECT_EQ(kernelNames().size(), 16u);
    auto kernels = makeAllKernels();
    ASSERT_EQ(kernels.size(), 16u);
    for (std::size_t i = 0; i < kernels.size(); ++i)
        EXPECT_EQ(kernels[i]->name(), kernelNames()[i]);
}

TEST(Registry, StagesMatchTableOne)
{
    EXPECT_EQ(makeKernel("pfl")->stage(), Stage::Perception);
    EXPECT_EQ(makeKernel("ekfslam")->stage(), Stage::Perception);
    EXPECT_EQ(makeKernel("srec")->stage(), Stage::Perception);
    for (const char *name : {"pp2d", "pp3d", "movtar", "prm", "rrt",
                             "rrtstar", "rrtpp", "sym-blkw", "sym-fext"})
        EXPECT_EQ(makeKernel(name)->stage(), Stage::Planning) << name;
    for (const char *name : {"dmp", "mpc", "cem", "bo"})
        EXPECT_EQ(makeKernel(name)->stage(), Stage::Control) << name;
}

TEST(Registry, EveryKernelDocumentsItsOptions)
{
    for (const std::string &name : kernelNames()) {
        auto kernel = makeKernel(name);
        ArgParser parser(name);
        kernel->addOptions(parser);
        std::string usage = parser.usage();
        EXPECT_NE(usage.find("--help"), std::string::npos) << name;
        EXPECT_FALSE(kernel->description().empty()) << name;
    }
}

/** Small-but-real configurations, one per kernel. */
std::vector<std::string>
smallConfig(const std::string &name)
{
    if (name == "pfl")
        return {"--particles", "300", "--steps", "25"};
    if (name == "ekfslam")
        return {"--steps", "200"};
    if (name == "srec")
        return {"--frames", "6", "--scan-width", "60",
                "--scan-height", "45"};
    if (name == "pp2d")
        return {"--map-size", "256"};
    if (name == "pp3d")
        return {"--map-size", "64", "--map-depth", "16"};
    if (name == "movtar")
        return {"--env-size", "64", "--trajectory-steps", "90"};
    if (name == "prm")
        return {"--samples", "1200"};
    if (name == "rrt" || name == "rrtpp")
        return {};
    if (name == "rrtstar")
        return {"--samples", "1500"};
    if (name == "sym-blkw")
        return {"--blocks", "5"};
    if (name == "sym-fext")
        return {"--waypoints", "5"};
    if (name == "dmp")
        return {"--rollouts", "20"};
    if (name == "mpc")
        return {"--ref-points", "40"};
    if (name == "cem")
        return {"--repeats", "50"};
    if (name == "bo")
        return {"--candidates", "2000", "--iterations", "20"};
    return {};
}

class KernelRuns : public ::testing::TestWithParam<std::string>
{
};

TEST_P(KernelRuns, SucceedsAtReducedScale)
{
    auto kernel = makeKernel(GetParam());
    KernelReport report = kernel->runWithDefaults(smallConfig(GetParam()));
    EXPECT_TRUE(report.success) << GetParam();
    EXPECT_GT(report.roi_seconds, 0.0);
    EXPECT_FALSE(report.metrics.empty());
    EXPECT_FALSE(report.profiler.phases().empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelRuns,
    ::testing::Values("pfl", "ekfslam", "srec", "pp2d", "pp3d", "movtar",
                      "prm", "rrt", "rrtstar", "rrtpp", "sym-blkw",
                      "sym-fext", "dmp", "mpc", "cem", "bo"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

TEST(KernelMetrics, BottlenecksMatchTableOne)
{
    // Each kernel's Table I bottleneck, asserted on deterministic work
    // counters (exact at any load, unlike wall-clock phase shares). The
    // time shares themselves are printed by bench_table1.
    auto run = [](const std::string &kernel,
                  std::vector<std::string> config) {
        KernelReport report =
            makeKernel(kernel)->runWithDefaults(std::move(config));
        EXPECT_TRUE(report.success) << kernel;
        return report;
    };
    auto metric = [](const KernelReport &report, const std::string &name) {
        EXPECT_TRUE(report.metrics.count(name)) << "missing " << name;
        return report.metrics.count(name) ? report.metrics.at(name) : 0.0;
    };

    // pfl — ray-casting: every particle casts every beam each step, and
    // each ray probes >= 10 cells on the scalar engine (the cost profile
    // Table I measured), against one likelihood evaluation per ray in
    // the weight phase and O(1) work per particle in motion/resample.
    KernelReport pfl = run("pfl", {"--particles", "300", "--steps", "20",
                                   "--raycast", "scalar"});
    EXPECT_EQ(metric(pfl, "rays_cast"), 300.0 * 60.0 * 20.0);
    EXPECT_GE(metric(pfl, "probes_per_ray_scalar"), 10.0);

    // ekfslam — matrix operations: every predict and update step runs
    // inside the matrix-ops phase, which is the only phase there is.
    KernelReport ekf = run("ekfslam", {"--steps", "150"});
    ASSERT_EQ(ekf.profiler.phases().size(), 1u);
    EXPECT_EQ(ekf.profiler.phases().front().name, "matrix-ops");
    EXPECT_GE(ekf.profiler.phaseCount("matrix-ops"), 150);

    // pp2d — collision detection: each expansion footprint-checks ~8
    // successors against one open-list pop.
    KernelReport pp2d = run("pp2d", {"--map-size", "256"});
    EXPECT_EQ(pp2d.profiler.phaseCount("collision"),
              static_cast<std::int64_t>(metric(pp2d, "expanded")));
    EXPECT_GE(metric(pp2d, "collision_checks"),
              7.0 * metric(pp2d, "expanded"));

    // rrt — collision detection: each sample pays one NN query but
    // several configuration collision checks along its extension.
    KernelReport rrt = run("rrt", {});
    EXPECT_EQ(rrt.profiler.phaseCount("nn-search"),
              static_cast<std::int64_t>(metric(rrt, "samples")));
    EXPECT_GE(metric(rrt, "collision_checks"),
              3.0 * metric(rrt, "samples"));

    // mpc — optimization: each control step evaluates >= 1000 rollout
    // costs against one simulated plant step.
    KernelReport mpc = run("mpc", {"--ref-points", "30"});
    const auto steps = mpc.profiler.phaseCount("simulate");
    EXPECT_GT(steps, 0);
    EXPECT_EQ(mpc.profiler.phaseCount("optimize"), steps);
    EXPECT_GE(metric(mpc, "cost_evals"), 1000.0 * static_cast<double>(steps));
}

TEST(KernelSeries, FigureDataIsEmitted)
{
    // Fig. 2: pfl spread series shrinks.
    KernelReport pfl = makeKernel("pfl")->runWithDefaults(
        {"--particles", "300", "--steps", "25"});
    ASSERT_TRUE(pfl.series.count("spread"));
    const auto &spread = pfl.series.at("spread");
    ASSERT_GE(spread.size(), 10u);
    EXPECT_LT(spread.back(), spread.front());

    // Fig. 18: cem reward series exists and improves.
    KernelReport cem =
        makeKernel("cem")->runWithDefaults({"--repeats", "5"});
    ASSERT_TRUE(cem.series.count("reward"));
    EXPECT_EQ(cem.series.at("reward").size(), 75u);
}

TEST(KernelDeterminism, SameSeedSameMetrics)
{
    auto run = [] {
        return makeKernel("rrt")->runWithDefaults({"--seed", "5"});
    };
    KernelReport a = run();
    KernelReport b = run();
    EXPECT_DOUBLE_EQ(a.metrics.at("path_cost_rad"),
                     b.metrics.at("path_cost_rad"));
    EXPECT_DOUBLE_EQ(a.metrics.at("samples"), b.metrics.at("samples"));
}

/** FNV-1a over @p n bytes, continuing from @p hash. */
std::uint64_t
fnv1a(const void *data, std::size_t n,
      std::uint64_t hash = 0xcbf29ce484222325ULL)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** The suite's filter for metrics derived from wall-clock time. */
bool
isTimingMetric(const std::string &key)
{
    return key.find("fraction") != std::string::npos ||
           key.find("seconds") != std::string::npos ||
           key.find("_ns") != std::string::npos || key.rfind("ns_", 0) == 0;
}

/**
 * The arm planners' outputs at the suite's kernels-1t configurations,
 * pinned bit for bit: every non-timing metric as a hexfloat plus a
 * digest of every series (these kernels emit none, so the digest pins
 * the empty set). Any change to a collision answer, the NN order or
 * PRM's attach order moves a count or a cost here.
 */
TEST(KernelPins, ArmPlannerOutputsArePinned)
{
    constexpr std::uint64_t kNoSeries = 0xcbf29ce484222325ULL;
    struct Pin
    {
        const char *kernel;
        std::vector<std::string> args;
        std::map<std::string, double> metrics;
        std::uint64_t series_digest;
    };
    const Pin pins[] = {
        {"prm",
         {"--threads", "1"},
         {{"l2_norm_evals", 0x1.75p+8},
          {"offline_collision_checks", 0x1.bab1p+17},
          {"path_cost_rad", 0x1.91258489f8944p+2},
          {"roadmap_edges", 0x1.935p+13},
          {"roadmap_nodes", 0x1.77p+11}},
         kNoSeries},
        {"rrt",
         {},
         {{"collision_checks", 0x1.b2p+9},
          {"path_cost_rad", 0x1.61e0101c92cfdp+2},
          {"samples", 0x1.a2p+7},
          {"tree_size", 0x1.d8p+6}},
         kNoSeries},
        {"rrtstar",
         {"--samples", "2500"},
         {{"collision_checks", 0x1.686p+12},
          {"path_cost_rad", 0x1.258c7ba99cde4p+2},
          {"rewires", 0x0p+0},
          {"samples", 0x1.a2p+9},
          {"tree_size", 0x1.68p+8}},
         kNoSeries},
        {"rrtpp",
         {},
         {{"cost_after_rad", 0x1.db77904eb9a4ep+1},
          {"cost_before_rad", 0x1.61e0101c92cfdp+2},
          {"path_cost_rad", 0x1.db77904eb9a4ep+1},
          {"samples", 0x1.a2p+7},
          {"shortcuts_applied", 0x1.8p+2}},
         kNoSeries},
    };
    for (const Pin &pin : pins) {
        const KernelReport report =
            makeKernel(pin.kernel)->runWithDefaults(pin.args);
        ASSERT_TRUE(report.success) << pin.kernel;
        std::size_t reproducible = 0;
        for (const auto &[key, value] : report.metrics) {
            if (isTimingMetric(key))
                continue;
            ++reproducible;
            const auto expected = pin.metrics.find(key);
            if (expected == pin.metrics.end()) {
                ADD_FAILURE() << pin.kernel << ": unpinned metric " << key;
                continue;
            }
            EXPECT_TRUE(sameBits(value, expected->second))
                << pin.kernel << " " << key << " = " << std::hexfloat
                << value << ", pinned " << expected->second;
        }
        EXPECT_EQ(reproducible, pin.metrics.size()) << pin.kernel;
        std::uint64_t digest = kNoSeries;
        for (const auto &[key, values] : report.series) {
            digest = fnv1a(key.data(), key.size(), digest);
            digest = fnv1a(values.data(), values.size() * sizeof(double),
                           digest);
        }
        EXPECT_EQ(digest, pin.series_digest) << pin.kernel;
    }
}

} // namespace
} // namespace rtr
