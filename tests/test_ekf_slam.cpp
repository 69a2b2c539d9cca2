/**
 * @file
 * Tests for EKF-SLAM.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "alloc_counter.h"
#include "geom/angle.h"
#include "linalg/decomp.h"
#include "perception/ekf_slam.h"
#include "util/rng.h"

namespace rtr {
namespace {

TEST(EkfSlam, StartsAtOriginWithNoLandmarks)
{
    EkfSlam slam(4);
    Pose2 pose = slam.robotEstimate();
    EXPECT_DOUBLE_EQ(pose.x, 0.0);
    EXPECT_DOUBLE_EQ(pose.y, 0.0);
    EXPECT_EQ(slam.landmarkCount(), 0);
    EXPECT_FALSE(slam.landmarkKnown(0));
}

TEST(EkfSlam, PredictMovesAlongHeading)
{
    EkfSlam slam(2);
    slam.predict(1.0, 0.0, 1.0);
    Pose2 pose = slam.robotEstimate();
    EXPECT_NEAR(pose.x, 1.0, 1e-9);
    EXPECT_NEAR(pose.y, 0.0, 1e-9);
    // Prediction without measurement grows uncertainty.
    double trace_one = slam.covarianceTrace();
    slam.predict(1.0, 0.0, 1.0);
    EXPECT_GT(slam.covarianceTrace(), trace_one);
}

TEST(EkfSlam, FirstObservationInitializesLandmark)
{
    EkfSlam slam(3);
    RangeBearing obs;
    obs.landmark_id = 1;
    obs.range = 5.0;
    obs.bearing = 0.0;
    slam.update({obs});
    ASSERT_TRUE(slam.landmarkKnown(1));
    Vec2 estimate = slam.landmarkEstimate(1);
    EXPECT_NEAR(estimate.x, 5.0, 0.2);
    EXPECT_NEAR(estimate.y, 0.0, 0.2);
    EXPECT_EQ(slam.landmarkCount(), 1);
}

TEST(EkfSlam, RepeatedObservationTightensEstimate)
{
    EkfSlam slam(1);
    RangeBearing obs;
    obs.landmark_id = 0;
    obs.range = 4.0;
    obs.bearing = 0.5;
    slam.update({obs});
    double trace_after_one = slam.covarianceTrace();
    for (int i = 0; i < 10; ++i)
        slam.update({obs});
    EXPECT_LT(slam.covarianceTrace(), trace_after_one);
}

TEST(EkfSlam, FullRunConvergesToGroundTruth)
{
    const int n_landmarks = 6;
    SlamWorld world = SlamWorld::make(n_landmarks, 3);
    EkfNoise noise;
    EkfSlam slam(n_landmarks, noise);
    Rng rng(4);

    // The filter frame equals the truth frame here: start at the
    // origin facing +x and drive a circle.
    Pose2 truth{0.0, 0.0, 0.0};
    const double v = 1.0, omega = 0.15, dt = 0.1;
    for (int t = 0; t < 500; ++t) {
        double v_noisy = v + rng.normal(0.0, 0.02);
        double w_noisy = omega + rng.normal(0.0, 0.005);
        truth.x += v * dt * std::cos(truth.theta);
        truth.y += v * dt * std::sin(truth.theta);
        truth.theta = normalizeAngle(truth.theta + omega * dt);
        slam.predict(v_noisy, w_noisy, dt);
        slam.update(world.observe(truth, noise, rng));
    }

    Pose2 estimate = slam.robotEstimate();
    EXPECT_LT(estimate.position().distanceTo(truth.position()), 0.5);

    int known = 0;
    for (int id = 0; id < n_landmarks; ++id) {
        if (!slam.landmarkKnown(id))
            continue;
        ++known;
        Vec2 est = slam.landmarkEstimate(id);
        EXPECT_LT(est.distanceTo(
                      world.landmarks[static_cast<std::size_t>(id)]),
                  0.6)
            << "landmark " << id;
    }
    EXPECT_GE(known, n_landmarks - 1);
}

TEST(EkfSlam, CovarianceStaysSymmetricPsd)
{
    SlamWorld world = SlamWorld::make(4, 5);
    EkfNoise noise;
    EkfSlam slam(4, noise);
    Rng rng(6);
    Pose2 truth{0.0, 0.0, 0.0};
    for (int t = 0; t < 50; ++t) {
        truth.x += 0.1;
        slam.predict(1.0, 0.0, 0.1);
        slam.update(world.observe(truth, noise, rng));
    }
    Matrix cov = slam.robotCovariance();
    EXPECT_NEAR(cov(0, 1), cov(1, 0), 1e-9);
    EXPECT_GT(cov(0, 0), 0.0);
    EXPECT_GT(cov(1, 1), 0.0);
    // 2x2 PSD: positive determinant.
    EXPECT_GT(cov(0, 0) * cov(1, 1) - cov(0, 1) * cov(1, 0), -1e-12);
}

TEST(EkfSlam, ProfilerAttributesMatrixOps)
{
    EkfSlam slam(2);
    PhaseProfiler profiler;
    slam.predict(1.0, 0.1, 0.1, &profiler);
    RangeBearing obs;
    obs.landmark_id = 0;
    obs.range = 3.0;
    slam.update({obs}, &profiler);
    EXPECT_GT(profiler.phaseNs("matrix-ops"), 0);
    EXPECT_GE(profiler.phaseCount("matrix-ops"), 3);
}

/**
 * The dense update EkfSlam::update ran before it worked on H's non-zero
 * columns alone: H materialised as 2 x n, S = (H Σ) Hᵀ + Q,
 * K = (Σ Hᵀ) S⁻¹ through LU, μ += K ν and Σ -= (K H) Σ, every product
 * through Matrix::operator*. Kept as the bitwise oracle for
 * the column-sparse update; landmark initialization is copied too so
 * the oracle can run the same observation batches.
 */
struct DenseEkfOracle
{
    explicit DenseEkfOracle(int max_landmarks)
        : slot(static_cast<std::size_t>(max_landmarks), -1)
    {
    }

    void
    update(const std::vector<RangeBearing> &observations,
           const EkfNoise &noise)
    {
        Matrix h, innovation;
        for (const RangeBearing &obs : observations) {
            const auto id = static_cast<std::size_t>(obs.landmark_id);
            if (slot[id] < 0) {
                slot[id] = n_landmarks++;
                double theta = mu(2, 0);
                double lx = mu(0, 0) +
                            obs.range * std::cos(theta + obs.bearing);
                double ly = mu(1, 0) +
                            obs.range * std::sin(theta + obs.bearing);
                std::size_t n_old = 3 + 2 * static_cast<std::size_t>(slot[id]);
                Matrix mu_new(n_old + 2, 1);
                mu_new.setBlock(0, 0, mu);
                mu_new(n_old, 0) = lx;
                mu_new(n_old + 1, 0) = ly;
                mu = std::move(mu_new);
                Matrix sigma_new(n_old + 2, n_old + 2);
                sigma_new.setBlock(0, 0, sigma);
                sigma_new(n_old, n_old) = 1e3;
                sigma_new(n_old + 1, n_old + 1) = 1e3;
                sigma = std::move(sigma_new);
            }
            const std::size_t n = mu.rows();
            std::size_t li = 3 + 2 * static_cast<std::size_t>(slot[id]);
            double dx = mu(li, 0) - mu(0, 0);
            double dy = mu(li + 1, 0) - mu(1, 0);
            double q = dx * dx + dy * dy;
            double sqrt_q = std::sqrt(q);
            if (sqrt_q < 1e-9)
                continue;
            double expected_range = sqrt_q;
            double expected_bearing =
                normalizeAngle(std::atan2(dy, dx) - mu(2, 0));

            h.resize(2, n);
            h(0, 0) = -dx / sqrt_q;
            h(0, 1) = -dy / sqrt_q;
            h(0, 2) = 0.0;
            h(0, li) = dx / sqrt_q;
            h(0, li + 1) = dy / sqrt_q;
            h(1, 0) = dy / q;
            h(1, 1) = -dx / q;
            h(1, 2) = -1.0;
            h(1, li) = -dy / q;
            h(1, li + 1) = dx / q;

            const Matrix ht = h.transposed();
            Matrix s = (h * sigma) * ht;
            s(0, 0) += noise.range * noise.range;
            s(1, 1) += noise.bearing * noise.bearing;
            const Matrix k = (sigma * ht) * inverse(s);

            innovation.resize(2, 1);
            innovation(0, 0) = obs.range - expected_range;
            innovation(1, 0) =
                normalizeAngle(obs.bearing - expected_bearing);
            mu += k * innovation;
            mu(2, 0) = normalizeAngle(mu(2, 0));
            sigma -= (k * h) * sigma;
        }
    }

    std::vector<int> slot;
    int n_landmarks = 0;
    Matrix mu;
    Matrix sigma;
};

bool
sameBits(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(),
                       sizeof(double) * a.rows() * a.cols()) == 0;
}

/**
 * The kernel's drive (a noisy circle from inside the landmark ring)
 * with the filter stepped through predict and update. Before every
 * update the oracle takes the filter's predicted state, runs the dense
 * sequence on the same observations, and μ and Σ must then match bit
 * for bit — so each step is checked on its own. The 120 steps map
 * from 1 landmark (n = 5) up to 35 of the 40-landmark ring (n = 73).
 */
TEST(EkfSlam, UpdateMatchesDenseOracleBitwise)
{
    const double v = 1.2, omega = 0.18, dt = 0.1;
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        for (int n_landmarks : {1, 6, 17, 40}) {
            SlamWorld world = SlamWorld::make(n_landmarks, seed);
            EkfNoise noise;
            EkfSlam slam(n_landmarks, noise);
            DenseEkfOracle oracle(n_landmarks);
            Rng rng(seed * 7919 + 11);
            Pose2 truth{6.0, 0.0, kPi / 2.0};
            for (int t = 0; t < 120; ++t) {
                if (t > 0) {
                    truth.x += v * dt * std::cos(truth.theta);
                    truth.y += v * dt * std::sin(truth.theta);
                    truth.theta = normalizeAngle(truth.theta + omega * dt);
                    slam.predict(v + rng.normal(0.0, 0.05),
                                 omega + rng.normal(0.0, 0.01), dt);
                }
                const std::vector<RangeBearing> observations =
                    world.observe(truth, noise, rng);
                oracle.mu = slam.mean();
                oracle.sigma = slam.covariance();
                oracle.update(observations, noise);
                slam.update(observations);
                ASSERT_EQ(slam.landmarkCount(), oracle.n_landmarks);
                ASSERT_TRUE(sameBits(slam.mean(), oracle.mu))
                    << "seed " << seed << " landmarks " << n_landmarks
                    << " step " << t;
                ASSERT_TRUE(sameBits(slam.covariance(), oracle.sigma))
                    << "seed " << seed << " landmarks " << n_landmarks
                    << " step " << t;
            }
        }
    }
}

/**
 * Once every landmark is in the state, a predict + update step does no
 * heap allocation: the update keeps its 2 x 2 innovation algebra on the
 * stack and its only n-sized workspace reserved at construction.
 */
TEST(EkfSlam, WarmUpdateAllocatesNothing)
{
    const int n_landmarks = 6;
    SlamWorld world = SlamWorld::make(n_landmarks, 2);
    world.sensor_range = 100.0; // every landmark is seen at every step
    EkfNoise noise;
    EkfSlam slam(n_landmarks, noise);
    PhaseProfiler profiler;
    Rng rng(3);
    Pose2 truth{6.0, 0.0, kPi / 2.0};
    slam.update(world.observe(truth, noise, rng), &profiler);
    ASSERT_EQ(slam.landmarkCount(), n_landmarks);
    for (int t = 0; t < 20; ++t) {
        truth.x += 0.12 * std::cos(truth.theta);
        truth.y += 0.12 * std::sin(truth.theta);
        truth.theta = normalizeAngle(truth.theta + 0.018);
        const std::vector<RangeBearing> observations =
            world.observe(truth, noise, rng);
        ASSERT_EQ(observations.size(), static_cast<std::size_t>(n_landmarks));
        EXPECT_EQ(rtr_test::allocationsDuring([&] {
                      slam.predict(1.2, 0.18, 0.1, &profiler);
                      slam.update(observations, &profiler);
                  }),
                  0u)
            << "step " << t;
    }
}

TEST(SlamWorld, ObservationGeometry)
{
    SlamWorld world;
    world.landmarks = {{3.0, 4.0}};
    world.sensor_range = 100.0;
    EkfNoise no_noise;
    no_noise.range = 0.0;
    no_noise.bearing = 0.0;
    Rng rng(7);
    auto observations =
        world.observe(Pose2{0.0, 0.0, 0.0}, no_noise, rng);
    ASSERT_EQ(observations.size(), 1u);
    EXPECT_NEAR(observations[0].range, 5.0, 1e-12);
    EXPECT_NEAR(observations[0].bearing, std::atan2(4.0, 3.0), 1e-12);
}

TEST(SlamWorld, SensorRangeFilters)
{
    SlamWorld world;
    world.landmarks = {{1.0, 0.0}, {100.0, 0.0}};
    world.sensor_range = 10.0;
    EkfNoise noise;
    Rng rng(8);
    auto observations =
        world.observe(Pose2{0.0, 0.0, 0.0}, noise, rng);
    ASSERT_EQ(observations.size(), 1u);
    EXPECT_EQ(observations[0].landmark_id, 0);
}

} // namespace
} // namespace rtr
