#include "perception/ekf_slam.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "geom/angle.h"
#include "util/logging.h"
#include "util/simd.h"

namespace rtr {

namespace {

/** Non-zero columns of the measurement Jacobian: x, y, θ, lx, ly. */
constexpr std::size_t kHCols = 5;

/**
 * S⁻¹ of the 2 x 2 innovation covariance: LuDecomposition(S) followed
 * by solve(I), unrolled at n = 2 with the same pivot choice, singular
 * test, zero-skips and 1.0 / pivot scalings, so the result is bitwise
 * what inverse(S) returns.
 */
void
invert2x2(const double s[2][2], double out[2][2])
{
    double lu[2][2] = {{s[0][0], s[0][1]}, {s[1][0], s[1][1]}};
    std::size_t pivot[2] = {0, 1};
    std::size_t best = 0;
    double best_abs = std::abs(lu[0][0]);
    if (std::abs(lu[1][0]) > best_abs) {
        best_abs = std::abs(lu[1][0]);
        best = 1;
    }
    if (best_abs < 1e-13)
        fatal("inverse of a singular 2x2 matrix");
    if (best != 0) {
        std::swap(lu[0], lu[1]);
        std::swap(pivot[0], pivot[1]);
    }
    double inv_pivot = 1.0 / lu[0][0];
    double factor = lu[1][0] * inv_pivot;
    lu[1][0] = factor;
    if (factor != 0.0)
        lu[1][1] -= factor * lu[0][1];
    if (std::abs(lu[1][1]) < 1e-13)
        fatal("inverse of a singular 2x2 matrix");

    // Solve LU X = P I: forward with unit-diagonal L, then backward.
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 2; ++c)
            out[r][c] = pivot[r] == c ? 1.0 : 0.0;
    if (lu[1][0] != 0.0)
        for (std::size_t c = 0; c < 2; ++c)
            out[1][c] -= lu[1][0] * out[0][c];
    double inv = 1.0 / lu[1][1];
    for (std::size_t c = 0; c < 2; ++c)
        out[1][c] *= inv;
    if (lu[0][1] != 0.0)
        for (std::size_t c = 0; c < 2; ++c)
            out[0][c] -= lu[0][1] * out[1][c];
    inv = 1.0 / lu[0][0];
    for (std::size_t c = 0; c < 2; ++c)
        out[0][c] *= inv;
}

/**
 * row[j] -= Σ_t kh[t] · old_rows[t][j] for j < n: one row of
 * Σ -= (K H) Σ. The vector lanes are independent columns and VecD never
 * fuses, so each element rounds exactly as the scalar tail does.
 */
void
subKhRows(double *row, const double *kh, const double *old_rows,
          std::size_t n)
{
    using simd::VecD;
    constexpr std::size_t kW = VecD::kWidth;
    VecD khv[kHCols];
    for (std::size_t t = 0; t < kHCols; ++t)
        khv[t] = VecD::broadcast(kh[t]);
    std::size_t j = 0;
    for (; j + kW <= n; j += kW) {
        VecD acc = VecD::zero();
        for (std::size_t t = 0; t < kHCols; ++t)
            acc = VecD::mulAdd(acc, khv[t], VecD::load(old_rows + t * n + j));
        (VecD::load(row + j) - acc).store(row + j);
    }
    for (; j < n; ++j) {
        double acc = 0.0;
        for (std::size_t t = 0; t < kHCols; ++t)
            acc += kh[t] * old_rows[t * n + j];
        row[j] -= acc;
    }
}

} // namespace

EkfSlam::EkfSlam(int max_landmarks, EkfNoise noise)
    : max_landmarks_(max_landmarks),
      noise_(noise),
      landmark_slot_(static_cast<std::size_t>(max_landmarks), -1),
      mu_(3, 1),
      sigma_(3, 3)
{
    RTR_ASSERT(max_landmarks >= 1, "need landmark capacity >= 1");
    old_rows_.resize(kHCols *
                     (3 + 2 * static_cast<std::size_t>(max_landmarks)));
    // The robot starts at the origin with certainty.
}

void
EkfSlam::predict(double v, double omega, double dt, PhaseProfiler *profiler)
{
    ScopedPhase phase(profiler, "matrix-ops");
    const std::size_t n = stateSize();
    double theta = mu_(2, 0);

    // Motion: unicycle forward Euler.
    double dx = v * dt * std::cos(theta);
    double dy = v * dt * std::sin(theta);
    mu_(0, 0) += dx;
    mu_(1, 0) += dy;
    mu_(2, 0) = normalizeAngle(mu_(2, 0) + omega * dt);

    // The motion Jacobian is G = I + g02·e0e2ᵀ + g12·e1e2ᵀ, so
    // Σ ← G Σ Gᵀ reduces to two row updates followed by two column
    // updates — O(n) in place of the seed's two dense n³ products.
    // (The old zero-skip branch in operator* exploited G's sparsity
    // implicitly; this exploits its *structure* explicitly.)
    const double g02 = -v * dt * std::sin(theta);
    const double g12 = v * dt * std::cos(theta);
    double *s = sigma_.data();
    for (std::size_t j = 0; j < n; ++j) {
        s[0 * n + j] += g02 * s[2 * n + j];
        s[1 * n + j] += g12 * s[2 * n + j];
    }
    for (std::size_t i = 0; i < n; ++i) {
        s[i * n + 0] += g02 * s[i * n + 2];
        s[i * n + 1] += g12 * s[i * n + 2];
    }

    // Process noise on the pose block.
    double sv = noise_.velocity * std::abs(v) * dt + 1e-4;
    double sw = noise_.omega * std::abs(omega) * dt + 1e-4;
    s[0 * n + 0] += sv * sv;
    s[1 * n + 1] += sv * sv;
    s[2 * n + 2] += sw * sw;
}

void
EkfSlam::update(const std::vector<RangeBearing> &observations,
                PhaseProfiler *profiler)
{
    for (const RangeBearing &obs : observations) {
        RTR_ASSERT(obs.landmark_id >= 0 && obs.landmark_id < max_landmarks_,
                   "landmark id out of range");

        if (landmark_slot_[static_cast<std::size_t>(obs.landmark_id)] < 0) {
            // First sighting: initialize the landmark from the
            // observation and grow the state.
            ScopedPhase phase(profiler, "matrix-ops");
            int slot = n_landmarks_++;
            landmark_slot_[static_cast<std::size_t>(obs.landmark_id)] = slot;

            double theta = mu_(2, 0);
            double lx = mu_(0, 0) +
                        obs.range * std::cos(theta + obs.bearing);
            double ly = mu_(1, 0) +
                        obs.range * std::sin(theta + obs.bearing);

            std::size_t n_old = 3 + 2 * static_cast<std::size_t>(slot);
            Matrix mu_new(n_old + 2, 1);
            mu_new.setBlock(0, 0, mu_);
            mu_new(n_old, 0) = lx;
            mu_new(n_old + 1, 0) = ly;
            mu_ = std::move(mu_new);

            Matrix sigma_new(n_old + 2, n_old + 2);
            sigma_new.setBlock(0, 0, sigma_);
            // Large initial uncertainty on the new landmark.
            sigma_new(n_old, n_old) = 1e3;
            sigma_new(n_old + 1, n_old + 1) = 1e3;
            sigma_ = std::move(sigma_new);
        }

        ScopedPhase phase(profiler, "matrix-ops");
        const std::size_t n = stateSize();
        int slot = landmark_slot_[static_cast<std::size_t>(obs.landmark_id)];
        std::size_t li = 3 + 2 * static_cast<std::size_t>(slot);
        double *mu = mu_.data();
        double *sigma = sigma_.data();

        double dx = mu[li] - mu[0];
        double dy = mu[li + 1] - mu[1];
        double q = dx * dx + dy * dy;
        double sqrt_q = std::sqrt(q);
        if (sqrt_q < 1e-9)
            continue;

        double expected_range = sqrt_q;
        double expected_bearing = normalizeAngle(std::atan2(dy, dx) - mu[2]);

        // The measurement Jacobian H is 2 x n with non-zero columns
        // col[t] only; h[r][t] = H(r, col[t]). Every product below is
        // the dense GEMM sequence (S = H Σ Hᵀ + Q, K = Σ Hᵀ S⁻¹,
        // μ += K ν, Σ -= (K H) Σ) restricted to these columns: each sum
        // keeps the dense term order (ascending column, accumulator
        // from +0.0, separate multiply and add), and a dropped term is
        // an exact ±0 product that cannot change an accumulator started
        // at +0.0, so μ and Σ stay bit-identical to the dense path for
        // a finite Σ (EkfSlam.UpdateMatchesDenseOracleBitwise).
        const std::size_t col[kHCols] = {0, 1, 2, li, li + 1};
        const double h[2][kHCols] = {
            {-dx / sqrt_q, -dy / sqrt_q, 0.0, dx / sqrt_q, dy / sqrt_q},
            {dy / q, -dx / q, -1.0, -dy / q, dx / q}};

        // Σ -= (K H) Σ reads the old rows col[t] of Σ after some of
        // them have been rewritten, so they are saved first.
        double *old_rows = old_rows_.data();
        for (std::size_t t = 0; t < kHCols; ++t)
            std::copy(sigma + col[t] * n, sigma + col[t] * n + n,
                      old_rows + t * n);

        // S = (H Σ) Hᵀ + Q needs H Σ only at the columns col[u].
        double hs[2][kHCols];
        for (std::size_t r = 0; r < 2; ++r) {
            for (std::size_t u = 0; u < kHCols; ++u) {
                double acc = 0.0;
                for (std::size_t t = 0; t < kHCols; ++t)
                    acc += h[r][t] * old_rows[t * n + col[u]];
                hs[r][u] = acc;
            }
        }
        double s[2][2];
        for (std::size_t r = 0; r < 2; ++r) {
            for (std::size_t c = 0; c < 2; ++c) {
                double acc = 0.0;
                for (std::size_t u = 0; u < kHCols; ++u)
                    acc += hs[r][u] * h[c][u];
                s[r][c] = acc;
            }
        }
        s[0][0] += noise_.range * noise_.range;
        s[1][1] += noise_.bearing * noise_.bearing;
        double s_inv[2][2];
        invert2x2(s, s_inv);

        const double nu[2] = {obs.range - expected_range,
                              normalizeAngle(obs.bearing - expected_bearing)};

        // One pass over the rows: row i of Σ Hᵀ (read before row i is
        // rewritten), of K and of K H, then μ_i and row i of Σ.
        for (std::size_t i = 0; i < n; ++i) {
            double *row = sigma + i * n;
            double pht[2];
            for (std::size_t c = 0; c < 2; ++c) {
                double acc = 0.0;
                for (std::size_t t = 0; t < kHCols; ++t)
                    acc += row[col[t]] * h[c][t];
                pht[c] = acc;
            }
            double k[2];
            for (std::size_t c = 0; c < 2; ++c) {
                double acc = 0.0;
                acc += pht[0] * s_inv[0][c];
                acc += pht[1] * s_inv[1][c];
                k[c] = acc;
            }
            double k_nu = 0.0;
            k_nu += k[0] * nu[0];
            k_nu += k[1] * nu[1];
            mu[i] += k_nu;
            double kh[kHCols];
            for (std::size_t t = 0; t < kHCols; ++t) {
                double acc = 0.0;
                acc += k[0] * h[0][t];
                acc += k[1] * h[1][t];
                kh[t] = acc;
            }
            subKhRows(row, kh, old_rows, n);
        }
        mu[2] = normalizeAngle(mu[2]);
    }
}

Pose2
EkfSlam::robotEstimate() const
{
    return Pose2{mu_(0, 0), mu_(1, 0), mu_(2, 0)};
}

bool
EkfSlam::landmarkKnown(int id) const
{
    return id >= 0 && id < max_landmarks_ &&
           landmark_slot_[static_cast<std::size_t>(id)] >= 0;
}

Vec2
EkfSlam::landmarkEstimate(int id) const
{
    RTR_ASSERT(landmarkKnown(id), "landmark ", id, " not initialized");
    std::size_t li =
        3 + 2 * static_cast<std::size_t>(
                    landmark_slot_[static_cast<std::size_t>(id)]);
    return Vec2{mu_(li, 0), mu_(li + 1, 0)};
}

Matrix
EkfSlam::robotCovariance() const
{
    return sigma_.block(0, 0, 2, 2);
}

SlamWorld
SlamWorld::make(int n_landmarks, std::uint64_t seed)
{
    RTR_ASSERT(n_landmarks >= 1, "need >= 1 landmark");
    SlamWorld world;
    Rng rng(seed);
    // Landmarks on a ring of radius ~10 with jitter (the paper's
    // synthetic six-landmark environment).
    for (int i = 0; i < n_landmarks; ++i) {
        double angle = kTwoPi * i / n_landmarks;
        double radius = 10.0 + rng.uniform(-2.0, 2.0);
        world.landmarks.push_back(
            Vec2{radius * std::cos(angle), radius * std::sin(angle)});
    }
    return world;
}

std::vector<RangeBearing>
SlamWorld::observe(const Pose2 &pose, EkfNoise noise, Rng &rng) const
{
    std::vector<RangeBearing> observations;
    for (std::size_t i = 0; i < landmarks.size(); ++i) {
        double dx = landmarks[i].x - pose.x;
        double dy = landmarks[i].y - pose.y;
        double range = std::sqrt(dx * dx + dy * dy);
        if (range > sensor_range)
            continue;
        RangeBearing obs;
        obs.landmark_id = static_cast<int>(i);
        obs.range = range + rng.normal(0.0, noise.range);
        obs.bearing = normalizeAngle(std::atan2(dy, dx) - pose.theta +
                                     rng.normal(0.0, noise.bearing));
        observations.push_back(obs);
    }
    return observations;
}

} // namespace rtr
