/**
 * @file
 * EKF-SLAM with range-bearing landmark measurements (kernel 02.ekfslam).
 *
 * The joint state is the robot pose plus every observed landmark's
 * position; predict/update steps are the matrix operations the
 * paper identifies as >85% of the kernel's execution time (paper
 * Fig. 3: green landmark estimates, blue robot estimates, uncertainty
 * ellipses).
 */

#ifndef RTR_PERCEPTION_EKF_SLAM_H
#define RTR_PERCEPTION_EKF_SLAM_H

#include <vector>

#include "geom/pose.h"
#include "linalg/matrix.h"
#include "util/profiler.h"
#include "util/rng.h"

namespace rtr {

/** One range-bearing observation of an identified landmark. */
struct RangeBearing
{
    /** Landmark identity (known data association). */
    int landmark_id = 0;
    /** Distance to the landmark. */
    double range = 0.0;
    /** Angle to the landmark relative to the robot heading. */
    double bearing = 0.0;
};

/** EKF process/measurement noise parameters. */
struct EkfNoise
{
    /** Linear velocity process noise (per unit velocity). */
    double velocity = 0.1;
    /** Angular velocity process noise. */
    double omega = 0.05;
    /** Range measurement noise stddev. */
    double range = 0.1;
    /** Bearing measurement noise stddev. */
    double bearing = 0.02;
};

/** EKF-SLAM filter over robot pose + landmark map. */
class EkfSlam
{
  public:
    /** @param max_landmarks Capacity of the landmark map. */
    explicit EkfSlam(int max_landmarks, EkfNoise noise = {});

    /**
     * Velocity-model prediction step. Profiled as "matrix-ops".
     *
     * @param v Linear velocity, @param omega angular velocity,
     * @param dt timestep.
     */
    void predict(double v, double omega, double dt,
                 PhaseProfiler *profiler = nullptr);

    /**
     * Measurement update for a batch of observations. New landmark ids
     * are initialized from the observation; known ones tighten the
     * estimate. Profiled as "matrix-ops".
     */
    void update(const std::vector<RangeBearing> &observations,
                PhaseProfiler *profiler = nullptr);

    /** Current robot pose estimate. */
    Pose2 robotEstimate() const;

    /** Whether a landmark id has been initialized. */
    bool landmarkKnown(int id) const;

    /** Estimated position of a known landmark. */
    Vec2 landmarkEstimate(int id) const;

    /** Robot position 2x2 covariance block (uncertainty ellipse). */
    Matrix robotCovariance() const;

    /** Full covariance trace (an overall-uncertainty scalar). */
    double covarianceTrace() const { return sigma_.trace(); }

    /** Number of initialized landmarks. */
    int landmarkCount() const { return n_landmarks_; }

    /** Full (3 + 2N) x 1 state mean. */
    const Matrix &mean() const { return mu_; }

    /** Full (3 + 2N) x (3 + 2N) state covariance. */
    const Matrix &covariance() const { return sigma_; }

  private:
    std::size_t stateSize() const
    {
        return 3 + 2 * static_cast<std::size_t>(n_landmarks_);
    }

    int max_landmarks_;
    EkfNoise noise_;
    int n_landmarks_ = 0;
    std::vector<int> landmark_slot_;  // id -> slot (-1 = unknown)
    Matrix mu_;     // (3 + 2N) x 1 mean
    Matrix sigma_;  // (3 + 2N) x (3 + 2N) covariance

    // The update's only n-sized workspace: the rows of Σ at H's five
    // non-zero columns before the correction, 5 x n. Sized for the full
    // map at construction, so only a first sighting (which grows the
    // state) allocates.
    std::vector<double> old_rows_;
};

/**
 * Synthetic SLAM world (stand-in for the paper's six-landmark setting,
 * Fig. 3-(a)): landmarks on a ring, the robot driving a circle through
 * them with Gaussian sensor/odometry noise.
 */
struct SlamWorld
{
    /** True landmark positions. */
    std::vector<Vec2> landmarks;
    /** Sensing range limit. */
    double sensor_range = 12.0;

    /** Build the canonical world with n landmarks. */
    static SlamWorld make(int n_landmarks, std::uint64_t seed);

    /** True noisy observations from a pose. */
    std::vector<RangeBearing> observe(const Pose2 &pose, EkfNoise noise,
                                      Rng &rng) const;
};

} // namespace rtr

#endif // RTR_PERCEPTION_EKF_SLAM_H
