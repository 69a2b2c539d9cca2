/**
 * @file
 * Particle filter localization (kernel 01.pfl).
 *
 * Monte Carlo localization on a known occupancy grid: particles carry
 * pose hypotheses, odometry updates propagate them with noise, laser
 * scans re-weight them by ray-casting each hypothesis against the map
 * (the paper's 67-78% bottleneck), and low-variance resampling
 * concentrates them on the true pose (paper Fig. 2).
 */

#ifndef RTR_PERCEPTION_PARTICLE_FILTER_H
#define RTR_PERCEPTION_PARTICLE_FILTER_H

#include <vector>

#include "geom/pose.h"
#include "grid/occupancy_grid2d.h"
#include "util/batch_engine.h"
#include "util/profiler.h"
#include "util/rng.h"

namespace rtr {

/** One localization hypothesis. */
struct Particle
{
    Pose2 pose;
    double weight = 1.0;
};

/** Odometry step in the standard rot1-trans-rot2 decomposition. */
struct OdometryReading
{
    double rot1 = 0.0;
    double trans = 0.0;
    double rot2 = 0.0;
};

/** A (simulated) laser scan: evenly spaced beams relative to heading. */
struct LaserScan
{
    /** Measured ranges, one per beam. */
    std::vector<double> ranges;
    /** Angle of the first beam relative to the robot heading. */
    double start_angle = -2.0;
    /** Angular extent of the scan. */
    double fov = 4.0;
    /** Sensor saturation range. */
    double max_range = 20.0;
};

/** Odometry noise coefficients (alpha1..alpha4 of the standard model). */
struct MotionNoise
{
    double a1 = 0.05;
    double a2 = 0.05;
    double a3 = 0.02;
    double a4 = 0.02;
};

/** Beam sensor model: Gaussian hit + uniform random mixture. */
struct BeamSensorModel
{
    /** Gaussian measurement noise. */
    double sigma = 0.35;
    /** Mixture weight of the Gaussian hit component. */
    double z_hit = 0.9;
    /** Mixture weight of the uniform random component. */
    double z_rand = 0.1;
    /**
     * Likelihood tempering: log-weights are divided by this, softening
     * the (unrealistically independent) per-beam product so a single
     * scan cannot collapse the filter onto one aliased hypothesis.
     */
    double temperature = 4.0;
};

/** Monte Carlo localization filter. */
class ParticleFilter
{
  public:
    /**
     * @param map Known occupancy grid; must outlive the filter.
     * @param n_particles Hypothesis count.
     */
    ParticleFilter(const OccupancyGrid2D &map, std::size_t n_particles,
                   MotionNoise motion_noise = {},
                   BeamSensorModel sensor_model = {});

    /** Scatter particles uniformly over free space (paper Fig. 2-(a)). */
    void initializeUniform(Rng &rng);

    /**
     * Regional initialization: particles uniform over the free space of
     * a disk around a rough position guess, headings within
     * +-heading_window of a compass prior. The usual deployment mode
     * when wheel-drop position is roughly known; converges reliably
     * with benchmark-scale particle counts.
     */
    void initializeRegion(const Pose2 &guess, double radius,
                          double heading_window, Rng &rng);

    /** Concentrate particles around a pose guess. */
    void initializeGaussian(const Pose2 &mean, double pos_stddev,
                            double ang_stddev, Rng &rng);

    /**
     * Propagate every particle through a noisy odometry step.
     * Profiled as "motion-update".
     */
    void motionUpdate(const OdometryReading &odom, Rng &rng,
                      PhaseProfiler *profiler = nullptr);

    /**
     * Re-weight particles against a laser scan. All particles' beams
     * are cast in one castScanBatch call ("raycast" phase), then each
     * particle scores its match under the beam model ("weight" phase);
     * both phases run on the parallel runtime and produce weights
     * bitwise identical at any thread count.
     */
    void measurementUpdate(const LaserScan &scan,
                           PhaseProfiler *profiler = nullptr);

    /**
     * Select the batched-model engine for *both* the motion and weight
     * updates: soa advances simd::VecD lanes of particles in lockstep
     * through perception/batch_pfl.h, scalar runs the serial reference
     * loops. Poses and weights are bitwise identical either way (the
     * noise draws are staged from the caller's stream in scalar order
     * under both engines — DESIGN.md "Batched environments").
     *
     * This is the full-override entry point (--batch /
     * RTR_BATCH_ENGINE). Left alone, the phases pick their own
     * defaults: motion is SoA, weight is scalar (the sensor-model leg
     * is exp/log-bound and measured 0.92-0.94x under SoA — see
     * defaultPflWeightEngine()).
     */
    void
    setBatchEngine(BatchEngine engine)
    {
        motion_engine_ = engine;
        weight_engine_ = engine;
    }

    /** Engine of the motion phase alone. */
    void setMotionEngine(BatchEngine engine) { motion_engine_ = engine; }

    /** Engine of the weight (sensor-model) phase alone. */
    void setWeightEngine(BatchEngine engine) { weight_engine_ = engine; }

    BatchEngine motionEngine() const { return motion_engine_; }

    BatchEngine weightEngine() const { return weight_engine_; }

    /**
     * Low-variance resampling ("resample" phase). A small fraction of
     * particles (see setRandomInjection) is replaced by fresh uniform
     * hypotheses so the filter can recover from premature convergence
     * (augmented MCL).
     */
    void resample(Rng &rng, PhaseProfiler *profiler = nullptr);

    /** Fraction of particles re-seeded uniformly at each resample. */
    void setRandomInjection(double fraction)
    {
        random_injection_ = fraction;
    }

    /**
     * Effective sample size of the current weights,
     * 1 / sum(w_i^2) in [1, n]: low values mean weight degeneracy.
     */
    double effectiveSampleSize() const;

    /**
     * Adaptive resampling: resample only when the effective sample
     * size drops below @p threshold_fraction of the particle count
     * (the standard ESS rule). @return whether a resample happened.
     */
    bool resampleIfNeeded(Rng &rng, double threshold_fraction = 0.5,
                          PhaseProfiler *profiler = nullptr);

    /** Weighted mean pose estimate. */
    Pose2 estimate() const;

    /** RMS particle distance from the mean (Fig. 2 convergence metric). */
    double spread() const;

    /**
     * Robust spread: RMS distance of the closest @p fraction of
     * particles to the mean. Ignores the uniformly re-injected recovery
     * particles, which otherwise dominate the plain RMS after
     * convergence.
     */
    double coreSpread(double fraction = 0.9) const;

    const std::vector<Particle> &particles() const { return particles_; }

    /** Rays cast since construction. */
    std::size_t raysCast() const { return rays_cast_; }

  private:
    /** Uniform random pose over free space. */
    Pose2 sampleFreePose(Rng &rng) const;

    const OccupancyGrid2D &map_;
    MotionNoise motion_noise_;
    BeamSensorModel sensor_model_;
    std::vector<Particle> particles_;
    BatchEngine motion_engine_ = defaultBatchEngine();
    BatchEngine weight_engine_ = defaultPflWeightEngine();
    std::size_t rays_cast_ = 0;
    double random_injection_ = 0.02;

    // Per-update workspaces: the filter runs thousands of updates per
    // benchmark, so the pose/scan/weight scratch and the SoA state and
    // staged-noise arrays keep their capacity across calls instead of
    // reallocating per particle or per update.
    std::vector<Pose2> pose_scratch_;
    std::vector<double> expected_scratch_;
    std::vector<double> log_weight_scratch_;
    std::vector<double> soa_x_, soa_y_, soa_theta_;
    std::vector<double> noise_rot1_, noise_trans_, noise_rot2_;
    std::vector<Particle> resample_scratch_;
};

/**
 * Simulate the odometry reading between two true poses (exact; callers
 * add noise via the filter's motion model).
 */
OdometryReading odometryBetween(const Pose2 &from, const Pose2 &to);

/**
 * Simulate a noisy laser scan from a true pose against the map.
 */
LaserScan simulateScan(const OccupancyGrid2D &map, const Pose2 &pose,
                       int n_beams, double max_range, double noise_stddev,
                       Rng &rng);

} // namespace rtr

#endif // RTR_PERCEPTION_PARTICLE_FILTER_H
