#include "perception/particle_filter.h"

#include <algorithm>
#include <cmath>

#include "grid/raycast.h"
#include "perception/batch_pfl.h"
#include "telemetry/trace.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace rtr {

ParticleFilter::ParticleFilter(const OccupancyGrid2D &map,
                               std::size_t n_particles,
                               MotionNoise motion_noise,
                               BeamSensorModel sensor_model)
    : map_(map),
      motion_noise_(motion_noise),
      sensor_model_(sensor_model),
      particles_(n_particles)
{
    RTR_ASSERT(n_particles >= 1, "need at least one particle");
}

Pose2
ParticleFilter::sampleFreePose(Rng &rng) const
{
    const Vec2 origin = map_.origin();
    // Rejection-sample free cells.
    while (true) {
        double x = origin.x + rng.uniform(0.0, map_.worldWidth());
        double y = origin.y + rng.uniform(0.0, map_.worldHeight());
        if (!map_.occupiedWorld({x, y}))
            return Pose2{x, y, rng.uniform(-kPi, kPi)};
    }
}

void
ParticleFilter::initializeUniform(Rng &rng)
{
    for (Particle &p : particles_) {
        p.pose = sampleFreePose(rng);
        p.weight = 1.0 / static_cast<double>(particles_.size());
    }
}

void
ParticleFilter::initializeRegion(const Pose2 &guess, double radius,
                                 double heading_window, Rng &rng)
{
    for (Particle &p : particles_) {
        while (true) {
            double angle = rng.uniform(-kPi, kPi);
            double r = radius * std::sqrt(rng.uniform());
            Vec2 pos{guess.x + r * std::cos(angle),
                     guess.y + r * std::sin(angle)};
            if (!map_.occupiedWorld(pos)) {
                p.pose = Pose2{pos.x, pos.y,
                               normalizeAngle(
                                   guess.theta +
                                   rng.uniform(-heading_window,
                                               heading_window))};
                break;
            }
        }
        p.weight = 1.0 / static_cast<double>(particles_.size());
    }
}

void
ParticleFilter::initializeGaussian(const Pose2 &mean, double pos_stddev,
                                   double ang_stddev, Rng &rng)
{
    for (Particle &p : particles_) {
        p.pose = Pose2{mean.x + rng.normal(0.0, pos_stddev),
                       mean.y + rng.normal(0.0, pos_stddev),
                       normalizeAngle(mean.theta +
                                      rng.normal(0.0, ang_stddev))};
        p.weight = 1.0 / static_cast<double>(particles_.size());
    }
}

void
ParticleFilter::motionUpdate(const OdometryReading &odom, Rng &rng,
                             PhaseProfiler *profiler)
{
    ScopedPhase phase(profiler, "motion-update");
    const MotionNoise &n = motion_noise_;
    if (motion_engine_ == BatchEngine::Scalar) {
        // Preserved serial reference: draw and step one hypothesis at
        // a time.
        for (Particle &p : particles_) {
            double rot1 = odom.rot1 +
                          rng.normal(0.0, n.a1 * std::abs(odom.rot1) +
                                              n.a2 * odom.trans);
            double trans =
                odom.trans +
                rng.normal(0.0, n.a3 * odom.trans +
                                    n.a4 * (std::abs(odom.rot1) +
                                            std::abs(odom.rot2)));
            double rot2 = odom.rot2 +
                          rng.normal(0.0, n.a1 * std::abs(odom.rot2) +
                                              n.a2 * odom.trans);
            double heading = p.pose.theta + rot1;
            p.pose.x += trans * std::cos(heading);
            p.pose.y += trans * std::sin(heading);
            p.pose.theta = normalizeAngle(heading + rot2);
        }
        return;
    }

    telemetry::TraceSpan span("batch-motion");
    const std::size_t count = particles_.size();
    // The per-noise sigmas depend only on the odometry reading — the
    // same sums the reference forms inside each rng.normal call.
    const double sig_rot1 =
        n.a1 * std::abs(odom.rot1) + n.a2 * odom.trans;
    const double sig_trans =
        n.a3 * odom.trans +
        n.a4 * (std::abs(odom.rot1) + std::abs(odom.rot2));
    const double sig_rot2 =
        n.a1 * std::abs(odom.rot2) + n.a2 * odom.trans;

    // RNG staging contract: draw all noise from the caller's stream in
    // the reference's particle-major order (rot1, trans, rot2 per
    // particle) before any lane work, so the stream position after
    // this update is engine-independent.
    noise_rot1_.resize(count);
    noise_trans_.resize(count);
    noise_rot2_.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
        noise_rot1_[i] = rng.normal(0.0, sig_rot1);
        noise_trans_[i] = rng.normal(0.0, sig_trans);
        noise_rot2_[i] = rng.normal(0.0, sig_rot2);
    }

    soa_x_.resize(count);
    soa_y_.resize(count);
    soa_theta_.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
        soa_x_[i] = particles_[i].pose.x;
        soa_y_[i] = particles_[i].pose.y;
        soa_theta_[i] = particles_[i].pose.theta;
    }

    // Chunks advance disjoint particle ranges; each range is pure in
    // its staged noise, so any thread count produces the same poses.
    parallelForChunks(0, count, 0, [&](const ChunkRange &chunk) {
        motionModelSoa(soa_x_.data() + chunk.begin,
                       soa_y_.data() + chunk.begin,
                       soa_theta_.data() + chunk.begin,
                       noise_rot1_.data() + chunk.begin,
                       noise_trans_.data() + chunk.begin,
                       noise_rot2_.data() + chunk.begin, odom,
                       chunk.end - chunk.begin);
    });

    for (std::size_t i = 0; i < count; ++i) {
        particles_[i].pose.x = soa_x_[i];
        particles_[i].pose.y = soa_y_[i];
        particles_[i].pose.theta = soa_theta_[i];
    }
}

void
ParticleFilter::measurementUpdate(const LaserScan &scan,
                                  PhaseProfiler *profiler)
{
    const std::size_t n_beams = scan.ranges.size();
    RTR_ASSERT(n_beams >= 1, "scan needs >= 1 beam");
    const std::size_t n_particles = particles_.size();
    log_weight_scratch_.resize(n_particles);
    std::vector<double> &log_weights = log_weight_scratch_;

    // Ray-casting: match every hypothesis against the map in one batch
    // cast. This is the dominant phase of the kernel; castScanBatch
    // runs the particles through the parallel runtime and each range
    // is a pure function of (map, pose, beam), so the expected scans
    // are bitwise-identical at any thread count.
    pose_scratch_.resize(n_particles);
    for (std::size_t i = 0; i < n_particles; ++i)
        pose_scratch_[i] = particles_[i].pose;
    {
        ScopedPhase phase(profiler, "raycast");
        castScanBatch(map_, pose_scratch_, scan.start_angle, scan.fov,
                      static_cast<int>(n_beams), scan.max_range,
                      expected_scratch_);
    }

    // Score each particle's match under the beam mixture model: each
    // chunk is one SoA batch (soa engine) or the serial reference loop
    // (scalar engine); chunks write disjoint log_weights slots.
    {
        ScopedPhase phase(profiler, "weight");
        telemetry::TraceSpan span("batch-sensor");
        parallelForChunks(
            0, n_particles, 0, [&](const ChunkRange &chunk) {
                beamLogWeights(
                    expected_scratch_.data() + chunk.begin * n_beams,
                    chunk.end - chunk.begin, n_beams, scan.ranges.data(),
                    sensor_model_, scan.max_range,
                    log_weights.data() + chunk.begin, weight_engine_);
            });
    }
    rays_cast_ += n_beams * n_particles;

    double max_log_weight = -1e300;
    for (double log_w : log_weights) {
        if (log_w > max_log_weight)
            max_log_weight = log_w;
    }

    // Normalize in a numerically safe way.
    double total = 0.0;
    for (std::size_t i = 0; i < particles_.size(); ++i) {
        particles_[i].weight =
            particles_[i].weight *
            std::exp(log_weights[i] - max_log_weight);
        total += particles_[i].weight;
    }
    if (total <= 0.0) {
        // Degenerate: reset to uniform weights.
        for (Particle &p : particles_)
            p.weight = 1.0 / static_cast<double>(particles_.size());
        return;
    }
    for (Particle &p : particles_)
        p.weight /= total;
}

void
ParticleFilter::resample(Rng &rng, PhaseProfiler *profiler)
{
    ScopedPhase phase(profiler, "resample");
    const std::size_t n = particles_.size();
    std::vector<Particle> &next = resample_scratch_;
    next.clear();
    next.reserve(n);

    // Low-variance (systematic) resampling.
    double step = 1.0 / static_cast<double>(n);
    double pointer = rng.uniform(0.0, step);
    double cumulative = particles_[0].weight;
    std::size_t index = 0;
    for (std::size_t i = 0; i < n; ++i) {
        double target = pointer + static_cast<double>(i) * step;
        while (cumulative < target && index + 1 < n) {
            ++index;
            cumulative += particles_[index].weight;
        }
        Particle p = particles_[index];
        p.weight = step;
        next.push_back(p);
    }

    // Augmented-MCL recovery: re-seed a small fraction uniformly.
    auto inject =
        static_cast<std::size_t>(random_injection_ * static_cast<double>(n));
    for (std::size_t i = 0; i < inject; ++i) {
        std::size_t victim = rng.index(n);
        next[victim].pose = sampleFreePose(rng);
        next[victim].weight = step;
    }
    std::swap(particles_, next);
}

Pose2
ParticleFilter::estimate() const
{
    double x = 0.0, y = 0.0, sin_sum = 0.0, cos_sum = 0.0, total = 0.0;
    for (const Particle &p : particles_) {
        x += p.weight * p.pose.x;
        y += p.weight * p.pose.y;
        sin_sum += p.weight * std::sin(p.pose.theta);
        cos_sum += p.weight * std::cos(p.pose.theta);
        total += p.weight;
    }
    if (total <= 0.0)
        return {};
    return Pose2{x / total, y / total, std::atan2(sin_sum, cos_sum)};
}

double
ParticleFilter::spread() const
{
    Pose2 mean = estimate();
    double sum = 0.0, total = 0.0;
    for (const Particle &p : particles_) {
        double dx = p.pose.x - mean.x;
        double dy = p.pose.y - mean.y;
        sum += p.weight * (dx * dx + dy * dy);
        total += p.weight;
    }
    return total > 0.0 ? std::sqrt(sum / total) : 0.0;
}

double
ParticleFilter::effectiveSampleSize() const
{
    double sum = 0.0, sum_sq = 0.0;
    for (const Particle &p : particles_) {
        sum += p.weight;
        sum_sq += p.weight * p.weight;
    }
    if (sum_sq <= 0.0)
        return 0.0;
    // Normalize first so unnormalized weights do not skew the measure.
    return (sum * sum) / sum_sq;
}

bool
ParticleFilter::resampleIfNeeded(Rng &rng, double threshold_fraction,
                                 PhaseProfiler *profiler)
{
    if (effectiveSampleSize() >=
        threshold_fraction * static_cast<double>(particles_.size()))
        return false;
    resample(rng, profiler);
    return true;
}

double
ParticleFilter::coreSpread(double fraction) const
{
    Pose2 mean = estimate();
    std::vector<double> d2;
    d2.reserve(particles_.size());
    for (const Particle &p : particles_) {
        double dx = p.pose.x - mean.x;
        double dy = p.pose.y - mean.y;
        d2.push_back(dx * dx + dy * dy);
    }
    std::sort(d2.begin(), d2.end());
    auto keep = static_cast<std::size_t>(fraction *
                                         static_cast<double>(d2.size()));
    keep = std::max<std::size_t>(keep, 1);
    double sum = 0.0;
    for (std::size_t i = 0; i < keep; ++i)
        sum += d2[i];
    return std::sqrt(sum / static_cast<double>(keep));
}

OdometryReading
odometryBetween(const Pose2 &from, const Pose2 &to)
{
    OdometryReading odom;
    double dx = to.x - from.x;
    double dy = to.y - from.y;
    odom.trans = std::sqrt(dx * dx + dy * dy);
    double direction = odom.trans > 1e-9 ? std::atan2(dy, dx) : from.theta;
    odom.rot1 = angleDiff(direction, from.theta);
    odom.rot2 = angleDiff(to.theta, direction);
    return odom;
}

LaserScan
simulateScan(const OccupancyGrid2D &map, const Pose2 &pose, int n_beams,
             double max_range, double noise_stddev, Rng &rng)
{
    LaserScan scan;
    scan.max_range = max_range;
    scan.ranges.reserve(static_cast<std::size_t>(n_beams));
    double beam_step = n_beams > 1 ? scan.fov / n_beams : 0.0;
    for (int b = 0; b < n_beams; ++b) {
        double angle = pose.theta + scan.start_angle + b * beam_step;
        double range = castRay(map, pose.position(), angle, max_range);
        if (range < max_range)
            range = std::max(0.0, range + rng.normal(0.0, noise_stddev));
        scan.ranges.push_back(range);
    }
    return scan;
}

} // namespace rtr
