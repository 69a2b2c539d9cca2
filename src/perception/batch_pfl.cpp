#include "perception/batch_pfl.h"

#include <cmath>

#include "geom/angle.h"
#include "util/simd.h"

namespace rtr {

using simd::VecD;

namespace {

constexpr std::size_t kW = VecD::kWidth;

/**
 * The weight loop of ParticleFilter::measurementUpdate, negating after
 * squaring: -(diff * diff) equals (-diff) * diff exactly for finite
 * values, and it also gives a NaN range one sign whichever operand
 * order the compiler emits for the product.
 */
void
beamLogWeightsScalar(const double *expected, std::size_t count,
                     std::size_t n_beams, const double *scan_ranges,
                     const BeamSensorModel &model, double inv_sigma2,
                     double gauss_norm, double rand_density,
                     double *log_weights)
{
    for (std::size_t i = 0; i < count; ++i) {
        const double *ranges = expected + i * n_beams;
        double log_w = 0.0;
        for (std::size_t b = 0; b < n_beams; ++b) {
            double diff = scan_ranges[b] - ranges[b];
            double density = model.z_hit * gauss_norm *
                                 std::exp(-(diff * diff) * inv_sigma2) +
                             model.z_rand * rand_density;
            log_w += std::log(density + 1e-300);
        }
        log_w /= model.temperature;
        log_weights[i] = log_w;
    }
}

} // namespace

void
motionModelScalar(double *x, double *y, double *theta,
                  const double *noise_rot1, const double *noise_trans,
                  const double *noise_rot2, const OdometryReading &odom,
                  std::size_t count)
{
    for (std::size_t e = 0; e < count; ++e) {
        double rot1 = odom.rot1 + noise_rot1[e];
        double trans = odom.trans + noise_trans[e];
        double rot2 = odom.rot2 + noise_rot2[e];
        double heading = theta[e] + rot1;
        x[e] += trans * std::cos(heading);
        y[e] += trans * std::sin(heading);
        theta[e] = normalizeAngle(heading + rot2);
    }
}

void
motionModelSoa(double *x, double *y, double *theta,
               const double *noise_rot1, const double *noise_trans,
               const double *noise_rot2, const OdometryReading &odom,
               std::size_t count)
{
    const VecD r1v = VecD::broadcast(odom.rot1);
    const VecD trv = VecD::broadcast(odom.trans);
    const VecD r2v = VecD::broadcast(odom.rot2);

    std::size_t e = 0;
    for (; e + kW <= count; e += kW) {
        const VecD rot1v = r1v + VecD::load(noise_rot1 + e);
        const VecD transv = trv + VecD::load(noise_trans + e);
        const VecD rot2v = r2v + VecD::load(noise_rot2 + e);
        const VecD headv = VecD::load(theta + e) + rot1v;

        // cos/sin of the heading stay scalar libm per lane element.
        double head[kW], cb[kW], sb[kW];
        headv.store(head);
        for (std::size_t l = 0; l < kW; ++l) {
            cb[l] = std::cos(head[l]);
            sb[l] = std::sin(head[l]);
        }
        VecD::mulAdd(VecD::load(x + e), transv, VecD::load(cb))
            .store(x + e);
        VecD::mulAdd(VecD::load(y + e), transv, VecD::load(sb))
            .store(y + e);

        double hr[kW];
        (headv + rot2v).store(hr);
        for (std::size_t l = 0; l < kW; ++l)
            theta[e + l] = normalizeAngle(hr[l]);
    }
    motionModelScalar(x + e, y + e, theta + e, noise_rot1 + e,
                      noise_trans + e, noise_rot2 + e, odom, count - e);
}

void
beamLogWeights(const double *expected, std::size_t count,
               std::size_t n_beams, const double *scan_ranges,
               const BeamSensorModel &model, double max_range,
               double *log_weights, BatchEngine engine)
{
    // The same three constants measurementUpdate's weight phase forms.
    const double inv_sigma2 = 1.0 / (2.0 * model.sigma * model.sigma);
    const double gauss_norm = 1.0 / (model.sigma * std::sqrt(2.0 * kPi));
    const double rand_density = 1.0 / max_range;

    if (engine == BatchEngine::Scalar) {
        beamLogWeightsScalar(expected, count, n_beams, scan_ranges, model,
                             inv_sigma2, gauss_norm, rand_density,
                             log_weights);
        return;
    }

    // Single multiplies the scalar expression performs left-to-right.
    const VecD hitv = VecD::broadcast(model.z_hit * gauss_norm);
    const VecD randv = VecD::broadcast(model.z_rand * rand_density);
    const VecD inv2v = VecD::broadcast(inv_sigma2);
    const VecD tinyv = VecD::broadcast(1e-300);
    const VecD tempv = VecD::broadcast(model.temperature);

    std::size_t e = 0;
    for (; e + kW <= count; e += kW) {
        VecD lwv = VecD::zero();
        for (std::size_t b = 0; b < n_beams; ++b) {
            double lane[kW];
            for (std::size_t l = 0; l < kW; ++l)
                lane[l] = expected[(e + l) * n_beams + b];
            const VecD diffv =
                VecD::broadcast(scan_ranges[b]) - VecD::load(lane);
            // neg() is the sign-bit flip the scalar -(diff * diff)
            // performs, so even a NaN range carries the same bits
            // through both engines.
            const VecD argv = VecD::neg(diffv * diffv) * inv2v;
            argv.store(lane);
            for (std::size_t l = 0; l < kW; ++l)
                lane[l] = std::exp(lane[l]);
            const VecD densv = (hitv * VecD::load(lane)) + randv;
            (densv + tinyv).store(lane);
            for (std::size_t l = 0; l < kW; ++l)
                lane[l] = std::log(lane[l]);
            lwv = lwv + VecD::load(lane);
        }
        (lwv / tempv).store(log_weights + e);
    }
    beamLogWeightsScalar(expected + e * n_beams, count - e, n_beams,
                         scan_ranges, model, inv_sigma2, gauss_norm,
                         rand_density, log_weights + e);
}

} // namespace rtr
