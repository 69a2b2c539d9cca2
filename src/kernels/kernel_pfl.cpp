#include "kernels/kernel_pfl.h"

#include <cmath>

#include "geom/angle.h"
#include "grid/map_gen.h"
#include "grid/raycast.h"
#include "perception/particle_filter.h"
#include "util/roi.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace rtr {

namespace {

/**
 * Ground-truth corridor walk: the robot traverses the building's main
 * corridor left-to-right, starting in one of five regions (the paper
 * evaluates pfl "in five different parts of the building").
 */
std::vector<Pose2>
makeTruePath(const OccupancyGrid2D &map, int region, int steps,
             double step_len, Rng &rng)
{
    double corridor_y = map.origin().y + map.worldHeight() / 2.0;
    double span = map.worldWidth();
    double start_x = map.origin().x + span * (0.08 + 0.17 * region);

    std::vector<Pose2> path;
    Pose2 pose{start_x, corridor_y, 0.0};
    path.push_back(pose);
    for (int i = 1; i < steps; ++i) {
        // Walk along the corridor with small heading jitter, bouncing
        // off obstacles by steering away when the lookahead ray is
        // short.
        double lookahead =
            castRay(map, pose.position(), pose.theta, 3.0);
        if (lookahead < step_len * 2.5) {
            pose.theta = normalizeAngle(pose.theta + kPi / 2.0 +
                                        rng.uniform(-0.3, 0.3));
        } else {
            pose.theta = normalizeAngle(
                pose.theta + rng.uniform(-0.08, 0.08));
        }
        Pose2 next{pose.x + step_len * std::cos(pose.theta),
                   pose.y + step_len * std::sin(pose.theta), pose.theta};
        if (!map.occupiedWorld(next.position()))
            pose = next;
        else
            pose.theta = normalizeAngle(pose.theta + kPi / 2.0);
        path.push_back(pose);
    }
    return path;
}

} // namespace

void
PflKernel::addOptions(ArgParser &parser) const
{
    parser.addOption("particles", "1000", "Number of particles");
    parser.addOption("beams", "60", "Laser beams per scan");
    parser.addOption("steps", "60", "Trajectory steps");
    parser.addOption("region", "2", "Building region (0-4)");
    parser.addOption("map-width", "240", "Map width (cells)");
    parser.addOption("map-height", "160", "Map height (cells)");
    parser.addOption("resolution", "0.25", "Map resolution (m/cell)");
    parser.addOption("max-range", "10.0", "Laser max range (m)");
    parser.addOption("init-radius", "5.0",
                     "Initial position uncertainty radius (m)");
    parser.addOption("seed", "1", "Random seed");
    parser.addFlag("global", "Initialize uniformly over the whole map");
    addThreadsOption(parser);
    addBatchOption(parser);
}

KernelReport
PflKernel::run(const ArgParser &args) const
{
    KernelReport report;
    applyThreadsOption(args);
    const auto n_particles =
        static_cast<std::size_t>(intOptionInRange(args, "particles", 1));
    const int n_beams = intOptionInRange(args, "beams", 1);
    const int steps = intOptionInRange(args, "steps", 1);
    const int region = intOptionInRange(args, "region", 0, 4);
    const int map_width = intOptionInRange(args, "map-width", 40);
    const int map_height = intOptionInRange(args, "map-height", 40);
    const double max_range = args.getDouble("max-range");
    const auto seed = static_cast<std::uint64_t>(args.getInt("seed"));

    // ---- Input generation (outside the ROI) ----
    OccupancyGrid2D map = makeIndoorMap(map_width, map_height,
                                        args.getDouble("resolution"), seed);
    Rng world_rng(seed * 7919 + 17);
    std::vector<Pose2> truth =
        makeTruePath(map, region, steps, 0.3, world_rng);

    std::vector<OdometryReading> odometry;
    std::vector<LaserScan> scans;
    for (int t = 0; t < steps; ++t) {
        if (t > 0)
            odometry.push_back(odometryBetween(
                truth[static_cast<std::size_t>(t - 1)],
                truth[static_cast<std::size_t>(t)]));
        scans.push_back(simulateScan(map,
                                     truth[static_cast<std::size_t>(t)],
                                     n_beams, max_range, 0.05, world_rng));
    }

    // ---- Filter execution (the ROI) ----
    ParticleFilter filter(map, n_particles);
    // --batch / RTR_BATCH_ENGINE force one engine for both phases;
    // otherwise each phase keeps its own default (motion SoA, weight
    // scalar — the sensor-model SoA leg measured below 1x).
    if (args.isSet("batch") || batchEngineOverridden())
        filter.setBatchEngine(batchEngineFromArgs(args));
    Rng filter_rng(seed);
    if (args.getFlag("global"))
        filter.initializeUniform(filter_rng);
    else
        filter.initializeRegion(truth.front(),
                                args.getDouble("init-radius"), 0.5,
                                filter_rng);

    std::vector<double> spread_series;
    spread_series.push_back(filter.coreSpread());
    Stopwatch roi_timer;
    {
        ScopedRoi roi;
        filter.measurementUpdate(scans[0], &report.profiler);
        filter.resample(filter_rng, &report.profiler);
        spread_series.push_back(filter.coreSpread());
        for (int t = 1; t < steps; ++t) {
            filter.motionUpdate(odometry[static_cast<std::size_t>(t - 1)],
                                filter_rng, &report.profiler);
            filter.measurementUpdate(scans[static_cast<std::size_t>(t)],
                                     &report.profiler);
            filter.resample(filter_rng, &report.profiler);
            spread_series.push_back(filter.coreSpread());
        }
    }
    report.roi_seconds = roi_timer.elapsedSec();

    Pose2 estimate = filter.estimate();
    const Pose2 &final_truth = truth.back();
    double dx = estimate.x - final_truth.x;
    double dy = estimate.y - final_truth.y;

    report.success = std::sqrt(dx * dx + dy * dy) < 1.5;
    report.metrics["final_error_m"] = std::sqrt(dx * dx + dy * dy);
    report.metrics["final_spread_m"] = filter.spread();
    report.metrics["initial_spread_m"] = spread_series.front();
    report.metrics["rays_cast"] =
        static_cast<double>(filter.raysCast());
    report.metrics["raycast_fraction"] =
        report.phaseFraction("raycast");

    // Traversal diagnostics (outside the ROI): re-cast the final
    // estimate's scan counted, to report how many cells a ray touches
    // on this map.
    {
        RayCastStats stats;
        std::vector<double> ranges;
        castScanCounted(map, estimate.position(),
                        estimate.theta + scans[0].start_angle,
                        scans[0].fov, n_beams, max_range, ranges, stats);
        report.metrics["probes_per_ray_scalar"] =
            static_cast<double>(stats.probes) / n_beams;
    }
    report.series["spread"] = std::move(spread_series);
    return report;
}

} // namespace rtr
