/**
 * @file
 * Grid ray-casting (Amanatides-Woo DDA).
 *
 * The paper identifies ray-casting as the dominant cost of particle
 * filter localization (67-78% of execution time): every particle casts
 * one ray per laser beam against the map. This module is that
 * primitive: a scalar DDA that enters every traversed cell exactly once
 * and probes its occupancy byte — the pre-bitboard per-cell cost
 * profile the paper measured, and the fastest engine measured on the
 * benchmark maps (EXPERIMENTS.md "Ray-cast engine").
 */

#ifndef RTR_GRID_RAYCAST_H
#define RTR_GRID_RAYCAST_H

#include <cstdint>
#include <vector>

#include "geom/pose.h"
#include "geom/vec2.h"
#include "grid/occupancy_grid2d.h"

namespace rtr {

/**
 * The ray-cast engine. Only the scalar DDA remains; the enum and its
 * two functions stay so results can keep naming the engine they ran
 * (metric "probes_per_ray_" + rayEngineName(defaultRayEngine())).
 */
enum class RayEngine
{
    /** Per-cell probing of every traversed cell. */
    Scalar,
};

/** Display name ("scalar"). */
const char *rayEngineName(RayEngine engine);

/** The engine every cast runs: RayEngine::Scalar. */
RayEngine defaultRayEngine();

/** Traversal counter for one or more casts (diagnostics/benchmarks). */
struct RayCastStats
{
    /** Occupancy probes: the start cell plus each cell entered in range. */
    std::uint64_t probes = 0;
};

/**
 * Cast a ray from a world-space origin at the given angle and return the
 * distance to the first occupied cell (or max_range if none is hit).
 *
 * Uses Amanatides-Woo DDA so every traversed cell is entered, and
 * probed, exactly once.
 */
double castRay(const OccupancyGrid2D &grid, const Vec2 &origin, double angle,
               double max_range);

/**
 * Cast a fan of rays (a full simulated laser scan) into @p out, one hit
 * distance per angle in [start_angle, start_angle + fov), evenly
 * spaced. @p out is cleared first (and reserved to n_rays), so callers
 * can reuse one buffer across scans without accumulating stale ranges.
 */
void castScan(const OccupancyGrid2D &grid, const Vec2 &origin,
              double start_angle, double fov, int n_rays, double max_range,
              std::vector<double> &out);

/** castScan with traversal counters accumulated into @p stats. */
void castScanCounted(const OccupancyGrid2D &grid, const Vec2 &origin,
                     double start_angle, double fov, int n_rays,
                     double max_range, std::vector<double> &out,
                     RayCastStats &stats);

/**
 * Cast the scans of a whole particle set in one call: for pose i and
 * beam b, out[i * n_beams + b] is the hit distance of the ray from
 * pose i's position at angle theta_i + start_angle + b * (fov /
 * n_beams). Runs the poses through rtr::parallelFor, and every range
 * is a pure function of (grid, pose, beam), so the output is bitwise
 * identical at any thread count and to per-pose castRay calls.
 */
void castScanBatch(const OccupancyGrid2D &grid,
                   const std::vector<Pose2> &poses, double start_angle,
                   double fov, int n_beams, double max_range,
                   std::vector<double> &out);

/** Brute-force reference ray-caster (small fixed steps), for testing. */
double castRayReference(const OccupancyGrid2D &grid, const Vec2 &origin,
                        double angle, double max_range);

} // namespace rtr

#endif // RTR_GRID_RAYCAST_H
