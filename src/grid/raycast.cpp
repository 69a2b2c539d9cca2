#include "grid/raycast.h"

#include <cmath>

#include "util/parallel.h"

namespace rtr {

namespace {

/** No-op counter so the uninstrumented casts pay nothing. */
struct NullCounter
{
    void probe() {}
};

/** Accumulates into a RayCastStats. */
struct StatsCounter
{
    RayCastStats *stats;
    void probe() { ++stats->probes; }
};

/** The Amanatides-Woo stepping loop behind every cast. */
template <typename Counter>
double
castRayImpl(const OccupancyGrid2D &grid, const Vec2 &origin, double angle,
            double max_range, Counter counter)
{
    const double res = grid.resolution();
    const double dir_x = std::cos(angle);
    const double dir_y = std::sin(angle);

    Cell2 cell = grid.worldToCell(origin);
    counter.probe();
    if (grid.occupiedByte(cell.x, cell.y))
        return 0.0;

    // Traversal setup: t measures world distance along the ray;
    // t_max_* is the distance at which the ray crosses the next cell
    // boundary on each axis; t_delta_* the distance between successive
    // crossings.
    const int step_x = dir_x > 0 ? 1 : (dir_x < 0 ? -1 : 0);
    const int step_y = dir_y > 0 ? 1 : (dir_y < 0 ? -1 : 0);

    const double inf = 1e300;
    double t_max_x = inf, t_delta_x = inf;
    if (step_x != 0) {
        double cell_edge = grid.origin().x +
                           (cell.x + (step_x > 0 ? 1 : 0)) * res;
        t_max_x = (cell_edge - origin.x) / dir_x;
        t_delta_x = res / std::abs(dir_x);
    }
    double t_max_y = inf, t_delta_y = inf;
    if (step_y != 0) {
        double cell_edge = grid.origin().y +
                           (cell.y + (step_y > 0 ? 1 : 0)) * res;
        t_max_y = (cell_edge - origin.y) / dir_y;
        t_delta_y = res / std::abs(dir_y);
    }

    while (true) {
        double t;
        if (t_max_x < t_max_y) {
            t = t_max_x;
            cell.x += step_x;
            t_max_x += t_delta_x;
        } else {
            t = t_max_y;
            cell.y += step_y;
            t_max_y += t_delta_y;
        }
        if (t > max_range)
            return max_range;
        // Probe the byte array — the exact pre-bitboard path, so the
        // cost profile (and the paper's Table-I fractions) stay
        // reproducible.
        counter.probe();
        if (grid.occupiedByte(cell.x, cell.y))
            return t;
    }
}

/** One scan's rays from @p origin, evenly spaced over @p fov. */
template <typename Counter>
void
castScanImpl(const OccupancyGrid2D &grid, const Vec2 &origin,
             double start_angle, double fov, int n_rays, double max_range,
             std::vector<double> &out, Counter counter)
{
    out.clear();
    out.resize(static_cast<std::size_t>(n_rays > 0 ? n_rays : 0));
    const double step = n_rays > 1 ? fov / n_rays : 0.0;
    for (int i = 0; i < n_rays; ++i)
        out[static_cast<std::size_t>(i)] = castRayImpl(
            grid, origin, start_angle + i * step, max_range, counter);
}

} // namespace

double
castRay(const OccupancyGrid2D &grid, const Vec2 &origin, double angle,
        double max_range)
{
    return castRayImpl(grid, origin, angle, max_range, NullCounter{});
}

const char *
rayEngineName(RayEngine)
{
    return "scalar";
}

RayEngine
defaultRayEngine()
{
    return RayEngine::Scalar;
}

void
castScan(const OccupancyGrid2D &grid, const Vec2 &origin, double start_angle,
         double fov, int n_rays, double max_range, std::vector<double> &out)
{
    castScanImpl(grid, origin, start_angle, fov, n_rays, max_range, out,
                 NullCounter{});
}

void
castScanCounted(const OccupancyGrid2D &grid, const Vec2 &origin,
                double start_angle, double fov, int n_rays, double max_range,
                std::vector<double> &out, RayCastStats &stats)
{
    castScanImpl(grid, origin, start_angle, fov, n_rays, max_range, out,
                 StatsCounter{&stats});
}

void
castScanBatch(const OccupancyGrid2D &grid, const std::vector<Pose2> &poses,
              double start_angle, double fov, int n_beams, double max_range,
              std::vector<double> &out)
{
    const std::size_t beams =
        static_cast<std::size_t>(n_beams > 0 ? n_beams : 0);
    const std::size_t n_poses = poses.size();
    out.resize(n_poses * beams);
    if (beams == 0)
        return;
    const double beam_step =
        n_beams > 1 ? fov / static_cast<double>(n_beams) : 0.0;
    parallelForChunks(0, n_poses, 0, [&](const ChunkRange &chunk) {
        for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
            const Pose2 &pose = poses[i];
            double *ranges = out.data() + i * beams;
            for (std::size_t b = 0; b < beams; ++b) {
                double ray_angle = pose.theta + start_angle +
                                   static_cast<double>(b) * beam_step;
                ranges[b] = castRay(grid, pose.position(), ray_angle,
                                    max_range);
            }
        }
    });
}

double
castRayReference(const OccupancyGrid2D &grid, const Vec2 &origin,
                 double angle, double max_range)
{
    const double step = grid.resolution() * 0.02;
    const Vec2 dir{std::cos(angle), std::sin(angle)};
    for (double t = 0.0; t <= max_range; t += step) {
        if (grid.occupiedWorld(origin + dir * t))
            return t;
    }
    return max_range;
}

} // namespace rtr
