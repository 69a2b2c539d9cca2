#include "grid/raycast.h"

#include <algorithm>
#include <array>
#include <bit>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "util/parallel.h"
#include "util/simd.h"

namespace rtr {

namespace {

/** No-op counter so the uninstrumented casts pay nothing. */
struct NullCounter
{
    void step() {}
    void steps(std::uint64_t) {}
    void probe() {}
};

/** Accumulates into a RayCastStats. */
struct StatsCounter
{
    RayCastStats *stats;
    void step() { ++stats->steps; }
    void steps(std::uint64_t n) { stats->steps += n; }
    void probe() { ++stats->probes; }
};

/**
 * The one Amanatides-Woo stepping loop behind every engine. kHier
 * selects the pyramid fast path; the floating-point work (boundary
 * comparisons, t accumulation, the returned t) is textually shared, so
 * both instantiations produce bitwise-identical ranges.
 */
template <bool kHier, typename Counter>
double
castRayImpl(const OccupancyGrid2D &grid, const Vec2 &origin, double angle,
            double max_range, Counter counter)
{
    const double res = grid.resolution();
    const double dir_x = std::cos(angle);
    const double dir_y = std::sin(angle);

    Cell2 cell = grid.worldToCell(origin);
    counter.probe();
    if (kHier ? grid.occupied(cell.x, cell.y)
              : grid.occupiedByte(cell.x, cell.y))
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

    // Hierarchical state: the traversal is certified probe-free until
    // one axis reaches its exit cell (the first cell OUTSIDE the
    // current proven-empty block along that axis' step direction).
    // Because cells advance by +-1, "left the block" is a single
    // equality test on whichever axis just stepped. kUnreachable marks
    // an axis that never steps (its t_max is pinned at infinity).
    constexpr int kUnreachable = INT_MIN;
    [[maybe_unused]] int exit_x =
        step_x != 0 ? cell.x + step_x : kUnreachable;
    [[maybe_unused]] int exit_y =
        step_y != 0 ? cell.y + step_y : kUnreachable;

    // Summary planes, hoisted so per-probe tests touch cached fields
    // instead of re-walking the pyramid vector. The ray-caster uses at
    // most two levels: 8- and 64-cell blocks already cover any sensor
    // range worth skipping.
    [[maybe_unused]] const BitPlane *l1 = nullptr;
    [[maybe_unused]] const BitPlane *l2 = nullptr;
    if constexpr (kHier) {
        if (grid.pyramidLevels() >= 1)
            l1 = &grid.pyramidLevel(1);
        if (grid.pyramidLevels() >= 2)
            l2 = &grid.pyramidLevel(2);
    }

    while (true) {
        double t;
        [[maybe_unused]] bool at_exit;
        if (t_max_x < t_max_y) {
            t = t_max_x;
            cell.x += step_x;
            t_max_x += t_delta_x;
            at_exit = cell.x == exit_x;
        } else {
            t = t_max_y;
            cell.y += step_y;
            t_max_y += t_delta_y;
            at_exit = cell.y == exit_y;
        }
        counter.step();
        if (t > max_range)
            return max_range;
        if constexpr (kHier) {
            if (!at_exit)
                continue;
            counter.probe();
            if (!grid.inBounds(cell.x, cell.y))
                return t;
            int shift = 0;
            if (l1 && !l1->test(cell.x >> 3, cell.y >> 3)) {
                // Level-1 block free; widen to level 2 when that block
                // is free too.
                shift = (l2 && !l2->test(cell.x >> 6, cell.y >> 6)) ? 6
                                                                    : 3;
            } else if (grid.occupiedUnchecked(cell.x, cell.y)) {
                return t;
            }
            if (shift == 0) {
                // No empty block here (or no pyramid at all): probe
                // again on the very next step of either axis.
                if (step_x != 0)
                    exit_x = cell.x + step_x;
                if (step_y != 0)
                    exit_y = cell.y + step_y;
                continue;
            }
            // Exit cells sit just past the block, clamped to the first
            // out-of-bounds coordinate: cells past the grid edge count
            // as occupied, so the ray must stop skipping and probe the
            // moment it leaves the grid.
            const int b0_x = (cell.x >> shift) << shift;
            const int b0_y = (cell.y >> shift) << shift;
            if (step_x > 0)
                exit_x = std::min(b0_x + (1 << shift), grid.width());
            else if (step_x < 0)
                exit_x = std::max(b0_x - 1, -1);
            if (step_y > 0)
                exit_y = std::min(b0_y + (1 << shift), grid.height());
            else if (step_y < 0)
                exit_y = std::max(b0_y - 1, -1);
        } else {
            // The reference engine probes the byte array — the exact
            // pre-bitboard path, so its cost profile (and the paper's
            // Table-I fractions) stay reproducible.
            counter.probe();
            if (grid.occupiedByte(cell.x, cell.y))
                return t;
        }
    }
}

using simd::VecD;

/** Rays per packet: one per simd::VecD lane. */
constexpr std::size_t kLanes = VecD::kWidth;

/** An all-ones lane mask as a double (what a true cmp lane holds). */
inline double
laneMaskOn()
{
    return std::bit_cast<double>(~std::uint64_t{0});
}

/**
 * Octant of a ray direction: sign of dx (bit 0), sign of dy (bit 1),
 * dominant axis (bit 2). Rays of one octant step through the pyramid
 * in the same pattern, so binning a scan by octant keeps packet lanes
 * coherent — shared block establishments, similar retirement times.
 */
inline int
octantKey(double dx, double dy)
{
    return (dx < 0.0 ? 1 : 0) | (dy < 0.0 ? 2 : 0) |
           (std::abs(dy) > std::abs(dx) ? 4 : 0);
}

/** Reusable per-thread buffers for the packet scan driver. */
struct PacketScratch
{
    std::vector<double> dir_x, dir_y;
    std::vector<int> order;
};

/**
 * Streaming ray-packet tracer: all @p n rays of a scan flow through
 * kLanes simd::VecD lanes. The per-lane arithmetic is castRayImpl's,
 * expression by expression — the DDA advance runs lane-parallel with
 * select(cmpGT) blends standing in for the scalar branches (a blend
 * keeps bitwise the value the taken scalar branch would have
 * produced), and cell/exit coordinates ride in lanes as exact small
 * integers in doubles. Two event tiers keep the state register-
 * resident:
 *
 *  - Probe events (a lane reached its block-exit cell): spill only
 *    cells and exits, run castRayImpl's probe/promotion block on the
 *    flagged lanes, reload the exit vectors.
 *  - Retirement (hit, out of bounds, or past max_range): write the
 *    finished lane's range to its output slot and REFILL the lane
 *    with the next ray of the scan (ray-queue style), so one long ray
 *    never leaves its packet mates idle. Only a refill pays the full
 *    state spill/reload, and refills happen once per ray.
 *
 * Rays are consumed in @p scratch.order (octant-binned), results land
 * at out[original index].
 */
template <typename Counter>
void
castPacketStream(const OccupancyGrid2D &grid, const Vec2 &origin,
                 const PacketScratch &scratch, std::size_t n,
                 double max_range, double *out, Counter &counter)
{
    const double res = grid.resolution();
    constexpr int kUnreachable = INT_MIN;
    const Cell2 cell0 = grid.worldToCell(origin);

    // SoA lane state; in memory only around events, register-resident
    // through the advance loop.
    alignas(32) double a_tmx[kLanes], a_tmy[kLanes];
    alignas(32) double a_tdx[kLanes], a_tdy[kLanes];
    alignas(32) double a_cx[kLanes], a_cy[kLanes];
    alignas(32) double a_sx[kLanes], a_sy[kLanes];
    alignas(32) double a_ex[kLanes], a_ey[kLanes];
    alignas(32) double a_act[kLanes];

    std::size_t next = 0;

    // The exact castRayImpl preamble for one ray, into lane l. False
    // when the ray retires at its origin (occupied or outside cell:
    // range 0.0 written immediately).
    auto setupLane = [&](std::size_t l, std::size_t ray) -> bool {
        counter.probe();
        if (grid.occupied(cell0.x, cell0.y)) {
            out[ray] = 0.0;
            return false;
        }
        const double dx = scratch.dir_x[ray];
        const double dy = scratch.dir_y[ray];
        const int step_x = dx > 0 ? 1 : (dx < 0 ? -1 : 0);
        const int step_y = dy > 0 ? 1 : (dy < 0 ? -1 : 0);
        const double inf = 1e300;
        double t_max_x = inf, t_delta_x = inf;
        if (step_x != 0) {
            double cell_edge = grid.origin().x +
                               (cell0.x + (step_x > 0 ? 1 : 0)) * res;
            t_max_x = (cell_edge - origin.x) / dx;
            t_delta_x = res / std::abs(dx);
        }
        double t_max_y = inf, t_delta_y = inf;
        if (step_y != 0) {
            double cell_edge = grid.origin().y +
                               (cell0.y + (step_y > 0 ? 1 : 0)) * res;
            t_max_y = (cell_edge - origin.y) / dy;
            t_delta_y = res / std::abs(dy);
        }
        a_tmx[l] = t_max_x;
        a_tmy[l] = t_max_y;
        a_tdx[l] = t_delta_x;
        a_tdy[l] = t_delta_y;
        a_cx[l] = static_cast<double>(cell0.x);
        a_cy[l] = static_cast<double>(cell0.y);
        a_sx[l] = static_cast<double>(step_x);
        a_sy[l] = static_cast<double>(step_y);
        a_ex[l] = static_cast<double>(
            step_x != 0 ? cell0.x + step_x : kUnreachable);
        a_ey[l] = static_cast<double>(
            step_y != 0 ? cell0.y + step_y : kUnreachable);
        a_act[l] = laneMaskOn();
        return true;
    };

    int lane_ray[kLanes]; // output slot of each lane's ray, -1 = none

    // Pull rays (in octant order) until one survives setup; when the
    // scan runs dry the lane parks with benign state: t_max pinned at
    // 1e300 with zero deltas and steps, exits unreachable — it blends
    // through the advance loop without ever raising an event.
    auto refillLane = [&](std::size_t l) {
        while (next < n) {
            const auto ray =
                static_cast<std::size_t>(scratch.order[next++]);
            if (setupLane(l, ray)) {
                lane_ray[l] = static_cast<int>(ray);
                return;
            }
        }
        lane_ray[l] = -1;
        a_tmx[l] = a_tmy[l] = 1e300;
        a_tdx[l] = a_tdy[l] = 0.0;
        a_cx[l] = a_cy[l] = 0.0;
        a_sx[l] = a_sy[l] = 0.0;
        a_ex[l] = a_ey[l] = static_cast<double>(kUnreachable);
        a_act[l] = 0.0;
    };

    for (std::size_t l = 0; l < kLanes; ++l)
        refillLane(l);

    const BitPlane *l1 = nullptr;
    const BitPlane *l2 = nullptr;
    if (grid.pyramidLevels() >= 1)
        l1 = &grid.pyramidLevel(1);
    if (grid.pyramidLevels() >= 2)
        l2 = &grid.pyramidLevel(2);

    VecD tmx = VecD::load(a_tmx), tmy = VecD::load(a_tmy);
    VecD tdx = VecD::load(a_tdx), tdy = VecD::load(a_tdy);
    VecD cell_x = VecD::load(a_cx), cell_y = VecD::load(a_cy);
    VecD step_x = VecD::load(a_sx), step_y = VecD::load(a_sy);
    VecD exit_x = VecD::load(a_ex), exit_y = VecD::load(a_ey);
    VecD active = VecD::load(a_act);
    const VecD maxr = VecD::broadcast(max_range);

    int act_bits = VecD::signMask(active);
    while (act_bits != 0) {
        // Lane-parallel DDA step. maskX is the scalar `t_max_x <
        // t_max_y` (ties step y, exactly like the scalar else-branch);
        // each blend keeps, per lane, bitwise the value the taken
        // scalar branch computes and leaves the other accumulator
        // untouched. t comes from the pre-increment t_max, like the
        // scalar engine's.
        const VecD maskX = VecD::cmpGT(tmy, tmx);
        const VecD t = VecD::select(maskX, tmx, tmy);
        cell_x = VecD::select(maskX, cell_x + step_x, cell_x);
        cell_y = VecD::select(maskX, cell_y, cell_y + step_y);
        tmx = VecD::select(maskX, tmx + tdx, tmx);
        tmy = VecD::select(maskX, tmy, tmy + tdy);
        counter.steps(static_cast<std::uint64_t>(
            std::popcount(static_cast<unsigned>(act_bits))));

        // Event masks. `over` is the scalar `t > max_range` return
        // (checked before the probe, like the scalar engine); at_exit
        // tests only the axis that just stepped — the same single
        // equality as the scalar fast path.
        const VecD over = VecD::bitAnd(VecD::cmpGT(t, maxr), active);
        const VecD at_exit =
            VecD::select(maskX, VecD::cmpEQ(cell_x, exit_x),
                         VecD::cmpEQ(cell_y, exit_y));
        const VecD event =
            VecD::bitOr(over, VecD::bitAnd(at_exit, active));
        int event_bits = VecD::signMask(event);
        if (event_bits == 0)
            continue;

        // Light spill: the probe block needs cells, exits, and per-
        // lane t. The FP traversal state spills lazily, only when a
        // lane actually retires and a new ray must be seated.
        alignas(32) double l_t[kLanes];
        t.store(l_t);
        cell_x.store(a_cx);
        cell_y.store(a_cy);
        exit_x.store(a_ex);
        exit_y.store(a_ey);
        const int over_bits = VecD::signMask(over);
        bool refilled = false;
        auto retire = [&](std::size_t l, double range) {
            out[static_cast<std::size_t>(lane_ray[l])] = range;
            if (!refilled) {
                tmx.store(a_tmx);
                tmy.store(a_tmy);
                tdx.store(a_tdx);
                tdy.store(a_tdy);
                step_x.store(a_sx);
                step_y.store(a_sy);
                refilled = true;
            }
            refillLane(l);
        };
        while (event_bits != 0) {
            const auto l = static_cast<std::size_t>(
                std::countr_zero(static_cast<unsigned>(event_bits)));
            event_bits &= event_bits - 1;
            if ((over_bits >> l) & 1) {
                retire(l, max_range);
                continue;
            }
            // castRayImpl's probe/promotion block, verbatim.
            counter.probe();
            const int x = static_cast<int>(a_cx[l]);
            const int y = static_cast<int>(a_cy[l]);
            if (!grid.inBounds(x, y)) {
                retire(l, l_t[l]);
                continue;
            }
            int shift = 0;
            if (l1 && !l1->test(x >> 3, y >> 3)) {
                shift = (l2 && !l2->test(x >> 6, y >> 6)) ? 6 : 3;
            } else if (grid.occupiedUnchecked(x, y)) {
                retire(l, l_t[l]);
                continue;
            }
            if (shift == 0) {
                if (a_sx[l] != 0.0)
                    a_ex[l] = a_cx[l] + a_sx[l];
                if (a_sy[l] != 0.0)
                    a_ey[l] = a_cy[l] + a_sy[l];
                continue;
            }
            const int b0_x = (x >> shift) << shift;
            const int b0_y = (y >> shift) << shift;
            if (a_sx[l] > 0.0)
                a_ex[l] = static_cast<double>(
                    std::min(b0_x + (1 << shift), grid.width()));
            else if (a_sx[l] < 0.0)
                a_ex[l] = static_cast<double>(std::max(b0_x - 1, -1));
            if (a_sy[l] > 0.0)
                a_ey[l] = static_cast<double>(
                    std::min(b0_y + (1 << shift), grid.height()));
            else if (a_sy[l] < 0.0)
                a_ey[l] = static_cast<double>(std::max(b0_y - 1, -1));
        }
        exit_x = VecD::load(a_ex);
        exit_y = VecD::load(a_ey);
        if (refilled) {
            tmx = VecD::load(a_tmx);
            tmy = VecD::load(a_tmy);
            tdx = VecD::load(a_tdx);
            tdy = VecD::load(a_tdy);
            cell_x = VecD::load(a_cx);
            cell_y = VecD::load(a_cy);
            step_x = VecD::load(a_sx);
            step_y = VecD::load(a_sy);
            active = VecD::load(a_act);
            act_bits = VecD::signMask(active);
        }
    }
}

/**
 * The packet scan driver: bin @p n_rays rays (shared origin, one
 * angle each) by octant, then stream them through the packet tracer
 * in octant order. Results land in out[i] in original ray order.
 */
template <typename Counter>
void
castScanPacketImpl(const OccupancyGrid2D &grid, const Vec2 &origin,
                   const double *angles, int n_rays, double max_range,
                   double *out, Counter counter, PacketScratch &scratch)
{
    if (n_rays <= 0)
        return;
    const std::size_t n = static_cast<std::size_t>(n_rays);
    scratch.dir_x.resize(n);
    scratch.dir_y.resize(n);
    scratch.order.resize(n);
    int counts[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (std::size_t i = 0; i < n; ++i) {
        // The same cos/sin(angle) castRayImpl evaluates — computed
        // once here, reused for binning and tracing.
        scratch.dir_x[i] = std::cos(angles[i]);
        scratch.dir_y[i] = std::sin(angles[i]);
        ++counts[octantKey(scratch.dir_x[i], scratch.dir_y[i])];
    }
    int offsets[8];
    int running = 0;
    for (int k = 0; k < 8; ++k) {
        offsets[k] = running;
        running += counts[k];
    }
    for (std::size_t i = 0; i < n; ++i) {
        const int key = octantKey(scratch.dir_x[i], scratch.dir_y[i]);
        scratch.order[static_cast<std::size_t>(offsets[key]++)] =
            static_cast<int>(i);
    }
    castPacketStream(grid, origin, scratch, n, max_range, out, counter);
}

} // namespace

double
castRay(const OccupancyGrid2D &grid, const Vec2 &origin, double angle,
        double max_range)
{
    return castRayImpl<true>(grid, origin, angle, max_range, NullCounter{});
}

double
castRayScalar(const OccupancyGrid2D &grid, const Vec2 &origin, double angle,
              double max_range)
{
    return castRayImpl<false>(grid, origin, angle, max_range,
                              NullCounter{});
}

double
castRayCounted(const OccupancyGrid2D &grid, const Vec2 &origin, double angle,
               double max_range, RayCastStats &stats)
{
    return castRayImpl<true>(grid, origin, angle, max_range,
                             StatsCounter{&stats});
}

double
castRayScalarCounted(const OccupancyGrid2D &grid, const Vec2 &origin,
                     double angle, double max_range, RayCastStats &stats)
{
    return castRayImpl<false>(grid, origin, angle, max_range,
                              StatsCounter{&stats});
}

const char *
rayEngineName(RayEngine engine)
{
    switch (engine) {
    case RayEngine::Hierarchical:
        return "hier";
    case RayEngine::Scalar:
        return "scalar";
    case RayEngine::Packet:
        return "packet";
    }
    return "?";
}

bool
parseRayEngine(std::string_view name, RayEngine &out)
{
    if (name == "hier") {
        out = RayEngine::Hierarchical;
        return true;
    }
    if (name == "scalar") {
        out = RayEngine::Scalar;
        return true;
    }
    if (name == "packet") {
        out = RayEngine::Packet;
        return true;
    }
    return false;
}

RayEngine
defaultRayEngine()
{
    static const RayEngine engine = [] {
        // Scalar unless RTR_RAYCAST overrides: it is the fastest
        // engine on the measured benchmark maps (prefetcher-fed
        // probes, short pyramid strides — see EXPERIMENTS.md "Ray-cast
        // engine"), and all three return bitwise-identical ranges.
        const char *env = std::getenv("RTR_RAYCAST");
        if (env == nullptr || *env == '\0')
            return RayEngine::Scalar;
        RayEngine parsed;
        if (!parseRayEngine(env, parsed)) {
            // Exit 2 (not fatal()'s 1): a configuration error, not a
            // runtime failure — and a silently ignored typo would
            // quietly benchmark the wrong engine.
            std::cerr << "RTR_RAYCAST=" << env
                      << " is not a ray engine (expected scalar, the "
                         "default, or hier or packet)\n";
            std::exit(2);
        }
        return parsed;
    }();
    return engine;
}

void
castScan(const OccupancyGrid2D &grid, const Vec2 &origin, double start_angle,
         double fov, int n_rays, double max_range, std::vector<double> &out,
         RayEngine engine)
{
    out.clear();
    out.resize(static_cast<std::size_t>(n_rays > 0 ? n_rays : 0));
    const double step = n_rays > 1 ? fov / n_rays : 0.0;
    if (engine == RayEngine::Packet) {
        std::vector<double> angles(out.size());
        for (int i = 0; i < n_rays; ++i)
            angles[static_cast<std::size_t>(i)] = start_angle + i * step;
        PacketScratch scratch;
        castScanPacketImpl(grid, origin, angles.data(), n_rays, max_range,
                           out.data(), NullCounter{}, scratch);
    } else if (engine == RayEngine::Hierarchical) {
        for (int i = 0; i < n_rays; ++i)
            out[static_cast<std::size_t>(i)] = castRay(
                grid, origin, start_angle + i * step, max_range);
    } else {
        for (int i = 0; i < n_rays; ++i)
            out[static_cast<std::size_t>(i)] = castRayScalar(
                grid, origin, start_angle + i * step, max_range);
    }
}

void
castScanCounted(const OccupancyGrid2D &grid, const Vec2 &origin,
                double start_angle, double fov, int n_rays, double max_range,
                std::vector<double> &out, RayEngine engine,
                RayCastStats &stats)
{
    out.clear();
    out.resize(static_cast<std::size_t>(n_rays > 0 ? n_rays : 0));
    const double step = n_rays > 1 ? fov / n_rays : 0.0;
    if (engine == RayEngine::Packet) {
        std::vector<double> angles(out.size());
        for (int i = 0; i < n_rays; ++i)
            angles[static_cast<std::size_t>(i)] = start_angle + i * step;
        PacketScratch scratch;
        castScanPacketImpl(grid, origin, angles.data(), n_rays, max_range,
                           out.data(), StatsCounter{&stats}, scratch);
    } else if (engine == RayEngine::Hierarchical) {
        for (int i = 0; i < n_rays; ++i)
            out[static_cast<std::size_t>(i)] = castRayCounted(
                grid, origin, start_angle + i * step, max_range, stats);
    } else {
        for (int i = 0; i < n_rays; ++i)
            out[static_cast<std::size_t>(i)] = castRayScalarCounted(
                grid, origin, start_angle + i * step, max_range, stats);
    }
}

void
castScanBatch(const OccupancyGrid2D &grid, const std::vector<Pose2> &poses,
              double start_angle, double fov, int n_beams, double max_range,
              std::vector<double> &out, RayEngine engine)
{
    const std::size_t beams =
        static_cast<std::size_t>(n_beams > 0 ? n_beams : 0);
    const std::size_t n_poses = poses.size();
    out.resize(n_poses * beams);
    if (beams == 0)
        return;
    const double beam_step =
        n_beams > 1 ? fov / static_cast<double>(n_beams) : 0.0;
    if (engine == RayEngine::Packet) {
        parallelForChunks(0, n_poses, 0, [&](const ChunkRange &chunk) {
            // Per-chunk scratch: the angle buffer and octant ordering
            // are reused across the chunk's poses, never shared across
            // threads.
            PacketScratch scratch;
            std::vector<double> angles(beams);
            for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
                const Pose2 &pose = poses[i];
                for (std::size_t b = 0; b < beams; ++b)
                    angles[b] = pose.theta + start_angle +
                                static_cast<double>(b) * beam_step;
                castScanPacketImpl(grid, pose.position(), angles.data(),
                                   n_beams, max_range,
                                   out.data() + i * beams, NullCounter{},
                                   scratch);
            }
        });
        return;
    }
    parallelForChunks(0, n_poses, 0, [&](const ChunkRange &chunk) {
        for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
            const Pose2 &pose = poses[i];
            double *ranges = out.data() + i * beams;
            for (std::size_t b = 0; b < beams; ++b) {
                double ray_angle = pose.theta + start_angle +
                                   static_cast<double>(b) * beam_step;
                ranges[b] =
                    engine == RayEngine::Hierarchical
                        ? castRay(grid, pose.position(), ray_angle,
                                  max_range)
                        : castRayScalar(grid, pose.position(), ray_angle,
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
