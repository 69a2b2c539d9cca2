#include "search/grid_planner2d.h"

#include <cmath>
#include <limits>

#include "search/min_heap.h"
#include "util/logging.h"

namespace rtr {

namespace {

constexpr double kSqrt2 = 1.41421356237309515;

/** 8-connected move table: dx, dy, step length in cells. */
struct Move
{
    int dx;
    int dy;
    double len;
    double heading;
};

const Move kMoves[8] = {
    {1, 0, 1.0, 0.0},
    {-1, 0, 1.0, 3.14159265358979},
    {0, 1, 1.0, 1.5707963267949},
    {0, -1, 1.0, -1.5707963267949},
    {1, 1, kSqrt2, 0.785398163397448},
    {1, -1, kSqrt2, -0.785398163397448},
    {-1, 1, kSqrt2, 2.35619449019234},
    {-1, -1, kSqrt2, -2.35619449019234},
};

} // namespace

GridPlanner2D::GridPlanner2D(const OccupancyGrid2D &grid,
                             const RectFootprint *footprint,
                             SearchEngine engine,
                             const FootprintPlanes *planes)
    : grid_(grid), footprint_(footprint), engine_(engine), planes_(planes)
{
}

const std::array<double, FootprintPlanes::kHeadings> &
GridPlanner2D::moveHeadings()
{
    static const std::array<double, FootprintPlanes::kHeadings> headings =
        [] {
            std::array<double, FootprintPlanes::kHeadings> out{};
            for (int m = 0; m < FootprintPlanes::kHeadings; ++m)
                out[static_cast<std::size_t>(m)] = kMoves[m].heading;
            return out;
        }();
    return headings;
}

bool
GridPlanner2D::stateValid(const Cell2 &cell, int move) const
{
    if (!grid_.inBounds(cell.x, cell.y))
        return false;
    if (planes_)
        return !planes_->blocked(move, cell.x, cell.y);
    if (grid_.occupiedUnchecked(cell.x, cell.y))
        return false;
    if (!footprint_)
        return true;
    Vec2 center = grid_.cellCenter(cell);
    return !footprint_->collides(
        grid_, Pose2{center.x, center.y, kMoves[move].heading});
}

GridPlan2D
GridPlanner2D::plan(const Cell2 &start, const Cell2 &goal, double epsilon,
                    PhaseProfiler *profiler) const
{
    if (engine_ == SearchEngine::Flat)
        return planFlat<4>(start, goal, epsilon, profiler, ws_.open());
    return planHeap(start, goal, epsilon, profiler);
}

GridPlan2D
GridPlanner2D::planWithArity(const Cell2 &start, const Cell2 &goal,
                             double epsilon, int arity,
                             PhaseProfiler *profiler) const
{
    switch (arity) {
    case 2: {
        static thread_local DaryHeap<std::uint32_t, 2> open2;
        return planFlat<2>(start, goal, epsilon, profiler, open2);
    }
    case 4:
        return planFlat<4>(start, goal, epsilon, profiler, ws_.open());
    case 8: {
        static thread_local DaryHeap<std::uint32_t, 8> open8;
        return planFlat<8>(start, goal, epsilon, profiler, open8);
    }
    default:
        RTR_ASSERT(false, "open-list arity must be 2, 4 or 8");
        return GridPlan2D{};
    }
}

GridPlan2D
GridPlanner2D::planHeap(const Cell2 &start, const Cell2 &goal,
                        double epsilon, PhaseProfiler *profiler) const
{
    GridPlan2D result;
    const int w = grid_.width();
    const int h = grid_.height();
    const double res = grid_.resolution();
    auto index = [w](const Cell2 &c) {
        return static_cast<std::size_t>(c.y) * w + c.x;
    };

    {
        ScopedPhase phase(profiler, "collision");
        result.collision_checks += 2;
        if (!stateValid(start, 0) || !stateValid(goal, 0))
            return result;
    }

    const double inf = std::numeric_limits<double>::max();
    std::vector<double> g(static_cast<std::size_t>(w) * h, inf);
    std::vector<std::int32_t> parent(static_cast<std::size_t>(w) * h, -1);
    std::vector<std::uint8_t> closed(static_cast<std::size_t>(w) * h, 0);

    auto heuristic = [&](const Cell2 &c) {
        double dx = (c.x - goal.x) * res;
        double dy = (c.y - goal.y) * res;
        return std::sqrt(dx * dx + dy * dy);
    };

    MinHeap<std::uint32_t> open;
    open.reserve(1024);
    g[index(start)] = 0.0;
    open.push(epsilon * heuristic(start),
              static_cast<std::uint32_t>(index(start)));
    result.peak_open = open.size();

    while (!open.empty()) {
        auto [key, id] = open.pop();
        if (closed[id]) {
            ++result.search_stats.stale_pops;
            continue;
        }
        closed[id] = 1;
        ++result.expanded;
        Cell2 cell{static_cast<int>(id % w), static_cast<int>(id / w)};

        if (cell == goal) {
            result.found = true;
            result.cost = g[id];
            std::vector<Cell2> reversed;
            for (std::int32_t cur = static_cast<std::int32_t>(id); cur >= 0;
                 cur = parent[static_cast<std::size_t>(cur)]) {
                reversed.push_back(Cell2{cur % w, cur / w});
            }
            result.path.assign(reversed.rbegin(), reversed.rend());
            return result;
        }

        // Collision-validate all successors in one profiled batch: this
        // is where pp2d spends most of its time.
        bool valid[8];
        {
            ScopedPhase phase(profiler, "collision");
            for (int m = 0; m < 8; ++m) {
                Cell2 next{cell.x + kMoves[m].dx, cell.y + kMoves[m].dy};
                ++result.collision_checks;
                valid[m] = stateValid(next, m);
            }
        }

        double g_cur = g[id];
        for (int m = 0; m < 8; ++m) {
            if (!valid[m])
                continue;
            Cell2 next{cell.x + kMoves[m].dx, cell.y + kMoves[m].dy};
            std::size_t next_id = index(next);
            double candidate = g_cur + kMoves[m].len * res;
            if (closed[next_id]) {
                if (candidate < g[next_id])
                    ++result.search_stats.reopen_skips;
                continue;
            }
            if (candidate < g[next_id]) {
                g[next_id] = candidate;
                parent[next_id] = static_cast<std::int32_t>(id);
                open.push(candidate + epsilon * heuristic(next),
                          static_cast<std::uint32_t>(next_id));
            }
        }
        // The heap only grows inside the successor loop, so sampling
        // once per expansion captures the true peak.
        if (open.size() > result.peak_open)
            result.peak_open = open.size();
    }
    return result;
}

template <unsigned Arity>
GridPlan2D
GridPlanner2D::planFlat(const Cell2 &start, const Cell2 &goal,
                        double epsilon, PhaseProfiler *profiler,
                        DaryHeap<std::uint32_t, Arity> &open) const
{
    GridPlan2D result;
    const int w = grid_.width();
    const int h = grid_.height();
    const double res = grid_.resolution();
    auto index = [w](const Cell2 &c) {
        return static_cast<std::uint32_t>(
            static_cast<std::size_t>(c.y) * w + c.x);
    };

    {
        ScopedPhase phase(profiler, "collision");
        result.collision_checks += 2;
        if (!stateValid(start, 0) || !stateValid(goal, 0))
            return result;
    }

    // Epoch-stamped reset: O(1) on warm workspaces, no per-query
    // allocation (beginQuery clears ws_.open(); non-default-arity
    // lists are cleared explicitly).
    ws_.beginQuery(static_cast<std::size_t>(w) * h);
    open.clear();

    auto heuristic = [&](const Cell2 &c) {
        double dx = (c.x - goal.x) * res;
        double dy = (c.y - goal.y) * res;
        return std::sqrt(dx * dx + dy * dy);
    };

    const std::uint32_t start_id = index(start);
    ws_.relax(start_id, 0.0, SearchWorkspace::kNoParent);
    open.push(epsilon * heuristic(start), start_id);
    result.peak_open = open.size();

    while (!open.empty()) {
        std::uint32_t id = open.pop().id;
        if (ws_.closed(id)) {
            ++result.search_stats.stale_pops;
            continue;
        }
        ws_.close(id);
        ++result.expanded;
        Cell2 cell{static_cast<int>(id % w), static_cast<int>(id / w)};

        if (cell == goal) {
            result.found = true;
            result.cost = ws_.g(id);
            std::vector<std::uint32_t> &chain = ws_.chain();
            chain.clear();
            for (std::uint32_t cur = id; cur != SearchWorkspace::kNoParent;
                 cur = ws_.parent(cur)) {
                chain.push_back(cur);
            }
            result.path.reserve(chain.size());
            for (std::size_t i = chain.size(); i > 0; --i) {
                std::uint32_t cur = chain[i - 1];
                result.path.push_back(Cell2{static_cast<int>(cur % w),
                                            static_cast<int>(cur / w)});
            }
            return result;
        }

        bool valid[8];
        {
            ScopedPhase phase(profiler, "collision");
            for (int m = 0; m < 8; ++m) {
                Cell2 next{cell.x + kMoves[m].dx, cell.y + kMoves[m].dy};
                ++result.collision_checks;
                valid[m] = stateValid(next, m);
            }
        }

        double g_cur = ws_.g(id);
        for (int m = 0; m < 8; ++m) {
            if (!valid[m])
                continue;
            Cell2 next{cell.x + kMoves[m].dx, cell.y + kMoves[m].dy};
            std::uint32_t next_id = index(next);
            double candidate = g_cur + kMoves[m].len * res;
            if (ws_.discovered(next_id)) {
                if (ws_.closed(next_id)) {
                    if (candidate < ws_.g(next_id))
                        ++result.search_stats.reopen_skips;
                    continue;
                }
                if (candidate >= ws_.g(next_id))
                    continue;
            }
            ws_.relax(next_id, candidate, id);
            open.push(candidate + epsilon * heuristic(next), next_id);
        }
        if (open.size() > result.peak_open)
            result.peak_open = open.size();
    }
    return result;
}

template GridPlan2D GridPlanner2D::planFlat<2>(
    const Cell2 &, const Cell2 &, double, PhaseProfiler *,
    DaryHeap<std::uint32_t, 2> &) const;
template GridPlan2D GridPlanner2D::planFlat<4>(
    const Cell2 &, const Cell2 &, double, PhaseProfiler *,
    DaryHeap<std::uint32_t, 4> &) const;
template GridPlan2D GridPlanner2D::planFlat<8>(
    const Cell2 &, const Cell2 &, double, PhaseProfiler *,
    DaryHeap<std::uint32_t, 8> &) const;

} // namespace rtr
