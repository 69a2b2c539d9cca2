#include "search/path_smoothing.h"

#include <algorithm>
#include <cmath>

namespace rtr {

bool
hasLineOfSight(const OccupancyGrid2D &grid, const Cell2 &a, const Cell2 &b)
{
    Vec2 from = grid.cellCenter(a);
    Vec2 to = grid.cellCenter(b);
    double dist = from.distanceTo(to);
    if (dist < 1e-12)
        return !grid.occupied(a.x, a.y);
    int steps =
        std::max(1, static_cast<int>(std::ceil(dist /
                                               (grid.resolution() *
                                                0.25))));
    // Sample points inside a pyramid-certified empty block need no
    // occupancy probe; the region is clamped to the grid so
    // out-of-bounds samples (which count as blocked) always get
    // probed. Identical verdict to probing every sample. The two
    // summary planes are hoisted so each non-skipped sample touches
    // cached fields instead of re-walking the pyramid vector; levels
    // past 2 are ignored — a 512-cell-wide certified block exceeds any
    // smoothing segment worth skipping.
    const BitPlane *l1 = nullptr;
    const BitPlane *l2 = nullptr;
    if (grid.pyramidLevels() >= 1)
        l1 = &grid.pyramidLevel(1);
    if (grid.pyramidLevels() >= 2)
        l2 = &grid.pyramidLevel(2);
    int skip_x0 = 0, skip_x1 = -1;
    int skip_y0 = 0, skip_y1 = -1;
    for (int s = 0; s <= steps; ++s) {
        double t = static_cast<double>(s) / steps;
        Vec2 p = from + (to - from) * t;
        Cell2 c = grid.worldToCell(p);
        if (c.x >= skip_x0 && c.x <= skip_x1 && c.y >= skip_y0 &&
            c.y <= skip_y1)
            continue;
        if (!grid.inBounds(c.x, c.y))
            return false;
        int shift = 0;
        if (l1 && !l1->test(c.x >> 3, c.y >> 3))
            shift = (l2 && !l2->test(c.x >> 6, c.y >> 6)) ? 6 : 3;
        if (shift > 0) {
            skip_x0 = (c.x >> shift) << shift;
            skip_y0 = (c.y >> shift) << shift;
            skip_x1 = std::min(skip_x0 + (1 << shift) - 1,
                               grid.width() - 1);
            skip_y1 = std::min(skip_y0 + (1 << shift) - 1,
                               grid.height() - 1);
            continue;
        }
        if (grid.occupiedUnchecked(c.x, c.y))
            return false;
    }
    return true;
}

std::vector<Cell2>
smoothGridPath(const OccupancyGrid2D &grid, const std::vector<Cell2> &path)
{
    if (path.size() < 3)
        return path;
    std::vector<Cell2> out;
    out.push_back(path.front());
    std::size_t i = 0;
    while (i + 1 < path.size()) {
        // Farthest visible successor of i.
        std::size_t jump = i + 1;
        for (std::size_t j = path.size() - 1; j > i + 1; --j) {
            if (hasLineOfSight(grid, path[i], path[j])) {
                jump = j;
                break;
            }
        }
        out.push_back(path[jump]);
        i = jump;
    }
    return out;
}

double
gridPathLength(const OccupancyGrid2D &grid, const std::vector<Cell2> &path)
{
    double length = 0.0;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        length += grid.cellCenter(path[i])
                      .distanceTo(grid.cellCenter(path[i + 1]));
    }
    return length;
}

} // namespace rtr
