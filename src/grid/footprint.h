/**
 * @file
 * Robot-footprint collision detection on occupancy grids.
 *
 * The paper's pp2d kernel spends >65% of its time here: "checking
 * whether the robot would collide with obstacles in the environment if
 * it were in a particular state". The check is a streaming sweep over
 * the grid cells covered by the oriented rectangular body — the
 * fine-grained, spatially-local pattern the paper calls out.
 */

#ifndef RTR_GRID_FOOTPRINT_H
#define RTR_GRID_FOOTPRINT_H

#include <array>
#include <optional>
#include <span>

#include "geom/pose.h"
#include "grid/bitboard.h"
#include "grid/occupancy_grid2d.h"

namespace rtr {

/**
 * Oriented rectangular robot footprint (e.g. the paper's 4.8 x 1.8 m
 * car), centered on the robot pose, length along the heading.
 */
class RectFootprint
{
  public:
    /** @param length Extent along the heading. @param width Across it. */
    RectFootprint(double length, double width);

    double length() const { return length_; }
    double width() const { return width_; }

    /**
     * Whether the footprint at @p pose overlaps any occupied cell.
     *
     * Sweeps the cells inside the footprint's axis-aligned bounding box
     * and tests each cell center against the oriented rectangle
     * (conservatively padded by half a cell diagonal so grazing contact
     * is detected). When the bounding box lies fully inside the grid,
     * the sweep runs as masked word scans over the occupancy bitboard,
     * projecting only occupied cells into the footprint frame; the
     * verdict is identical to the dense sweep.
     */
    bool collides(const OccupancyGrid2D &grid, const Pose2 &pose) const;

    /**
     * Number of cell probes the last collides() call performed: cells
     * projected into the footprint frame (dense sweep) or occupied
     * candidate cells surfaced by the bitboard scan (fast path) — 0
     * when word scans proved the whole bounding box free.
     */
    std::size_t lastCellsChecked() const { return last_cells_checked_; }

  private:
    double length_;
    double width_;
    mutable std::size_t last_cells_checked_ = 0;
};

/**
 * Configuration-space obstacle of a RectFootprint on a fixed grid, for
 * 8 fixed headings.
 *
 * A planner that places the footprint at cell centers only, with one
 * of 8 headings, asks a question that depends on (cell, heading)
 * alone. Bit (x, y) of plane h is set iff the footprint at cell (x, y)
 * with heading h collides or its center cell is occupied: the
 * occupancy dilated by heading h's footprint cell mask (Lozano-Pérez's
 * C-space obstacle). The planes are built once by word-level dilation
 * and then answer each state check with one bit read.
 */
class FootprintPlanes
{
  public:
    static constexpr int kHeadings = 8;

    /**
     * Build the planes of @p footprint on @p grid for @p headings
     * (radians), or return nothing when they might disagree with
     * RectFootprint::collides().
     *
     * Each mask is the set of cell offsets d whose center, at d *
     * resolution from the footprint center, passes collides()'s padded
     * rectangle test, so the mask is exact when every cell-center
     * coordinate the test can subtract is itself exact: then the
     * difference of two centers is exactly d * resolution at every
     * cell. An O(width + height) check proves that (it holds for
     * dyadic resolutions and origins, e.g. 0.25 m at origin (0, 0));
     * when it fails the build declines and callers keep collides().
     * Cells outside the grid count as occupied, as in collides().
     */
    static std::optional<FootprintPlanes>
    build(const OccupancyGrid2D &grid, const RectFootprint &footprint,
          std::span<const double, kHeadings> headings);

    /**
     * Whether the footprint at in-bounds cell (x, y) with heading
     * index @p heading collides (center cell included). The caller
     * checks bounds.
     */
    bool
    blocked(int heading, int x, int y) const
    {
        return planes_[static_cast<std::size_t>(heading)].test(x, y);
    }

    /** The plane of one heading index. */
    const BitPlane &
    plane(int heading) const
    {
        return planes_[static_cast<std::size_t>(heading)];
    }

  private:
    FootprintPlanes() = default;

    std::array<BitPlane, kHeadings> planes_;
};

/** Point-robot collision: is the world point in an occupied cell? */
bool pointCollides(const OccupancyGrid2D &grid, const Vec2 &p);

} // namespace rtr

#endif // RTR_GRID_FOOTPRINT_H
