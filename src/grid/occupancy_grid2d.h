/**
 * @file
 * 2-D occupancy grid.
 *
 * The shared world representation of the perception and planning kernels:
 * pfl ray-casts against it, pp2d/movtar plan over it, and the synthetic
 * map generators in map_gen.h produce instances of it.
 *
 * Occupancy is mirrored into a bit-packed BitPlane (the read path of
 * every hot query — 8x smaller working set than the byte array) and
 * summarized by a multi-level pyramid in which each level-k bit ORs an
 * 8x8 block of level k-1. The pyramid lets queries (footprint
 * collision, line-of-sight sampling) prove entire macro-blocks empty
 * with one bit probe instead of up to 64^k cell probes. All mirrors
 * are kept in sync by setOccupied, so they are never stale.
 */

#ifndef RTR_GRID_OCCUPANCY_GRID2D_H
#define RTR_GRID_OCCUPANCY_GRID2D_H

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/vec2.h"
#include "grid/bitboard.h"

namespace rtr {

/** Integer cell coordinate in a 2-D grid. */
struct Cell2
{
    int x = 0;
    int y = 0;

    constexpr bool operator==(const Cell2 &o) const = default;
};

/** One cell write in an OccupancyGrid2D::applyEdits batch. */
struct CellEdit
{
    int x = 0;
    int y = 0;
    bool occupied = true;
};

/**
 * A dense 2-D occupancy grid with a metric resolution and world origin.
 *
 * Cell (0,0) covers the world square [origin, origin + resolution)^2;
 * cell centers are at origin + (i + 0.5) * resolution.
 */
class OccupancyGrid2D
{
  public:
    /** Empty grid of the given dimensions; all cells free. */
    OccupancyGrid2D(int width, int height, double resolution = 1.0,
                    Vec2 origin = {0.0, 0.0});

    int width() const { return width_; }
    int height() const { return height_; }
    double resolution() const { return resolution_; }
    Vec2 origin() const { return origin_; }

    /** Whether a cell coordinate lies inside the grid. */
    bool
    inBounds(int x, int y) const
    {
        return x >= 0 && x < width_ && y >= 0 && y < height_;
    }

    /** Whether a cell is occupied; out-of-bounds counts as occupied. */
    bool
    occupied(int x, int y) const
    {
        if (!inBounds(x, y))
            return true;
        return bits_.test(x, y);
    }

    /** Unchecked occupancy test for hot loops; caller guarantees bounds. */
    bool
    occupiedUnchecked(int x, int y) const
    {
        return bits_.test(x, y);
    }

    /**
     * Occupancy probe through the byte array instead of the bitboard;
     * out-of-bounds counts as occupied. This is the pre-bitboard read
     * path, kept (always in sync) so the ray-caster reproduces the
     * exact memory behaviour the paper profiled: one byte load per
     * traversed cell over the full-size array.
     */
    bool
    occupiedByte(int x, int y) const
    {
        if (!inBounds(x, y))
            return true;
        return cells_[static_cast<std::size_t>(y) * width_ + x] != 0;
    }

    /** Mark a cell occupied/free; out-of-bounds writes are ignored. */
    void setOccupied(int x, int y, bool value = true);

    /**
     * Apply a batch of cell edits in one pass. The result is exactly
     * that of calling setOccupied(e.x, e.y, e.occupied) for each edit
     * in order (out-of-bounds edits ignored, later edits to a cell
     * win), but the cost scales with distinct touched words, not
     * edits: the batch folds into per-word set/clear masks applied
     * with one read-modify-write per bitboard word, and pyramid repair
     * rebuilds only the blocks whose bits actually changed — one write
     * per dirtied summary word per level. This is the intended path
     * for dynamic-obstacle updates (movtar-style), where per-cell
     * clears would otherwise each pay a block rescan per level.
     */
    void applyEdits(std::span<const CellEdit> edits);

    /**
     * Set or clear the in-bounds part of the cell rectangle
     * [x0, x1] x [y0, y1] (inclusive). Equivalent to setOccupied over
     * every covered cell, but writes each bitboard word once per row
     * span and repairs each covered pyramid block once.
     */
    void setRect(int x0, int y0, int x1, int y1, bool value = true);

    /**
     * Whether the world point falls in an occupied (or outside) cell.
     * Inline (like occupied/worldToCell) so per-cell tests in hot loops
     * never cross a translation-unit boundary.
     */
    bool
    occupiedWorld(const Vec2 &p) const
    {
        Cell2 c = worldToCell(p);
        return occupied(c.x, c.y);
    }

    /** World point to containing cell (may be out of bounds). */
    Cell2
    worldToCell(const Vec2 &p) const
    {
        return Cell2{
            static_cast<int>(std::floor((p.x - origin_.x) / resolution_)),
            static_cast<int>(std::floor((p.y - origin_.y) / resolution_))};
    }

    /** Center of a cell in world coordinates. */
    Vec2 cellCenter(const Cell2 &c) const;

    /** World-space extent of the grid. */
    double worldWidth() const { return width_ * resolution_; }
    double worldHeight() const { return height_ * resolution_; }

    /** Number of free cells. */
    std::size_t freeCellCount() const;

    /** Fraction of cells that are occupied. */
    double occupancyRatio() const;

    /** Raw cell storage (row-major, y * width + x), 0 free / 1 occupied. */
    const std::vector<std::uint8_t> &cells() const { return cells_; }

    /** log2 of the pyramid branching factor: level-k blocks are 8^k cells. */
    static constexpr int kBlockShift = 3;

    /** Bit-packed occupancy mirror (the hot-query read path). */
    const BitPlane &bits() const { return bits_; }

    /** Number of summary levels above the cell-resolution bitboard. */
    int pyramidLevels() const { return static_cast<int>(pyramid_.size()); }

    /**
     * Summary plane of level @p level in [1, pyramidLevels()]: bit
     * (X, Y) is set iff any cell in the 8^level-cell-wide block
     * [X << 3*level, ...] x [Y << 3*level, ...] is occupied.
     */
    const BitPlane &
    pyramidLevel(int level) const
    {
        return pyramid_[static_cast<std::size_t>(level - 1)];
    }

    /**
     * Largest level whose aligned block containing the (in-bounds) cell
     * is entirely free, or 0 when even the level-1 block holds an
     * occupied cell. A nonzero result proves every in-bounds cell of
     * that block free, which is what lets traversals stride across it
     * without per-cell probes.
     */
    int
    emptyBlockLevel(int x, int y) const
    {
        int level = 0;
        for (const BitPlane &plane : pyramid_) {
            x >>= kBlockShift;
            y >>= kBlockShift;
            if (plane.test(x, y))
                break;
            ++level;
        }
        return level;
    }

  private:
    /**
     * Recompute the pyramid bits of the level-1 blocks named in
     * @p dirty (packed (by << 32) | bx keys, duplicates allowed) and
     * propagate upward, level by level, visiting only blocks whose bit
     * changed. Each summary word is written at most once per level.
     */
    void repairPyramid(std::vector<std::uint64_t> &dirty);

    int width_;
    int height_;
    double resolution_;
    Vec2 origin_;
    std::vector<std::uint8_t> cells_;
    BitPlane bits_;
    std::vector<BitPlane> pyramid_;
};

} // namespace rtr

#endif // RTR_GRID_OCCUPANCY_GRID2D_H
