#include "grid/footprint.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace rtr {

namespace {

/** Whether a + b is computed without rounding (Knuth's TwoSum). */
bool
sumExact(double a, double b)
{
    const double s = a + b;
    const double bb = s - a;
    return (a - (s - bb)) + (b - bb) == 0.0;
}

/**
 * Whether OccupancyGrid2D::cellCenter computes the center coordinate
 * origin + (i + 0.5) * resolution of every index i in [lo, hi) without
 * rounding. Then a difference of two centers is exactly
 * (i - j) * resolution, at any pair of cells.
 */
bool
centersExact(double origin, double resolution, int lo, int hi)
{
    for (int i = lo; i < hi; ++i) {
        const double offset = i + 0.5;
        const double scaled = offset * resolution;
        if (!std::isfinite(scaled) ||
            std::fma(offset, resolution, -scaled) != 0.0 ||
            !sumExact(origin, scaled))
            return false;
    }
    return true;
}

/** Mask cells x0 .. x0 + length - 1 of mask row y. */
struct MaskRun
{
    int x0;
    int y;
    int length;
};

/** 64 bits of row y starting at column x; bits past the row are 0. */
std::uint64_t
rowWindow(const BitPlane &plane, int x, int y)
{
    const std::size_t row =
        static_cast<std::size_t>(y) * plane.wordsPerRow();
    const int w = x >> 6;
    const int shift = x & 63;
    std::uint64_t bits = plane.word(row + static_cast<std::size_t>(w)) >>
                         shift;
    if (shift != 0 && w + 1 < plane.wordsPerRow())
        bits |= plane.word(row + static_cast<std::size_t>(w) + 1)
                << (64 - shift);
    return bits;
}

} // namespace

RectFootprint::RectFootprint(double length, double width)
    : length_(length), width_(width)
{
    RTR_ASSERT(length > 0.0 && width > 0.0,
               "footprint dimensions must be positive");
}

bool
RectFootprint::collides(const OccupancyGrid2D &grid, const Pose2 &pose) const
{
    const double res = grid.resolution();
    const double half_l = length_ * 0.5;
    const double half_w = width_ * 0.5;
    // Pad by half the cell diagonal: a cell whose center is just outside
    // the rectangle can still overlap it.
    const double pad = res * 0.5 * std::numbers::sqrt2_v<double>;

    const double cos_t = std::cos(pose.theta);
    const double sin_t = std::sin(pose.theta);

    // Axis-aligned bounding box of the oriented rectangle.
    const double ext_x = std::abs(cos_t) * half_l + std::abs(sin_t) * half_w;
    const double ext_y = std::abs(sin_t) * half_l + std::abs(cos_t) * half_w;

    Cell2 lo = grid.worldToCell({pose.x - ext_x - res, pose.y - ext_y - res});
    Cell2 hi = grid.worldToCell({pose.x + ext_x + res, pose.y + ext_y + res});

    // Project a cell center into the footprint frame and test overlap
    // with the padded rectangle.
    auto inside = [&](int cx, int cy) {
        Vec2 center = grid.cellCenter({cx, cy});
        double dx = center.x - pose.x;
        double dy = center.y - pose.y;
        double local_l = dx * cos_t + dy * sin_t;
        double local_w = -dx * sin_t + dy * cos_t;
        return std::abs(local_l) <= half_l + pad &&
               std::abs(local_w) <= half_w + pad;
    };

    std::size_t checked = 0;
    if (lo.x >= 0 && lo.y >= 0 && hi.x < grid.width() &&
        hi.y < grid.height()) {
        // Pyramid fast accept: when every level-1 block covering the
        // bounding box is certified empty, no cell under the footprint
        // can be occupied — the verdict is false without a single
        // row scan. Valid only in the fully-in-bounds case (outside
        // cells count as occupied but are not in any block).
        if (grid.pyramidLevels() >= 1) {
            const BitPlane &l1 = grid.pyramidLevel(1);
            bool any = false;
            for (int by = lo.y >> 3; by <= (hi.y >> 3) && !any; ++by)
                any = l1.anyInRowSpan(by, lo.x >> 3, hi.x >> 3);
            if (!any) {
                last_cells_checked_ = 0;
                return false;
            }
        }
        // Fully in bounds (the common planner case): scan each row's
        // span on the bitboard and project only the occupied cells —
        // free rows cost a couple of masked word tests and no
        // floating-point work at all. Occupied cells are visited in
        // the same row-major order the dense sweep used, so the
        // collision verdict (and first-hit cell) is identical.
        const BitPlane &bits = grid.bits();
        for (int cy = lo.y; cy <= hi.y; ++cy) {
            int cx = lo.x;
            while ((cx = bits.firstSetInRowSpan(cy, cx, hi.x)) >= 0) {
                ++checked;
                if (inside(cx, cy)) {
                    last_cells_checked_ = checked;
                    return true;
                }
                if (++cx > hi.x)
                    break;
            }
        }
        last_cells_checked_ = checked;
        return false;
    }

    // Bounding box reaches outside the grid: keep the dense sweep, in
    // which out-of-bounds cells count as occupied.
    for (int cy = lo.y; cy <= hi.y; ++cy) {
        for (int cx = lo.x; cx <= hi.x; ++cx) {
            if (!inside(cx, cy))
                continue;
            ++checked;
            if (grid.occupied(cx, cy)) {
                last_cells_checked_ = checked;
                return true;
            }
        }
    }
    last_cells_checked_ = checked;
    return false;
}

std::optional<FootprintPlanes>
FootprintPlanes::build(const OccupancyGrid2D &grid,
                       const RectFootprint &footprint,
                       std::span<const double, kHeadings> headings)
{
    // The constants and the membership test below repeat collides()
    // expression for expression, so a mask cell passes here iff the
    // same cell passes there.
    const double res = grid.resolution();
    const double half_l = footprint.length() * 0.5;
    const double half_w = footprint.width() * 0.5;
    const double pad = res * 0.5 * std::numbers::sqrt2_v<double>;

    // Per heading, the offsets d whose centers fall in the padded
    // rectangle. collides() sweeps a bounding box one cell wider than
    // the rectangle's; the padded rectangle reaches at most pad * sqrt2
    // = res past it, so a box of ceil((ext + res) / res) + 1 cells
    // holds every mask cell. The center offset (0, 0) always passes.
    // Each mask is stored as its runs of consecutive cells in a row.
    std::array<std::vector<MaskRun>, kHeadings> masks;
    int reach = 0;
    int longest = 1;
    for (int h = 0; h < kHeadings; ++h) {
        const double cos_t = std::cos(headings[static_cast<std::size_t>(h)]);
        const double sin_t = std::sin(headings[static_cast<std::size_t>(h)]);
        const double ext_x =
            std::abs(cos_t) * half_l + std::abs(sin_t) * half_w;
        const double ext_y =
            std::abs(sin_t) * half_l + std::abs(cos_t) * half_w;
        const int rx = static_cast<int>(std::ceil((ext_x + res) / res)) + 1;
        const int ry = static_cast<int>(std::ceil((ext_y + res) / res)) + 1;
        reach = std::max({reach, rx, ry});
        for (int oy = -ry; oy <= ry; ++oy) {
            for (int ox = -rx; ox <= rx; ++ox) {
                double dx = ox * res;
                double dy = oy * res;
                double local_l = dx * cos_t + dy * sin_t;
                double local_w = -dx * sin_t + dy * cos_t;
                if (!(std::abs(local_l) <= half_l + pad &&
                      std::abs(local_w) <= half_w + pad))
                    continue;
                std::vector<MaskRun> &runs =
                    masks[static_cast<std::size_t>(h)];
                if (!runs.empty() && runs.back().y == oy &&
                    runs.back().x0 + runs.back().length == ox)
                    longest = std::max(longest, ++runs.back().length);
                else
                    runs.push_back({ox, oy, 1});
            }
        }
    }

    const int width = grid.width();
    const int height = grid.height();
    if (!centersExact(grid.origin().x, res, -reach, width + reach) ||
        !centersExact(grid.origin().y, res, -reach, height + reach))
        return std::nullopt;

    // The occupancy, shifted by (reach, reach) into a border of
    // occupied cells: out-of-grid cells count as occupied.
    const int padded_w = width + 2 * reach;
    BitPlane padded(padded_w, height + 2 * reach);
    for (int y = 0; y < padded.height(); ++y)
        padded.setRowSpan(y, 0, padded_w - 1, true);
    const BitPlane &occupancy = grid.bits();
    const int shift = reach & 63;
    for (int y = 0; y < height; ++y) {
        padded.setRowSpan(y + reach, reach, reach + width - 1, false);
        for (int w = 0; w < occupancy.wordsPerRow(); ++w) {
            const std::uint64_t word =
                occupancy.word(occupancy.wordIndex(w << 6, y));
            const std::size_t at = padded.wordIndex(reach + (w << 6),
                                                    y + reach);
            padded.updateWord(at, word << shift, 0);
            if (shift != 0 && (word >> (64 - shift)) != 0)
                padded.updateWord(at + 1, word >> (64 - shift), 0);
        }
    }

    // spans[k] bit x: any padded bit in columns [x, x + k] of its row,
    // so one window of spans[length - 1] covers a whole mask run.
    std::vector<BitPlane> spans;
    spans.push_back(std::move(padded));
    for (int k = 1; k < longest; ++k) {
        BitPlane next = spans.back();
        for (int y = 0; y < next.height(); ++y) {
            for (int w = 0; w < next.wordsPerRow(); ++w)
                next.updateWord(next.wordIndex(w << 6, y),
                                rowWindow(spans.front(), (w << 6) + k, y),
                                0);
        }
        spans.push_back(std::move(next));
    }

    // Dilation: each plane word is the OR, over the heading's mask
    // runs, of the run-long spans shifted under the run, 64 cells at a
    // time. Bits past the grid's last column read the occupied border,
    // so they are cleared.
    const int words = (width + 63) >> 6;
    const std::uint64_t last_valid =
        (width & 63) != 0 ? (std::uint64_t{1} << (width & 63)) - 1
                          : ~std::uint64_t{0};
    FootprintPlanes planes;
    for (int h = 0; h < kHeadings; ++h) {
        const std::vector<MaskRun> &runs = masks[static_cast<std::size_t>(h)];
        BitPlane &plane = planes.planes_[static_cast<std::size_t>(h)];
        plane.reset(width, height);
        for (int y = 0; y < height; ++y) {
            for (int w = 0; w < words; ++w) {
                std::uint64_t bits = 0;
                for (const MaskRun &run : runs)
                    bits |= rowWindow(
                        spans[static_cast<std::size_t>(run.length - 1)],
                        (w << 6) + reach + run.x0, y + reach + run.y);
                if (w == words - 1)
                    bits &= last_valid;
                plane.updateWord(plane.wordIndex(w << 6, y), bits, 0);
            }
        }
    }
    return planes;
}

bool
pointCollides(const OccupancyGrid2D &grid, const Vec2 &p)
{
    return grid.occupiedWorld(p);
}

} // namespace rtr
