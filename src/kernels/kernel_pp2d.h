/**
 * @file
 * Kernel 04.pp2d — 2-D path planning with footprint collision
 * detection (paper §V.04).
 */

#ifndef RTR_KERNELS_KERNEL_PP2D_H
#define RTR_KERNELS_KERNEL_PP2D_H

#include "grid/occupancy_grid2d.h"
#include "kernels/kernel.h"
#include "search/grid_planner2d.h"

namespace rtr {

/**
 * The kernel's start/goal search: the footprint-valid cell nearest the
 * fraction (fx, fy) of the map, scanning outward ring by ring.
 */
Cell2 pp2dValidCellNear(const GridPlanner2D &planner,
                        const OccupancyGrid2D &grid, double fx, double fy);

/**
 * A 4.8 m x 1.8 m car plans a long route across a 1024x1024 city map
 * (the Boston_1_1024 stand-in; pass --map to plan on a real Moving AI
 * file instead) with A* and oriented-footprint collision checks.
 *
 * Key metrics: collision_fraction (paper: > 0.65), expansions,
 * collision checks, path length.
 */
class Pp2dKernel : public Kernel
{
  public:
    std::string name() const override { return "pp2d"; }
    Stage stage() const override { return Stage::Planning; }
    std::string
    description() const override
    {
        return "A* car path planning on a city occupancy grid";
    }
    void addOptions(ArgParser &parser) const override;
    KernelReport run(const ArgParser &args) const override;
};

} // namespace rtr

#endif // RTR_KERNELS_KERNEL_PP2D_H
