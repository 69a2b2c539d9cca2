/**
 * @file
 * RRT* planner (kernel 09.rrtstar).
 *
 * RRT plus choose-parent and rewiring within a neighborhood radius
 * (paper Fig. 11), giving asymptotically optimal paths at the price of
 * many more nearest-neighbor and collision operations.
 */

#ifndef RTR_PLAN_RRT_STAR_H
#define RTR_PLAN_RRT_STAR_H

#include "arm/workspace.h"
#include "plan/plan_types.h"
#include "pointcloud/nn_engine.h"
#include "util/profiler.h"
#include "util/rng.h"

namespace rtr {

/** RRT* tuning knobs. */
struct RrtStarConfig
{
    /** Maximum joint-space extension per iteration (radians, L2). */
    double step_size = 0.25;
    /** Probability of sampling the goal instead of uniformly. */
    double goal_bias = 0.05;
    /** Joint-space distance at which the goal counts as reached. */
    double goal_tolerance = 0.05;
    /** Sample budget; RRT* uses the whole budget to keep improving. */
    std::size_t max_samples = 200000;
    /** Interpolation resolution of motion collision checks (radians). */
    double collision_step = 0.05;
    /** Neighborhood radius for choose-parent / rewiring (radians, L2). */
    double rewire_radius = 0.5;
    /**
     * Refinement after the first solution: keep sampling until
     * (1 + refine_factor) x the samples the first solution needed
     * (capped by max_samples), letting rewiring shorten the path.
     * 0 stops at the first solution (RRT's termination rule); a very
     * large value spends the whole max_samples budget.
     */
    double refine_factor = 3.0;
    /**
     * Informed sampling (Gammell et al., cited by the paper as [34]):
     * once a solution exists, only samples inside the prolate
     * hyperspheroid {q : d(start,q) + d(q,goal) <= best_cost} can
     * improve it, so others are rejected before any collision work.
     */
    bool informed_sampling = false;
    /** Which NN engine backs nearest/rewire-radius queries (--nn). */
    NnEngine nn_engine = defaultNnEngine();
};

/** Extra statistics RRT* reports beyond the common MotionPlan. */
struct RrtStarPlan : MotionPlan
{
    /** Rewirings actually applied. */
    std::size_t rewires = 0;
    /** The final tree's configurations; node 0 is the start. */
    std::vector<ArmConfig> tree_nodes;
    /** Parent of each tree node (node 0 is its own parent). */
    std::vector<std::uint32_t> tree_parents;
    /**
     * Cost-to-come of each tree node: its parent's cost plus the edge
     * length, exactly as a forward pass from the root computes it.
     */
    std::vector<double> tree_costs;
};

/** RRT* planner over a configuration space with a collision checker. */
class RrtStarPlanner
{
  public:
    /** Referents must outlive the planner. */
    RrtStarPlanner(const ConfigSpace &space,
                   const ArmCollisionChecker &checker,
                   const RrtStarConfig &config = {});

    /**
     * Plan from start to goal, consuming the full sample budget and
     * returning the best path found.
     *
     * @param profiler Optional; accumulates "sample", "nn-search",
     *        "collision", "extend", and "rewire" phases.
     */
    RrtStarPlan plan(const ArmConfig &start, const ArmConfig &goal,
                     Rng &rng, PhaseProfiler *profiler = nullptr) const;

  private:
    const ConfigSpace &space_;
    const ArmCollisionChecker &checker_;
    RrtStarConfig config_;
};

} // namespace rtr

#endif // RTR_PLAN_RRT_STAR_H
