/**
 * @file
 * Arm workspaces and the link-vs-obstacle collision checker.
 *
 * Provides the paper's two synthetic evaluation environments (Fig. 9):
 * Map-F, a free 50 cm x 50 cm workspace, and Map-C, a cluttered one.
 */

#ifndef RTR_ARM_WORKSPACE_H
#define RTR_ARM_WORKSPACE_H

#include <cstdint>
#include <vector>

#include "arm/planar_arm.h"
#include "geom/aabb.h"
#include "util/profiler.h"

namespace rtr {

/** A bounded planar workspace with rectangular obstacles. */
struct Workspace
{
    /** Workspace bounds; the arm must stay inside. */
    Aabb2 bounds;
    /** Obstacle rectangles. */
    std::vector<Aabb2> obstacles;
};

/** The paper's free map (Fig. 9, Map-F): 50 cm square, no obstacles. */
Workspace makeMapF();

/** The paper's cluttered map (Fig. 9, Map-C): 50 cm square, obstacles. */
Workspace makeMapC();

/** Randomized workspace for property tests. */
Workspace makeRandomWorkspace(int n_obstacles, std::uint64_t seed);

/**
 * Collision checker for an arm in a workspace.
 *
 * This is the paper's collision-detection bottleneck for the sampling-
 * based planners (up to 62% of RRT's execution time): every candidate
 * configuration is validated by forward kinematics plus link-segment vs
 * obstacle tests.
 */
class ArmCollisionChecker
{
  public:
    /**
     * Both referents must outlive the checker. fatal() unless the
     * bounds and every obstacle are finite with lo <= hi.
     */
    ArmCollisionChecker(const PlanarArm &arm, const Workspace &workspace);

    /** Whether a configuration collides (obstacles or out of bounds). */
    bool configCollides(const ArmConfig &q) const;

    /**
     * Whether the straight joint-space motion between two configs
     * collides, tested by interpolation at @p step_size resolution
     * (radians of maximum joint motion per step).
     */
    bool motionCollides(const ArmConfig &from, const ArmConfig &to,
                        double step_size = 0.05) const;

    /** Total configuration checks since construction. */
    std::size_t checksPerformed() const { return checks_; }

    /** Reset the check counter. */
    void resetCounter() { checks_ = 0; }

    /**
     * Fold checks performed by per-thread clones of this checker back
     * into the counter. The checker itself is not thread-safe (mutable
     * FK scratch); parallel loops give every chunk its own
     * ArmCollisionChecker over the same arm/workspace and report the
     * clone counts here after joining.
     */
    void recordExternalChecks(std::size_t n) const { checks_ += n; }

    const PlanarArm &arm() const { return arm_; }
    const Workspace &workspace() const { return workspace_; }

  private:
    const PlanarArm &arm_;
    const Workspace &workspace_;
    mutable std::vector<Vec2> joints_;  // FK scratch, avoids reallocation
    mutable ArmConfig motion_q_;        // motionCollides() interpolant
    mutable std::size_t checks_ = 0;
};

} // namespace rtr

#endif // RTR_ARM_WORKSPACE_H
