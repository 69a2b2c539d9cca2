#include "arm/workspace.h"

#include <algorithm>
#include <cmath>

#include "geom/segment.h"
#include "util/logging.h"
#include "util/rng.h"

namespace rtr {

Workspace
makeMapF()
{
    // 50 cm x 50 cm (paper Fig. 9), origin at the bottom-left; the arm
    // base sits at the bottom-center.
    Workspace ws;
    ws.bounds = Aabb2{{0.0, 0.0}, {0.5, 0.5}};
    return ws;
}

Workspace
makeMapC()
{
    Workspace ws;
    ws.bounds = Aabb2{{0.0, 0.0}, {0.5, 0.5}};
    // Clutter arranged around the arm's base at (0.25, 0), leaving
    // passages between the obstacles (mirroring Fig. 9's Map-C sketch).
    ws.obstacles = {
        Aabb2{{0.05, 0.30}, {0.15, 0.40}},
        Aabb2{{0.35, 0.30}, {0.45, 0.40}},
        Aabb2{{0.20, 0.42}, {0.30, 0.48}},
        Aabb2{{0.02, 0.10}, {0.08, 0.20}},
        Aabb2{{0.42, 0.10}, {0.48, 0.20}},
    };
    return ws;
}

Workspace
makeRandomWorkspace(int n_obstacles, std::uint64_t seed)
{
    Workspace ws;
    ws.bounds = Aabb2{{0.0, 0.0}, {0.5, 0.5}};
    Rng rng(seed);
    for (int i = 0; i < n_obstacles; ++i) {
        double w = rng.uniform(0.03, 0.1);
        double h = rng.uniform(0.03, 0.1);
        double x = rng.uniform(0.0, 0.5 - w);
        // Keep a clear band near the base so the arm is not born in
        // collision.
        double y = rng.uniform(0.12, 0.5 - h);
        ws.obstacles.push_back(Aabb2{{x, y}, {x + w, y + h}});
    }
    return ws;
}

namespace {

/**
 * Whether a box is finite with lo <= hi on both axes: the precondition
 * of segmentIntersectsAabb's exact fast path.
 */
bool
wellFormed(const Aabb2 &box)
{
    return std::isfinite(box.lo.x) && std::isfinite(box.lo.y) &&
           std::isfinite(box.hi.x) && std::isfinite(box.hi.y) &&
           box.lo.x <= box.hi.x && box.lo.y <= box.hi.y;
}

} // namespace

ArmCollisionChecker::ArmCollisionChecker(const PlanarArm &arm,
                                         const Workspace &workspace)
    : arm_(arm), workspace_(workspace)
{
    if (!wellFormed(workspace.bounds))
        fatal("workspace bounds must be finite with lo <= hi");
    for (std::size_t i = 0; i < workspace.obstacles.size(); ++i) {
        if (!wellFormed(workspace.obstacles[i]))
            fatal("workspace obstacle ", i,
                  " must be finite with lo <= hi");
    }
}

bool
ArmCollisionChecker::configCollides(const ArmConfig &q) const
{
    ++checks_;
    arm_.forwardKinematics(q, joints_);

    // Bounds: every joint position must stay inside the workspace.
    for (const Vec2 &joint : joints_) {
        if (!workspace_.bounds.contains(joint))
            return true;
    }
    // Obstacles: every link segment vs every obstacle rectangle.
    for (std::size_t i = 0; i + 1 < joints_.size(); ++i) {
        Segment2 link{joints_[i], joints_[i + 1]};
        for (const Aabb2 &obstacle : workspace_.obstacles) {
            if (segmentIntersectsAabb(link, obstacle))
                return true;
        }
    }
    return false;
}

bool
ArmCollisionChecker::motionCollides(const ArmConfig &from,
                                    const ArmConfig &to,
                                    double step_size) const
{
    RTR_ASSERT(from.size() == to.size(), "config size mismatch");
    RTR_ASSERT(step_size > 0.0, "step size must be positive");

    double max_delta = 0.0;
    for (std::size_t i = 0; i < from.size(); ++i)
        max_delta = std::max(max_delta, std::abs(to[i] - from[i]));
    int steps = std::max(1, static_cast<int>(std::ceil(max_delta /
                                                       step_size)));

    ArmConfig &q = motion_q_;
    q.resize(from.size());
    for (int s = 0; s <= steps; ++s) {
        double t = static_cast<double>(s) / steps;
        for (std::size_t i = 0; i < from.size(); ++i)
            q[i] = from[i] + (to[i] - from[i]) * t;
        if (configCollides(q))
            return true;
    }
    return false;
}

} // namespace rtr
