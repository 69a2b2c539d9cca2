#include "plan/rrt_star.h"

#include <algorithm>
#include <limits>

#include "pointcloud/nn_index.h"

namespace rtr {

RrtStarPlanner::RrtStarPlanner(const ConfigSpace &space,
                               const ArmCollisionChecker &checker,
                               const RrtStarConfig &config)
    : space_(space), checker_(checker), config_(config)
{
}

RrtStarPlan
RrtStarPlanner::plan(const ArmConfig &start, const ArmConfig &goal,
                     Rng &rng, PhaseProfiler *profiler) const
{
    RrtStarPlan result;
    std::size_t checks_before = checker_.checksPerformed();

    {
        ScopedPhase phase(profiler, "collision");
        if (checker_.configCollides(start) || checker_.configCollides(goal)) {
            result.collision_checks =
                checker_.checksPerformed() - checks_before;
            return result;
        }
    }

    std::vector<ArmConfig> nodes{start};
    std::vector<std::uint32_t> parents{0};
    std::vector<double> cost_to_come{0.0};
    // Children of each node, so a rewire can carry its cost drop down
    // the moved subtree.
    std::vector<std::vector<std::uint32_t>> children{{}};
    std::vector<std::uint32_t> subtree;
    DynNnIndex tree(space_.dof(), config_.nn_engine);
    tree.insert(start, 0);

    // Neighborhood hits, reused every iteration (the per-iteration
    // radiusSearch allocation used to dominate small-tree iterations).
    std::vector<KdHit> neighbors;

    // Best goal connection found so far: node id + cost through it.
    std::int64_t best_goal_parent = -1;
    double best_goal_cost = std::numeric_limits<double>::max();
    // Samples spent when the first solution appeared (for the
    // refine_factor termination rule).
    double first_solution_samples = 0.0;

    while (result.samples_drawn < config_.max_samples) {
        if (best_goal_parent >= 0 &&
            static_cast<double>(result.samples_drawn) >=
                first_solution_samples * (1.0 + config_.refine_factor))
            break;
        ++result.samples_drawn;

        ArmConfig sample;
        {
            ScopedPhase phase(profiler, "sample");
            sample = rng.chance(config_.goal_bias) ? goal
                                                   : space_.sample(rng);
            if (config_.informed_sampling && best_goal_parent >= 0) {
                // Reject samples that provably cannot shorten the
                // current best path (outside the informed spheroid).
                int guard = 0;
                while (ConfigSpace::distance(start, sample) +
                               ConfigSpace::distance(sample, goal) >
                           best_goal_cost &&
                       guard++ < 64) {
                    sample = space_.sample(rng);
                }
            }
        }

        std::uint32_t near_id;
        {
            ScopedPhase phase(profiler, "nn-search");
            ++result.nn_queries;
            near_id = tree.nearest(sample).id;
        }

        ArmConfig new_config;
        bool blocked;
        {
            ScopedPhase phase(profiler, "collision");
            new_config = ConfigSpace::steer(nodes[near_id], sample,
                                            config_.step_size);
            blocked = checker_.motionCollides(nodes[near_id], new_config,
                                              config_.collision_step);
        }
        if (blocked)
            continue;

        // Neighborhood query for choose-parent and rewiring. Hits
        // arrive sorted by (dist2, id) — the engines' contract — so
        // the choose-parent/rewire scan order is engine-independent.
        {
            ScopedPhase phase(profiler, "nn-search");
            ++result.nn_queries;
            tree.radiusSearchInto(new_config, config_.rewire_radius,
                                  neighbors);
        }

        // Choose-parent: connect through the neighbor minimizing
        // cost-to-come, among collision-free connections.
        std::uint32_t parent = near_id;
        double new_cost =
            cost_to_come[near_id] +
            ConfigSpace::distance(nodes[near_id], new_config);
        {
            ScopedPhase phase(profiler, "collision");
            for (const KdHit &hit : neighbors) {
                double through =
                    cost_to_come[hit.id] +
                    ConfigSpace::distance(nodes[hit.id], new_config);
                if (through < new_cost &&
                    !checker_.motionCollides(nodes[hit.id], new_config,
                                             config_.collision_step)) {
                    parent = hit.id;
                    new_cost = through;
                }
            }
        }

        std::uint32_t new_id;
        {
            ScopedPhase phase(profiler, "extend");
            new_id = static_cast<std::uint32_t>(nodes.size());
            nodes.push_back(new_config);
            parents.push_back(parent);
            cost_to_come.push_back(new_cost);
            children.emplace_back();
            children[parent].push_back(new_id);
            tree.insert(new_config, new_id);
        }

        // Rewire: reconnect neighbors through the new node when that
        // shortens their cost-to-come (paper Fig. 11). The neighbor's
        // whole subtree gets cheaper by the same route, so every
        // descendant's cost is recomputed as parent cost + edge length;
        // later choose-parent, rewire and goal comparisons read the
        // costs a fresh pass from the root would give.
        {
            ScopedPhase phase(profiler, "rewire");
            const std::size_t rewires_before = result.rewires;
            for (const KdHit &hit : neighbors) {
                double through =
                    new_cost +
                    ConfigSpace::distance(new_config, nodes[hit.id]);
                if (through + 1e-12 < cost_to_come[hit.id] &&
                    !checker_.motionCollides(new_config, nodes[hit.id],
                                             config_.collision_step)) {
                    auto &siblings = children[parents[hit.id]];
                    siblings.erase(std::find(siblings.begin(),
                                             siblings.end(), hit.id));
                    children[new_id].push_back(hit.id);
                    parents[hit.id] = new_id;
                    cost_to_come[hit.id] = through;
                    ++result.rewires;
                    subtree.assign(children[hit.id].begin(),
                                   children[hit.id].end());
                    while (!subtree.empty()) {
                        const std::uint32_t node = subtree.back();
                        subtree.pop_back();
                        const std::uint32_t up = parents[node];
                        cost_to_come[node] =
                            cost_to_come[up] +
                            ConfigSpace::distance(nodes[up], nodes[node]);
                        subtree.insert(subtree.end(),
                                       children[node].begin(),
                                       children[node].end());
                    }
                }
            }
            // A rewired ancestor also lowers the best goal connection.
            if (result.rewires != rewires_before && best_goal_parent >= 0)
                best_goal_cost =
                    cost_to_come[best_goal_parent] +
                    ConfigSpace::distance(nodes[best_goal_parent], goal);
        }

        // Track the best connection to the goal.
        double goal_dist = ConfigSpace::distance(new_config, goal);
        if (goal_dist <= config_.goal_tolerance) {
            double through = new_cost + goal_dist;
            if (through < best_goal_cost) {
                bool goal_blocked;
                {
                    ScopedPhase phase(profiler, "collision");
                    goal_blocked = checker_.motionCollides(
                        new_config, goal, config_.collision_step);
                }
                if (!goal_blocked) {
                    if (best_goal_parent < 0)
                        first_solution_samples = static_cast<double>(
                            result.samples_drawn);
                    best_goal_parent = new_id;
                    best_goal_cost = through;
                }
            }
        }
    }

    result.tree_size = nodes.size();
    result.collision_checks = checker_.checksPerformed() - checks_before;
    if (best_goal_parent >= 0) {
        std::vector<ArmConfig> reversed{goal};
        std::uint32_t cur = static_cast<std::uint32_t>(best_goal_parent);
        while (true) {
            reversed.push_back(nodes[cur]);
            if (cur == 0)
                break;
            cur = parents[cur];
        }
        result.path.assign(reversed.rbegin(), reversed.rend());
        result.cost = pathCost(result.path);
        result.found = true;
    }
    result.tree_nodes = std::move(nodes);
    result.tree_parents = std::move(parents);
    result.tree_costs = std::move(cost_to_come);
    return result;
}

} // namespace rtr
