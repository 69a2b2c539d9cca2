#include "plan/prm.h"

#include <algorithm>

#include "pointcloud/nn_index.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace rtr {

PrmPlanner::PrmPlanner(const ConfigSpace &space,
                       const ArmCollisionChecker &checker,
                       const PrmConfig &config)
    : space_(space), checker_(checker), config_(config)
{
}

PrmBuildStats
PrmPlanner::build(Rng &rng, PhaseProfiler *profiler)
{
    PrmBuildStats stats;
    std::size_t checks_before = checker_.checksPerformed();

    configs_.clear();
    graph_ = ExplicitGraph();

    {
        ScopedPhase phase(profiler, "sampling");
        while (configs_.size() < config_.n_samples) {
            ++stats.samples_drawn;
            ArmConfig q = space_.sample(rng);
            if (!checker_.configCollides(q)) {
                configs_.push_back(std::move(q));
                graph_.addNode();
            }
            // Pathological workspaces could reject forever; cap the
            // rejection rate at 1000x the target size.
            if (stats.samples_drawn > config_.n_samples * 1000)
                fatal("PRM sampling cannot find free configurations");
        }
    }

    {
        ScopedPhase phase(profiler, "offline-connect");
        // k-nearest connection via a kd-tree over all roadmap configs
        // (bulk-built: every config is known up front).
        DynNnIndex tree(space_.dof(), config_.nn_engine);
        tree.build(configs_);

        // Each node's neighbor query + edge collision checks are
        // independent of every other node's, so chunks of nodes run
        // concurrently. The shared checker's FK scratch is not
        // thread-safe, so each chunk validates edges with its own
        // clone; candidate edges land in per-node lists and are
        // committed to the graph serially in node order, making the
        // roadmap identical at any thread count.
        const std::size_t n_nodes = configs_.size();
        const std::size_t grain = resolveGrain(0, n_nodes, 0);
        std::vector<std::vector<std::pair<std::uint32_t, double>>> edges(
            n_nodes);
        std::vector<std::size_t> chunk_checks(
            chunkCount(0, n_nodes, grain), 0);
        parallelForChunks(0, n_nodes, grain, [&](const ChunkRange &chunk) {
            ArmCollisionChecker local_checker(checker_.arm(),
                                              checker_.workspace());
            std::vector<KdHit> near; // reused across the chunk
            for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
                // Hits arrive sorted by (dist2, id) — the engines'
                // contract — so candidates are tried closest-first.
                tree.radiusSearchInto(configs_[i],
                                      config_.max_edge_length, near);
                std::size_t connected = 0;
                for (const KdHit &hit : near) {
                    if (hit.id <= i)  // undirected: connect upward only
                        continue;
                    if (connected >= config_.k_neighbors)
                        break;
                    if (!local_checker.motionCollides(
                            configs_[i], configs_[hit.id],
                            config_.collision_step)) {
                        edges[i].emplace_back(hit.id,
                                              std::sqrt(hit.dist2));
                        ++connected;
                    }
                }
            }
            chunk_checks[chunk.index] = local_checker.checksPerformed();
        });
        for (std::size_t i = 0; i < n_nodes; ++i) {
            for (const auto &[node, dist] : edges[i])
                graph_.addEdge(static_cast<std::uint32_t>(i), node, dist);
        }
        std::size_t total_checks = 0;
        for (std::size_t checks : chunk_checks)
            total_checks += checks;
        checker_.recordExternalChecks(total_checks);
    }

    stats.nodes = configs_.size();
    stats.edges = graph_.edgeCount();
    stats.collision_checks = checker_.checksPerformed() - checks_before;
    ++build_version_; // existing workspaces re-sync on next query
    return stats;
}

MotionPlan
PrmPlanner::query(const ArmConfig &start, const ArmConfig &goal,
                  PhaseProfiler *profiler) const
{
    return query(start, goal, checker_, profiler, &last_heuristic_evals_,
                 &query_ws_);
}

MotionPlan
PrmPlanner::query(const ArmConfig &start, const ArmConfig &goal,
                  const ArmCollisionChecker &checker,
                  PhaseProfiler *profiler,
                  std::size_t *heuristic_evals) const
{
    return query(start, goal, checker, profiler, heuristic_evals,
                 nullptr);
}

MotionPlan
PrmPlanner::query(const ArmConfig &start, const ArmConfig &goal,
                  const ArmCollisionChecker &checker,
                  PhaseProfiler *profiler, std::size_t *heuristic_evals,
                  PrmQueryWorkspace *ws) const
{
    MotionPlan result;
    RTR_ASSERT(!configs_.empty(), "query before build()");
    std::size_t checks_before = checker.checksPerformed();

    // Attach into the workspace's persistent roadmap copy (re-synced
    // only after a rebuild) instead of copying graph + configs per
    // query; detach restores it below.
    PrmQueryWorkspace local_ws;
    PrmQueryWorkspace &w = ws != nullptr ? *ws : local_ws;
    if (w.build_version != build_version_) {
        w.graph = graph_;
        w.build_version = build_version_;
    }
    const std::size_t n = configs_.size();
    w.added_edges.clear();

    std::uint32_t start_id, goal_id;
    {
        ScopedPhase phase(profiler, "online-connect");
        if (checker.configCollides(start) ||
            checker.configCollides(goal)) {
            result.collision_checks =
                checker.checksPerformed() - checks_before;
            return result;
        }

        auto attach = [&](const ArmConfig &q) {
            std::uint32_t id = w.graph.addNode();
            // Candidate connections: roadmap nodes within twice the
            // edge length, nearest first by (d2, id). Only those are
            // sorted: sqrt is monotone, so they are exactly the prefix
            // of the full (d2, id) order that lies within the radius.
            const double radius = config_.max_edge_length * 2.0;
            w.order.clear();
            w.order.reserve(n);
            for (std::size_t i = 0; i < n; ++i) {
                const double d2 =
                    ConfigSpace::squaredDistance(q, configs_[i]);
                if (!(std::sqrt(d2) > radius))
                    w.order.emplace_back(d2,
                                         static_cast<std::uint32_t>(i));
            }
            std::sort(w.order.begin(), w.order.end());
            std::size_t connected = 0;
            for (const auto &[d2, node] : w.order) {
                if (connected >= config_.k_neighbors)
                    break;
                double dist = std::sqrt(d2);
                if (!checker.motionCollides(q, configs_[node],
                                            config_.collision_step)) {
                    w.graph.addEdge(id, node, dist);
                    w.added_edges.emplace_back(id, node);
                    ++connected;
                }
            }
            return id;
        };
        start_id = attach(start);
        goal_id = attach(goal);
    }

    // Online graph search with the L2-to-goal heuristic; these distance
    // evaluations are prm's "frequent L2-norm calculations". Temporary
    // ids (>= n) resolve to the query endpoints directly — no configs
    // copy needed.
    GraphSearchResult search = graphAStar(
        w.graph, start_id, goal_id,
        [&](std::uint32_t node) {
            const ArmConfig &c = node < n
                                     ? configs_[node]
                                     : (node == start_id ? start : goal);
            return ConfigSpace::distance(c, goal);
        },
        profiler, config_.search_engine, &w.search);
    if (heuristic_evals)
        *heuristic_evals = search.heuristic_evals;

    result.collision_checks = checker.checksPerformed() - checks_before;
    result.tree_size = w.graph.size();

    if (search.found) {
        for (std::uint32_t node : search.path) {
            result.path.push_back(node < n ? configs_[node]
                                  : node == start_id ? start
                                                     : goal);
        }
        result.cost = search.cost;
        result.found = true;
    }

    // Detach: undo edges in reverse add order, then the two nodes.
    for (std::size_t i = w.added_edges.size(); i > 0; --i) {
        const auto &[a, b] = w.added_edges[i - 1];
        w.graph.popEdge(a, b);
    }
    w.graph.popNode(); // goal
    w.graph.popNode(); // start
    return result;
}

} // namespace rtr
