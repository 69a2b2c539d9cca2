/**
 * @file
 * Forward state-space symbolic planner (kernels 11-12).
 *
 * Weighted A* over the ground STRIPS state space with either a
 * goal-count or an additive delete-relaxation (hAdd) heuristic. Per the
 * paper, the dominant operations are the graph search itself and the
 * string manipulation inside nodes (applicability tests, effect
 * application, state hashing): states stay sorted sets of atom strings.
 *
 * hAdd runs over a relaxed problem compiled once, at grounding: every
 * precondition, add-effect and goal atom gets a dense id, and each
 * evaluation is a generalized Dijkstra (Bonet & Geffner 2001) over
 * those ids with a bucket queue keyed by integer cost. Every hAdd cost
 * is an integer-valued double, so the result is bitwise the value of
 * the textbook string-keyed fixpoint.
 */

#ifndef RTR_SYMBOLIC_PLANNER_H
#define RTR_SYMBOLIC_PLANNER_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "symbolic/domain.h"
#include "util/profiler.h"

namespace rtr {

/** Planner configuration. */
struct SymbolicPlannerConfig
{
    /** Heuristic choice. */
    enum class Heuristic
    {
        /** Number of unsatisfied goal atoms. */
        GoalCount,
        /** Additive delete-relaxation estimate (informative, default). */
        HAdd,
    };

    Heuristic heuristic = Heuristic::HAdd;
    /** Heuristic inflation (WA*). */
    double epsilon = 1.5;
    /** Expansion cap before giving up. */
    std::size_t max_expansions = 500000;
};

/** Result of a symbolic plan. */
struct SymbolicPlanResult
{
    /** Whether a plan was found. */
    bool found = false;
    /** Ground action names from initial state to goal. */
    std::vector<std::string> plan;
    /** Plan length (every action costs 1). */
    double cost = 0.0;
    /** States expanded. */
    std::size_t expanded = 0;
    /** Successor states generated. */
    std::size_t generated = 0;
    /** Ground actions in the instantiated problem. */
    std::size_t ground_action_count = 0;
    /**
     * Mean number of applicable actions per expanded state — the
     * graph's branching factor, i.e. the per-node parallelism the paper
     * compares between sym-fext and sym-blkw (~3.2x).
     */
    double avg_applicable_actions = 0.0;
};

/** Forward-search planner bound to one problem instance. */
class SymbolicPlanner
{
  public:
    /** Grounds the problem's schemas immediately. */
    explicit SymbolicPlanner(const SymbolicProblem &problem,
                             const SymbolicPlannerConfig &config = {});

    /**
     * Search for a plan.
     *
     * @param profiler Optional; accumulates "heuristic" (hAdd /
     *        goal-count evaluations) and "expand" (applicability tests
     *        and effect application — the string-manipulation phase).
     */
    SymbolicPlanResult plan(PhaseProfiler *profiler = nullptr) const;

    /** The instantiated ground actions. */
    const std::vector<GroundAction> &actions() const { return actions_; }

    /**
     * Per-search working memory of hAdd, sized on first use and reused
     * across evaluations. One per thread of evaluation.
     */
    struct HAddScratch
    {
        /** Per atom id: cost so far (a huge sentinel until reached). */
        std::vector<double> atom_cost;
        /** Per action: preconditions not yet reached. */
        std::vector<std::uint32_t> unsatisfied;
        /** Per action: sum of its reached preconditions' costs. */
        std::vector<double> pre_sum;
        /** Bucket queue: buckets[c] holds atom ids reached at cost c. */
        std::vector<std::vector<std::uint32_t>> buckets;
    };

    /**
     * Heuristic estimate of @p state under the configured heuristic;
     * hAdd works in @p scratch.
     */
    double heuristicValue(const SymbolicState &state,
                          HAddScratch &scratch) const;

  private:
    const SymbolicProblem &problem_;
    SymbolicPlannerConfig config_;
    std::vector<GroundAction> actions_;

    // The delete relaxation, compiled to atom ids. An action listed
    // twice in needed_by_ has that precondition twice, and hAdd counts
    // it twice, as the textbook fixpoint does.
    std::unordered_map<Atom, std::uint32_t> atom_ids_;
    /** Per action: its number of positive preconditions. */
    std::vector<std::uint32_t> pre_count_;
    /** Per action: ids of its add effects. */
    std::vector<std::vector<std::uint32_t>> add_ids_;
    /** Per atom id: the actions with it as a positive precondition. */
    std::vector<std::vector<std::uint32_t>> needed_by_;
    /** Actions with no positive precondition. */
    std::vector<std::uint32_t> free_actions_;
    /** Goal atom ids, in goal order. */
    std::vector<std::uint32_t> goal_ids_;
};

} // namespace rtr

#endif // RTR_SYMBOLIC_PLANNER_H
