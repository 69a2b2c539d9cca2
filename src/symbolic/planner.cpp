#include "symbolic/planner.h"

#include <limits>

#include "search/min_heap.h"
#include "util/logging.h"

namespace rtr {

namespace {

constexpr double kInf = std::numeric_limits<double>::max() / 4.0;

} // namespace

SymbolicPlanner::SymbolicPlanner(const SymbolicProblem &problem,
                                 const SymbolicPlannerConfig &config)
    : problem_(problem), config_(config), actions_(groundActions(problem))
{
    auto id_of = [&](const Atom &atom) {
        auto [it, inserted] = atom_ids_.try_emplace(
            atom, static_cast<std::uint32_t>(atom_ids_.size()));
        if (inserted)
            needed_by_.emplace_back();
        return it->second;
    };

    pre_count_.reserve(actions_.size());
    add_ids_.reserve(actions_.size());
    for (std::size_t a = 0; a < actions_.size(); ++a) {
        const GroundAction &action = actions_[a];
        for (const Atom &pre : action.pre_pos)
            needed_by_[id_of(pre)].push_back(static_cast<std::uint32_t>(a));
        pre_count_.push_back(
            static_cast<std::uint32_t>(action.pre_pos.size()));
        if (action.pre_pos.empty())
            free_actions_.push_back(static_cast<std::uint32_t>(a));
        std::vector<std::uint32_t> adds;
        adds.reserve(action.eff_add.size());
        for (const Atom &eff : action.eff_add)
            adds.push_back(id_of(eff));
        add_ids_.push_back(std::move(adds));
    }
    for (const Atom &goal_atom : problem_.goal)
        goal_ids_.push_back(id_of(goal_atom));
}

double
SymbolicPlanner::heuristicValue(const SymbolicState &state,
                                HAddScratch &scratch) const
{
    if (config_.heuristic == SymbolicPlannerConfig::Heuristic::GoalCount)
        return static_cast<double>(state.countMissing(problem_.goal));

    // hAdd: atoms in the state cost 0; an action whose positive
    // preconditions are all reached makes its add effects reachable at
    // (sum of precondition costs) + 1. Atoms settle in cost order, so
    // each action fires once, when its last precondition settles.
    std::vector<double> &cost = scratch.atom_cost;
    std::vector<std::uint32_t> &unsatisfied = scratch.unsatisfied;
    std::vector<double> &pre_sum = scratch.pre_sum;
    auto &buckets = scratch.buckets;
    cost.assign(atom_ids_.size(), kInf);
    unsatisfied.assign(pre_count_.begin(), pre_count_.end());
    pre_sum.assign(actions_.size(), 0.0);
    for (auto &bucket : buckets)
        bucket.clear();

    auto reach = [&](std::uint32_t atom, double c) {
        if (c >= cost[atom])
            return;
        cost[atom] = c;
        auto slot = static_cast<std::size_t>(c);
        if (slot >= buckets.size())
            buckets.resize(slot + 1);
        buckets[slot].push_back(atom);
    };
    auto fire = [&](std::uint32_t a) {
        for (std::uint32_t eff : add_ids_[a])
            reach(eff, pre_sum[a] + 1.0);
    };

    for (const Atom &atom : state.atoms()) {
        auto it = atom_ids_.find(atom);
        if (it != atom_ids_.end())
            reach(it->second, 0.0);
    }
    for (std::uint32_t a : free_actions_)
        fire(a);

    for (std::size_t c = 0; c < buckets.size(); ++c) {
        // Index, not iterator: firing may grow `buckets`.
        for (std::size_t i = 0; i < buckets[c].size(); ++i) {
            std::uint32_t atom = buckets[c][i];
            if (cost[atom] != static_cast<double>(c))
                continue;  // settled earlier at a lower cost
            for (std::uint32_t a : needed_by_[atom]) {
                pre_sum[a] += cost[atom];
                if (--unsatisfied[a] == 0)
                    fire(a);
            }
        }
    }

    double h = 0.0;
    for (std::uint32_t g : goal_ids_) {
        if (cost[g] == kInf)
            return kInf;
        h += cost[g];
    }
    return h;
}

SymbolicPlanResult
SymbolicPlanner::plan(PhaseProfiler *profiler) const
{
    SymbolicPlanResult result;
    result.ground_action_count = actions_.size();

    constexpr std::uint32_t kNone = 0xFFFFFFFF;
    struct NodeInfo
    {
        double g = 0.0;
        std::uint32_t parent = 0xFFFFFFFF;
        std::uint32_t via_action = 0xFFFFFFFF;
        bool closed = false;
    };

    std::vector<SymbolicState> states;
    std::unordered_map<SymbolicState, std::uint32_t, SymbolicStateHash> ids;
    std::vector<NodeInfo> info;
    auto intern = [&](const SymbolicState &s) {
        auto [it, inserted] =
            ids.emplace(s, static_cast<std::uint32_t>(states.size()));
        if (inserted) {
            states.push_back(s);
            info.push_back(NodeInfo{});
        }
        return it->second;
    };

    HAddScratch scratch;
    MinHeap<std::uint32_t> open;
    std::uint32_t start_id = intern(problem_.initial);
    {
        ScopedPhase phase(profiler, "heuristic");
        open.push(config_.epsilon *
                      heuristicValue(problem_.initial, scratch),
                  start_id);
    }

    std::size_t applicable_total = 0;
    auto finish = [&]() {
        if (result.expanded)
            result.avg_applicable_actions =
                static_cast<double>(applicable_total) /
                static_cast<double>(result.expanded);
        return result;
    };

    while (!open.empty()) {
        auto [key, id] = open.pop();
        if (info[id].closed)
            continue;
        if (result.expanded == config_.max_expansions)
            return finish();
        info[id].closed = true;
        ++result.expanded;

        // Copy: interning successors may grow `states`.
        const SymbolicState state = states[id];
        const double g_cur = info[id].g;

        if (state.containsAll(problem_.goal)) {
            result.found = true;
            result.cost = g_cur;
            std::vector<std::string> reversed;
            for (std::uint32_t cur = id; info[cur].parent != kNone;
                 cur = info[cur].parent) {
                reversed.push_back(actions_[info[cur].via_action].name);
            }
            result.plan.assign(reversed.rbegin(), reversed.rend());
            return finish();
        }

        // Successor generation: applicability tests + effect
        // application, all string manipulation over the node.
        ScopedPhase expand_phase(profiler, "expand");
        for (std::size_t a = 0; a < actions_.size(); ++a) {
            if (!actions_[a].applicable(state))
                continue;
            ++applicable_total;
            SymbolicState next = actions_[a].apply(state);
            ++result.generated;
            std::uint32_t next_id = intern(next);
            NodeInfo &ni = info[next_id];
            double candidate = g_cur + 1.0;
            bool fresh =
                ni.parent == kNone && next_id != start_id;
            if (fresh || (!ni.closed && candidate < ni.g)) {
                ni.g = candidate;
                ni.parent = id;
                ni.via_action = static_cast<std::uint32_t>(a);
                double h;
                {
                    ScopedPhase h_phase(profiler, "heuristic");
                    h = heuristicValue(next, scratch);
                }
                open.push(candidate + config_.epsilon * h, next_id);
            }
        }
    }
    return finish();
}

} // namespace rtr
