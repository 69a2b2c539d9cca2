/**
 * @file
 * Tests for the symbolic planning stack: states, grounding, the
 * planner, and the two domains. Found plans are validated by simulating
 * them action by action. The planner's compiled hAdd is checked bitwise
 * against the textbook string-keyed fixpoint, kept here as the oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "symbolic/blocks_world.h"
#include "symbolic/domain.h"
#include "symbolic/firefight.h"
#include "symbolic/planner.h"
#include "symbolic/state.h"

namespace rtr {
namespace {

/** Execute a plan and verify every precondition along the way. */
void
validatePlan(const SymbolicProblem &problem,
             const std::vector<std::string> &plan)
{
    std::vector<GroundAction> actions = groundActions(problem);
    SymbolicState state = problem.initial;
    for (const std::string &step : plan) {
        auto it = std::find_if(actions.begin(), actions.end(),
                               [&](const GroundAction &a) {
                                   return a.name == step;
                               });
        ASSERT_NE(it, actions.end()) << "unknown action " << step;
        ASSERT_TRUE(it->applicable(state))
            << step << " not applicable in " << state.toString();
        state = it->apply(state);
    }
    EXPECT_TRUE(state.containsAll(problem.goal))
        << "plan does not reach the goal; final state "
        << state.toString();
}

/**
 * Reference hAdd: the delete-relaxation fixpoint over string-keyed atom
 * costs, sweeping every action until nothing changes.
 */
double
referenceHAdd(const std::vector<GroundAction> &actions,
              const std::vector<Atom> &goal, const SymbolicState &state)
{
    // hAdd: delete-relaxation fixpoint. Atom costs start at 0 for atoms
    // in the state; each action whose positive preconditions are all
    // reached makes its add effects reachable at (sum of precondition
    // costs) + 1.
    constexpr double kInf = std::numeric_limits<double>::max() / 4.0;
    std::unordered_map<Atom, double> cost;
    cost.reserve(state.atoms().size() * 2);
    for (const Atom &atom : state.atoms())
        cost[atom] = 0.0;

    bool changed = true;
    while (changed) {
        changed = false;
        for (const GroundAction &action : actions) {
            double pre_sum = 0.0;
            bool reachable = true;
            for (const Atom &pre : action.pre_pos) {
                auto it = cost.find(pre);
                if (it == cost.end()) {
                    reachable = false;
                    break;
                }
                pre_sum += it->second;
            }
            if (!reachable)
                continue;
            double action_cost = pre_sum + 1.0;
            for (const Atom &eff : action.eff_add) {
                auto [it, inserted] = cost.emplace(eff, action_cost);
                if (!inserted && action_cost < it->second) {
                    it->second = action_cost;
                    changed = true;
                } else if (inserted) {
                    changed = true;
                }
            }
        }
    }

    double h = 0.0;
    for (const Atom &goal_atom : goal) {
        auto it = cost.find(goal_atom);
        if (it == cost.end())
            return kInf;
        h += it->second;
    }
    return h;
}

/** Bitwise equality of two doubles. */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Breadth-first reachable states, stopping once @p cap are found. */
std::vector<SymbolicState>
reachableStates(const SymbolicProblem &problem,
                const std::vector<GroundAction> &actions, std::size_t cap)
{
    std::vector<SymbolicState> order{problem.initial};
    std::unordered_set<SymbolicState, SymbolicStateHash> seen{
        problem.initial};
    for (std::size_t i = 0; i < order.size() && order.size() < cap; ++i) {
        const SymbolicState state = order[i];  // push_back may move it
        for (const GroundAction &action : actions) {
            if (!action.applicable(state))
                continue;
            SymbolicState next = action.apply(state);
            if (seen.insert(next).second)
                order.push_back(std::move(next));
        }
    }
    return order;
}

/**
 * Expect the planner's hAdd to equal the oracle bitwise on @p states,
 * checking every k-th state so that at most @p max_checked are (the
 * oracle is slow under sanitizers).
 */
void
expectHAddMatchesReference(const SymbolicProblem &problem,
                           const std::vector<SymbolicState> &states,
                           std::size_t max_checked)
{
    SymbolicPlanner planner(problem);
    SymbolicPlanner::HAddScratch scratch;
    std::size_t stride = (states.size() + max_checked - 1) / max_checked;
    for (std::size_t i = 0; i < states.size(); i += stride) {
        const SymbolicState &state = states[i];
        double expected =
            referenceHAdd(planner.actions(), problem.goal, state);
        double actual = planner.heuristicValue(state, scratch);
        ASSERT_TRUE(sameBits(actual, expected))
            << problem.name << ": " << std::hexfloat << actual << " vs "
            << expected << " in " << state.toString();
    }
}

/** FNV-1a over the plan's action names, one per line. */
std::uint64_t
planDigest(const std::vector<std::string> &plan)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (const std::string &name : plan) {
        for (char c : name) {
            h ^= static_cast<unsigned char>(c);
            h *= 1099511628211ULL;
        }
        h ^= '\n';
        h *= 1099511628211ULL;
    }
    return h;
}

TEST(Atom, Formatting)
{
    EXPECT_EQ(makeAtom("On", {"A", "B"}), "On(A,B)");
    EXPECT_EQ(makeAtom("Clear", {"A"}), "Clear(A)");
    EXPECT_EQ(makeAtom("Done", {}), "Done()");
}

TEST(SymbolicState, SetSemantics)
{
    SymbolicState state({"b", "a", "b", "c"});
    EXPECT_EQ(state.atoms().size(), 3u);  // deduplicated
    EXPECT_TRUE(state.contains("a"));
    EXPECT_FALSE(state.contains("d"));
    EXPECT_TRUE(state.containsAll({"a", "c"}));
    EXPECT_FALSE(state.containsAll({"a", "d"}));
    EXPECT_TRUE(state.containsNone({"x", "y"}));
    EXPECT_FALSE(state.containsNone({"x", "b"}));
    EXPECT_EQ(state.countMissing({"a", "d", "e"}), 2u);
}

TEST(SymbolicState, ApplyAddsAndDeletes)
{
    SymbolicState state({"p", "q"});
    SymbolicState next = state.apply({"r"}, {"p"});
    EXPECT_TRUE(next.contains("r"));
    EXPECT_TRUE(next.contains("q"));
    EXPECT_FALSE(next.contains("p"));
    // Original is immutable.
    EXPECT_TRUE(state.contains("p"));
}

TEST(SymbolicState, EqualityAndHash)
{
    SymbolicState a({"x", "y"});
    SymbolicState b({"y", "x"});
    SymbolicState c({"x"});
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.hash(), b.hash());
    EXPECT_FALSE(a == c);
}

TEST(Grounding, EnumeratesAllBindings)
{
    SymbolicProblem problem;
    problem.symbols = {"A", "B", "C"};
    ActionSchema schema;
    schema.name = "Pick";
    schema.params = {"x", "y"};
    schema.pre_pos = {{"Free", {0}}};
    schema.eff_add = {{"Holding", {0, 1}}};
    problem.schemas.push_back(schema);
    auto actions = groundActions(problem);
    EXPECT_EQ(actions.size(), 9u);  // 3 x 3
}

TEST(Grounding, DistinctConstraintFilters)
{
    SymbolicProblem problem;
    problem.symbols = {"A", "B", "C"};
    ActionSchema schema;
    schema.name = "Swap";
    schema.params = {"x", "y"};
    schema.distinct = {{0, 1}};
    problem.schemas.push_back(schema);
    auto actions = groundActions(problem);
    EXPECT_EQ(actions.size(), 6u);  // 3 x 2
    for (const GroundAction &action : actions)
        EXPECT_EQ(action.name.find("A,A"), std::string::npos);
}

TEST(Grounding, ParamDomainsRestrict)
{
    SymbolicProblem problem;
    problem.symbols = {"A", "B", "C"};
    ActionSchema schema;
    schema.name = "Move";
    schema.params = {"x"};
    schema.param_domains = {{"B"}};
    problem.schemas.push_back(schema);
    auto actions = groundActions(problem);
    ASSERT_EQ(actions.size(), 1u);
    EXPECT_EQ(actions[0].name, "Move(B)");
}

TEST(Grounding, ConstantsSubstituted)
{
    SymbolicProblem problem;
    problem.symbols = {"A"};
    ActionSchema schema;
    schema.name = "Drop";
    schema.params = {"x"};
    schema.constants = {"Table"};
    schema.eff_add = {{"On", {0, ~0}}};
    problem.schemas.push_back(schema);
    auto actions = groundActions(problem);
    ASSERT_EQ(actions.size(), 1u);
    EXPECT_EQ(actions[0].eff_add[0], "On(A,Table)");
}

TEST(GroundAction, ApplicabilityRespectsNegativePreconditions)
{
    GroundAction action;
    action.pre_pos = {"p"};
    action.pre_neg = {"q"};
    EXPECT_TRUE(action.applicable(SymbolicState({"p"})));
    EXPECT_FALSE(action.applicable(SymbolicState({"p", "q"})));
    EXPECT_FALSE(action.applicable(SymbolicState{}));
}

TEST(BlocksWorld, ProblemShape)
{
    SymbolicProblem problem = makeBlocksWorld(4, 1);
    EXPECT_EQ(problem.symbols.size(), 5u);  // 4 blocks + Table
    // Every block sits on something initially.
    int on_atoms = 0;
    for (const Atom &atom : problem.initial.atoms())
        on_atoms += atom.rfind("On(", 0) == 0;
    EXPECT_EQ(on_atoms, 4);
    EXPECT_EQ(problem.goal.size(), 4u);
}

TEST(BlocksWorld, PlannerSolvesAndPlanValidates)
{
    SymbolicProblem problem = makeBlocksWorld(6, 3);
    SymbolicPlanner planner(problem);
    SymbolicPlanResult result = planner.plan();
    ASSERT_TRUE(result.found);
    EXPECT_EQ(result.plan.size(),
              static_cast<std::size_t>(result.cost));
    validatePlan(problem, result.plan);
    EXPECT_GT(result.avg_applicable_actions, 1.0);
}

TEST(BlocksWorld, GoalCountHeuristicAlsoSolves)
{
    SymbolicProblem problem = makeBlocksWorld(4, 5);
    SymbolicPlannerConfig config;
    config.heuristic = SymbolicPlannerConfig::Heuristic::GoalCount;
    SymbolicPlanner planner(problem, config);
    SymbolicPlanResult result = planner.plan();
    ASSERT_TRUE(result.found);
    validatePlan(problem, result.plan);
}

TEST(BlocksWorld, DifferentSeedsDifferentInstances)
{
    SymbolicProblem a = makeBlocksWorld(5, 1);
    SymbolicProblem b = makeBlocksWorld(5, 2);
    EXPECT_FALSE(a.initial == b.initial && a.goal == b.goal);
}

TEST(Firefight, PlannerSolvesAndPlanValidates)
{
    SymbolicProblem problem = makeFirefight(4);
    SymbolicPlanner planner(problem);
    SymbolicPlanResult result = planner.plan();
    ASSERT_TRUE(result.found);
    validatePlan(problem, result.plan);
    // The fire needs three pours; each pour needs a fill first.
    int pours = 0, fills = 0;
    for (const std::string &action : result.plan) {
        pours += action.rfind("PourWater", 0) == 0;
        fills += action.rfind("FillWater", 0) == 0;
    }
    EXPECT_EQ(pours, 3);
    EXPECT_EQ(fills, 3);
}

TEST(Firefight, MoreBranchingThanBlocksWorld)
{
    // The paper's sym-fext parallelism claim: more valid actions per
    // node than sym-blkw (~3.2x at the default configurations).
    SymbolicProblem blkw = makeBlocksWorld(6, 1);
    SymbolicProblem fext = makeFirefight(12);
    SymbolicPlanResult blkw_result = SymbolicPlanner(blkw).plan();
    SymbolicPlanResult fext_result = SymbolicPlanner(fext).plan();
    ASSERT_TRUE(blkw_result.found);
    ASSERT_TRUE(fext_result.found);
    EXPECT_GT(fext_result.avg_applicable_actions,
              2.0 * blkw_result.avg_applicable_actions);
}

TEST(Planner, ExpansionCapReturnsNotFound)
{
    SymbolicProblem problem = makeBlocksWorld(7, 2);
    SymbolicPlannerConfig config;
    config.max_expansions = 2;
    config.heuristic = SymbolicPlannerConfig::Heuristic::GoalCount;
    SymbolicPlanner planner(problem, config);
    SymbolicPlanResult result = planner.plan();
    EXPECT_FALSE(result.found);
    EXPECT_EQ(result.expanded, 2u);
    EXPECT_GT(result.avg_applicable_actions, 0.0);

    config.max_expansions = 0;
    result = SymbolicPlanner(problem, config).plan();
    EXPECT_FALSE(result.found);
    EXPECT_EQ(result.expanded, 0u);
    EXPECT_EQ(result.generated, 0u);
}

TEST(Planner, TrivialGoalYieldsEmptyPlan)
{
    SymbolicProblem problem = makeBlocksWorld(3, 4);
    problem.goal = {problem.initial.atoms().front()};
    SymbolicPlanner planner(problem);
    SymbolicPlanResult result = planner.plan();
    ASSERT_TRUE(result.found);
    EXPECT_TRUE(result.plan.empty());
    EXPECT_DOUBLE_EQ(result.cost, 0.0);
}

TEST(HAdd, MatchesReferenceAcrossFirefightStateSpaces)
{
    // The whole reachable space (320 states at 2 waypoints, 1,760 at 8),
    // sampled evenly, so deep states (fire out, tank full, battery low)
    // are checked as well as shallow ones.
    for (int waypoints = 2; waypoints <= 8; ++waypoints) {
        SymbolicProblem problem = makeFirefight(waypoints);
        std::vector<GroundAction> actions = groundActions(problem);
        std::vector<SymbolicState> states = reachableStates(
            problem, actions, std::numeric_limits<std::size_t>::max());
        expectHAddMatchesReference(problem, states, 120);
    }
}

TEST(HAdd, MatchesReferenceOnBlocksWorldStates)
{
    for (int blocks = 3; blocks <= 8; ++blocks) {
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
            SymbolicProblem problem = makeBlocksWorld(blocks, seed);
            std::vector<GroundAction> actions = groundActions(problem);
            expectHAddMatchesReference(
                problem, reachableStates(problem, actions, 200), 30);
        }
    }
}

/** A zero-parameter action schema over zero-argument atoms. */
ActionSchema
propositional(const std::string &name, std::vector<std::string> pre,
              std::vector<std::string> add)
{
    ActionSchema schema;
    schema.name = name;
    for (const std::string &p : pre)
        schema.pre_pos.push_back({p, {}});
    for (const std::string &a : add)
        schema.eff_add.push_back({a, {}});
    return schema;
}

TEST(HAdd, EdgeCasesMatchReference)
{
    constexpr double kInf = std::numeric_limits<double>::max() / 4.0;
    SymbolicProblem problem;
    problem.schemas = {
        // No preconditions: P() is reachable at cost 1 from anywhere.
        propositional("MakeP", {}, {"P"}),
        // Duplicated precondition: counted twice, so G() costs 1 + 2*1.
        propositional("MakeG", {"P", "P"}, {"G"}),
        // Needs an atom nothing adds.
        propositional("MakeU", {"Never"}, {"U"}),
    };
    struct Case
    {
        std::vector<Atom> goal;
        SymbolicState state;
        double h;
    };
    const Case cases[] = {
        {{"P()"}, SymbolicState{}, 1.0},
        {{"G()"}, SymbolicState{}, 3.0},
        {{"G()"}, SymbolicState({"P()"}), 1.0},
        {{"G()", "P()", "G()"}, SymbolicState{}, 7.0},
        {{"U()"}, SymbolicState{}, kInf},
        {{"P()", "U()"}, SymbolicState({"P()"}), kInf},
        // A goal atom no action mentions, held by the state.
        {{"Z()"}, SymbolicState({"Z()"}), 0.0},
        {{"Z()", "G()"}, SymbolicState({"Z()", "Other()"}), 3.0},
        {{}, SymbolicState{}, 0.0},
    };
    for (const Case &c : cases) {
        problem.goal = c.goal;
        SymbolicPlanner planner(problem);
        SymbolicPlanner::HAddScratch scratch;
        double reference =
            referenceHAdd(planner.actions(), c.goal, c.state);
        double h = planner.heuristicValue(c.state, scratch);
        EXPECT_TRUE(sameBits(reference, c.h)) << c.state.toString();
        EXPECT_TRUE(sameBits(h, c.h))
            << c.state.toString() << ": " << std::hexfloat << h;
    }
}

TEST(HAdd, DefaultKernelSearchesArePinned)
{
    // Table I defaults: epsilon 1.5, hAdd. Any change to the heuristic's
    // values, the open list's tie-breaks or successor order shows here.
    struct Pin
    {
        SymbolicProblem problem;
        std::size_t ground_actions, expanded, generated;
        double plan_length, branching_factor;
        std::uint64_t digest;
    };
    const Pin pins[] = {
        {makeFirefight(12), 592, 494, 11761, 20.0, 0x1.7cec4ec4ec4ecp+4,
         0x18e962ad8cf43131ULL},
        {makeBlocksWorld(6, 1), 180, 8, 60, 7.0, 0x1.ep+2,
         0xa8c51df90c2cd57eULL},
    };
    for (const Pin &pin : pins) {
        SymbolicPlanResult result = SymbolicPlanner(pin.problem).plan();
        ASSERT_TRUE(result.found) << pin.problem.name;
        EXPECT_EQ(result.ground_action_count, pin.ground_actions);
        EXPECT_EQ(result.expanded, pin.expanded);
        EXPECT_EQ(result.generated, pin.generated);
        EXPECT_TRUE(sameBits(result.cost, pin.plan_length));
        EXPECT_TRUE(sameBits(result.avg_applicable_actions,
                             pin.branching_factor))
            << std::hexfloat << result.avg_applicable_actions;
        EXPECT_EQ(planDigest(result.plan), pin.digest) << pin.problem.name;
    }
}

} // namespace
} // namespace rtr
