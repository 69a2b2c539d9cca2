/**
 * @file
 * Runtime selection of the graph-search engine.
 *
 * Two engines implement every A* / Dijkstra expansion loop in the suite
 * (DESIGN.md "Graph search engine"):
 *
 *   flat  cache-conscious engine: dense SoA node pools indexed by cell
 *         or node id, epoch-stamped visited/closed entries (query reset
 *         is a counter bump, not an O(n) clear), and an implicit 4-ary
 *         open list — reusable through a per-planner/per-worker
 *         SearchWorkspace so repeat queries are allocation-free (the
 *         default);
 *   heap  the preserved reference path: binary MinHeap plus per-query
 *         std::vector / std::unordered_map bookkeeping.
 *
 * Both open lists share one strict (key, id) total order, so popped
 * expansion order — and therefore paths, costs, `expanded`, and
 * `peak_open` — is identical across engines at every thread count.
 * Kernels expose the switch as --search {flat,heap} in the same style
 * as --nn/--batch, and the RTR_SEARCH environment variable
 * flips the default so the full test suite can run against either
 * engine (scripts/check.sh "search-heap" leg).
 */

#ifndef RTR_SEARCH_SEARCH_ENGINE_H
#define RTR_SEARCH_SEARCH_ENGINE_H

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string_view>

namespace rtr {

/** Which engine runs graph-search expansion loops. */
enum class SearchEngine
{
    Flat, ///< SoA node pools + epoch stamps + 4-ary heap (the default).
    Heap, ///< Binary MinHeap + hash/vector bookkeeping (reference).
};

/** Display name ("flat" / "heap"). */
inline const char *
searchEngineName(SearchEngine engine)
{
    return engine == SearchEngine::Flat ? "flat" : "heap";
}

/** Parse an engine name; returns false on anything else. */
inline bool
parseSearchEngine(std::string_view name, SearchEngine &out)
{
    if (name == "flat") {
        out = SearchEngine::Flat;
        return true;
    }
    if (name == "heap") {
        out = SearchEngine::Heap;
        return true;
    }
    return false;
}

/**
 * Process-wide default engine: flat, unless RTR_SEARCH overrides
 * (read once). An unparseable value exits with status 2 (a
 * configuration error, not a runtime failure — a silently ignored typo
 * would quietly benchmark the wrong engine). Config structs and
 * planner constructors capture this default; explicit --search flags
 * override it per run.
 */
inline SearchEngine
defaultSearchEngine()
{
    static const SearchEngine engine = [] {
        const char *env = std::getenv("RTR_SEARCH");
        if (env == nullptr || *env == '\0')
            return SearchEngine::Flat;
        SearchEngine parsed;
        if (!parseSearchEngine(env, parsed)) {
            std::cerr << "RTR_SEARCH=" << env
                      << " is not a search engine (expected flat or "
                         "heap)\n";
            std::exit(2);
        }
        return parsed;
    }();
    return engine;
}

/**
 * Open-list health counters of one search run. Both engines use lazy
 * deletion (decrease-key = push a duplicate, discard stale pops), and
 * neither reopens closed nodes, so these counters quantify the slack
 * that policy costs: identical across engines by the expansion-order
 * contract.
 */
struct SearchStats
{
    /** Pops discarded because the node was already closed (the lazy-
     *  deletion duplicates that survived to the top of the heap). */
    std::size_t stale_pops = 0;
    /** Relaxations that found a strictly better g for an already-
     *  closed node and were suppressed — nonzero only when the
     *  (inflated) heuristic is inconsistent, e.g. under WA*. Each one
     *  is a node a reopening search would have re-expanded. */
    std::size_t reopen_skips = 0;
};

} // namespace rtr

#endif // RTR_SEARCH_SEARCH_ENGINE_H
