/**
 * @file
 * Runtime selection of the nearest-neighbor engine.
 *
 * Two engines implement the same exact-NN contract (DESIGN.md
 * "Nearest-neighbor engine"):
 *
 *   bucket  leaf-bucketed SoA k-d tree (bucket_kdtree.h) — the
 *           cache-conscious default;
 *   node    one-point-per-node k-d tree (kdtree.h / dyn_kdtree.h) —
 *           the preserved reference engine.
 *
 * Both return bitwise-identical hits under the documented (dist2, id)
 * tie-break, so the switch is a pure performance A/B: kernels expose it
 * as --nn {bucket,node} in the same style as --search/--simd, and the
 * RTR_NN_ENGINE environment variable flips the default so the full test
 * suite can run against either engine (scripts/check.sh "node" leg).
 */

#ifndef RTR_POINTCLOUD_NN_ENGINE_H
#define RTR_POINTCLOUD_NN_ENGINE_H

#include <cstdlib>
#include <string_view>

namespace rtr {

/** Which nearest-neighbor engine backs an index. */
enum class NnEngine
{
    Bucket, ///< Leaf-bucketed SoA k-d tree (cache-conscious default).
    Node,   ///< One-point-per-node reference k-d tree.
};

/** Display name ("bucket" / "node"). */
inline const char *
nnEngineName(NnEngine engine)
{
    return engine == NnEngine::Bucket ? "bucket" : "node";
}

/** Parse an engine name; returns false on anything else. */
inline bool
parseNnEngine(std::string_view name, NnEngine &out)
{
    if (name == "bucket") {
        out = NnEngine::Bucket;
        return true;
    }
    if (name == "node") {
        out = NnEngine::Node;
        return true;
    }
    return false;
}

/**
 * Process-wide default engine: bucket, unless RTR_NN_ENGINE=node is set
 * in the environment (read once). Config structs capture this default
 * at construction; explicit --nn flags override it per kernel run.
 */
inline NnEngine
defaultNnEngine()
{
    static const NnEngine def = [] {
        const char *env = std::getenv("RTR_NN_ENGINE");
        NnEngine parsed = NnEngine::Bucket;
        if (env)
            parseNnEngine(env, parsed);
        return parsed;
    }();
    return def;
}

} // namespace rtr

#endif // RTR_POINTCLOUD_NN_ENGINE_H
