/**
 * @file
 * Runtime selection of the batched-environment engine.
 *
 * Two engines implement the Monte-Carlo rollout/particle updates of the
 * cem, mpc, bo and pfl kernels (DESIGN.md "Batched environments"):
 *
 *   soa     structure-of-arrays batch: one contiguous array per state
 *           component, simd::VecD lanes advancing kWidth environments
 *           per instruction (the default);
 *   scalar  one environment at a time — the preserved reference path.
 *
 * Both produce bitwise-identical rewards, traces, states and particle
 * weights at every environment count and thread count, so the switch is
 * a pure performance A/B: kernels expose it as --batch {soa,scalar} in
 * the same style as --nn/--search/--simd, and the RTR_BATCH_ENGINE
 * environment variable flips the default so the full test suite can run
 * against either engine (scripts/check.sh "batch-scalar" leg).
 */

#ifndef RTR_UTIL_BATCH_ENGINE_H
#define RTR_UTIL_BATCH_ENGINE_H

#include <cstdlib>
#include <iostream>
#include <string_view>

namespace rtr {

/** Which engine runs batched environment rollouts. */
enum class BatchEngine
{
    Soa,    ///< SIMD-across-environments SoA batch (the default).
    Scalar, ///< One environment at a time (preserved reference).
};

/** Display name ("soa" / "scalar"). */
inline const char *
batchEngineName(BatchEngine engine)
{
    return engine == BatchEngine::Soa ? "soa" : "scalar";
}

/** Parse an engine name; returns false on anything else. */
inline bool
parseBatchEngine(std::string_view name, BatchEngine &out)
{
    if (name == "soa") {
        out = BatchEngine::Soa;
        return true;
    }
    if (name == "scalar") {
        out = BatchEngine::Scalar;
        return true;
    }
    return false;
}

/**
 * Process-wide default engine: soa, unless RTR_BATCH_ENGINE overrides
 * (read once; empty = unset). A value that is not an engine name exits
 * with status 2, like RTR_SEARCH: a silently ignored typo would re-test
 * the default engine. Config structs capture this default at
 * construction; explicit --batch flags override it per run.
 */
inline BatchEngine
defaultBatchEngine()
{
    static const BatchEngine engine = [] {
        const char *env = std::getenv("RTR_BATCH_ENGINE");
        if (env == nullptr || *env == '\0')
            return BatchEngine::Soa;
        BatchEngine parsed;
        if (!parseBatchEngine(env, parsed)) {
            std::cerr << "RTR_BATCH_ENGINE=" << env
                      << " is not a batch engine (expected soa or "
                         "scalar)\n";
            std::exit(2);
        }
        return parsed;
    }();
    return engine;
}

/**
 * Whether RTR_BATCH_ENGINE is set — i.e. the user asked for one engine
 * *everywhere*. Per-phase defaults (see defaultPflWeightEngine) yield
 * to this, exactly like an explicit --batch flag, so the check.sh
 * batch-scalar leg and A/B runs still pin every phase to one engine.
 */
inline bool
batchEngineOverridden()
{
    static const bool overridden = [] {
        const char *env = std::getenv("RTR_BATCH_ENGINE");
        return env != nullptr && *env != '\0';
    }();
    return overridden;
}

/**
 * Default engine for the pfl *weight* (beam sensor-model) phase:
 * scalar, unless RTR_BATCH_ENGINE overrides. The SoA leg of this phase
 * measured 0.92-0.94x — it is exp/log-bound, and the lane shuffle
 * costs more than the vectorization buys (EXPERIMENTS.md "Batched
 * rollouts") — so unlike the motion phase it defaults to the
 * reference loop.
 */
inline BatchEngine
defaultPflWeightEngine()
{
    return batchEngineOverridden() ? defaultBatchEngine()
                                   : BatchEngine::Scalar;
}

} // namespace rtr

#endif // RTR_UTIL_BATCH_ENGINE_H
