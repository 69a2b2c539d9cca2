/**
 * @file
 * The kernel workloads: the 16 paper kernels (kernels-1t) or the six
 * threaded ones at nproc threads (kernels-mt), run round-robin at the
 * Table I configurations, each reporting its best ROI over the passes.
 */

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "grid/raycast.h"
#include "kernels/registry.h"
#include "suite.h"
#include "telemetry/trace.h"
#include "telemetry/trace_export.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace suite {
namespace {

using namespace rtr;

/** One kernel at its Table I configuration (as bench_table1 runs it). */
struct KernelCase
{
    const char *name;
    /** Takes --threads (uses the util/parallel pool). */
    bool threaded;
    std::vector<std::string> overrides;
};

const std::vector<KernelCase> kCases = {
    {"pfl", true, {"--particles", "800", "--steps", "50"}},
    {"ekfslam", false, {}},
    {"srec", true, {"--frames", "8"}},
    {"pp2d", false, {"--map-size", "512"}},
    {"pp3d", false, {"--map-size", "128"}},
    {"movtar", false, {"--env-size", "96"}},
    {"prm", true, {}},
    {"rrt", false, {}},
    {"rrtstar", false, {"--samples", "2500"}},
    {"rrtpp", false, {}},
    {"sym-blkw", false, {}},
    {"sym-fext", false, {}},
    {"dmp", false, {}},
    {"mpc", true, {"--ref-points", "60"}},
    {"cem", true, {"--repeats", "500"}},
    {"bo", true, {"--candidates", "8000"}},
};

/**
 * Per-thread trace buffer (64-byte events). It holds one traced pass of
 * kernels-1t (about 154k events, mostly collision spans) and several of
 * kernels-mt (about 23k events each).
 */
constexpr std::size_t kTraceEvents = std::size_t(1) << 18;

/** Share of a traced kernels-mt run spent on its 1-thread passes. */
constexpr double kSingleThreadShare = 1.0 / 3.0;

/** The most events any thread's trace buffer holds. */
std::size_t
fullestBuffer(const telemetry::Tracer &tracer)
{
    std::size_t most = 0;
    for (const telemetry::ThreadBuffer *buffer : tracer.buffers())
        most = std::max(most, buffer->size());
    return most;
}

/**
 * A per-layer metric: a profiler phase time (is_time) or a
 * KernelReport::metrics counter, summed over the kernels listed.
 */
struct LayerMetric
{
    const char *name;
    const char *unit;
    bool is_time;
    /** kernel -> the phases (or metric keys) it contributes. */
    std::vector<std::pair<const char *, std::vector<std::string>>> sources;
};

std::vector<LayerMetric>
layerMetrics()
{
    const std::string probes =
        std::string("probes_per_ray_") + rayEngineName(defaultRayEngine());
    return {
        {"grid.raycast_ms", "ms", true, {{"pfl", {"raycast"}}}},
        {"grid.rays_cast", "count", false, {{"pfl", {"rays_cast"}}}},
        {"grid.probes_per_ray", "probes/ray", false, {{"pfl", {probes}}}},
        {"grid.collision_ms", "ms", true,
         {{"pp2d", {"collision"}}, {"pp3d", {"collision"}},
          {"movtar", {"collision"}}}},
        {"grid.collision_checks", "count", false,
         {{"pp2d", {"collision_checks"}}, {"pp3d", {"collision_checks"}}}},
        {"arm.collision_ms", "ms", true,
         {{"prm", {"collision"}}, {"rrt", {"collision"}},
          {"rrtstar", {"collision"}}, {"rrtpp", {"collision"}}}},
        {"search.graph_search_ms", "ms", true,
         {{"pp2d", {"graph-search"}}, {"pp3d", {"graph-search"}},
          {"movtar", {"graph-search"}}, {"prm", {"graph-search"}}}},
        {"search.heuristic_ms", "ms", true, {{"movtar", {"heuristic"}}}},
        {"search.expanded", "count", false,
         {{"pp2d", {"expanded"}}, {"pp3d", {"expanded"}},
          {"movtar", {"expanded"}}}},
        {"search.peak_open_list", "count", false,
         {{"pp2d", {"peak_open_list"}}, {"pp3d", {"peak_open_list"}},
          {"movtar", {"peak_open_list"}}}},
        {"search.stale_pops", "count", false,
         {{"pp2d", {"stale_pops"}}, {"pp3d", {"stale_pops"}},
          {"movtar", {"stale_pops"}}}},
        {"search.reopen_skips", "count", false,
         {{"pp2d", {"reopen_skips"}}, {"pp3d", {"reopen_skips"}},
          {"movtar", {"reopen_skips"}}}},
        {"pointcloud.nn_ms", "ms", true,
         {{"srec", {"normals-nn", "icp-nn"}}, {"rrt", {"nn-search"}},
          {"rrtstar", {"nn-search"}}, {"rrtpp", {"nn-search"}}}},
        {"pointcloud.nn_build_ms", "ms", true,
         {{"srec", {"normals-nn-build", "icp-nn-build"}}}},
        {"pointcloud.icp_ms", "ms", true,
         {{"srec", {"icp-nn-build", "icp-nn", "icp-solve", "icp-apply"}}}},
        {"linalg.matrix_ops_ms", "ms", true, {{"ekfslam", {"matrix-ops"}}}},
        {"linalg.eigen_ms", "ms", true, {{"srec", {"normals-eigen"}}}},
        {"control.rollout_ms", "ms", true,
         {{"dmp", {"rollout"}}, {"mpc", {"optimize"}},
          {"cem", {"evaluate"}}, {"bo", {"evaluate"}}}},
        {"control.sort_ms", "ms", true,
         {{"cem", {"sort"}}, {"bo", {"sort"}}}},
        {"control.acquisition_ms", "ms", true, {{"bo", {"acquisition"}}}},
        {"control.gp_fit_ms", "ms", true, {{"bo", {"gp-fit"}}}},
        {"control.cost_evals", "count", false, {{"mpc", {"cost_evals"}}}},
        {"control.acquisition_evals", "count", false,
         {{"bo", {"acquisition_evals"}}}},
        {"perception.weight_ms", "ms", true, {{"pfl", {"weight"}}}},
        {"perception.motion_ms", "ms", true, {{"pfl", {"motion-update"}}}},
        {"perception.resample_ms", "ms", true, {{"pfl", {"resample"}}}},
        {"plan.extend_ms", "ms", true,
         {{"rrt", {"extend"}}, {"rrtstar", {"extend"}},
          {"rrtpp", {"extend"}}}},
        {"plan.rewire_ms", "ms", true, {{"rrtstar", {"rewire"}}}},
        {"plan.shortcut_ms", "ms", true, {{"rrtpp", {"shortcut"}}}},
        {"plan.online_connect_ms", "ms", true,
         {{"prm", {"online-connect"}}}},
        {"symbolic.expand_ms", "ms", true,
         {{"sym-blkw", {"expand"}}, {"sym-fext", {"expand"}}}},
        {"symbolic.generated", "count", false,
         {{"sym-blkw", {"generated"}}, {"sym-fext", {"generated"}}}},
    };
}

/** Report metrics that are wall-clock derived, so not reproducible. */
bool
isTimingMetric(const std::string &key)
{
    return key.find("fraction") != std::string::npos ||
           key.find("seconds") != std::string::npos ||
           key.find("_ns") != std::string::npos ||
           key.rfind("ns_", 0) == 0;
}

/**
 * The output a kernel must reproduce on every repetition and at every
 * thread count: success plus every non-timing metric, bit for bit.
 */
std::uint64_t
fingerprint(const KernelReport &report)
{
    const unsigned char success = report.success ? 1 : 0;
    std::uint64_t hash = fnv1a(&success, 1);
    for (const auto &[key, value] : report.metrics) {
        if (isTimingMetric(key))
            continue;
        hash = fnv1a(key.data(), key.size(), hash);
        hash = fnv1a(&value, sizeof value, hash);
    }
    return hash;
}

/** Samples of one kernel over a set of passes. */
struct Samples
{
    std::vector<double> roi_ms;
    std::vector<double> setup_s;
    std::vector<double> wall_us;
    /** Per traced pass: phase name -> ms. */
    std::vector<std::map<std::string, double>> phase_ms;
};

/** A kernel under measurement. */
struct Op
{
    const KernelCase *kase = nullptr;
    std::unique_ptr<Kernel> kernel;
    std::vector<std::string> args_1t; ///< Single-thread configuration.
    std::vector<std::string> args;    ///< The workload's configuration.
    std::uint64_t reference = 0;      ///< Fingerprint of the first run.
    bool has_reference = false;
    std::map<std::string, double> counters; ///< Reproducible metrics.
    Samples untraced, traced;
    std::vector<double> roi_1t_ms; ///< kernels-mt traced run only.
};

/** Run @p ops once each in a freshly shuffled order. */
template <typename Body>
void
pass(std::vector<Op> &ops, std::vector<std::size_t> &perm, Rng &order,
     Body body)
{
    std::shuffle(perm.begin(), perm.end(), order.engine());
    for (std::size_t index : perm)
        body(ops[index]);
}

struct Run
{
    KernelReport report;
    double wall_s = 0.0;
};

Run
runOnce(const Op &op, const std::vector<std::string> &args)
{
    Run run;
    const std::int64_t t0 = telemetry::nowNs();
    {
        telemetry::TraceSpan span(op.kase->name, telemetry::Category::Bench);
        run.report = op.kernel->runWithDefaults(args);
    }
    run.wall_s = static_cast<double>(telemetry::nowNs() - t0) * 1e-9;
    return run;
}

/**
 * A kernel's time over its passes: the best (lowest). Interference from
 * outside the process only ever adds time, and on a shared host it
 * comes in bursts of seconds that cover several passes, so the best
 * pass moves less from run to run than the median (README.md).
 */
double
best(const std::vector<double> &samples)
{
    return *std::min_element(samples.begin(), samples.end());
}

/** Geometric mean of best ROIs over the ops matching @p keep. */
template <typename Pred>
double
roiGeomean(const std::vector<Op> &ops, bool traced, Pred keep)
{
    std::vector<double> roi;
    for (const Op &op : ops)
        if (keep(op))
            roi.push_back(best((traced ? op.traced : op.untraced).roi_ms));
    return roi.empty() ? 0.0 : geomean(roi);
}

} // namespace

Result
runKernels(const Options &options, bool multithreaded)
{
    const std::size_t threads = multithreaded ? cpuCount() : 1;
    setParallelThreads(threads);
    // Sized before any pool worker starts: a worker registers its trace
    // buffer when it starts, at the capacity set then.
    telemetry::Tracer &tracer = telemetry::Tracer::global();
    if (options.trace)
        tracer.setBufferCapacity(kTraceEvents);

    std::vector<Op> ops;
    for (const KernelCase &kase : kCases) {
        if (multithreaded && !kase.threaded)
            continue;
        Op op;
        op.kase = &kase;
        op.kernel = makeKernel(kase.name);
        op.args_1t = op.args = kase.overrides;
        if (kase.threaded) {
            op.args_1t.insert(op.args_1t.end(), {"--threads", "1"});
            op.args.insert(op.args.end(),
                           {"--threads", std::to_string(threads)});
        }
        ops.push_back(std::move(op));
    }

    Result result;
    bool corrupt_pending = !options.corrupt.empty();
    auto check = [&](Op &op, const KernelReport &report, bool timed) {
        ++result.attempted;
        std::uint64_t print = fingerprint(report);
        if (!op.has_reference) {
            op.reference = print;
            op.has_reference = true;
            for (const auto &[key, value] : report.metrics)
                if (!isTimingMetric(key))
                    op.counters[key] = value;
        }
        if (timed && corrupt_pending && options.corrupt == op.kase->name) {
            print ^= 1;
            corrupt_pending = false;
        }
        if (!report.success || print != op.reference)
            ++result.failed;
    };

    // Warm-up, unmeasured: the single-thread run is the reference
    // output every later run must match (the thread-invariance
    // contract); kernels-mt also warms the pool at its thread count.
    for (Op &op : ops)
        check(op, runOnce(op, op.args_1t).report, false);
    if (multithreaded)
        for (Op &op : ops)
            check(op, runOnce(op, op.args).report, false);

    Rng order(options.seed);
    std::vector<std::size_t> perm(ops.size());
    std::iota(perm.begin(), perm.end(), 0);
    const std::int64_t t_start = telemetry::nowNs();
    const std::int64_t deadline =
        t_start + static_cast<std::int64_t>(options.seconds * 1e9);

    // kernels-mt's traced run first takes the 1-thread samples of
    // parallel.*.speedup, in passes of their own. An unmeasured pass
    // then restarts the pool at nproc threads, so the untraced and
    // traced passes below run on the same workers and differ only in
    // whether the tracer is on.
    if (options.trace && multithreaded) {
        const std::int64_t end_1t =
            t_start + static_cast<std::int64_t>(options.seconds *
                                                kSingleThreadShare * 1e9);
        do {
            pass(ops, perm, order, [&](Op &op) {
                const Run single = runOnce(op, op.args_1t);
                check(op, single.report, true);
                op.roi_1t_ms.push_back(single.report.roi_seconds * 1e3);
            });
        } while (telemetry::nowNs() < end_1t);
        for (Op &op : ops)
            check(op, runOnce(op, op.args).report, false);
    }

    // Timed passes, round-robin in a seeded order. A traced run
    // alternates untraced and traced passes, in pairs, so it can report
    // the tracing overhead. Without pool workers (kernels-1t) each
    // traced pass starts an empty trace. With them (kernels-mt) the
    // trace accumulates, because a reset would make every worker
    // allocate a new buffer inside some kernel's ROI; the passes stop
    // before it can fill.
    std::uint64_t dropped = 0;
    std::size_t pass_events = 0; // Most events one traced pass recorded.
    if (options.trace)
        tracer.registerCurrentThread("bench");
    const int min_passes = options.trace ? 2 : 1;
    int passes = 0;
    auto more = [&] {
        if (passes < min_passes || (options.trace && passes % 2 == 1))
            return true;
        if (telemetry::nowNs() >= deadline)
            return false;
        return !(options.trace && multithreaded &&
                 fullestBuffer(tracer) + 2 * pass_events > kTraceEvents);
    };
    while (more()) {
        const bool traced = options.trace && passes % 2 == 1;
        std::size_t events_before = 0;
        if (traced) {
            if (!multithreaded) {
                dropped += tracer.totalDropped();
                tracer.reset();
                tracer.registerCurrentThread("bench");
            }
            events_before = fullestBuffer(tracer);
            tracer.enable();
        }
        pass(ops, perm, order, [&](Op &op) {
            const Run run = runOnce(op, op.args);
            check(op, run.report, true);
            Samples &samples = traced ? op.traced : op.untraced;
            samples.roi_ms.push_back(run.report.roi_seconds * 1e3);
            samples.setup_s.push_back(run.wall_s - run.report.roi_seconds);
            samples.wall_us.push_back(run.wall_s * 1e6);
            if (traced) {
                std::map<std::string, double> &phases =
                    samples.phase_ms.emplace_back();
                for (const auto &phase : run.report.profiler.phases())
                    phases[phase.name] = static_cast<double>(phase.ns) * 1e-6;
            }
        });
        if (traced) {
            tracer.disable();
            pass_events = std::max(pass_events,
                                   fullestBuffer(tracer) - events_before);
        }
        ++passes;
    }
    if (options.trace) {
        dropped += tracer.totalDropped();
        if (!options.trace_file.empty() &&
            !telemetry::writeChromeTraceFile(tracer, options.trace_file))
            throw std::runtime_error("cannot write " + options.trace_file);
        if (dropped > 0)
            throw InvalidRun("tracer dropped " + std::to_string(dropped) +
                             " events; per-layer numbers are incomplete");
    }

    result.note("passes", passes);
    result.note("threads", static_cast<double>(threads));
    result.note("fail_frac", static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted));
    for (const Op &op : ops) {
        const std::vector<double> &roi =
            (options.trace ? op.traced : op.untraced).roi_ms;
        const std::string name = std::string(op.kase->name) + ".roi_";
        result.note(name + "best_ms", best(roi), "ms");
        result.note(name + "median_ms", median(roi), "ms");
        result.note(name + "max_ms", percentile(roi, 1.0), "ms");
    }

    auto stageIs = [](Stage stage) {
        return [stage](const Op &op) { return op.kernel->stage() == stage; };
    };
    auto all = [](const Op &) { return true; };

    if (!options.trace) {
        result.add("roi_geomean_ms", roiGeomean(ops, false, all), "ms");
        result.add("perception_roi_ms",
                   roiGeomean(ops, false, stageIs(Stage::Perception)), "ms");
        result.add("planning_roi_ms",
                   roiGeomean(ops, false, stageIs(Stage::Planning)), "ms");
        // A kernel run is the operation a caller waits for: its
        // latency is the run's wall time (input set-up and ROI), taken
        // per kernel as the best over passes, like the ROI.
        std::vector<double> wall_us;
        for (const Op &op : ops)
            wall_us.push_back(best(op.untraced.wall_us));
        double pass_us = 0.0;
        for (double us : wall_us)
            pass_us += us;
        result.add("drain_rps",
                   static_cast<double>(ops.size()) / (pass_us * 1e-6), "1/s");
        result.add("latency_p50_us", percentile(wall_us, 0.50), "us");
        result.add("latency_p99_us", percentile(wall_us, 0.99), "us");
        result.add("ok_frac",
                   1.0 - static_cast<double>(result.failed) /
                             static_cast<double>(result.attempted),
                   "frac");
        // Set-up is input generation and report assembly, milliseconds
        // of allocation and page faults per kernel: the best pass, as
        // for the ROI, because its median moves with the host.
        double setup_s = 0.0;
        for (const Op &op : ops)
            setup_s += best(op.untraced.setup_s);
        result.add("setup_s", setup_s, "s");
        result.add("peak_rss_mb", peakRssMb(), "MiB");
        return result;
    }

    // Per-layer metrics, from the traced passes.
    for (const Op &op : ops)
        result.add(std::string("kernels.") + op.kase->name + ".roi_ms",
                   best(op.traced.roi_ms), "ms");
    result.add("control_roi_ms",
               roiGeomean(ops, true, stageIs(Stage::Control)), "ms");
    for (const LayerMetric &layer : layerMetrics()) {
        double total = 0.0;
        bool present = false;
        for (const auto &[kernel, names] : layer.sources) {
            auto op = std::find_if(ops.begin(), ops.end(), [&](const Op &o) {
                return std::string(o.kase->name) == kernel;
            });
            if (op == ops.end())
                continue;
            present = true;
            if (layer.is_time) {
                std::vector<double> per_pass;
                for (const auto &phases : op->traced.phase_ms) {
                    double ms = 0.0;
                    for (const std::string &phase : names) {
                        auto it = phases.find(phase);
                        if (it != phases.end())
                            ms += it->second;
                    }
                    per_pass.push_back(ms);
                }
                total += median(per_pass);
            } else {
                for (const std::string &key : names) {
                    auto it = op->counters.find(key);
                    if (it != op->counters.end())
                        total += it->second;
                }
            }
        }
        if (present)
            result.add(layer.name, total, layer.unit);
    }
    if (multithreaded) {
        for (const Op &op : ops)
            result.add(std::string("parallel.") + op.kase->name + ".speedup",
                       best(op.roi_1t_ms) / best(op.untraced.roi_ms), "x");
    }
    result.add("bench.trace_overhead_frac",
               roiGeomean(ops, true, all) / roiGeomean(ops, false, all) -
                   1.0,
               "frac");
    result.add("bench.trace_dropped", static_cast<double>(dropped), "count");
    return result;
}

} // namespace suite
