/**
 * @file
 * The service-open workload: one prebuilt World served by nproc - 1
 * workers. Phase A drains pre-queued backlogs; phase B is an open-loop
 * Poisson run whose latency counts from each request's scheduled
 * arrival. Every response is checked against a workers=1 replay.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/service.h"
#include "suite.h"
#include "telemetry/trace.h"
#include "telemetry/trace_export.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace suite {
namespace {

using namespace rtr;
using namespace rtr::service;

constexpr std::size_t kTypes = 4;
/** The default mix pp2d:2,prm:1,nn:10,icp:2 (indexed by RequestType). */
constexpr std::array<std::size_t, kTypes> kMix = {2, 1, 10, 2};

/** World builds at the start and after phase B (plus one per round). */
constexpr int kWorldBuildsAtEnds = 5;
/** Distinct requests; the backlogs and the open loop draw from them. */
constexpr std::size_t kPoolSize = 4096;
constexpr int kBacklogRounds = 15;
constexpr std::size_t kBacklogRequests = 20000;
/** Phase B runs for this share of --seconds at least. */
constexpr double kOpenLoopShare = 0.5;
/** Traced open-loop requests at most (bounds the trace buffers). */
constexpr std::size_t kMaxTracedRequests = 100000;
/**
 * The generator is behind its schedule, and the run invalid, when its
 * 99th-percentile lag exceeds this: the offered load would then be
 * lower than the rate the run claims.
 */
constexpr double kMaxLagP99Us = 1000.0;

const char *const kSubmitSpan[kTypes] = {"submit:pp2d", "submit:prm",
                                         "submit:nn", "submit:icp"};
const char *const kCollectSpan[kTypes] = {"collect:pp2d", "collect:prm",
                                          "collect:nn", "collect:icp"};

/** The distinct requests of a run and their workers=1 reference. */
struct Pool
{
    std::vector<Request> requests;
    std::vector<std::size_t> types;
    std::vector<std::uint64_t> reference; ///< Canonical-bytes digest.
    std::array<std::size_t, kTypes> count{};
    std::size_t pp2d_found = 0;
    std::size_t prm_found = 0;
};

std::uint64_t
digest(const Response &response)
{
    std::vector<std::uint8_t> bytes;
    appendCanonicalBytes(response, bytes);
    return fnv1a(bytes.data(), bytes.size());
}

/** Checks completions against the pool reference. */
struct Checker
{
    const Pool &pool;
    Result &result;
    std::string corrupt;

    void
    operator()(std::size_t index, const Completion &done)
    {
        ++result.attempted;
        std::uint64_t print = done.status == TicketStatus::Done
                                  ? digest(done.response)
                                  : ~pool.reference[index];
        if (!corrupt.empty() &&
            corrupt == requestTypeName(static_cast<RequestType>(
                           pool.types[index]))) {
            print ^= 1;
            corrupt.clear();
        }
        if (print != pool.reference[index])
            ++result.failed;
    }
};

Pool
makePool(const World &world, std::uint64_t seed)
{
    std::size_t total = 0;
    for (std::size_t weight : kMix)
        total += weight;
    Pool pool;
    Rng rng(splitSeed(seed, 1));
    for (std::size_t i = 0; i < kPoolSize; ++i) {
        std::size_t pick = rng.index(total);
        std::size_t type = 0;
        while (pick >= kMix[type])
            pick -= kMix[type++];
        pool.requests.push_back(
            world.randomRequest(static_cast<RequestType>(type), rng));
        pool.types.push_back(type);
        ++pool.count[type];
    }
    return pool;
}

ServiceConfig
serviceConfig(std::size_t workers, std::size_t queued)
{
    ServiceConfig config;
    config.workers = workers;
    config.queue_capacity = std::max<std::size_t>(2 * queued, 1 << 14);
    return config;
}

/** Seeded pool indices for one phase. */
std::vector<std::uint32_t>
drawIndices(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint32_t> indices(n);
    for (std::uint32_t &index : indices)
        index = static_cast<std::uint32_t>(rng.index(kPoolSize));
    return indices;
}

/** What one open-loop segment measured, per request in arrival order. */
struct OpenLoop
{
    std::vector<double> latency_us; ///< scheduled arrival -> done.
    std::vector<double> exec_us;    ///< start -> done.
    std::vector<double> queue_us;   ///< submit -> worker start.
    std::vector<std::size_t> type;
    /** One-second arrival window; a trailing part-second joins the last. */
    std::vector<std::size_t> window;
    std::size_t windows = 0;
    std::vector<double> lag_us;    ///< scheduled -> actual submit.
    std::vector<double> submit_us; ///< time inside submit().
    std::uint64_t rejected_full = 0;

    /** Execution times of one request type. */
    std::vector<double>
    execOf(std::size_t t) const
    {
        std::vector<double> out;
        for (std::size_t i = 0; i < exec_us.size(); ++i)
            if (type[i] == t)
                out.push_back(exec_us[i]);
        return out;
    }
};

/** Latency p50 and p99 of each one-second arrival window. */
struct Windows
{
    std::vector<double> p50_us, p99_us;
};

Windows
windowStats(const OpenLoop &loop)
{
    std::vector<std::vector<double>> latency(loop.windows);
    for (std::size_t i = 0; i < loop.latency_us.size(); ++i)
        latency[loop.window[i]].push_back(loop.latency_us[i]);
    Windows out;
    for (const std::vector<double> &samples : latency) {
        if (samples.empty())
            continue;
        out.p50_us.push_back(percentile(samples, 0.50));
        out.p99_us.push_back(percentile(samples, 0.99));
    }
    return out;
}

OpenLoop
runOpenLoop(const World &world, const Pool &pool, Checker &check,
            std::size_t workers, double rate, std::size_t n,
            std::uint64_t seed, std::vector<double> &start_s)
{
    // The whole arrival schedule exists before the clock starts.
    Rng arrivals(splitSeed(seed, 2));
    std::vector<std::int64_t> offset_ns(n);
    double t = 0.0;
    for (std::int64_t &offset : offset_ns) {
        t += -std::log(1.0 - arrivals.uniform()) * 1e9 / rate;
        offset = static_cast<std::int64_t>(t);
    }
    const std::vector<std::uint32_t> indices =
        drawIndices(n, splitSeed(seed, 3));

    OpenLoop out;
    out.windows = std::max<std::size_t>(
        static_cast<std::size_t>(offset_ns.back() / 1000000000), 1);
    for (std::int64_t offset : offset_ns)
        out.window.push_back(std::min(
            static_cast<std::size_t>(offset / 1000000000), out.windows - 1));
    out.latency_us.reserve(n);
    out.exec_us.reserve(n);
    out.queue_us.reserve(n);
    out.lag_us.reserve(n);
    out.submit_us.reserve(n);

    PlanningService svc(world, serviceConfig(workers, 0));
    const std::int64_t s0 = telemetry::nowNs();
    svc.start();
    start_s.push_back(static_cast<double>(telemetry::nowNs() - s0) * 1e-9);

    struct Pending
    {
        Ticket ticket;
        std::uint32_t index;
        std::int64_t scheduled_ns;
    };
    std::deque<Pending> outstanding;
    auto collectFront = [&] {
        const Pending pending = outstanding.front();
        outstanding.pop_front();
        const std::size_t type = pool.types[pending.index];
        Completion done;
        {
            telemetry::TraceSpan span(kCollectSpan[type],
                                      telemetry::Category::Bench);
            done = svc.collect(pending.ticket);
        }
        check(pending.index, done);
        out.latency_us.push_back(
            static_cast<double>(done.timing.done_ns - pending.scheduled_ns) *
            1e-3);
        out.queue_us.push_back(
            static_cast<double>(done.timing.start_ns - done.timing.submit_ns) *
            1e-3);
        out.exec_us.push_back(
            static_cast<double>(done.timing.done_ns - done.timing.start_ns) *
            1e-3);
        out.type.push_back(type);
    };

    // Between arrivals the generator collects finished tickets, oldest
    // first, so memory stays bounded without a fifth thread.
    const std::int64_t base = telemetry::nowNs() + 1000000;
    for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t scheduled = base + offset_ns[i];
        std::int64_t now = telemetry::nowNs();
        while (now < scheduled) {
            if (!outstanding.empty() &&
                svc.poll(outstanding.front().ticket) == TicketStatus::Done)
                collectFront();
            else if (scheduled - now > 200000)
                std::this_thread::sleep_for(
                    std::chrono::nanoseconds(scheduled - now - 100000));
            else
                std::this_thread::yield();
            now = telemetry::nowNs();
        }
        out.lag_us.push_back(static_cast<double>(now - scheduled) * 1e-3);
        const Request &request = pool.requests[indices[i]];
        const std::int64_t submit_start = telemetry::nowNs();
        Ticket ticket;
        {
            telemetry::TraceSpan span(kSubmitSpan[pool.types[indices[i]]],
                                      telemetry::Category::Bench);
            ticket = svc.submit(request);
        }
        out.submit_us.push_back(
            static_cast<double>(telemetry::nowNs() - submit_start) * 1e-3);
        outstanding.push_back({ticket, indices[i], scheduled});
    }
    svc.shutdown(PlanningService::Shutdown::Drain);
    while (!outstanding.empty())
        collectFront();
    out.rejected_full = svc.stats().rejected_full;
    return out;
}

} // namespace

Result
runService(const Options &options)
{
    if (!(options.offered_rps > 0.0))
        throw std::invalid_argument("service-open needs --offered-rps > 0");
    const std::size_t workers = std::max<std::size_t>(cpuCount() - 1, 1);
    setParallelThreads(workers);

    // Set-up, measured many times: World construction, and start() of
    // every service instance below. The World is built at the start,
    // after every backlog round and after phase B, so the samples span
    // the run instead of the one burst of host load its start may hit.
    std::vector<double> world_s;
    auto buildWorld = [&world_s] {
        const std::int64_t t0 = telemetry::nowNs();
        auto built = std::make_unique<World>();
        world_s.push_back(static_cast<double>(telemetry::nowNs() - t0) *
                          1e-9);
        return built;
    };
    std::unique_ptr<World> world;
    for (int i = 0; i < kWorldBuildsAtEnds; ++i) {
        world.reset();
        world = buildWorld();
    }
    std::vector<double> start_s;

    Result result;
    Pool pool = makePool(*world, options.seed);
    Checker check{pool, result, options.corrupt};

    // The workers=1 replay every later response must match (it also
    // warms the World's data in cache).
    {
        PlanningService svc(*world, serviceConfig(1, kPoolSize));
        std::vector<Ticket> tickets;
        for (const Request &request : pool.requests)
            tickets.push_back(svc.submit(request));
        svc.start();
        svc.shutdown(PlanningService::Shutdown::Drain);
        for (std::size_t i = 0; i < kPoolSize; ++i) {
            const Completion done = svc.collect(tickets[i]);
            ++result.attempted;
            if (done.status != TicketStatus::Done)
                ++result.failed;
            pool.reference.push_back(digest(done.response));
            if (const auto *r = std::get_if<Pp2dPlanResponse>(&done.response))
                pool.pp2d_found += r->found ? 1 : 0;
            if (const auto *r = std::get_if<PrmQueryResponse>(&done.response))
                pool.prm_found += r->found ? 1 : 0;
        }
    }

    const std::int64_t t_measure = telemetry::nowNs();

    // Phase A: pre-queued backlogs, drained by all workers.
    std::vector<double> drain_rps;
    std::uint64_t rejected_full = 0;
    for (int round = 0; round < kBacklogRounds; ++round) {
        const std::vector<std::uint32_t> indices = drawIndices(
            kBacklogRequests,
            splitSeed(options.seed, 10 + static_cast<std::uint64_t>(round)));
        PlanningService svc(*world,
                            serviceConfig(workers, kBacklogRequests));
        std::vector<Ticket> tickets;
        tickets.reserve(kBacklogRequests);
        for (std::uint32_t index : indices)
            tickets.push_back(svc.submit(pool.requests[index]));
        const std::int64_t t0 = telemetry::nowNs();
        svc.start();
        start_s.push_back(static_cast<double>(telemetry::nowNs() - t0) *
                          1e-9);
        svc.shutdown(PlanningService::Shutdown::Drain);
        const std::int64_t t1 = telemetry::nowNs();
        drain_rps.push_back(static_cast<double>(kBacklogRequests) /
                            (static_cast<double>(t1 - t0) * 1e-9));
        for (std::size_t i = 0; i < kBacklogRequests; ++i)
            check(indices[i], svc.collect(tickets[i]));
        rejected_full += svc.stats().rejected_full;
        buildWorld();
    }

    // Phase B: open loop at the fixed offered rate for the rest of the
    // run. A traced run splits it into an untraced and a traced
    // segment and compares them.
    const double elapsed =
        static_cast<double>(telemetry::nowNs() - t_measure) * 1e-9;
    const double open_s = std::max(options.seconds - elapsed,
                                   options.seconds * kOpenLoopShare);
    const std::size_t n = std::max<std::size_t>(
        static_cast<std::size_t>(options.offered_rps * open_s), 1000);
    const std::size_t n_traced =
        options.trace ? std::min(n / 2, kMaxTracedRequests) : 0;

    const OpenLoop plain =
        runOpenLoop(*world, pool, check, workers, options.offered_rps,
                    n - n_traced, splitSeed(options.seed, 20), start_s);
    OpenLoop traced;
    std::uint64_t dropped = 0;
    if (options.trace) {
        telemetry::Tracer &tracer = telemetry::Tracer::global();
        // Per thread: a submit and a collect span per request on the
        // generator, a queue and an exec span per request on a worker.
        tracer.setBufferCapacity(2 * n_traced + 4096);
        tracer.reset();
        tracer.enable();
        traced = runOpenLoop(*world, pool, check, workers,
                             options.offered_rps, n_traced,
                             splitSeed(options.seed, 21), start_s);
        tracer.disable();
        dropped = tracer.totalDropped();
        if (!options.trace_file.empty() &&
            !telemetry::writeChromeTraceFile(tracer, options.trace_file))
            throw std::runtime_error("cannot write " + options.trace_file);
    }
    for (int i = 0; i < kWorldBuildsAtEnds; ++i)
        buildWorld();

    for (const OpenLoop *loop : {&plain, &std::as_const(traced)}) {
        if (loop->lag_us.empty())
            continue;
        const double lag_p99 = percentile(loop->lag_us, 0.99);
        if (lag_p99 > kMaxLagP99Us)
            throw InvalidRun("load generator fell behind its schedule: lag "
                             "p99 " +
                             std::to_string(lag_p99) + " us");
    }
    if (dropped > 0)
        throw InvalidRun("tracer dropped " + std::to_string(dropped) +
                         " events; per-layer numbers are incomplete");

    result.note("workers", static_cast<double>(workers));
    result.note("offered_rps", options.offered_rps, "1/s");
    result.note("open_loop_requests", static_cast<double>(n));
    result.note("generator_lag_p99_us", percentile(plain.lag_us, 0.99), "us");
    result.note("world_build_best_s",
                *std::min_element(world_s.begin(), world_s.end()), "s");
    result.note("world_build_median_s", median(world_s), "s");
    result.note("start_best_s",
                *std::min_element(start_s.begin(), start_s.end()), "s");
    result.note("start_median_s", median(start_s), "s");
    result.note("fail_frac", static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted));
    for (std::size_t round = 0; round < drain_rps.size(); ++round)
        result.note("drain_rps_round" + std::to_string(round),
                    drain_rps[round], "1/s");

    const auto pp2d = static_cast<std::size_t>(RequestType::Pp2dPlan);
    const auto prm = static_cast<std::size_t>(RequestType::PrmQuery);
    const auto nn = static_cast<std::size_t>(RequestType::NnBatch);
    const auto icp = static_cast<std::size_t>(RequestType::IcpRegister);
    const Windows plain_windows = windowStats(plain);

    if (!options.trace) {
        auto typeMs = [&](std::size_t type) {
            return median(plain.execOf(type)) * 1e-3;
        };
        result.add("roi_geomean_ms",
                   geomean({typeMs(pp2d), typeMs(prm), typeMs(nn),
                            typeMs(icp)}),
                   "ms");
        result.add("perception_roi_ms", geomean({typeMs(nn), typeMs(icp)}),
                   "ms");
        result.add("planning_roi_ms", geomean({typeMs(pp2d), typeMs(prm)}),
                   "ms");
        // The best backlog drain and the best one-second window, as the
        // kernels report their best pass: interference from outside the
        // process only ever costs throughput and adds latency, and it
        // comes in bursts that cover some rounds and windows of a run.
        result.add("drain_rps",
                   *std::max_element(drain_rps.begin(), drain_rps.end()),
                   "1/s");
        result.add("latency_p50_us",
                   *std::min_element(plain_windows.p50_us.begin(),
                                     plain_windows.p50_us.end()),
                   "us");
        result.add("latency_p99_us",
                   *std::min_element(plain_windows.p99_us.begin(),
                                     plain_windows.p99_us.end()),
                   "us");
        result.add("ok_frac",
                   1.0 - static_cast<double>(result.failed) /
                             static_cast<double>(result.attempted),
                   "frac");
        // Set-up is milliseconds (World) and microseconds (start(),
        // which spawns the workers): the best of each, like drain_rps.
        result.add("setup_s",
                   *std::min_element(world_s.begin(), world_s.end()) +
                       *std::min_element(start_s.begin(), start_s.end()),
                   "s");
        result.add("peak_rss_mb", peakRssMb(), "MiB");
        return result;
    }

    // Per-layer metrics, from the traced segment.
    result.add("service.queue_wait_p50_us",
               percentile(traced.queue_us, 0.50), "us");
    result.add("service.queue_wait_p99_us",
               percentile(traced.queue_us, 0.99), "us");
    for (std::size_t type = 0; type < kTypes; ++type) {
        const std::string name =
            std::string("service.exec_") +
            requestTypeName(static_cast<RequestType>(type));
        const std::vector<double> exec = traced.execOf(type);
        result.add(name + "_p50_us", percentile(exec, 0.50), "us");
        result.add(name + "_p99_us", percentile(exec, 0.99), "us");
    }
    result.add("service.submit_p99_us", percentile(traced.submit_us, 0.99),
               "us");
    result.add("service.rejected_full",
               static_cast<double>(rejected_full + plain.rejected_full +
                                   traced.rejected_full),
               "count");
    result.add("service.found_frac_pp2d",
               static_cast<double>(pool.pp2d_found) /
                   static_cast<double>(pool.count[pp2d]),
               "frac");
    result.add("service.found_frac_prm",
               static_cast<double>(pool.prm_found) /
                   static_cast<double>(pool.count[prm]),
               "frac");
    result.add("bench.generator_lag_p99_us",
               percentile(traced.lag_us, 0.99), "us");
    result.add("bench.trace_overhead_frac",
               median(windowStats(traced).p50_us) /
                       median(plain_windows.p50_us) -
                   1.0,
               "frac");
    result.add("bench.trace_dropped", static_cast<double>(dropped), "count");
    return result;
}

} // namespace suite
