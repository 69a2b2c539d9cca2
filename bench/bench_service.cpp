/**
 * @file
 * Open-loop latency harness for the planning service (rtr::service).
 *
 * Three phases against one shared World:
 *
 *  1. Backlog saturation: pre-queue 1k/10k/100k mixed requests (capped
 *     by --requests), then start the workers and drain — the sustained
 *     requests/sec ceiling and the sojourn-latency distribution under
 *     a standing queue.
 *  2. Poisson open loop: submissions arrive at exponential
 *     inter-arrival times (--rate), latency is measured from each
 *     request's *scheduled* arrival (not its actual submit), so
 *     coordinated omission cannot hide queueing delay.
 *  3. Determinism replay: one mixed request set submitted forward,
 *     reversed, and shuffled, across worker counts {1, 2}; the
 *     canonical response bytes of every run must memcmp-match the
 *     baseline. Divergence exits 2 (check.sh treats that as failure).
 *
 * `--json path` writes the full sweep as JSON to that path. The
 * committed service baseline is the suite's service-open workload
 * (BENCHMARK.json); this binary is the service smoke test.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "service/service.h"
#include "util/rng.h"

namespace {

using namespace rtr;
using namespace rtr::bench;
using namespace rtr::service;

struct Options
{
    double rate = 20000.0;       ///< Poisson arrivals per second.
    std::size_t requests = 20000;
    std::string mix = "pp2d:2,prm:1,nn:10,icp:2";
    std::size_t workers = 0;     ///< 0 = parallelThreads().
    std::size_t queue_capacity = 1 << 17;
    std::uint64_t seed = 1;
    std::string json_path;       ///< Empty = no JSON output.
};

[[noreturn]] void
usageExit(const char *argv0, const std::string &message)
{
    std::cerr << argv0 << ": " << message << "\n";
    std::exit(2);
}

long long
parseInt(const char *argv0, const char *what, const std::string &text,
         long long lo, long long hi)
{
    char *end = nullptr;
    errno = 0;
    const long long value = std::strtoll(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
        value < lo || value > hi)
        usageExit(argv0, std::string("bad value for ") + what + ": '" +
                             text + "'");
    return value;
}

double
parseReal(const char *argv0, const char *what, const std::string &text,
          double lo, double hi)
{
    char *end = nullptr;
    errno = 0;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
        !(value >= lo) || !(value <= hi))
        usageExit(argv0, std::string("bad value for ") + what + ": '" +
                             text + "'");
    return value;
}

/** Weighted request-type mix, parsed from "pp2d:1,prm:2,nn:4,icp:1". */
struct Mix
{
    std::array<std::size_t, 4> weight{};   // indexed by RequestType
    std::size_t total = 0;
};

Mix
parseMix(const char *argv0, const std::string &text)
{
    Mix mix;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string entry = text.substr(pos, comma - pos);
        const std::size_t colon = entry.find(':');
        if (colon == std::string::npos)
            usageExit(argv0, "bad --mix entry '" + entry +
                                 "' (want type:weight)");
        const std::string name = entry.substr(0, colon);
        bool matched = false;
        for (int t = 0; t < 4; ++t) {
            if (name == requestTypeName(static_cast<RequestType>(t))) {
                mix.weight[t] += static_cast<std::size_t>(
                    parseInt(argv0, "--mix weight",
                             entry.substr(colon + 1), 0, 1 << 20));
                matched = true;
                break;
            }
        }
        if (!matched)
            usageExit(argv0, "unknown request type '" + name +
                                 "' in --mix (pp2d|prm|nn|icp)");
        pos = comma + 1;
    }
    for (std::size_t w : mix.weight)
        mix.total += w;
    if (mix.total == 0)
        usageExit(argv0, "--mix has zero total weight");
    return mix;
}

Options
parseOptions(int argc, char **argv)
{
    requireKnownOptions(argc, argv,
                        {"--rate hz", "--requests n", "--mix spec",
                         "--workers n", "--queue-capacity n", "--seed n",
                         "--json path"});
    Options opt;
    auto value = [&](int &i, const char *what) -> std::string {
        if (i + 1 >= argc)
            usageExit(argv[0], std::string(what) + " needs a value");
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--rate") {
            opt.rate = parseReal(argv[0], "--rate", value(i, "--rate"),
                                 1.0, 1e9);
        } else if (arg == "--requests") {
            opt.requests = static_cast<std::size_t>(
                parseInt(argv[0], "--requests",
                         value(i, "--requests"), 1, 100000000));
        } else if (arg == "--mix") {
            opt.mix = value(i, "--mix");
        } else if (arg == "--workers") {
            opt.workers = static_cast<std::size_t>(parseInt(
                argv[0], "--workers", value(i, "--workers"), 0, 4096));
        } else if (arg == "--queue-capacity") {
            opt.queue_capacity = static_cast<std::size_t>(
                parseInt(argv[0], "--queue-capacity",
                         value(i, "--queue-capacity"), 2, 1 << 26));
        } else if (arg == "--seed") {
            opt.seed = static_cast<std::uint64_t>(parseInt(
                argv[0], "--seed", value(i, "--seed"), 0,
                std::numeric_limits<long long>::max()));
        } else if (arg == "--json") {
            opt.json_path = value(i, "--json");
            if (opt.json_path.empty() || opt.json_path[0] == '-')
                usageExit(argv[0], "--json needs a path");
        } else {
            usageExit(argv[0], "unexpected operand '" + arg + "'");
        }
    }
    return opt;
}

/** A deterministic mixed request stream (type choice + payload). */
std::vector<Request>
makeStream(const World &world, const Mix &mix, std::size_t n,
           std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Request> stream;
    stream.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t pick = rng.index(mix.total);
        int type = 0;
        while (pick >= mix.weight[static_cast<std::size_t>(type)]) {
            pick -= mix.weight[static_cast<std::size_t>(type)];
            ++type;
        }
        stream.push_back(
            world.randomRequest(static_cast<RequestType>(type), rng));
    }
    return stream;
}

/** Latency distribution summary (microseconds). */
struct LatencySummary
{
    double p50 = 0.0, p95 = 0.0, p99 = 0.0, p999 = 0.0, mean = 0.0;
};

LatencySummary
summarize(std::vector<double> &latencies_us)
{
    LatencySummary s;
    if (latencies_us.empty())
        return s;
    std::sort(latencies_us.begin(), latencies_us.end());
    auto pct = [&](double q) {
        const std::size_t n = latencies_us.size();
        std::size_t idx = static_cast<std::size_t>(q * (n - 1) + 0.5);
        return latencies_us[std::min(idx, n - 1)];
    };
    s.p50 = pct(0.50);
    s.p95 = pct(0.95);
    s.p99 = pct(0.99);
    s.p999 = pct(0.999);
    double sum = 0.0;
    for (double v : latencies_us)
        sum += v;
    s.mean = sum / static_cast<double>(latencies_us.size());
    return s;
}

void
latencyFields(JsonWriter &json, const LatencySummary &s)
{
    json.field("mean_us", s.mean);
    json.field("p50_us", s.p50);
    json.field("p95_us", s.p95);
    json.field("p99_us", s.p99);
    json.field("p999_us", s.p999);
}

/** One backlog (pre-queued) drain run. */
struct BacklogResult
{
    std::size_t queued = 0;
    double seconds = 0.0;
    double requests_per_sec = 0.0;
    LatencySummary latency;   ///< submit -> done sojourn.
};

BacklogResult
runBacklog(const World &world, const Options &opt,
           const std::vector<Request> &stream)
{
    ServiceConfig config;
    config.workers = opt.workers;
    config.queue_capacity =
        std::max(opt.queue_capacity, stream.size() * 2);
    PlanningService svc(world, config);

    std::vector<Ticket> tickets;
    tickets.reserve(stream.size());
    for (const Request &request : stream)
        tickets.push_back(svc.submit(request));

    const std::int64_t t0 = telemetry::nowNs();
    svc.start();
    svc.shutdown(PlanningService::Shutdown::Drain);
    const std::int64_t t1 = telemetry::nowNs();

    BacklogResult result;
    result.queued = stream.size();
    result.seconds = static_cast<double>(t1 - t0) * 1e-9;
    result.requests_per_sec =
        static_cast<double>(stream.size()) / result.seconds;
    std::vector<double> sojourn_us;
    sojourn_us.reserve(tickets.size());
    for (Ticket ticket : tickets) {
        const Completion done = svc.collect(ticket);
        sojourn_us.push_back(static_cast<double>(done.timing.done_ns -
                                                 done.timing.submit_ns) *
                             1e-3);
    }
    result.latency = summarize(sojourn_us);
    return result;
}

/** The Poisson open-loop run. */
struct PoissonResult
{
    double offered_rate = 0.0;   ///< Requested arrivals/sec.
    double achieved_rate = 0.0;  ///< Completions/sec over the run.
    std::size_t requests = 0;
    LatencySummary latency;      ///< scheduled arrival -> done.
    LatencySummary exec;         ///< start -> done (service time).
};

PoissonResult
runPoisson(const World &world, const Options &opt,
           const std::vector<Request> &stream)
{
    ServiceConfig config;
    config.workers = opt.workers;
    config.queue_capacity = opt.queue_capacity;
    PlanningService svc(world, config);
    svc.start();

    // Exponential inter-arrival schedule, fixed before the clock
    // starts so generation cost is not in the measured window.
    Rng arrivals(splitSeed(opt.seed, 101));
    std::vector<double> offset_ns(stream.size());
    double t = 0.0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        t += -std::log(1.0 - arrivals.uniform()) * 1e9 / opt.rate;
        offset_ns[i] = t;
    }

    std::vector<Ticket> tickets(stream.size());
    std::vector<std::int64_t> scheduled_ns(stream.size());
    const std::int64_t t0 = telemetry::nowNs();
    for (std::size_t i = 0; i < stream.size(); ++i) {
        scheduled_ns[i] =
            t0 + static_cast<std::int64_t>(offset_ns[i]);
        // Sleep down to ~100us before the arrival, then yield-spin:
        // precise enough for microsecond-scale schedules without
        // burning the whole wait on a busy loop.
        std::int64_t now = telemetry::nowNs();
        if (scheduled_ns[i] - now > 200000)
            std::this_thread::sleep_for(std::chrono::nanoseconds(
                scheduled_ns[i] - now - 100000));
        while (telemetry::nowNs() < scheduled_ns[i])
            std::this_thread::yield();
        tickets[i] = svc.submit(stream[i]);
    }
    svc.shutdown(PlanningService::Shutdown::Drain);
    const std::int64_t t1 = telemetry::nowNs();

    PoissonResult result;
    result.offered_rate = opt.rate;
    result.requests = stream.size();
    result.achieved_rate = static_cast<double>(stream.size()) /
                           (static_cast<double>(t1 - t0) * 1e-9);
    std::vector<double> sojourn_us(stream.size());
    std::vector<double> exec_us(stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const Completion done = svc.collect(tickets[i]);
        sojourn_us[i] = static_cast<double>(done.timing.done_ns -
                                            scheduled_ns[i]) *
                        1e-3;
        exec_us[i] = static_cast<double>(done.timing.done_ns -
                                         done.timing.start_ns) *
                     1e-3;
    }
    result.latency = summarize(sojourn_us);
    result.exec = summarize(exec_us);
    return result;
}

/** Mean service time per request type (solo backlog runs). */
struct TypeCost
{
    RequestType type;
    double mean_us = 0.0;
    double requests_per_sec = 0.0;
};

std::vector<TypeCost>
runPerType(const World &world, const Options &opt)
{
    std::vector<TypeCost> costs;
    const std::size_t n = std::min<std::size_t>(opt.requests, 2000);
    for (int t = 0; t < 4; ++t) {
        Mix solo;
        solo.weight[static_cast<std::size_t>(t)] = 1;
        solo.total = 1;
        const std::vector<Request> stream =
            makeStream(world, solo, n, splitSeed(opt.seed, 7 + t));
        const BacklogResult run = runBacklog(world, opt, stream);
        TypeCost cost;
        cost.type = static_cast<RequestType>(t);
        cost.mean_us = 1e6 / run.requests_per_sec;
        cost.requests_per_sec = run.requests_per_sec;
        costs.push_back(cost);
    }
    return costs;
}

/**
 * Determinism replay: canonical response bytes per request index must
 * be identical across submission orders and worker counts.
 */
struct ReplayResult
{
    bool identical = true;
    std::string divergence;   ///< Human-readable first mismatch.
    std::size_t runs = 0;
    std::size_t requests = 0;
};

ReplayResult
runReplay(const World &world, const Options &opt, const Mix &mix)
{
    const std::size_t n = std::min<std::size_t>(opt.requests, 240);
    const std::vector<Request> stream =
        makeStream(world, mix, n, splitSeed(opt.seed, 55));

    // Submission orders: forward, reversed, shuffled.
    std::vector<std::vector<std::size_t>> orders;
    std::vector<std::size_t> forward(n);
    for (std::size_t i = 0; i < n; ++i)
        forward[i] = i;
    orders.push_back(forward);
    std::vector<std::size_t> reversed(forward.rbegin(), forward.rend());
    orders.push_back(reversed);
    std::vector<std::size_t> shuffled = forward;
    Rng shuffle_rng(splitSeed(opt.seed, 56));
    std::shuffle(shuffled.begin(), shuffled.end(), shuffle_rng.engine());
    orders.push_back(shuffled);
    const char *order_names[] = {"forward", "reversed", "shuffled"};

    ReplayResult result;
    result.requests = n;
    std::vector<std::vector<std::uint8_t>> baseline;
    for (std::size_t workers : {std::size_t(1), std::size_t(2)}) {
        for (std::size_t o = 0; o < orders.size(); ++o) {
            ServiceConfig config;
            config.workers = workers;
            config.queue_capacity = std::max<std::size_t>(2 * n, 64);
            PlanningService svc(world, config);
            svc.start();
            std::vector<Ticket> tickets(n);
            for (std::size_t idx : orders[o])
                tickets[idx] = svc.submit(stream[idx]);
            svc.shutdown(PlanningService::Shutdown::Drain);

            std::vector<std::vector<std::uint8_t>> bytes(n);
            for (std::size_t i = 0; i < n; ++i) {
                const Completion done = svc.collect(tickets[i]);
                appendCanonicalBytes(done.response, bytes[i]);
            }
            ++result.runs;
            if (baseline.empty()) {
                baseline = std::move(bytes);
                continue;
            }
            for (std::size_t i = 0; i < n; ++i) {
                if (bytes[i] != baseline[i]) {
                    result.identical = false;
                    if (result.divergence.empty())
                        result.divergence =
                            std::string("request ") + std::to_string(i) +
                            " (" +
                            requestTypeName(requestTypeOf(stream[i])) +
                            ") diverged in order=" + order_names[o] +
                            " workers=" + std::to_string(workers);
                }
            }
        }
    }
    return result;
}

void
writeJson(const Options &opt, const std::vector<TypeCost> &per_type,
          const std::vector<BacklogResult> &backlog,
          const PoissonResult &poisson, const ReplayResult &replay,
          std::size_t worker_count)
{
    std::ofstream file(opt.json_path);
    if (!file) {
        std::cerr << "cannot write " << opt.json_path << "\n";
        return;
    }
    JsonWriter json(file);
    json.beginObject();
    json.field("benchmark", "service");
    json.field("mix", opt.mix);
    json.field("seed", static_cast<long long>(opt.seed));
    json.field("workers", static_cast<long long>(worker_count));
    json.field("queue_capacity",
               static_cast<long long>(opt.queue_capacity));
    json.beginArray("per_type");
    for (const TypeCost &cost : per_type) {
        json.beginObject();
        json.field("type", requestTypeName(cost.type));
        json.field("mean_us", cost.mean_us);
        json.field("requests_per_sec", cost.requests_per_sec);
        json.endObject();
    }
    json.endArray();
    json.beginArray("backlog");
    for (const BacklogResult &run : backlog) {
        json.beginObject();
        json.field("queued", static_cast<long long>(run.queued));
        json.field("seconds", run.seconds);
        json.field("requests_per_sec", run.requests_per_sec);
        latencyFields(json, run.latency);
        json.endObject();
    }
    json.endArray();
    json.beginObject("poisson");
    json.field("offered_rate", poisson.offered_rate);
    json.field("achieved_rate", poisson.achieved_rate);
    json.field("requests", static_cast<long long>(poisson.requests));
    latencyFields(json, poisson.latency);
    json.field("exec_mean_us", poisson.exec.mean);
    json.field("exec_p99_us", poisson.exec.p99);
    json.endObject();
    json.beginObject("replay");
    json.field("runs", static_cast<long long>(replay.runs));
    json.field("requests", static_cast<long long>(replay.requests));
    json.field("identical", replay.identical);
    if (!replay.identical)
        json.field("divergence", replay.divergence);
    json.endObject();
    json.endObject();
    std::cout << "\nwrote " << opt.json_path << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Harness harness(argc, argv);
    const Options opt = parseOptions(argc, argv);
    const Mix mix = parseMix(argv[0], opt.mix);

    banner("service — planning-as-a-service throughput and latency",
           "the paper benchmarks each kernel one query at a time; this "
           "harness serves the same kernels as a long-lived engine "
           "under open-loop Poisson traffic");

    World world;
    std::cout << "world: " << world.config().grid_size << "x"
              << world.config().grid_size << " grid, "
              << world.config().prm_samples << "-node PRM, "
              << world.config().nn_points << "-pt NN cloud, "
              << world.icpModel().size() << "-pt ICP model\n"
              << "mix: " << opt.mix << "   requests: " << opt.requests
              << "   rate: " << opt.rate << "/s\n\n";

    // Per-type service time (also warms the allocator and pool).
    const std::vector<TypeCost> per_type = runPerType(world, opt);
    Table type_table({"type", "µs/req", "req/s"});
    for (const TypeCost &cost : per_type)
        type_table.addRow({requestTypeName(cost.type),
                           Table::num(cost.mean_us, 1),
                           Table::num(cost.requests_per_sec, 0)});
    type_table.print();

    // Backlog saturation sweep.
    std::vector<std::size_t> sizes;
    for (std::size_t size : {std::size_t(1000), std::size_t(10000),
                             std::size_t(100000)})
        if (size <= opt.requests)
            sizes.push_back(size);
    if (sizes.empty())
        sizes.push_back(opt.requests);
    std::vector<BacklogResult> backlog;
    std::cout << "\nbacklog saturation (pre-queued, drained):\n";
    Table backlog_table({"queued", "req/s", "p50 µs", "p95 µs",
                         "p99 µs", "p99.9 µs"});
    for (std::size_t size : sizes) {
        const std::vector<Request> stream =
            makeStream(world, mix, size, splitSeed(opt.seed, 21));
        backlog.push_back(runBacklog(world, opt, stream));
        const BacklogResult &run = backlog.back();
        backlog_table.addRow(
            {Table::count(static_cast<long long>(run.queued)),
             Table::num(run.requests_per_sec, 0),
             Table::num(run.latency.p50, 1),
             Table::num(run.latency.p95, 1),
             Table::num(run.latency.p99, 1),
             Table::num(run.latency.p999, 1)});
    }
    backlog_table.print();

    // Poisson open loop.
    const std::vector<Request> poisson_stream =
        makeStream(world, mix, opt.requests, splitSeed(opt.seed, 22));
    const PoissonResult poisson =
        runPoisson(world, opt, poisson_stream);
    std::cout << "\npoisson open loop (latency from scheduled "
                 "arrival):\n";
    Table poisson_table({"offered/s", "achieved/s", "p50 µs", "p95 µs",
                         "p99 µs", "p99.9 µs", "exec µs"});
    poisson_table.addRow({Table::num(poisson.offered_rate, 0),
                          Table::num(poisson.achieved_rate, 0),
                          Table::num(poisson.latency.p50, 1),
                          Table::num(poisson.latency.p95, 1),
                          Table::num(poisson.latency.p99, 1),
                          Table::num(poisson.latency.p999, 1),
                          Table::num(poisson.exec.mean, 1)});
    poisson_table.print();

    // Determinism replay.
    const ReplayResult replay = runReplay(world, opt, mix);
    std::cout << "\nreplay: " << replay.runs << " runs x "
              << replay.requests << " requests -> "
              << (replay.identical ? "bitwise identical"
                                   : "DIVERGED: " + replay.divergence)
              << "\n";

    ServiceConfig probe;
    probe.workers = opt.workers;
    const std::size_t worker_count =
        PlanningService(world, probe).workerCount();
    if (!opt.json_path.empty())
        writeJson(opt, per_type, backlog, poisson, replay,
                  worker_count);

    return replay.identical ? 0 : 2;
}
