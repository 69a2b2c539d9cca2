/**
 * @file
 * The planning service: MPMC queue correctness under producer/consumer
 * stress, bounded-queue backpressure, shutdown-while-draining ticket
 * accounting, and the determinism contract (responses are pure
 * functions of the request — never of submission order or worker
 * count), verified by canonical-byte replay.
 */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "search/grid_planner2d.h"
#include "service/service.h"
#include "util/mpmc_queue.h"
#include "util/rng.h"

namespace {

using namespace rtr;
using namespace rtr::service;

TEST(MpmcQueueTest, FifoWhenSingleThreaded)
{
    MpmcQueue<int> queue(4);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(queue.tryPush(i));
    EXPECT_FALSE(queue.tryPush(99)) << "bounded queue must reject";
    int value = -1;
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(queue.tryPop(value));
        EXPECT_EQ(value, i);
    }
    EXPECT_FALSE(queue.tryPop(value));
}

TEST(MpmcQueueTest, CapacityRoundsUpToPowerOfTwo)
{
    MpmcQueue<int> queue(5); // rounds to 8
    int pushed = 0;
    while (queue.tryPush(pushed))
        ++pushed;
    EXPECT_EQ(pushed, 8);
}

/**
 * Multi-producer/multi-consumer stress: every pushed value is popped
 * exactly once. This is the test the TSAN leg of check.sh runs to
 * vet the queue's memory ordering.
 */
TEST(MpmcQueueTest, MpmcStressLosesNothing)
{
    constexpr int kProducers = 4;
    constexpr int kConsumers = 4;
    constexpr int kPerProducer = 5000;
    constexpr int kTotal = kProducers * kPerProducer;

    MpmcQueue<int> queue(256); // much smaller than kTotal: wraps a lot
    std::atomic<int> popped{0};
    std::vector<std::vector<int>> consumed(kConsumers);

    std::vector<std::thread> threads;
    for (int p = 0; p < kProducers; ++p) {
        threads.emplace_back([&queue, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                const int value = p * kPerProducer + i;
                while (!queue.tryPush(value))
                    std::this_thread::yield();
            }
        });
    }
    for (int c = 0; c < kConsumers; ++c) {
        threads.emplace_back([&queue, &popped, &consumed, c] {
            int value = -1;
            while (popped.load(std::memory_order_acquire) < kTotal) {
                if (queue.tryPop(value)) {
                    consumed[c].push_back(value);
                    popped.fetch_add(1, std::memory_order_acq_rel);
                } else {
                    std::this_thread::yield();
                }
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    std::vector<int> seen(kTotal, 0);
    std::size_t total = 0;
    for (const std::vector<int> &values : consumed) {
        total += values.size();
        for (int value : values) {
            ASSERT_GE(value, 0);
            ASSERT_LT(value, kTotal);
            ++seen[static_cast<std::size_t>(value)];
        }
    }
    EXPECT_EQ(total, static_cast<std::size_t>(kTotal));
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                            [](int count) { return count == 1; }))
        << "every value must be popped exactly once";
}

/** Shared small world: tests exercise the engine, not asset sizes. */
const World &
testWorld()
{
    static const World *world = [] {
        WorldConfig config;
        config.grid_size = 64;
        config.prm_samples = 150;
        config.nn_points = 1024;
        return new World(config);
    }();
    return *world;
}

/** A deterministic mixed request stream over all four types. */
std::vector<Request>
mixedStream(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Request> stream;
    stream.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        stream.push_back(testWorld().randomRequest(
            static_cast<RequestType>(i % 4), rng));
    return stream;
}

TEST(ServiceTest, DrainCompletesEveryTicket)
{
    PlanningService svc(testWorld());
    std::vector<Ticket> tickets;
    std::vector<Request> stream = mixedStream(64, 11);
    for (const Request &request : stream)
        tickets.push_back(svc.submit(request));
    svc.start();
    EXPECT_TRUE(svc.running());
    svc.shutdown();
    EXPECT_FALSE(svc.running());

    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.submitted, 64u);
    EXPECT_EQ(stats.completed, 64u);
    EXPECT_EQ(stats.cancelled, 0u);
    for (Ticket ticket : tickets) {
        EXPECT_EQ(svc.poll(ticket), TicketStatus::Done);
        const Completion done = svc.collect(ticket);
        EXPECT_EQ(done.status, TicketStatus::Done);
        EXPECT_LE(done.timing.submit_ns, done.timing.start_ns);
        EXPECT_LE(done.timing.start_ns, done.timing.done_ns);
        // Collected tickets leave the registry.
        EXPECT_EQ(svc.poll(ticket), TicketStatus::Unknown);
    }
}

TEST(ServiceTest, BackpressureRejectsWhenFull)
{
    ServiceConfig config;
    config.workers = 1;
    config.queue_capacity = 8;
    PlanningService svc(testWorld(), config); // not started: queue fills
    NnBatchRequest tiny;
    tiny.queries.push_back({1.0, 2.0, 3.0});
    tiny.k = 1;

    std::vector<Ticket> tickets;
    for (int i = 0; i < 8; ++i) {
        Ticket ticket = svc.trySubmit(tiny);
        EXPECT_NE(ticket.id, 0u);
        tickets.push_back(ticket);
    }
    const Ticket rejected = svc.trySubmit(tiny);
    EXPECT_EQ(rejected.id, 0u) << "9th submit must hit the bound";
    EXPECT_EQ(svc.stats().rejected_full, 1u);
    EXPECT_EQ(svc.poll(rejected), TicketStatus::Unknown);

    svc.start();
    svc.shutdown();
    for (Ticket ticket : tickets)
        EXPECT_EQ(svc.collect(ticket).status, TicketStatus::Done);
    EXPECT_EQ(svc.stats().completed, 8u);
}

TEST(ServiceTest, NeverStartedServiceCancelsQueuedTickets)
{
    PlanningService svc(testWorld());
    std::vector<Ticket> tickets;
    std::vector<Request> stream = mixedStream(12, 13);
    for (const Request &request : stream)
        tickets.push_back(svc.submit(request));
    svc.shutdown(PlanningService::Shutdown::Abort);

    EXPECT_EQ(svc.stats().cancelled, 12u);
    for (Ticket ticket : tickets) {
        const Completion done = svc.collect(ticket);
        EXPECT_EQ(done.status, TicketStatus::Cancelled);
    }
}

/**
 * Abort while workers are mid-drain: every issued ticket must end
 * Done or Cancelled — none lost, none double-counted.
 */
TEST(ServiceTest, AbortWhileDrainingLosesNoTicket)
{
    ServiceConfig config;
    config.workers = 1;
    PlanningService svc(testWorld(), config);
    std::vector<Ticket> tickets;
    std::vector<Request> stream = mixedStream(96, 17);
    for (const Request &request : stream)
        tickets.push_back(svc.submit(request));
    svc.start();
    svc.shutdown(PlanningService::Shutdown::Abort);

    std::size_t done_count = 0, cancelled_count = 0;
    for (Ticket ticket : tickets) {
        const Completion done = svc.collect(ticket);
        if (done.status == TicketStatus::Done)
            ++done_count;
        else if (done.status == TicketStatus::Cancelled)
            ++cancelled_count;
        else
            FAIL() << "ticket in state "
                   << static_cast<int>(done.status);
    }
    EXPECT_EQ(done_count + cancelled_count, 96u);
    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.completed, done_count);
    EXPECT_EQ(stats.cancelled, cancelled_count);
}

TEST(ServiceTest, UnknownTicketsAreHandledGracefully)
{
    PlanningService svc(testWorld());
    EXPECT_EQ(svc.poll(Ticket{0}), TicketStatus::Unknown);
    EXPECT_EQ(svc.poll(Ticket{12345}), TicketStatus::Unknown);
    EXPECT_EQ(svc.wait(Ticket{12345}), TicketStatus::Unknown);
    EXPECT_EQ(svc.collect(Ticket{12345}).status, TicketStatus::Unknown);
}

/**
 * n requests drawn with the default service mix pp2d:2,prm:1,nn:10,icp:2
 * (the weights the suite's service-open workload draws with).
 */
std::vector<Request>
mixedPool(const World &world, std::size_t n, std::uint64_t seed)
{
    constexpr std::size_t kWeights[] = {2, 1, 10, 2}; // by RequestType
    Rng rng(seed);
    std::vector<Request> pool;
    pool.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t pick = rng.index(15);
        std::size_t type = 0;
        while (pick >= kWeights[type])
            pick -= kWeights[type++];
        pool.push_back(
            world.randomRequest(static_cast<RequestType>(type), rng));
    }
    return pool;
}

/**
 * Serve a stream on `workers` workers (0 = all pool threads), submitted
 * in `order` (empty = stream order). Returns the canonical bytes of
 * every response, indexed like the stream.
 */
std::vector<std::vector<std::uint8_t>>
runOnWorld(const World &world, const std::vector<Request> &stream,
           std::size_t workers, const std::vector<std::size_t> &order = {})
{
    ServiceConfig config;
    config.workers = workers;
    config.queue_capacity = 2 * stream.size();
    PlanningService svc(world, config);
    svc.start();
    std::vector<Ticket> tickets(stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const std::size_t idx = order.empty() ? i : order[i];
        tickets[idx] = svc.submit(stream[idx]);
    }
    svc.shutdown();

    std::vector<std::vector<std::uint8_t>> bytes(stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const Completion done = svc.collect(tickets[i]);
        EXPECT_EQ(done.status, TicketStatus::Done);
        appendCanonicalBytes(done.response, bytes[i]);
    }
    return bytes;
}

/**
 * The determinism contract: responses are bitwise identical across
 * submission orders and worker counts. 256 requests of the default mix
 * on the default World; the all-threads run lets TSan see submits race
 * a full set of workers.
 */
TEST(ServiceTest, ReplayIsBitwiseDeterministic)
{
    const World world;
    const std::vector<Request> stream = mixedPool(world, 256, 23);
    std::vector<std::size_t> forward(stream.size());
    std::iota(forward.begin(), forward.end(), std::size_t(0));
    std::vector<std::size_t> reversed(forward.rbegin(), forward.rend());
    std::vector<std::size_t> shuffled = forward;
    Rng rng(24);
    std::shuffle(shuffled.begin(), shuffled.end(), rng.engine());

    const auto baseline = runOnWorld(world, stream, 1);

    // The baseline must not be trivially empty: most responses carry
    // more than a header.
    std::size_t nonempty = 0;
    for (const std::vector<std::uint8_t> &bytes : baseline)
        nonempty += bytes.size() > 16 ? 1 : 0;
    EXPECT_GT(nonempty, stream.size() / 2);

    for (std::size_t workers :
         {std::size_t(1), std::size_t(2), std::size_t(0)}) {
        for (const auto *order : {&forward, &reversed, &shuffled}) {
            if (workers == 1 && order == &forward)
                continue; // the baseline itself
            const auto replay = runOnWorld(world, stream, workers, *order);
            ASSERT_EQ(replay.size(), baseline.size());
            for (std::size_t i = 0; i < baseline.size(); ++i)
                EXPECT_EQ(replay[i], baseline[i])
                    << "request " << i << " diverged (workers="
                    << workers << ")";
        }
    }
}

/**
 * The --search engines are not allowed to change a single response
 * byte: replaying one request stream through a flat-engine world and a
 * heap-engine world must produce identical canonical bytes, at any
 * worker count.
 */
TEST(ServiceTest, ReplayIsIdenticalAcrossSearchEngines)
{
    WorldConfig config;
    config.grid_size = 64;
    config.prm_samples = 150;
    config.nn_points = 1024;
    config.search_engine = SearchEngine::Flat;
    const World flat_world(config);
    config.search_engine = SearchEngine::Heap;
    const World heap_world(config);

    // The engine must not perturb world building either, or the
    // replies would trivially diverge for the wrong reason.
    Rng stream_rng(41);
    std::vector<Request> stream;
    for (std::size_t i = 0; i < 48; ++i)
        stream.push_back(flat_world.randomRequest(
            static_cast<RequestType>(i % 4), stream_rng));

    const auto baseline = runOnWorld(flat_world, stream, 1);
    std::size_t nonempty = 0;
    for (const std::vector<std::uint8_t> &bytes : baseline)
        nonempty += bytes.size() > 16 ? 1 : 0;
    EXPECT_GT(nonempty, stream.size() / 2);

    for (std::size_t workers : {std::size_t(1), std::size_t(2)}) {
        const auto flat = runOnWorld(flat_world, stream, workers);
        const auto heap = runOnWorld(heap_world, stream, workers);
        ASSERT_EQ(flat.size(), baseline.size());
        ASSERT_EQ(heap.size(), baseline.size());
        for (std::size_t i = 0; i < baseline.size(); ++i) {
            EXPECT_EQ(flat[i], baseline[i])
                << "flat request " << i << " diverged (workers="
                << workers << ")";
            EXPECT_EQ(heap[i], baseline[i])
                << "heap request " << i << " diverged (workers="
                << workers << ")";
        }
    }
}

/**
 * The World's footprint planes must not change a single pp2d response
 * byte: a fixed 256-request pool, plus start/goal cells outside the
 * grid (found = false, and the bounds check runs before any plane
 * read), served through the planes must match a planner that sweeps
 * the footprint, under both search engines.
 */
TEST(ServiceTest, Pp2dPlanesMatchFootprintSweep)
{
    for (SearchEngine engine : {SearchEngine::Flat, SearchEngine::Heap}) {
        WorldConfig config;
        config.prm_samples = 150;
        config.nn_points = 1024;
        config.search_engine = engine;
        const World world(config);
        ASSERT_NE(world.footprintPlanes(), nullptr);

        Rng rng(91);
        std::vector<Request> stream;
        for (std::size_t i = 0; i < 256; ++i)
            stream.push_back(world.randomPp2d(rng));
        const Pp2dPlanRequest valid = world.randomPp2d(rng);
        const int size = world.grid().width();
        for (const Cell2 &outside :
             {Cell2{-1, 3}, Cell2{4, -2}, Cell2{size, 0}, Cell2{0, size},
              Cell2{-size, -size}, Cell2{3 * size, 5}}) {
            Pp2dPlanRequest request = valid;
            request.start = outside;
            stream.push_back(request);
            request.start = valid.start;
            request.goal = outside;
            stream.push_back(request);
        }

        const auto served = runOnWorld(world, stream, 1);
        ASSERT_EQ(served.size(), stream.size());
        const GridPlanner2D sweep(world.grid(), &world.footprint(), engine);
        std::size_t found = 0;
        for (std::size_t i = 0; i < stream.size(); ++i) {
            const auto &request = std::get<Pp2dPlanRequest>(stream[i]);
            GridPlan2D plan =
                sweep.plan(request.start, request.goal, request.epsilon);
            found += plan.found ? 1 : 0;
            if (i >= 256)
                EXPECT_FALSE(plan.found) << "request " << i;
            Pp2dPlanResponse response;
            response.found = plan.found;
            response.cost = plan.cost;
            response.expanded = plan.expanded;
            response.path = std::move(plan.path);
            std::vector<std::uint8_t> bytes;
            appendCanonicalBytes(Response{std::move(response)}, bytes);
            EXPECT_EQ(served[i], bytes)
                << "request " << i << " diverged ("
                << searchEngineName(engine) << ")";
        }
        EXPECT_GT(found, 128u);
    }
}

/** FNV-1a over every response's canonical bytes, in stream order. */
std::uint64_t
digestOf(const std::vector<std::vector<std::uint8_t>> &served)
{
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    for (const std::vector<std::uint8_t> &bytes : served) {
        for (std::uint8_t byte : bytes) {
            digest ^= byte;
            digest *= 0x100000001b3ULL;
        }
    }
    return digest;
}

/**
 * The default World's PRM answers, pinned: the canonical bytes of a
 * fixed 256-request PrmQuery pool (found flag, cost, heuristic evals
 * and path of each) hashed in order. Neither the roadmap build nor the
 * attach step may move a byte.
 */
TEST(ServiceTest, PrmQueryPoolBytesArePinned)
{
    const World world;
    Rng rng(77);
    std::vector<Request> stream;
    for (std::size_t i = 0; i < 256; ++i)
        stream.push_back(world.randomPrm(rng));

    const auto served = runOnWorld(world, stream, 1);
    ASSERT_EQ(served.size(), stream.size());
    EXPECT_EQ(digestOf(served), 0x581d378c187527feULL);
}

/**
 * All four handlers pinned across commits: the bytes of the replay
 * test's 256-request default-mix pool, served at 1 worker. The replay
 * test only compares a build with itself; this digest fails when a
 * change moves any response byte (a kNN tie-break, an ICP step, a
 * planner's expansion order).
 */
TEST(ServiceTest, MixedPoolBytesArePinned)
{
    const World world;
    const auto served = runOnWorld(world, mixedPool(world, 256, 23), 1);
    ASSERT_EQ(served.size(), 256u);
    EXPECT_EQ(digestOf(served), 0xe8cff8754e705384ULL);
}

/** wait() from another thread wakes when the worker finishes. */
TEST(ServiceTest, WaitBlocksUntilCompletion)
{
    PlanningService svc(testWorld());
    Rng rng(31);
    Ticket ticket = svc.submit(testWorld().randomPp2d(rng));
    std::atomic<bool> woke{false};
    std::thread waiter([&] {
        const TicketStatus status = svc.wait(ticket);
        EXPECT_EQ(status, TicketStatus::Done);
        woke.store(true, std::memory_order_release);
    });
    svc.start();
    waiter.join();
    EXPECT_TRUE(woke.load(std::memory_order_acquire));
    svc.shutdown();
    EXPECT_EQ(svc.collect(ticket).status, TicketStatus::Done);
}

} // namespace
