/**
 * @file
 * The planning-as-a-service engine.
 *
 * Long-lived runtime that accepts planning requests from any thread,
 * queues them through a bounded lock-free MPMC ring, executes them on
 * workers dispatched over the rtr::parallel pool, and hands results
 * back through ticketed response handles:
 *
 *     PlanningService svc(world);
 *     svc.start();
 *     Ticket t = svc.submit(world.randomPp2d(rng));
 *     ... do other work ...
 *     auto done = svc.collect(t);   // waits, returns response+timing
 *     svc.shutdown();               // drains, then stops workers
 *
 * Ticket lifecycle: submit() registers a slot (Pending), a worker pops
 * it (Running), finishes it (Done), and collect() removes it from the
 * registry — after which the ticket is Unknown. shutdown(Abort) marks
 * still-queued slots Cancelled instead of executing them; cancelled
 * tickets are collectable (empty response) so no ticket is ever lost.
 *
 * Determinism contract: every response is a pure function of the
 * request and the immutable World — never of arrival order, queue
 * depth, or worker count. Handlers use per-worker clones of anything
 * with mutable scratch and derive all randomness from seeds carried in
 * the request. tests/test_service.cpp replays permuted submission
 * orders across worker counts and memcmps the canonical response
 * bytes.
 *
 * Pool interaction (the one sharp edge): the rtr::parallel pool is
 * single-client, and a running service *is* that client — a dedicated
 * dispatcher thread occupies the pool with one long parallel region
 * whose chunks are the worker loops. While the service is running, no
 * other thread may enter a parallel region (parallelFor and friends,
 * or kernels that use them). Handlers themselves may call parallel
 * code freely: nested regions run inline on the worker, which is
 * exactly what the determinism contract needs. setParallelThreads()
 * must not be called while the service runs.
 */

#ifndef RTR_SERVICE_SERVICE_H
#define RTR_SERVICE_SERVICE_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "service/request.h"
#include "service/world.h"
#include "util/mpmc_queue.h"

namespace rtr {
namespace service {

/** Engine tuning knobs. */
struct ServiceConfig
{
    /**
     * Worker loops to dispatch; 0 uses parallelThreads(). More workers
     * than pool threads is allowed (excess loops run after earlier
     * ones exit) but buys nothing.
     */
    std::size_t workers = 0;
    /** Request-queue bound (rounded up to a power of two). */
    std::size_t queue_capacity = 1 << 14;
};

/** Response handle; value 0 is never issued. */
struct Ticket
{
    std::uint64_t id = 0;
};

/** Where a ticket is in its lifecycle. */
enum class TicketStatus : std::uint8_t
{
    Pending,   ///< Queued, not yet picked up.
    Running,   ///< A worker is executing it.
    Done,      ///< Response ready; collect() will not block.
    Cancelled, ///< Aborted before execution; empty response.
    Unknown,   ///< Never issued, or already collected.
};

/** Per-request wall-clock stamps (steady-clock ns). */
struct ResponseTiming
{
    std::int64_t submit_ns = 0; ///< submit() registered the slot.
    std::int64_t start_ns = 0;  ///< A worker began executing.
    std::int64_t done_ns = 0;   ///< The response was published.
};

/** A collected ticket: the response plus its queue/exec timeline. */
struct Completion
{
    TicketStatus status = TicketStatus::Unknown;
    Response response;
    ResponseTiming timing;
};

/** Engine counters (monotonic since construction). */
struct ServiceStats
{
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t cancelled = 0;
    /** trySubmit() calls rejected by a full queue (backpressure). */
    std::uint64_t rejected_full = 0;
    /** Approximate current queue depth. */
    std::size_t queue_depth = 0;
};

/** The engine. One instance serves one World. */
class PlanningService
{
  public:
    /** @param world Must outlive the service. */
    explicit PlanningService(const World &world,
                             const ServiceConfig &config = {});
    ~PlanningService();

    PlanningService(const PlanningService &) = delete;
    PlanningService &operator=(const PlanningService &) = delete;

    /**
     * Launch the dispatcher thread and its worker loops. Requests
     * submitted before start() are queued and execute once workers
     * run. Must not be called on a running service.
     */
    void start();

    /** How shutdown() treats still-queued requests. */
    enum class Shutdown
    {
        Drain, ///< Execute everything queued, then stop.
        Abort, ///< Stop now; queued requests become Cancelled.
    };

    /**
     * Stop accepting submissions, dispose of the queue per @p mode,
     * and join the workers. Tickets already issued remain collectable
     * (Done or Cancelled) afterwards. Idempotent.
     */
    void shutdown(Shutdown mode = Shutdown::Drain);

    /** Whether start() has run and shutdown() has not. */
    bool running() const { return running_.load(std::memory_order_acquire); }

    /**
     * Enqueue a request; blocks (spin/yield) while the queue is full.
     * Fatal on a service that is shutting down.
     */
    Ticket submit(Request request);

    /**
     * Non-blocking submit: Ticket with id 0 when the queue is full
     * (counted in ServiceStats::rejected_full) or the service is
     * shutting down.
     */
    Ticket trySubmit(Request request);

    /** Current status of a ticket (non-blocking). */
    TicketStatus poll(Ticket ticket) const;

    /** Block until the ticket is Done or Cancelled; returns which. */
    TicketStatus wait(Ticket ticket);

    /**
     * wait() and remove the ticket from the registry, returning its
     * response and timing. A ticket can be collected exactly once;
     * collecting an Unknown ticket returns status Unknown.
     */
    Completion collect(Ticket ticket);

    /** Counter snapshot. */
    ServiceStats stats() const;

  private:
    struct Slot;
    struct Shard;
    struct WorkerContext;

    Slot *registerSlot(Request request, std::uint64_t id);
    Slot *findSlot(std::uint64_t id) const;
    void workerLoop(std::size_t worker_id);
    void execute(Slot &slot, WorkerContext &ctx) const;
    void finishSlot(Slot &slot, TicketStatus status);
    void cancelRemaining();
    Shard &shardOf(std::uint64_t id) const;

    const World &world_;
    ServiceConfig config_;
    std::size_t worker_count_;

    MpmcQueue<Slot *> queue_;
    static constexpr std::size_t kShards = 16;
    std::unique_ptr<Shard[]> shards_;

    std::thread dispatcher_;
    std::atomic<bool> running_{false};
    std::atomic<bool> accepting_{false};
    std::atomic<bool> stop_{false};   ///< Workers exit when queue empty.
    std::atomic<bool> abort_{false};  ///< Workers exit immediately.

    std::atomic<std::uint64_t> next_id_{1};
    std::atomic<std::uint64_t> submitted_{0};
    std::atomic<std::uint64_t> completed_{0};
    std::atomic<std::uint64_t> cancelled_{0};
    std::atomic<std::uint64_t> rejected_full_{0};
    /** Submitted but not yet Done/Cancelled (drain barrier). */
    std::atomic<std::uint64_t> inflight_{0};

    /** Completion wakeups: seq_cst gate so wait() never sleeps past
     *  its notification (see wait()/finishSlot()). */
    std::atomic<std::uint64_t> waiters_{0};
    mutable std::mutex completion_mutex_;
    std::condition_variable completion_cv_;
};

} // namespace service
} // namespace rtr

#endif // RTR_SERVICE_SERVICE_H
