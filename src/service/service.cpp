#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <type_traits>
#include <utility>

#include "grid/footprint.h"
#include "search/grid_planner2d.h"
#include "telemetry/trace.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace rtr {
namespace service {

/** One submitted request: queue payload and registry entry. */
struct PlanningService::Slot
{
    std::uint64_t id = 0;
    Request request;
    Response response;
    std::atomic<TicketStatus> status{TicketStatus::Pending};
    ResponseTiming timing;
};

/** One stripe of the ticket registry (id % kShards). */
struct PlanningService::Shard
{
    mutable std::mutex mutex;
    std::unordered_map<std::uint64_t, std::unique_ptr<Slot>> slots;
};

/**
 * Per-worker clones of everything with mutable scratch. The World's
 * own footprint/checker prototypes are never touched by workers, so
 * any worker count reads the same immutable state. The footprint
 * planes are read-only and shared, not cloned.
 */
struct PlanningService::WorkerContext
{
    RectFootprint footprint;
    GridPlanner2D planner;
    ArmCollisionChecker checker;
    /** PRM query scratch: persistent roadmap copy + search workspace,
     *  so repeat PrmQuery requests stop copying the graph per call. */
    PrmQueryWorkspace prm_ws;

    explicit WorkerContext(const World &world)
        : footprint(world.footprint()),
          planner(world.grid(), &footprint,
                  world.config().search_engine, world.footprintPlanes()),
          checker(world.arm(), world.workspace())
    {
    }
};

namespace {

/** Deterministic synthetic scan: a perturbed noisy subset of the
 *  target model, all randomness drawn from the request seed. */
PointCloud
makeIcpSource(const World &world, const IcpRegisterRequest &request)
{
    Rng rng(request.seed);
    const PointCloud &model = world.icpModel();
    std::vector<Vec3> points;
    points.reserve(request.n_points);
    for (std::uint32_t i = 0; i < request.n_points; ++i)
        points.push_back(model[rng.index(model.size())]);
    PointCloud source{std::move(points)};

    RigidTransform3 perturb;
    perturb.rotation = rotationZ(rng.uniform(-0.12, 0.12));
    perturb.translation = Vec3{rng.uniform(-0.08, 0.08),
                               rng.uniform(-0.08, 0.08),
                               rng.uniform(-0.04, 0.04)};
    source.transform(perturb);
    for (std::size_t i = 0; i < source.size(); ++i) {
        source[i].x += rng.normal(0.0, 0.002);
        source[i].y += rng.normal(0.0, 0.002);
        source[i].z += rng.normal(0.0, 0.002);
    }
    return source;
}

} // namespace

PlanningService::PlanningService(const World &world,
                                 const ServiceConfig &config)
    : world_(world), config_(config),
      worker_count_(config.workers > 0 ? config.workers
                                       : parallelThreads()),
      queue_(config.queue_capacity), shards_(new Shard[kShards])
{
    accepting_.store(true, std::memory_order_release);
}

PlanningService::~PlanningService()
{
    if (running())
        shutdown(Shutdown::Abort);
    else
        cancelRemaining();
}

PlanningService::Shard &
PlanningService::shardOf(std::uint64_t id) const
{
    return shards_[id % kShards];
}

void
PlanningService::start()
{
    RTR_ASSERT(!running_.load(std::memory_order_acquire),
               "start() on a running service");
    RTR_ASSERT(!stop_.load(std::memory_order_acquire),
               "start() after shutdown()");
    running_.store(true, std::memory_order_release);
    // One long parallel region whose chunks are the worker loops: the
    // service occupies the single-client rtr::parallel pool for its
    // whole lifetime, and handler-internal parallel calls run inline
    // on the worker (the nested-region rule), which is what keeps
    // responses independent of the worker count.
    dispatcher_ = std::thread([this] {
        parallelForChunks(0, worker_count_, 1,
                          [this](const ChunkRange &chunk) {
                              workerLoop(chunk.index);
                          });
    });
}

void
PlanningService::shutdown(Shutdown mode)
{
    // Callers must quiesce submissions before shutting down: a submit
    // racing this accepting_ store may still enqueue, and in Abort
    // mode could land after the cancel sweep (a permanently Pending
    // ticket).
    accepting_.store(false, std::memory_order_release);
    if (running_.load(std::memory_order_acquire)) {
        if (mode == Shutdown::Drain) {
            while (inflight_.load(std::memory_order_acquire) > 0) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(50));
            }
        } else {
            abort_.store(true, std::memory_order_release);
        }
        stop_.store(true, std::memory_order_release);
        dispatcher_.join();
        running_.store(false, std::memory_order_release);
    }
    // Whatever is still queued (Abort, or submitted before start() on
    // a service that never ran) becomes Cancelled — every issued
    // ticket ends Done or Cancelled, none are lost.
    cancelRemaining();
}

void
PlanningService::cancelRemaining()
{
    Slot *slot = nullptr;
    while (queue_.tryPop(slot))
        finishSlot(*slot, TicketStatus::Cancelled);
}

Ticket
PlanningService::submit(Request request)
{
    if (!accepting_.load(std::memory_order_acquire))
        fatal("PlanningService::submit on a stopped service");
    const std::uint64_t id =
        next_id_.fetch_add(1, std::memory_order_relaxed);
    auto slot = std::make_unique<Slot>();
    slot->id = id;
    slot->request = std::move(request);
    slot->timing.submit_ns = telemetry::nowNs();

    inflight_.fetch_add(1, std::memory_order_acq_rel);
    // Blocking backpressure: spin, then yield, then sleep until the
    // bounded queue accepts the slot.
    int attempts = 0;
    while (!queue_.tryPush(slot.get())) {
        if (++attempts < 128)
            continue;
        if (attempts < 1024)
            std::this_thread::yield();
        else
            std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    submitted_.fetch_add(1, std::memory_order_relaxed);

    // Register after the push: workers never touch the registry, so
    // the only lookups that matter (poll/wait/collect by this id)
    // happen after we return the ticket.
    {
        Shard &shard = shardOf(id);
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.slots.emplace(id, std::move(slot));
    }
    return Ticket{id};
}

Ticket
PlanningService::trySubmit(Request request)
{
    if (!accepting_.load(std::memory_order_acquire))
        return Ticket{0};
    const std::uint64_t id =
        next_id_.fetch_add(1, std::memory_order_relaxed);
    auto slot = std::make_unique<Slot>();
    slot->id = id;
    slot->request = std::move(request);
    slot->timing.submit_ns = telemetry::nowNs();

    inflight_.fetch_add(1, std::memory_order_acq_rel);
    if (!queue_.tryPush(slot.get())) {
        inflight_.fetch_sub(1, std::memory_order_acq_rel);
        rejected_full_.fetch_add(1, std::memory_order_relaxed);
        return Ticket{0}; // slot frees on scope exit; id is burned
    }
    submitted_.fetch_add(1, std::memory_order_relaxed);
    {
        Shard &shard = shardOf(id);
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.slots.emplace(id, std::move(slot));
    }
    return Ticket{id};
}

PlanningService::Slot *
PlanningService::findSlot(std::uint64_t id) const
{
    if (id == 0)
        return nullptr;
    Shard &shard = shardOf(id);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.slots.find(id);
    return it == shard.slots.end() ? nullptr : it->second.get();
}

TicketStatus
PlanningService::poll(Ticket ticket) const
{
    const Slot *slot = findSlot(ticket.id);
    if (slot == nullptr)
        return TicketStatus::Unknown;
    return slot->status.load(std::memory_order_acquire);
}

TicketStatus
PlanningService::wait(Ticket ticket)
{
    Slot *slot = findSlot(ticket.id);
    if (slot == nullptr)
        return TicketStatus::Unknown;
    auto finished = [](TicketStatus s) {
        return s == TicketStatus::Done || s == TicketStatus::Cancelled;
    };
    TicketStatus s = slot->status.load(std::memory_order_seq_cst);
    if (finished(s))
        return s;
    // seq_cst handshake with finishSlot(): either the finisher sees
    // our waiter registration (and notifies under the mutex), or our
    // status re-read below sees its Done/Cancelled store.
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    {
        std::unique_lock<std::mutex> lock(completion_mutex_);
        completion_cv_.wait(lock, [&] {
            return finished(slot->status.load(std::memory_order_seq_cst));
        });
    }
    waiters_.fetch_sub(1, std::memory_order_seq_cst);
    return slot->status.load(std::memory_order_acquire);
}

Completion
PlanningService::collect(Ticket ticket)
{
    Completion out;
    out.status = wait(ticket);
    if (out.status == TicketStatus::Unknown)
        return out;

    std::unique_ptr<Slot> slot;
    {
        Shard &shard = shardOf(ticket.id);
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.slots.find(ticket.id);
        if (it == shard.slots.end()) {
            out.status = TicketStatus::Unknown; // collected concurrently
            return out;
        }
        slot = std::move(it->second);
        shard.slots.erase(it);
    }
    out.status = slot->status.load(std::memory_order_acquire);
    out.response = std::move(slot->response);
    out.timing = slot->timing;
    return out;
}

ServiceStats
PlanningService::stats() const
{
    ServiceStats out;
    out.submitted = submitted_.load(std::memory_order_relaxed);
    out.completed = completed_.load(std::memory_order_relaxed);
    out.cancelled = cancelled_.load(std::memory_order_relaxed);
    out.rejected_full = rejected_full_.load(std::memory_order_relaxed);
    out.queue_depth = queue_.sizeApprox();
    return out;
}

void
PlanningService::workerLoop(std::size_t /*worker_id*/)
{
    WorkerContext ctx(world_);
    Slot *slot = nullptr;
    int idle = 0;
    for (;;) {
        if (abort_.load(std::memory_order_acquire))
            break;
        if (queue_.tryPop(slot)) {
            idle = 0;
            execute(*slot, ctx);
            finishSlot(*slot, TicketStatus::Done);
            continue;
        }
        // stop_ is only set once the queue can no longer refill
        // (drain waited for inflight == 0; abort is checked above),
        // so empty-queue + stop_ means this worker is finished.
        if (stop_.load(std::memory_order_acquire))
            break;
        if (++idle < 64)
            continue;
        if (idle < 256)
            std::this_thread::yield();
        else
            std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
}

void
PlanningService::execute(Slot &slot, WorkerContext &ctx) const
{
    slot.status.store(TicketStatus::Running,
                      std::memory_order_relaxed);
    slot.timing.start_ns = telemetry::nowNs();

    slot.response = std::visit(
        [&](const auto &request) -> Response {
            using R = std::decay_t<decltype(request)>;
            if constexpr (std::is_same_v<R, Pp2dPlanRequest>) {
                GridPlan2D plan = ctx.planner.plan(
                    request.start, request.goal, request.epsilon);
                Pp2dPlanResponse response;
                response.found = plan.found;
                response.cost = plan.cost;
                response.expanded = plan.expanded;
                response.path = std::move(plan.path);
                return response;
            } else if constexpr (std::is_same_v<R, PrmQueryRequest>) {
                std::size_t heuristic_evals = 0;
                MotionPlan plan = world_.prm().query(
                    request.start, request.goal, ctx.checker, nullptr,
                    &heuristic_evals, &ctx.prm_ws);
                PrmQueryResponse response;
                response.found = plan.found;
                response.cost = plan.cost;
                response.heuristic_evals = heuristic_evals;
                response.path = std::move(plan.path);
                return response;
            } else if constexpr (std::is_same_v<R, NnBatchRequest>) {
                NnBatchResponse response;
                if (!request.queries.empty()) {
                    world_.nnIndex().kNearestBatch(
                        request.queries,
                        std::max<std::uint32_t>(request.k, 1),
                        response.hits);
                }
                return response;
            } else {
                static_assert(std::is_same_v<R, IcpRegisterRequest>);
                PointCloud source = makeIcpSource(world_, request);
                IcpConfig config;
                config.max_iterations = request.max_iterations;
                config.max_correspondence_distance = 1.0;
                IcpResult icp =
                    icpRegister(source, world_.icpTarget(), config);
                IcpRegisterResponse response;
                response.rmse = icp.rmse;
                response.iterations = icp.iterations;
                response.converged = icp.converged;
                for (std::size_t r = 0; r < 3; ++r) {
                    for (std::size_t c = 0; c < 3; ++c)
                        response.transform[r * 3 + c] =
                            icp.transform.rotation(r, c);
                }
                response.transform[9] = icp.transform.translation.x;
                response.transform[10] = icp.transform.translation.y;
                response.transform[11] = icp.transform.translation.z;
                return response;
            }
        },
        slot.request);

    slot.timing.done_ns = telemetry::nowNs();
    telemetry::completeSpan("service-queue", telemetry::Category::User,
                            slot.timing.submit_ns,
                            slot.timing.start_ns - slot.timing.submit_ns);
    telemetry::completeSpan("service-exec", telemetry::Category::User,
                            slot.timing.start_ns,
                            slot.timing.done_ns - slot.timing.start_ns);
}

void
PlanningService::finishSlot(Slot &slot, TicketStatus status)
{
    slot.status.store(status, std::memory_order_seq_cst);
    if (status == TicketStatus::Cancelled)
        cancelled_.fetch_add(1, std::memory_order_relaxed);
    else
        completed_.fetch_add(1, std::memory_order_relaxed);
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    if (waiters_.load(std::memory_order_seq_cst) > 0) {
        // Empty critical section: a waiter between its predicate check
        // and its sleep holds the mutex, so this lock orders the
        // notify after it starts waiting.
        { std::lock_guard<std::mutex> lock(completion_mutex_); }
        completion_cv_.notify_all();
    }
}

} // namespace service
} // namespace rtr
