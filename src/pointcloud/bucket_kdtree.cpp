#include "pointcloud/bucket_kdtree.h"

#include <algorithm>
#include <numeric>

#include "telemetry/trace.h"
#include "util/parallel.h"
#include "util/simd.h"

namespace rtr {
namespace detail {

BucketKdCore::BucketKdCore(std::size_t dim) : dim_(dim)
{
    RTR_ASSERT(dim_ >= 1, "kd-tree dimension must be >= 1");
}

void
BucketKdCore::clear()
{
    total_ = 0;
    blocks_.clear();
    pending_.clear();
    pending_ids_.clear();
}

std::uint32_t
BucketKdCore::levelFor(std::size_t count) const
{
    std::uint32_t level = 0;
    while ((static_cast<std::size_t>(kLeafCapacity) << (level + 1)) <=
           count)
        ++level;
    return level;
}

BucketKdCore::Block
BucketKdCore::buildBlock(const std::vector<double> &pts,
                         const std::vector<std::uint32_t> &ids) const
{
    const std::size_t n = ids.size();
    RTR_ASSERT(n > 0, "bucket block must hold at least one point");
    Block block;
    block.count = static_cast<std::uint32_t>(n);
    block.level = levelFor(n);
    block.nodes.reserve(2 * (n / kLeafCapacity + 1));

    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);

    // Iterative median split. Ranges always halve by index (even with
    // fully duplicated coordinates), so depth is bounded by log2(n).
    struct Task
    {
        std::uint32_t lo, hi;
        std::uint32_t axis;
        std::int32_t parent; ///< -1 for the root.
        bool is_left;
        int depth;
    };
    std::vector<Task> stack;
    stack.push_back(Task{0, static_cast<std::uint32_t>(n), 0, -1, false,
                         1});
    while (!stack.empty()) {
        Task task = stack.back();
        stack.pop_back();
        RTR_ASSERT(task.depth < kMaxDepth, "bucket kd-tree too deep");

        const auto index = static_cast<std::int32_t>(block.nodes.size());
        block.nodes.push_back(Node{});
        if (task.parent >= 0) {
            Node &parent =
                block.nodes[static_cast<std::size_t>(task.parent)];
            (task.is_left ? parent.left : parent.right) = index;
        }

        Node &node = block.nodes.back();
        node.axis = task.axis;
        if (task.hi - task.lo <= kLeafCapacity) {
            node.lo = task.lo;
            node.hi = task.hi;
            continue; // leaf: left stays -1
        }

        const std::uint32_t mid = task.lo + (task.hi - task.lo) / 2;
        std::nth_element(
            order.begin() + task.lo, order.begin() + mid,
            order.begin() + task.hi,
            [&](std::uint32_t a, std::uint32_t b) {
                return pts[a * dim_ + task.axis] <
                       pts[b * dim_ + task.axis];
            });
        node.split = pts[order[mid] * dim_ + task.axis];
        const auto next =
            static_cast<std::uint32_t>((task.axis + 1) % dim_);
        // Right first so the left child pops (and is laid out) first.
        stack.push_back(
            Task{mid, task.hi, next, index, false, task.depth + 1});
        stack.push_back(
            Task{task.lo, mid, next, index, true, task.depth + 1});
    }

    // Permute the points into leaf order, coordinate-major: leaf
    // ranges become dim_ contiguous streams the SIMD scan consumes.
    block.soa.resize(dim_ * n);
    block.ids.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t src = order[i];
        block.ids[i] = ids[src];
        for (std::size_t d = 0; d < dim_; ++d)
            block.soa[d * n + i] = pts[src * dim_ + d];
    }
    return block;
}

void
BucketKdCore::appendBlockPoints(const Block &block,
                                std::vector<double> &pts,
                                std::vector<std::uint32_t> &ids) const
{
    const std::size_t n = block.count;
    for (std::size_t i = 0; i < n; ++i) {
        ids.push_back(block.ids[i]);
        for (std::size_t d = 0; d < dim_; ++d)
            pts.push_back(block.soa[d * n + i]);
    }
}

void
BucketKdCore::bulkBuild(const double *pts, std::size_t n)
{
    clear();
    if (n == 0)
        return;
    telemetry::TraceSpan span("nn-build");
    std::vector<double> flat(pts, pts + n * dim_);
    std::vector<std::uint32_t> ids(n);
    std::iota(ids.begin(), ids.end(), 0u);
    blocks_.push_back(buildBlock(flat, ids));
    total_ = n;
}

void
BucketKdCore::insert(const double *p, std::uint32_t id)
{
    pending_.insert(pending_.end(), p, p + dim_);
    pending_ids_.push_back(id);
    ++total_;
    if (pending_ids_.size() >= kLeafCapacity)
        flushPending();
}

void
BucketKdCore::flushPending()
{
    // Amortized-logarithmic rebuild: the flushed buffer becomes a
    // level-0 block; equal-level blocks merge (binary-counter carry),
    // and a merged block's count at least doubles, so its level
    // strictly increases and every point sees O(log n) rebuilds.
    telemetry::TraceSpan span("nn-rebuild");
    blocks_.push_back(buildBlock(pending_, pending_ids_));
    pending_.clear();
    pending_ids_.clear();

    bool merged = true;
    while (merged) {
        merged = false;
        for (std::size_t a = 0; a < blocks_.size() && !merged; ++a) {
            for (std::size_t b = a + 1; b < blocks_.size(); ++b) {
                if (blocks_[a].level != blocks_[b].level)
                    continue;
                std::vector<double> pts;
                std::vector<std::uint32_t> ids;
                pts.reserve(
                    (blocks_[a].count + blocks_[b].count) * dim_);
                ids.reserve(blocks_[a].count + blocks_[b].count);
                appendBlockPoints(blocks_[a], pts, ids);
                appendBlockPoints(blocks_[b], pts, ids);
                blocks_.erase(blocks_.begin() +
                              static_cast<std::ptrdiff_t>(b));
                blocks_[a] = buildBlock(pts, ids);
                merged = true;
                break;
            }
        }
    }
}

template <typename LeafFn, typename KeepFn>
void
BucketKdCore::traverseBlock(const Block &block, const double *q,
                            LeafFn &&leaf, KeepFn &&keep) const
{
    struct Frame
    {
        std::int32_t node;
        double delta2;
    };
    Frame stack[kMaxDepth];
    int top = 0;
    const Node *nodes = block.nodes.data();
    std::int32_t cur = 0;
    while (true) {
        const Node &nd = nodes[cur];
        if (nd.left < 0) {
            leaf(nd.lo, nd.hi);
            bool resumed = false;
            while (top > 0) {
                const Frame frame = stack[--top];
                // Far subtrees survive on delta2 == bound: an equal-
                // distance point with a smaller id still wins a tie.
                if (keep(frame.delta2)) {
                    cur = frame.node;
                    resumed = true;
                    break;
                }
            }
            if (!resumed)
                return;
        } else {
            const double delta = q[nd.axis] - nd.split;
            const bool go_left = delta < 0;
            stack[top] =
                Frame{go_left ? nd.right : nd.left, delta * delta};
            ++top;
            cur = go_left ? nd.left : nd.right;
        }
    }
}

template <typename Visit>
void
BucketKdCore::scanLeaf(const Block &block, std::uint32_t lo,
                       std::uint32_t hi, const double *q,
                       Visit &&visit) const
{
    const std::size_t stride = block.count;
    const double *soa = block.soa.data();
    const std::uint32_t *ids = block.ids.data();
    std::size_t i = lo;
    constexpr std::size_t W = simd::VecD::kWidth;
    if constexpr (W > 1) {
        // Each lane accumulates diff*diff per dimension in index order
        // with separate multiply and add — bitwise the scalar sum.
        double d2buf[W];
        for (; i + W <= hi; i += W) {
            simd::VecD acc = simd::VecD::zero();
            for (std::size_t d = 0; d < dim_; ++d) {
                const simd::VecD diff =
                    simd::VecD::load(soa + d * stride + i) -
                    simd::VecD::broadcast(q[d]);
                acc = simd::VecD::mulAdd(acc, diff, diff);
            }
            acc.store(d2buf);
            for (std::size_t w = 0; w < W; ++w)
                visit(d2buf[w], ids[i + w]);
        }
    }
    for (; i < hi; ++i) {
        double d2 = 0.0;
        for (std::size_t d = 0; d < dim_; ++d) {
            const double diff = soa[d * stride + i] - q[d];
            d2 += diff * diff;
        }
        visit(d2, ids[i]);
    }
}

template <typename Visit>
void
BucketKdCore::scanPending(const double *q, Visit &&visit) const
{
    for (std::size_t i = 0; i < pending_ids_.size(); ++i) {
        const double *p = pending_.data() + i * dim_;
        double d2 = 0.0;
        for (std::size_t d = 0; d < dim_; ++d) {
            const double diff = p[d] - q[d];
            d2 += diff * diff;
        }
        visit(d2, pending_ids_[i]);
    }
}

void
BucketKdCore::blockNearest(const Block &block, const double *q,
                           KdHit &best) const
{
    traverseBlock(
        block, q,
        [&](std::uint32_t lo, std::uint32_t hi) {
            scanLeaf(block, lo, hi, q,
                     [&](double d2, std::uint32_t id) {
                         if (kdHitBetter(d2, id, best))
                             best = KdHit{id, d2};
                     });
        },
        [&](double delta2) { return delta2 <= best.dist2; });
}

KdHit
BucketKdCore::nearest(const double *q) const
{
    KdHit best;
    for (const Block &block : blocks_)
        blockNearest(block, q, best);
    scanPending(q, [&](double d2, std::uint32_t id) {
        if (kdHitBetter(d2, id, best))
            best = KdHit{id, d2};
    });
    return best;
}

namespace {

/**
 * kNN collector for k <= kLeafCapacity: the hits stay sorted by
 * (dist2, id), so back() is the bound a candidate must beat and the
 * result needs no final sort. An insertion shifts at most k - 1 hits.
 */
struct SortedCollector
{
    static void
    offer(std::vector<KdHit> &hits, std::size_t k, double d2,
          std::uint32_t id)
    {
        std::size_t i = hits.size();
        if (i < k)
            hits.push_back(KdHit{id, d2});
        else if (kdHitBetter(d2, id, hits.back()))
            --i;
        else
            return;
        for (; i > 0 && kdHitBetter(d2, id, hits[i - 1]); --i)
            hits[i] = hits[i - 1];
        hits[i] = KdHit{id, d2};
    }

    static double bound(const std::vector<KdHit> &hits)
    {
        return hits.back().dist2;
    }

    static void finish(std::vector<KdHit> &) {}
};

/**
 * kNN collector above kLeafCapacity: a max-heap under (dist2, id)
 * whose front() is the bound, sorted once at the end, so a large-k
 * query stays O(n log k) instead of paying O(k) per insertion.
 */
struct HeapCollector
{
    static void
    offer(std::vector<KdHit> &heap, std::size_t k, double d2,
          std::uint32_t id)
    {
        if (heap.size() < k) {
            heap.push_back(KdHit{id, d2});
            std::push_heap(heap.begin(), heap.end(), kdHitLess);
        } else if (kdHitBetter(d2, id, heap.front())) {
            std::pop_heap(heap.begin(), heap.end(), kdHitLess);
            heap.back() = KdHit{id, d2};
            std::push_heap(heap.begin(), heap.end(), kdHitLess);
        }
    }

    static double bound(const std::vector<KdHit> &heap)
    {
        return heap.front().dist2;
    }

    static void
    finish(std::vector<KdHit> &heap)
    {
        std::sort(heap.begin(), heap.end(), kdHitLess);
    }
};

} // namespace

template <typename Collector>
void
BucketKdCore::collectKNearest(const double *q, std::size_t k,
                              std::vector<KdHit> &out) const
{
    auto offer = [&](double d2, std::uint32_t id) {
        Collector::offer(out, k, d2, id);
    };
    for (const Block &block : blocks_) {
        traverseBlock(
            block, q,
            [&](std::uint32_t lo, std::uint32_t hi) {
                scanLeaf(block, lo, hi, q, offer);
            },
            [&](double delta2) {
                return out.size() < k || delta2 <= Collector::bound(out);
            });
    }
    scanPending(q, offer);
    Collector::finish(out);
}

void
BucketKdCore::kNearestInto(const double *q, std::size_t k,
                           std::vector<KdHit> &out) const
{
    out.clear();
    if (k == 0)
        return;
    out.reserve(k + 1);
    if (k <= kLeafCapacity)
        collectKNearest<SortedCollector>(q, k, out);
    else
        collectKNearest<HeapCollector>(q, k, out);
}

void
BucketKdCore::blockRadius(const Block &block, const double *q,
                          double radius2,
                          std::vector<KdHit> &out) const
{
    traverseBlock(
        block, q,
        [&](std::uint32_t lo, std::uint32_t hi) {
            scanLeaf(block, lo, hi, q,
                     [&](double d2, std::uint32_t id) {
                         if (d2 <= radius2)
                             out.push_back(KdHit{id, d2});
                     });
        },
        [&](double delta2) { return delta2 <= radius2; });
}

void
BucketKdCore::radiusSearchInto(const double *q, double radius,
                               std::vector<KdHit> &out) const
{
    out.clear();
    const double radius2 = radius * radius;
    for (const Block &block : blocks_)
        blockRadius(block, q, radius2, out);
    scanPending(q, [&](double d2, std::uint32_t id) {
        if (d2 <= radius2)
            out.push_back(KdHit{id, d2});
    });
    std::sort(out.begin(), out.end(), kdHitLess);
}

void
BucketKdCore::nearestBatch(const double *queries, std::size_t n_queries,
                           KdHit *out) const
{
    parallelForChunks(0, n_queries, 0, [&](const ChunkRange &chunk) {
        for (std::size_t i = chunk.begin; i < chunk.end; ++i)
            out[i] = nearest(queries + i * dim_);
    });
}

void
BucketKdCore::kNearestBatch(const double *queries, std::size_t n_queries,
                            std::size_t k, KdHit *out) const
{
    parallelForChunks(0, n_queries, 0, [&](const ChunkRange &chunk) {
        std::vector<KdHit> hits; // one hit buffer per chunk, reused
        hits.reserve(k + 1);
        for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
            kNearestInto(queries + i * dim_, k, hits);
            RTR_ASSERT(!hits.empty(),
                       "kNearestBatch() on empty kd-tree");
            KdHit *slot = out + i * k;
            for (std::size_t j = 0; j < k; ++j)
                slot[j] = hits[std::min(j, hits.size() - 1)];
        }
    });
}

} // namespace detail
} // namespace rtr
