/**
 * @file
 * Cache-conscious leaf-bucketed k-d tree (the "bucket" NN engine).
 *
 * The reference trees (kdtree.h / dyn_kdtree.h) store one point per
 * node, so every traversal step is a dependent cache miss — exactly the
 * memory-bound behavior the paper attributes to the NN-heavy kernels
 * (31-49% of RRT, RRT-star and RRT-Connect; the srec correspondences).
 * This engine restructures the same search for the memory hierarchy:
 *
 *  - points live in leaves of up to kLeafCapacity entries, stored SoA
 *    (coordinate-major) in one flat arena per block, so a leaf scan is
 *    a handful of contiguous streams that rtr::simd::VecD consumes at
 *    full width;
 *  - inner nodes are pointer-free records (split value + child indices
 *    in a flat array) built by iterative median split, ~n/16 of them
 *    instead of n, so the upper tree fits in L1/L2;
 *  - incremental insert (the RRT workload) uses the logarithmic
 *    rebuild method: points buffer in a small pending array, flush
 *    into bulk-built blocks whose sizes follow a binary counter, and
 *    equal-level blocks merge by rebuild — every point takes part in
 *    O(log n) rebuilds, so inserts cost amortized O(log n) while all
 *    queries run against bulk-built (balanced, SoA) layouts.
 *
 * Exactness contract (DESIGN.md "Nearest-neighbor engine"): hits are
 * ordered by (dist2, id) lexicographically; nearest returns the
 * minimum under that order, kNearest the k smallest (sorted), and
 * radiusSearch every hit with dist2 <= radius^2 (sorted). Distances
 * accumulate dimension-by-dimension in index order with no FMA, so
 * dist2 values are bitwise identical to the scalar reference engine
 * and results match it exactly — including on duplicate points.
 */

#ifndef RTR_POINTCLOUD_BUCKET_KDTREE_H
#define RTR_POINTCLOUD_BUCKET_KDTREE_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "pointcloud/kdtree.h"
#include "util/logging.h"

namespace rtr {

namespace detail {

/**
 * Dimension-agnostic engine core. Points are passed as raw
 * point-major double spans; the fixed- and runtime-dimension wrappers
 * below adapt their point types onto it.
 */
class BucketKdCore
{
  public:
    /** Points per leaf bucket (also the pending-buffer flush size). */
    static constexpr std::uint32_t kLeafCapacity = 32;

    explicit BucketKdCore(std::size_t dim);

    std::size_t dim() const { return dim_; }
    std::size_t size() const { return total_; }
    bool empty() const { return total_ == 0; }

    /** Remove all points (keeps the dimension). */
    void clear();

    /** Bulk-build from n point-major points with ids 0..n-1. */
    void bulkBuild(const double *pts, std::size_t n);

    /** Insert one point; may trigger an amortized partial rebuild. */
    void insert(const double *p, std::uint32_t id);

    /** Best hit under the (dist2, id) order; empty tree returns the
     *  sentinel KdHit (id 0, dist2 = max). */
    KdHit nearest(const double *q) const;

    /** The k best hits, sorted by (dist2, id), into a reusable buffer
     *  (cleared first; fewer than k when the tree is smaller). */
    void kNearestInto(const double *q, std::size_t k,
                      std::vector<KdHit> &out) const;

    /** All hits with dist2 <= radius^2, sorted by (dist2, id), into a
     *  reusable buffer (cleared first). */
    void radiusSearchInto(const double *q, double radius,
                          std::vector<KdHit> &out) const;

    /** One nearest() per point-major query, parallel over chunks.
     *  Deterministic: out[i] depends only on query i. */
    void nearestBatch(const double *queries, std::size_t n_queries,
                      KdHit *out) const;

    /**
     * k hits per query into out[i*k .. i*k+k), parallel over chunks.
     * When the tree holds fewer than k points the tail of a query's
     * slots repeats its last real hit (the padding the normal-
     * estimation consumer wants). Tree must be non-empty.
     */
    void kNearestBatch(const double *queries, std::size_t n_queries,
                       std::size_t k, KdHit *out) const;

  private:
    /** Flat, pointer-free tree node. Leaves have left < 0 and own the
     *  arena range [lo, hi); inner nodes split on axis at split. */
    struct Node
    {
        double split = 0.0;
        std::int32_t left = -1;
        std::int32_t right = -1;
        std::uint32_t lo = 0;
        std::uint32_t hi = 0;
        std::uint32_t axis = 0;
    };

    /** One bulk-built static tree of the logarithmic forest. */
    struct Block
    {
        std::vector<Node> nodes;
        /** Coordinate-major coordinates: soa[d * count + i]. */
        std::vector<double> soa;
        std::vector<std::uint32_t> ids;
        std::uint32_t count = 0;
        /** Binary-counter level: floor(log2(count / kLeafCapacity)). */
        std::uint32_t level = 0;
    };

    static constexpr int kMaxDepth = 64;

    std::uint32_t levelFor(std::size_t count) const;
    Block buildBlock(const std::vector<double> &pts,
                     const std::vector<std::uint32_t> &ids) const;
    void appendBlockPoints(const Block &block, std::vector<double> &pts,
                           std::vector<std::uint32_t> &ids) const;
    void flushPending();

    template <typename LeafFn, typename KeepFn>
    void traverseBlock(const Block &block, const double *q, LeafFn &&leaf,
                       KeepFn &&keep) const;
    template <typename Visit>
    void scanLeaf(const Block &block, std::uint32_t lo, std::uint32_t hi,
                  const double *q, Visit &&visit) const;
    template <typename Visit>
    void scanPending(const double *q, Visit &&visit) const;

    void blockNearest(const Block &block, const double *q,
                      KdHit &best) const;
    /** kNN over every block and the pending buffer into out, which
     *  Collector keeps ordered (see bucket_kdtree.cpp). */
    template <typename Collector>
    void collectKNearest(const double *q, std::size_t k,
                         std::vector<KdHit> &out) const;
    void blockRadius(const Block &block, const double *q, double radius2,
                     std::vector<KdHit> &out) const;

    std::size_t dim_;
    std::size_t total_ = 0;
    std::vector<Block> blocks_;
    /** Point-major coordinates of not-yet-flushed inserts. */
    std::vector<double> pending_;
    std::vector<std::uint32_t> pending_ids_;
};

} // namespace detail

/**
 * Leaf-bucketed k-d tree over R^Dim (compile-time dimension), the
 * bucket-engine counterpart of KdTree<Dim>. Same query results under
 * the documented (dist2, id) tie-break; see the file comment.
 */
template <std::size_t Dim>
class BucketKdTree
{
  public:
    using Point = std::array<double, Dim>;
    static_assert(sizeof(Point) == Dim * sizeof(double),
                  "Point rows must be dense for point-major access");

    BucketKdTree() : core_(Dim) {}

    std::size_t size() const { return core_.size(); }
    bool empty() const { return core_.empty(); }
    void clear() { core_.clear(); }

    /** Bulk-build a balanced tree (discards existing contents). */
    void
    build(const std::vector<Point> &points)
    {
        core_.bulkBuild(points.empty() ? nullptr : points.front().data(),
                        points.size());
    }

    /** Insert one point (amortized-logarithmic partial rebuilds). */
    void
    insert(const Point &p, std::uint32_t id)
    {
        core_.insert(p.data(), id);
    }

    /** Nearest stored point; tree must be non-empty. */
    KdHit
    nearest(const Point &query) const
    {
        RTR_ASSERT(!empty(), "nearest() on empty kd-tree");
        return core_.nearest(query.data());
    }

    /** The k nearest points, sorted by (dist2, id). */
    std::vector<KdHit>
    kNearest(const Point &query, std::size_t k) const
    {
        std::vector<KdHit> hits;
        core_.kNearestInto(query.data(), k, hits);
        return hits;
    }

    /** kNearest into a reusable buffer (cleared first). */
    void
    kNearestInto(const Point &query, std::size_t k,
                 std::vector<KdHit> &out) const
    {
        core_.kNearestInto(query.data(), k, out);
    }

    /** All points within radius, sorted by (dist2, id). */
    std::vector<KdHit>
    radiusSearch(const Point &query, double radius) const
    {
        std::vector<KdHit> hits;
        core_.radiusSearchInto(query.data(), radius, hits);
        return hits;
    }

    /** radiusSearch into a reusable buffer (cleared first). */
    void
    radiusSearchInto(const Point &query, double radius,
                     std::vector<KdHit> &out) const
    {
        core_.radiusSearchInto(query.data(), radius, out);
    }

    /** Batched nearest over parallelForChunks; out is resized. */
    void
    nearestBatch(const std::vector<Point> &queries,
                 std::vector<KdHit> &out) const
    {
        out.resize(queries.size());
        if (queries.empty())
            return;
        RTR_ASSERT(!empty(), "nearestBatch() on empty kd-tree");
        core_.nearestBatch(queries.front().data(), queries.size(),
                           out.data());
    }

    /**
     * Batched kNearest: k hits per query in out[i*k .. i*k+k), padded
     * by repeating the last real hit when size() < k; out is resized.
     */
    void
    kNearestBatch(const std::vector<Point> &queries, std::size_t k,
                  std::vector<KdHit> &out) const
    {
        out.resize(queries.size() * k);
        if (queries.empty() || k == 0)
            return;
        RTR_ASSERT(!empty(), "kNearestBatch() on empty kd-tree");
        core_.kNearestBatch(queries.front().data(), queries.size(), k,
                            out.data());
    }

  private:
    detail::BucketKdCore core_;
};

/**
 * Leaf-bucketed k-d tree with runtime dimensionality, the bucket-engine
 * counterpart of DynKdTree (the arm planners' DoF is a command-line
 * parameter). Same query results under the (dist2, id) tie-break.
 */
class DynBucketKdTree
{
  public:
    explicit DynBucketKdTree(std::size_t dim) : core_(dim)
    {
        RTR_ASSERT(dim >= 1, "kd-tree dimension must be >= 1");
    }

    std::size_t dim() const { return core_.dim(); }
    std::size_t size() const { return core_.size(); }
    bool empty() const { return core_.empty(); }
    void clear() { core_.clear(); }

    /** Insert a point (length dim()) with a payload id. */
    void
    insert(const std::vector<double> &p, std::uint32_t id)
    {
        RTR_ASSERT(p.size() == dim(), "point dimension mismatch");
        core_.insert(p.data(), id);
    }

    /** Bulk-build from n points with ids 0..n-1 (discards contents). */
    void
    build(const std::vector<std::vector<double>> &points)
    {
        std::vector<double> flat;
        flat.reserve(points.size() * dim());
        for (const std::vector<double> &p : points) {
            RTR_ASSERT(p.size() == dim(), "point dimension mismatch");
            flat.insert(flat.end(), p.begin(), p.end());
        }
        core_.bulkBuild(flat.data(), points.size());
    }

    /** Nearest stored point; tree must be non-empty. */
    KdHit
    nearest(const std::vector<double> &query) const
    {
        RTR_ASSERT(!empty(), "nearest() on empty kd-tree");
        return core_.nearest(query.data());
    }

    /** The k nearest points, sorted by (dist2, id). */
    std::vector<KdHit>
    kNearest(const std::vector<double> &query, std::size_t k) const
    {
        std::vector<KdHit> hits;
        core_.kNearestInto(query.data(), k, hits);
        return hits;
    }

    /** kNearest into a reusable buffer (cleared first). */
    void
    kNearestInto(const std::vector<double> &query, std::size_t k,
                 std::vector<KdHit> &out) const
    {
        core_.kNearestInto(query.data(), k, out);
    }

    /** All points within radius, sorted by (dist2, id). */
    std::vector<KdHit>
    radiusSearch(const std::vector<double> &query, double radius) const
    {
        std::vector<KdHit> hits;
        core_.radiusSearchInto(query.data(), radius, hits);
        return hits;
    }

    /** radiusSearch into a reusable buffer (cleared first). */
    void
    radiusSearchInto(const std::vector<double> &query, double radius,
                     std::vector<KdHit> &out) const
    {
        core_.radiusSearchInto(query.data(), radius, out);
    }

  private:
    detail::BucketKdCore core_;
};

} // namespace rtr

#endif // RTR_POINTCLOUD_BUCKET_KDTREE_H
