#include "pointcloud/icp.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>

#include "linalg/decomp.h"
#include "linalg/eigen.h"
#include "pointcloud/bucket_kdtree.h"
#include "pointcloud/kdtree.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace rtr {

namespace {

/**
 * The 3-D target index of ICP / normal estimation under either NN
 * engine. Both engines implement the (dist2, id) contract, so every
 * query below returns identical hits regardless of the choice.
 */
struct TargetIndex3
{
    NnEngine engine;
    KdTree<3> node;
    BucketKdTree<3> bucket;

    explicit TargetIndex3(NnEngine engine) : engine(engine) {}

    void
    build(const PointCloud &cloud)
    {
        std::vector<std::array<double, 3>> pts;
        pts.reserve(cloud.size());
        for (const Vec3 &p : cloud.points())
            pts.push_back({p.x, p.y, p.z});
        if (engine == NnEngine::Bucket)
            bucket.build(pts);
        else
            node.build(pts);
    }

    /** One nearest() per query, parallel over chunks. */
    void
    nearestAll(const std::vector<std::array<double, 3>> &queries,
               std::vector<KdHit> &hits) const
    {
        if (engine == NnEngine::Bucket) {
            bucket.nearestBatch(queries, hits);
            return;
        }
        hits.resize(queries.size());
        parallelFor(0, queries.size(), 0, [&](std::size_t i) {
            hits[i] = node.nearest(queries[i]);
        });
    }
};

/** Refill the reusable point-major query buffer from the cloud. */
void
fillQueries(const PointCloud &cloud,
            std::vector<std::array<double, 3>> &out)
{
    out.resize(cloud.size());
    for (std::size_t i = 0; i < cloud.size(); ++i) {
        const Vec3 &p = cloud[i];
        out[i] = {p.x, p.y, p.z};
    }
}

} // namespace

RigidTransform3
bestRigidTransform(const std::vector<Vec3> &source,
                   const std::vector<Vec3> &target)
{
    RTR_ASSERT(source.size() == target.size() && source.size() >= 3,
               "need >= 3 paired points");
    const double n = static_cast<double>(source.size());

    Vec3 cs, ct;
    for (std::size_t i = 0; i < source.size(); ++i) {
        cs += source[i];
        ct += target[i];
    }
    cs = cs / n;
    ct = ct / n;

    // Cross-covariance M = sum (s - cs)(t - ct)^T.
    double m[3][3] = {};
    for (std::size_t i = 0; i < source.size(); ++i) {
        Vec3 s = source[i] - cs;
        Vec3 t = target[i] - ct;
        const double sv[3] = {s.x, s.y, s.z};
        const double tv[3] = {t.x, t.y, t.z};
        for (int r = 0; r < 3; ++r) {
            for (int c = 0; c < 3; ++c)
                m[r][c] += sv[r] * tv[c];
        }
    }

    // Horn's symmetric 4x4 quaternion matrix; its dominant eigenvector
    // is the optimal rotation as a quaternion (w, x, y, z).
    const double sxx = m[0][0], sxy = m[0][1], sxz = m[0][2];
    const double syx = m[1][0], syy = m[1][1], syz = m[1][2];
    const double szx = m[2][0], szy = m[2][1], szz = m[2][2];
    Matrix nmat{{sxx + syy + szz, syz - szy, szx - sxz, sxy - syx},
                {syz - szy, sxx - syy - szz, sxy + syx, szx + sxz},
                {szx - sxz, sxy + syx, -sxx + syy - szz, syz + szy},
                {sxy - syx, szx + sxz, syz + szy, -sxx - syy + szz}};

    SymmetricEigen eig = symmetricEigen(nmat);
    double w = eig.vectors(0, 0);
    double x = eig.vectors(1, 0);
    double y = eig.vectors(2, 0);
    double z = eig.vectors(3, 0);

    RigidTransform3 out;
    out.rotation = rotationFromQuaternion(w, x, y, z);
    RigidTransform3 rot_only{out.rotation, Vec3{}};
    out.translation = ct - rot_only.apply(cs);
    return out;
}

namespace {

/**
 * The iteration loop of point-to-point ICP against an already-built
 * target index. Shared by the per-call overload (which builds the
 * index first) and the IcpTargetIndex overload (which reuses one), so
 * the two are bitwise identical by construction.
 */
IcpResult
icpRegisterCore(const PointCloud &source, const PointCloud &target,
                const TargetIndex3 &tree, const IcpConfig &config,
                PhaseProfiler *profiler)
{
    RTR_ASSERT(source.size() >= 3 && target.size() >= 3,
               "ICP needs >= 3 points in each cloud");
    IcpResult result;

    PointCloud moved = source;
    std::vector<std::array<double, 3>> queries; // reused per iteration
    std::vector<KdHit> hits;                    // reused per iteration
    double prev_rmse = std::numeric_limits<double>::max();
    const double max_d2 =
        config.max_correspondence_distance > 0.0
            ? config.max_correspondence_distance *
                  config.max_correspondence_distance
            : std::numeric_limits<double>::max();

    for (int iter = 0; iter < config.max_iterations; ++iter) {
        result.iterations = iter + 1;

        std::vector<Vec3> src_pts, tgt_pts;
        std::vector<double> dist2;
        double err_sum = 0.0;
        {
            ScopedPhase phase(profiler, "icp-nn");
            // Parallel map: the kd-tree queries (the expensive,
            // irregular-access part) fill a per-point hit table; the
            // cheap compaction below then runs serially in point
            // order, so err_sum accumulates in exactly the sequential
            // order at any thread count.
            const std::size_t n_moved = moved.size();
            fillQueries(moved, queries);
            tree.nearestAll(queries, hits);
            src_pts.reserve(n_moved);
            tgt_pts.reserve(n_moved);
            dist2.reserve(n_moved);
            for (std::size_t i = 0; i < n_moved; ++i) {
                const KdHit &hit = hits[i];
                if (hit.dist2 > max_d2)
                    continue;
                src_pts.push_back(moved[i]);
                tgt_pts.push_back(target[hit.id]);
                dist2.push_back(hit.dist2);
                err_sum += hit.dist2;
            }
        }
        if (src_pts.size() < 3)
            break;

        if (config.trim_fraction < 1.0 && src_pts.size() > 16) {
            // Trimmed ICP: drop the worst-matching correspondences.
            auto keep = static_cast<std::size_t>(
                config.trim_fraction *
                static_cast<double>(src_pts.size()));
            keep = std::max<std::size_t>(keep, 16);
            std::vector<std::size_t> order(src_pts.size());
            std::iota(order.begin(), order.end(), 0);
            std::nth_element(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(keep),
                             order.end(),
                             [&](std::size_t a, std::size_t b) {
                                 return dist2[a] < dist2[b];
                             });
            std::vector<Vec3> src_keep, tgt_keep;
            src_keep.reserve(keep);
            tgt_keep.reserve(keep);
            err_sum = 0.0;
            for (std::size_t i = 0; i < keep; ++i) {
                src_keep.push_back(src_pts[order[i]]);
                tgt_keep.push_back(tgt_pts[order[i]]);
                err_sum += dist2[order[i]];
            }
            src_pts = std::move(src_keep);
            tgt_pts = std::move(tgt_keep);
        }
        result.rmse =
            std::sqrt(err_sum / static_cast<double>(src_pts.size()));

        if (std::abs(prev_rmse - result.rmse) < config.convergence_delta) {
            result.converged = true;
            break;
        }
        prev_rmse = result.rmse;

        RigidTransform3 step;
        {
            ScopedPhase phase(profiler, "icp-solve");
            step = bestRigidTransform(src_pts, tgt_pts);
        }
        {
            ScopedPhase phase(profiler, "icp-apply");
            moved.transform(step);
            result.transform = step.compose(result.transform);
        }
    }
    return result;
}

} // namespace

IcpResult
icpRegister(const PointCloud &source, const PointCloud &target,
            const IcpConfig &config, PhaseProfiler *profiler)
{
    // Build the target index once; correspondences re-query it every
    // iteration with the moving source points (the irregular-access
    // pattern the paper identifies as the memory bottleneck of srec).
    TargetIndex3 tree(config.nn_engine);
    {
        ScopedPhase phase(profiler, "icp-nn-build");
        tree.build(target);
    }
    return icpRegisterCore(source, target, tree, config, profiler);
}

struct PointCloudIndex::Impl
{
    const PointCloud &cloud;
    TargetIndex3 tree;

    Impl(const PointCloud &indexed, NnEngine engine)
        : cloud(indexed), tree(engine)
    {
        tree.build(cloud);
    }
};

PointCloudIndex::PointCloudIndex(const PointCloud &cloud, NnEngine engine)
    : impl_(std::make_unique<Impl>(cloud, engine))
{
}

PointCloudIndex::~PointCloudIndex() = default;

const PointCloud &
PointCloudIndex::cloud() const
{
    return impl_->cloud;
}

struct IcpTargetIndex::Impl
{
    PointCloud target;
    PointCloudIndex index;

    Impl(const PointCloud &cloud, NnEngine engine)
        : target(cloud), index(target, engine)
    {
    }
};

IcpTargetIndex::IcpTargetIndex(const PointCloud &target, NnEngine engine)
    : impl_(std::make_unique<Impl>(target, engine))
{
}

IcpTargetIndex::~IcpTargetIndex() = default;

const PointCloud &
IcpTargetIndex::target() const
{
    return impl_->target;
}

IcpResult
icpRegister(const PointCloud &source, const IcpTargetIndex &target,
            const IcpConfig &config, PhaseProfiler *profiler)
{
    return icpRegisterCore(source, target.impl_->target,
                           target.impl_->index.impl_->tree, config,
                           profiler);
}

std::vector<Vec3>
estimateNormals(const PointCloud &cloud, int k, const Vec3 &viewpoint,
                PhaseProfiler *profiler, NnEngine nn_engine)
{
    std::optional<PointCloudIndex> index;
    {
        ScopedPhase phase(profiler, "normals-nn-build");
        index.emplace(cloud, nn_engine);
    }
    return estimateNormals(*index, k, viewpoint, profiler);
}

std::vector<Vec3>
estimateNormals(const PointCloudIndex &index, int k, const Vec3 &viewpoint,
                PhaseProfiler *profiler)
{
    RTR_ASSERT(k >= 3, "normal estimation needs k >= 3");
    const PointCloud &cloud = index.cloud();
    const TargetIndex3 &tree = index.impl_->tree;
    const auto n_points = cloud.size();
    const auto kk = static_cast<std::size_t>(k);

    // Pass 1 (irregular memory): gather every point's neighborhood.
    std::vector<std::uint32_t> neighbor_ids(n_points * kk);
    {
        ScopedPhase phase(profiler, "normals-nn");
        std::vector<std::array<double, 3>> queries;
        fillQueries(cloud, queries);
        if (tree.engine == NnEngine::Bucket) {
            // Batched k-NN; each query's k slots are padded by
            // repeating its last hit when the cloud is smaller than k,
            // matching the scalar path below.
            std::vector<KdHit> hits;
            tree.bucket.kNearestBatch(queries, kk, hits);
            for (std::size_t i = 0; i < n_points * kk; ++i)
                neighbor_ids[i] = hits[i].id;
        } else {
            parallelForChunks(
                0, n_points, 0, [&](const ChunkRange &chunk) {
                    std::vector<KdHit> nbrs; // reused across the chunk
                    for (std::size_t i = chunk.begin; i < chunk.end;
                         ++i) {
                        tree.node.kNearestInto(queries[i], kk, nbrs);
                        for (std::size_t j = 0; j < kk; ++j)
                            neighbor_ids[i * kk + j] =
                                nbrs[std::min(j, nbrs.size() - 1)].id;
                    }
                });
        }
    }

    // Pass 2 (matrix operations): per-point covariance eigensolve.
    std::vector<Vec3> normals(n_points);
    {
        ScopedPhase phase(profiler, "normals-eigen");
        parallelFor(0, n_points, 0, [&](std::size_t i) {
            const Vec3 &p = cloud[i];
            Vec3 mean;
            for (std::size_t j = 0; j < kk; ++j)
                mean += cloud[neighbor_ids[i * kk + j]];
            mean = mean / static_cast<double>(kk);
            std::array<double, 9> cov{};
            for (std::size_t j = 0; j < kk; ++j) {
                Vec3 d = cloud[neighbor_ids[i * kk + j]] - mean;
                const double v[3] = {d.x, d.y, d.z};
                for (int r = 0; r < 3; ++r) {
                    for (int col = 0; col < 3; ++col)
                        cov[r * 3 + col] += v[r] * v[col];
                }
            }
            const FixedSymmetricEigen<3> eig = symmetricEigenFixed<3>(cov);
            // Smallest-eigenvalue eigenvector = surface normal.
            Vec3 n{eig.vector(0, 2), eig.vector(1, 2), eig.vector(2, 2)};
            if (n.dot(viewpoint - p) < 0.0)
                n = -n;
            normals[i] = n;
        });
    }
    return normals;
}

namespace {

/** Rotation from small Euler angles (Rz * Ry * Rx). */
Matrix
rotationFromEuler(double ax, double ay, double az)
{
    double cx = std::cos(ax), sx = std::sin(ax);
    double cy = std::cos(ay), sy = std::sin(ay);
    double cz = std::cos(az), sz = std::sin(az);
    Matrix rx{{1, 0, 0}, {0, cx, -sx}, {0, sx, cx}};
    Matrix ry{{cy, 0, sy}, {0, 1, 0}, {-sy, 0, cy}};
    Matrix rz{{cz, -sz, 0}, {sz, cz, 0}, {0, 0, 1}};
    return rz * ry * rx;
}

} // namespace

IcpResult
icpPointToPlane(const PointCloud &source, const PointCloud &target,
                const std::vector<Vec3> &target_normals,
                const IcpConfig &config, PhaseProfiler *profiler)
{
    std::optional<PointCloudIndex> index;
    {
        ScopedPhase phase(profiler, "icp-nn-build");
        index.emplace(target, config.nn_engine);
    }
    return icpPointToPlane(source, *index, target_normals, config,
                           profiler);
}

IcpResult
icpPointToPlane(const PointCloud &source, const PointCloudIndex &index,
                const std::vector<Vec3> &target_normals,
                const IcpConfig &config, PhaseProfiler *profiler)
{
    const PointCloud &target = index.cloud();
    const TargetIndex3 &tree = index.impl_->tree;
    RTR_ASSERT(target_normals.size() == target.size(),
               "one normal per target point required");
    RTR_ASSERT(source.size() >= 6 && target.size() >= 6,
               "point-to-plane ICP needs >= 6 points");
    IcpResult result;

    PointCloud moved = source;
    std::vector<std::array<double, 3>> queries; // reused per iteration
    std::vector<KdHit> hits;                    // reused per iteration
    double prev_rmse = std::numeric_limits<double>::max();
    const double max_d2 =
        config.max_correspondence_distance > 0.0
            ? config.max_correspondence_distance *
                  config.max_correspondence_distance
            : std::numeric_limits<double>::max();

    for (int iter = 0; iter < config.max_iterations; ++iter) {
        result.iterations = iter + 1;

        // Accumulate the 6x6 normal equations A x = b over the
        // correspondences; x = (ax, ay, az, tx, ty, tz).
        double a[6][6] = {};
        double b[6] = {};
        double err_sum = 0.0;
        std::size_t pairs = 0;
        {
            ScopedPhase phase(profiler, "icp-nn");
            // Same parallel-map / ordered-serial-reduce split as
            // icpRegister: concurrent kd-tree queries, then the 6x6
            // normal-equation accumulation in sequential point order.
            const std::size_t n_moved = moved.size();
            fillQueries(moved, queries);
            tree.nearestAll(queries, hits);
            for (std::size_t i = 0; i < n_moved; ++i) {
                const KdHit &hit = hits[i];
                if (hit.dist2 > max_d2)
                    continue;
                const Vec3 &p = moved[i];
                const Vec3 &q = target[hit.id];
                const Vec3 &n = target_normals[hit.id];
                double r = (p - q).dot(n);
                Vec3 cxn = p.cross(n);
                const double j[6] = {cxn.x, cxn.y, cxn.z, n.x, n.y, n.z};
                for (int row = 0; row < 6; ++row) {
                    for (int col = row; col < 6; ++col)
                        a[row][col] += j[row] * j[col];
                    b[row] -= j[row] * r;
                }
                err_sum += r * r;
                ++pairs;
            }
        }
        if (pairs < 6)
            break;
        result.rmse = std::sqrt(err_sum / static_cast<double>(pairs));
        if (std::abs(prev_rmse - result.rmse) <
            config.convergence_delta) {
            result.converged = true;
            break;
        }
        prev_rmse = result.rmse;

        RigidTransform3 step;
        {
            ScopedPhase phase(profiler, "icp-solve");
            Matrix amat(6, 6);
            Matrix bvec(6, 1);
            for (int row = 0; row < 6; ++row) {
                for (int col = 0; col < 6; ++col)
                    amat(static_cast<std::size_t>(row),
                         static_cast<std::size_t>(col)) =
                        a[std::min(row, col)][std::max(row, col)];
                bvec(static_cast<std::size_t>(row), 0) = b[row];
            }
            // Levenberg damping keeps the step well-posed when the
            // correspondences under-constrain a direction.
            for (int d = 0; d < 6; ++d)
                amat(static_cast<std::size_t>(d),
                     static_cast<std::size_t>(d)) += 1e-9;
            LuDecomposition lu(amat);
            if (lu.singular())
                break;
            Matrix x = lu.solve(bvec);
            step.rotation = rotationFromEuler(x(0, 0), x(1, 0), x(2, 0));
            step.translation = Vec3{x(3, 0), x(4, 0), x(5, 0)};
        }
        {
            ScopedPhase phase(profiler, "icp-apply");
            moved.transform(step);
            result.transform = step.compose(result.transform);
        }
    }
    return result;
}

} // namespace rtr
