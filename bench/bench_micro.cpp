/**
 * @file
 * google-benchmark microkernels: the primitive operations the paper's
 * per-kernel analyses identify as acceleration targets (ray-casting,
 * footprint collision checks, L2 norms, matrix multiply/invert, k-d
 * tree queries, record sorts, symbolic state application).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "arm/cspace.h"
#include "arm/planar_arm.h"
#include "arm/workspace.h"
#include "bench_common.h"
#include "util/stopwatch.h"
#include "control/cem.h"
#include "grid/footprint.h"
#include "grid/map_gen.h"
#include "grid/raycast.h"
#include "linalg/decomp.h"
#include "grid/distance_transform.h"
#include "linalg/matrix.h"
#include "pointcloud/dyn_kdtree.h"
#include "search/grid_planner2d.h"
#include "service/world.h"
#include "symbolic/blocks_world.h"
#include "symbolic/firefight.h"
#include "symbolic/planner.h"
#include "util/rng.h"
#include "util/simd.h"

namespace {

using namespace rtr;

void
BM_Raycast(benchmark::State &state)
{
    OccupancyGrid2D map = makeIndoorMap(240, 160, 0.25, 1);
    Rng rng(2);
    Vec2 origin{30.0, 20.0};
    while (map.occupiedWorld(origin))
        origin.x += 0.25;
    double angle = 0.0;
    for (auto _ : state) {
        angle += 0.1;
        benchmark::DoNotOptimize(castRay(map, origin, angle, 10.0));
    }
}
BENCHMARK(BM_Raycast);

/**
 * The pfl-style scan workload on a fine (0.05 m) indoor map: the
 * standard 240x160 @ 0.25 m building upsampled 5x, so the geometry is
 * identical to the kernel's and only the cell count (1200x800) grows.
 */
OccupancyGrid2D
fineIndoorMap()
{
    return scaleMap(makeIndoorMap(240, 160, 0.25, 1), 5);
}

Vec2
freeScanOrigin(const OccupancyGrid2D &map)
{
    Vec2 origin{30.0, 20.0};
    while (map.occupiedWorld(origin))
        origin.x += map.resolution();
    return origin;
}

void
BM_CastScanScalar(benchmark::State &state)
{
    OccupancyGrid2D map = fineIndoorMap();
    Vec2 origin = freeScanOrigin(map);
    std::vector<double> out;
    for (auto _ : state) {
        castScan(map, origin, -2.0, 4.0, 60, 20.0, out);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_CastScanScalar);

void
BM_FootprintCollision(benchmark::State &state)
{
    OccupancyGrid2D map = makeCityMap(512, 0.5, 1);
    RectFootprint car(4.8, 1.8);
    Rng rng(3);
    std::vector<Pose2> poses;
    for (int i = 0; i < 256; ++i)
        poses.push_back(Pose2{rng.uniform(10, 240), rng.uniform(10, 240),
                              rng.uniform(-kPi, kPi)});
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            car.collides(map, poses[i++ % poses.size()]));
    }
}
BENCHMARK(BM_FootprintCollision);

/**
 * One pp2d state check on the service World's grid, cycling over
 * every (cell, heading): the footprint sweep (one collides() call)
 * against the World's validity planes (one bit read). Cells whose
 * center is occupied are included, though stateValid() rejects them
 * before the sweep.
 */
const service::World &
serviceWorld()
{
    static const service::World world;
    return world;
}

void
BM_ServiceStateCheckSweep(benchmark::State &state)
{
    const service::World &world = serviceWorld();
    const OccupancyGrid2D &grid = world.grid();
    const RectFootprint footprint = world.footprint();
    const auto &headings = GridPlanner2D::moveHeadings();
    std::vector<Pose2> poses;
    for (int y = 0; y < grid.height(); ++y) {
        for (int x = 0; x < grid.width(); ++x) {
            const Vec2 center = grid.cellCenter({x, y});
            for (double heading : headings)
                poses.push_back(Pose2{center.x, center.y, heading});
        }
    }
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            footprint.collides(grid, poses[i++ % poses.size()]));
    }
}
BENCHMARK(BM_ServiceStateCheckSweep);

void
BM_ServiceStateCheckPlanes(benchmark::State &state)
{
    const service::World &world = serviceWorld();
    const FootprintPlanes &planes = *world.footprintPlanes();
    struct State
    {
        int heading, x, y;
    };
    std::vector<State> states;
    for (int y = 0; y < world.grid().height(); ++y) {
        for (int x = 0; x < world.grid().width(); ++x) {
            for (int h = 0; h < FootprintPlanes::kHeadings; ++h)
                states.push_back({h, x, y});
        }
    }
    std::size_t i = 0;
    for (auto _ : state) {
        const State &s = states[i++ % states.size()];
        benchmark::DoNotOptimize(planes.blocked(s.heading, s.x, s.y));
    }
}
BENCHMARK(BM_ServiceStateCheckPlanes);

void
BM_FootprintPlanesBuild(benchmark::State &state)
{
    const service::World &world = serviceWorld();
    for (auto _ : state) {
        benchmark::DoNotOptimize(FootprintPlanes::build(
            world.grid(), world.footprint(),
            GridPlanner2D::moveHeadings()));
    }
}
BENCHMARK(BM_FootprintPlanesBuild);

void
BM_L2Norm5D(benchmark::State &state)
{
    Rng rng(4);
    ConfigSpace space(5, -kPi, kPi);
    ArmConfig a = space.sample(rng);
    ArmConfig b = space.sample(rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ConfigSpace::distance(a, b));
        a[0] += 1e-9;  // defeat caching
    }
}
BENCHMARK(BM_L2Norm5D);

/**
 * Arm collision layer: the 5-DoF Map-C arm of the prm/rrt kernels.
 * Configurations are uniform samples, so a fair share of them leave
 * the bounds before any obstacle test; the rows time the checker as
 * the planners call it.
 */
struct ArmScene
{
    PlanarArm arm = PlanarArm::uniform(Vec2{0.25, 0.0}, 5, 0.45);
    Workspace workspace = makeMapC();
    std::vector<ArmConfig> configs;

    ArmScene()
    {
        ConfigSpace space(5, -kPi, kPi);
        Rng rng(12);
        for (int i = 0; i < 1024; ++i)
            configs.push_back(space.sample(rng));
    }
};

void
BM_ArmConfigCollides(benchmark::State &state)
{
    const ArmScene scene;
    ArmCollisionChecker checker(scene.arm, scene.workspace);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(checker.configCollides(
            scene.configs[i++ % scene.configs.size()]));
    }
}
BENCHMARK(BM_ArmConfigCollides);

/** One motion check between neighboring samples at prm's 0.05 rad step. */
void
BM_ArmMotionCollides(benchmark::State &state)
{
    const ArmScene scene;
    ArmCollisionChecker checker(scene.arm, scene.workspace);
    std::size_t i = 0;
    for (auto _ : state) {
        const std::size_t a = i++ % scene.configs.size();
        benchmark::DoNotOptimize(checker.motionCollides(
            scene.configs[a], scene.configs[(a + 1) % scene.configs.size()],
            0.05));
    }
    state.counters["checks_per_call"] = benchmark::Counter(
        static_cast<double>(checker.checksPerformed()) /
        static_cast<double>(state.iterations()));
}
BENCHMARK(BM_ArmMotionCollides);

/**
 * One service PrmQuery on the default World, as a worker runs it: own
 * checker clone and warm PrmQueryWorkspace, cycling a fixed pool of
 * generated requests.
 */
void
BM_PrmServiceQuery(benchmark::State &state)
{
    const service::World &world = serviceWorld();
    ArmCollisionChecker checker(world.arm(), world.workspace());
    PrmQueryWorkspace ws;
    Rng rng(77);
    std::vector<service::PrmQueryRequest> pool;
    for (int i = 0; i < 256; ++i)
        pool.push_back(world.randomPrm(rng));
    std::size_t i = 0, evals = 0;
    for (auto _ : state) {
        const service::PrmQueryRequest &request = pool[i++ % pool.size()];
        benchmark::DoNotOptimize(world.prm().query(
            request.start, request.goal, checker, nullptr, &evals, &ws));
    }
}
BENCHMARK(BM_PrmServiceQuery);

void
BM_MatrixMultiply(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(5);
    Matrix a(n, n), b(n, n);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
            a(r, c) = rng.uniform(-1, 1);
            b(r, c) = rng.uniform(-1, 1);
        }
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(a * b);
}
BENCHMARK(BM_MatrixMultiply)->Arg(8)->Arg(15)->Arg(31);

/**
 * The seed's matmul inner loop with its `lhs == 0.0` skip, kept here
 * (and only here) after its removal from Matrix::operator* so
 * EXPERIMENTS.md can keep quoting a measured before/after for the
 * branch. On the dense random operands every kernel actually feeds the
 * multiply, the branch never fires and only costs the compare.
 */
void
BM_MatrixMultiplyZeroSkip(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(5);
    Matrix a(n, n), b(n, n);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
            a(r, c) = rng.uniform(-1, 1);
            b(r, c) = rng.uniform(-1, 1);
        }
    }
    for (auto _ : state) {
        Matrix out(n, n);
        const double *ap = a.data();
        const double *bp = b.data();
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t k = 0; k < n; ++k) {
                double lhs = ap[i * n + k];
                if (lhs == 0.0)
                    continue;
                const double *rhs_row = bp + k * n;
                double *out_row = out.data() + i * n;
                for (std::size_t j = 0; j < n; ++j)
                    out_row[j] += lhs * rhs_row[j];
            }
        }
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_MatrixMultiplyZeroSkip)->Arg(8)->Arg(15)->Arg(31);

void
matrixMultiplyFlagged(benchmark::State &state, bool simd)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(5);
    Matrix a(n, n), b(n, n);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
            a(r, c) = rng.uniform(-1, 1);
            b(r, c) = rng.uniform(-1, 1);
        }
    }
    ScopedSimdKernels flag(simd);
    for (auto _ : state)
        benchmark::DoNotOptimize(a * b);
}

void
BM_GemmScalar(benchmark::State &state)
{
    matrixMultiplyFlagged(state, false);
}
BENCHMARK(BM_GemmScalar)->Arg(8)->Arg(15)->Arg(35)->Arg(96);

void
BM_GemmSimd(benchmark::State &state)
{
    matrixMultiplyFlagged(state, true);
}
BENCHMARK(BM_GemmSimd)->Arg(8)->Arg(15)->Arg(35)->Arg(96);

void
choleskyFlagged(benchmark::State &state, bool simd)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(6);
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c)
            a(r, c) = rng.uniform(-1, 1);
    Matrix spd = multiplyTransposed(a, a);
    for (std::size_t i = 0; i < n; ++i)
        spd(i, i) += static_cast<double>(n);
    Matrix rhs(n, 1);
    for (std::size_t i = 0; i < n; ++i)
        rhs(i, 0) = rng.uniform(-1, 1);
    ScopedSimdKernels flag(simd);
    for (auto _ : state) {
        CholeskyDecomposition chol(spd);
        benchmark::DoNotOptimize(chol.solve(rhs));
    }
}

void
BM_CholeskyScalar(benchmark::State &state)
{
    choleskyFlagged(state, false);
}
BENCHMARK(BM_CholeskyScalar)->Arg(8)->Arg(16)->Arg(50);

void
BM_CholeskySimd(benchmark::State &state)
{
    choleskyFlagged(state, true);
}
BENCHMARK(BM_CholeskySimd)->Arg(8)->Arg(16)->Arg(50);

void
BM_MatrixInverse(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(6);
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c)
            a(r, c) = rng.uniform(-1, 1);
        a(r, r) += 2.0;
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(inverse(a));
}
BENCHMARK(BM_MatrixInverse)->Arg(8)->Arg(15)->Arg(31);

void
BM_KdTreeNearest(benchmark::State &state)
{
    Rng rng(7);
    DynKdTree tree(5);
    for (int i = 0; i < 20000; ++i) {
        std::vector<double> p(5);
        for (double &v : p)
            v = rng.uniform(-3, 3);
        tree.insert(p, static_cast<std::uint32_t>(i));
    }
    std::vector<double> q(5, 0.0);
    for (auto _ : state) {
        q[0] = rng.uniform(-3, 3);
        benchmark::DoNotOptimize(tree.nearest(q));
    }
}
BENCHMARK(BM_KdTreeNearest);

void
BM_SortSampleRecords(benchmark::State &state)
{
    // The cem/bo sort: reward-keyed records carrying parameter vectors
    // and inline traces.
    Rng rng(8);
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<CemSample> master(n);
    for (std::size_t i = 0; i < n; ++i) {
        master[i].params = {rng.uniform(), rng.uniform(), rng.uniform()};
        master[i].reward = rng.uniform();
        for (double &t : master[i].trace)
            t = rng.uniform();
    }
    for (auto _ : state) {
        state.PauseTiming();
        std::vector<CemSample> copy = master;
        state.ResumeTiming();
        std::sort(copy.begin(), copy.end(),
                  [](const CemSample &a, const CemSample &b) {
                      return a.reward > b.reward;
                  });
        benchmark::DoNotOptimize(copy.data());
    }
}
BENCHMARK(BM_SortSampleRecords)->Arg(15)->Arg(50)->Arg(500);

void
BM_SymbolicApply(benchmark::State &state)
{
    SymbolicProblem problem = makeBlocksWorld(8, 1);
    std::vector<GroundAction> actions = groundActions(problem);
    SymbolicState current = problem.initial;
    std::size_t i = 0;
    for (auto _ : state) {
        const GroundAction &action = actions[i++ % actions.size()];
        if (action.applicable(current))
            benchmark::DoNotOptimize(action.apply(current));
        else
            benchmark::DoNotOptimize(&action);
    }
}
BENCHMARK(BM_SymbolicApply);

/**
 * One hAdd evaluation, cycling over the first 256 breadth-first states
 * of sym-fext's default instance (12 waypoints), with the scratch reused
 * as plan() reuses it.
 */
void
BM_SymbolicHAdd(benchmark::State &state)
{
    SymbolicProblem problem = makeFirefight(12);
    SymbolicPlanner planner(problem);
    std::vector<SymbolicState> states{problem.initial};
    for (std::size_t i = 0; i < states.size() && states.size() < 256; ++i) {
        const SymbolicState from = states[i];
        for (const GroundAction &action : planner.actions()) {
            if (!action.applicable(from))
                continue;
            SymbolicState next = action.apply(from);
            if (std::find(states.begin(), states.end(), next) ==
                states.end())
                states.push_back(std::move(next));
        }
    }
    states.resize(std::min<std::size_t>(states.size(), 256));
    SymbolicPlanner::HAddScratch scratch;
    std::size_t i = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            planner.heuristicValue(states[i++ % states.size()], scratch));
}
BENCHMARK(BM_SymbolicHAdd);

void
BM_ChamferDistanceTransform(benchmark::State &state)
{
    OccupancyGrid2D map = makeRandomObstacleMap(256, 256, 0.1, 9);
    for (auto _ : state)
        benchmark::DoNotOptimize(distanceTransform(map));
}
BENCHMARK(BM_ChamferDistanceTransform);

/**
 * --json mode: measure the castScan workload on the fine indoor map
 * (warmup per bench_common.h) and write a machine-readable baseline so
 * future PRs can track ns/ray and cells-visited/ray without parsing
 * bench output.
 */
int
writeRaycastBaseline(const std::string &path)
{
    const int n_rays = 60;
    const std::size_t n_origins = 64;
    const double max_range = 20.0;
    const double fov = 4.0;
    OccupancyGrid2D map = fineIndoorMap();

    // Scan origins spread over free space, pfl-style.
    Rng rng(7);
    std::vector<Vec2> origins;
    while (origins.size() < n_origins) {
        Vec2 p{map.origin().x + rng.uniform(1.0, map.worldWidth() - 1.0),
               map.origin().y + rng.uniform(1.0, map.worldHeight() - 1.0)};
        if (!map.occupiedWorld(p))
            origins.push_back(p);
    }

    // Timed sweeps run the production (uncounted) cast — the stats
    // counters cost a per-step store each and would distort ns/ray.
    std::vector<double> scan;
    auto sweep = [&] {
        for (const Vec2 &origin : origins)
            castScan(map, origin, -2.0, fov, n_rays, max_range, scan);
    };
    for (int w = 0; w < rtr::bench::warmupRuns(); ++w)
        sweep();
    // Best-of-N to shed scheduler noise on shared machines.
    const int reps = 5;
    double sec = 1e300;
    for (int r = 0; r < reps; ++r) {
        Stopwatch timer;
        sweep();
        sec = std::min(sec, timer.elapsedSec());
    }
    // Separate counted pass for traversal statistics.
    RayCastStats stats;
    for (const Vec2 &origin : origins)
        castScanCounted(map, origin, -2.0, fov, n_rays, max_range, scan,
                        stats);

    const double rays = static_cast<double>(origins.size()) * n_rays;
    const double ns_per_ray = sec * 1e9 / rays;
    const double cells_per_ray = static_cast<double>(stats.probes) / rays;

    std::ofstream file(path);
    if (!file) {
        std::cerr << "cannot write " << path << "\n";
        return 1;
    }
    rtr::bench::JsonWriter json(file);
    json.beginObject();
    json.field("benchmark", "castScan");
    json.beginObject("map");
    json.field("generator", "indoor");
    json.field("width", map.width());
    json.field("height", map.height());
    json.field("resolution_m", map.resolution());
    json.endObject();
    json.field("rays", static_cast<long long>(rays));
    json.field("max_range_m", max_range);
    json.beginObject("scalar");
    json.field("ns_per_ray", ns_per_ray);
    json.field("cells_per_ray", cells_per_ray);
    json.endObject();
    json.endObject();
    std::cout << "castScan baseline (" << static_cast<long long>(rays)
              << " rays, " << map.width() << "x" << map.height() << " @ "
              << map.resolution() << " m):\n"
              << "  scalar: " << ns_per_ray << " ns/ray, "
              << cells_per_ray << " cells/ray\n"
              << "  wrote " << path << "\n";
    return 0;
}

/** Fill a matrix with uniform(-1, 1) draws. */
void
fillRandom(Matrix &m, Rng &rng)
{
    for (std::size_t i = 0; i < m.rows() * m.cols(); ++i)
        m.data()[i] = rng.uniform(-1, 1);
}

/** Best-of-@p reps seconds for one call of @p body, after one warmup. */
template <typename F>
double
bestOf(int reps, F &&body)
{
    body();
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        Stopwatch timer;
        body();
        best = std::min(best, timer.elapsedSec());
    }
    return best;
}

/**
 * --json mode, dense-linalg block: time the GEMM and Cholesky
 * micro-kernels scalar vs SIMD across the EKF/GP-relevant size range,
 * assert bitwise identity at every size, rerun the two matrix-bound
 * kernels end-to-end under --simd 0/1, and write BENCH_gemm.json so
 * future PRs can track GFLOP/s and kernel ROI seconds. Returns nonzero
 * if any scalar/SIMD pair differs bitwise.
 */
int
writeGemmBaseline(const std::string &path)
{
    const int reps = 5;
    Rng rng(11);
    bool all_identical = true;

    std::ofstream file(path);
    if (!file) {
        std::cerr << "cannot write " << path << "\n";
        return 1;
    }
    rtr::bench::JsonWriter json(file);
    json.beginObject();
    json.field("benchmark", "dense_linalg");
    json.field("simd_backend", simd::kBackendName);
    json.field("vector_width",
               static_cast<long long>(simd::VecD::kWidth));

    std::cout << "dense-linalg baseline (backend " << simd::kBackendName
              << ", width " << simd::VecD::kWidth << "):\n";

    // GEMM sweep. 8..35 bracket the EKF state sizes (n = 3 + 2L for
    // 4..16 landmarks); 50 is the GP's largest Gram matrix; 64/96 show
    // where the micro-kernel is heading asymptotically.
    json.beginArray("gemm");
    for (std::size_t n : {8u, 11u, 15u, 23u, 35u, 50u, 64u, 96u}) {
        Matrix a(n, n), b(n, n);
        fillRandom(a, rng);
        fillRandom(b, rng);
        // Enough multiplies per rep to dwarf timer granularity.
        const int iters = static_cast<int>(
            std::max<std::size_t>(1, 3000000 / (n * n * n)));
        Matrix out;
        double scalar_sec, simd_sec;
        {
            ScopedSimdKernels off(false);
            scalar_sec = bestOf(reps, [&] {
                for (int i = 0; i < iters; ++i)
                    out = a * b;
            }) / iters;
        }
        const Matrix scalar_out = out;
        {
            ScopedSimdKernels on(true);
            simd_sec = bestOf(reps, [&] {
                for (int i = 0; i < iters; ++i)
                    out = a * b;
            }) / iters;
        }
        const bool identical =
            std::memcmp(scalar_out.data(), out.data(),
                        sizeof(double) * n * n) == 0;
        all_identical = all_identical && identical;
        const double flops = 2.0 * static_cast<double>(n) * n * n;
        json.beginObject();
        json.field("n", static_cast<long long>(n));
        json.field("scalar_ns", scalar_sec * 1e9);
        json.field("simd_ns", simd_sec * 1e9);
        json.field("scalar_gflops", flops / scalar_sec * 1e-9);
        json.field("simd_gflops", flops / simd_sec * 1e-9);
        json.field("speedup", scalar_sec / simd_sec);
        json.field("bitwise_identical", identical);
        json.endObject();
        std::cout << "  gemm n=" << n << ": " << scalar_sec * 1e9
                  << " -> " << simd_sec * 1e9 << " ns ("
                  << flops / simd_sec * 1e-9 << " GFLOP/s, "
                  << scalar_sec / simd_sec << "x, bitwise "
                  << (identical ? "yes" : "NO") << ")\n";
    }
    json.endArray();

    // Cholesky sweep: factor + single-RHS solve (the GP predict shape).
    json.beginArray("cholesky");
    for (std::size_t n : {8u, 16u, 35u, 50u, 96u}) {
        Matrix g(n, n);
        fillRandom(g, rng);
        Matrix spd = multiplyTransposed(g, g);
        for (std::size_t i = 0; i < n; ++i)
            spd(i, i) += static_cast<double>(n);
        Matrix rhs(n, 1);
        fillRandom(rhs, rng);
        const int iters = static_cast<int>(
            std::max<std::size_t>(1, 1000000 / (n * n * n)));
        Matrix x;
        double scalar_sec, simd_sec;
        Matrix scalar_l, scalar_x;
        {
            ScopedSimdKernels off(false);
            scalar_sec = bestOf(reps, [&] {
                for (int i = 0; i < iters; ++i) {
                    CholeskyDecomposition chol(spd);
                    chol.solveInto(rhs, x);
                }
            }) / iters;
            scalar_l = CholeskyDecomposition(spd).lower();
            scalar_x = x;
        }
        {
            ScopedSimdKernels on(true);
            simd_sec = bestOf(reps, [&] {
                for (int i = 0; i < iters; ++i) {
                    CholeskyDecomposition chol(spd);
                    chol.solveInto(rhs, x);
                }
            }) / iters;
        }
        const Matrix simd_l = CholeskyDecomposition(spd).lower();
        const bool identical =
            std::memcmp(scalar_l.data(), simd_l.data(),
                        sizeof(double) * n * n) == 0 &&
            std::memcmp(scalar_x.data(), x.data(),
                        sizeof(double) * n) == 0;
        all_identical = all_identical && identical;
        json.beginObject();
        json.field("n", static_cast<long long>(n));
        json.field("scalar_ns", scalar_sec * 1e9);
        json.field("simd_ns", simd_sec * 1e9);
        json.field("speedup", scalar_sec / simd_sec);
        json.field("bitwise_identical", identical);
        json.endObject();
        std::cout << "  chol n=" << n << ": " << scalar_sec * 1e9
                  << " -> " << simd_sec * 1e9 << " ns ("
                  << scalar_sec / simd_sec << "x, bitwise "
                  << (identical ? "yes" : "NO") << ")\n";
    }
    json.endArray();

    // End-to-end: the two kernels whose ROI is ~entirely dense linalg.
    // bo runs with 5000 candidates (vs the default 25000) to keep the
    // baseline pass quick; acquisition still dominates its ROI.
    struct E2E
    {
        const char *kernel;
        std::vector<std::string> overrides;
    };
    const E2E runs[] = {
        {"ekfslam", {"--landmarks", "16", "--steps", "400"}},
        {"bo", {"--iterations", "45", "--candidates", "5000"}},
    };
    json.beginArray("end_to_end");
    for (const E2E &run : runs) {
        std::vector<std::string> scalar_args = run.overrides;
        scalar_args.insert(scalar_args.end(), {"--simd", "0"});
        std::vector<std::string> simd_args = run.overrides;
        simd_args.insert(simd_args.end(), {"--simd", "1"});
        const KernelReport scalar_report =
            rtr::bench::runKernelWarm(run.kernel, scalar_args);
        const KernelReport simd_report =
            rtr::bench::runKernelWarm(run.kernel, simd_args);
        json.beginObject();
        json.field("kernel", run.kernel);
        json.field("scalar_roi_seconds", scalar_report.roi_seconds);
        json.field("simd_roi_seconds", simd_report.roi_seconds);
        json.field("speedup",
                   scalar_report.roi_seconds / simd_report.roi_seconds);
        json.endObject();
        std::cout << "  " << run.kernel << ": "
                  << scalar_report.roi_seconds << " -> "
                  << simd_report.roi_seconds << " s ROI ("
                  << scalar_report.roi_seconds / simd_report.roi_seconds
                  << "x)\n";
    }
    json.endArray();
    json.field("bitwise_identical", all_identical);
    json.endObject();
    std::cout << "  wrote " << path << "\n";
    return all_identical ? 0 : 2;
}

} // namespace

/**
 * Custom main: `bench_micro --json [raycast_path [gemm_path]]` emits
 * the ray-cast baseline (default BENCH_raycast.json) and the dense-
 * linalg baseline (default BENCH_gemm.json) and exits; anything else
 * is handed to google-benchmark unchanged (after the shared harness
 * strips --trace/--counters).
 */
int
main(int argc, char **argv)
{
    rtr::bench::Harness harness(argc, argv);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            // In --json mode this main owns the argv contract (the
            // google-benchmark path below has its own strict
            // ReportUnrecognizedArguments); reject anything that is
            // not the --json flag and its positional paths.
            rtr::bench::requireKnownOptions(
                argc, argv, {"--json [raycast.json [gemm.json]]"});
            std::string raycast_path = "BENCH_raycast.json";
            std::string gemm_path = "BENCH_gemm.json";
            if (i + 1 < argc && argv[i + 1][0] != '-') {
                raycast_path = argv[i + 1];
                if (i + 2 < argc && argv[i + 2][0] != '-')
                    gemm_path = argv[i + 2];
            }
            const int raycast_rc = writeRaycastBaseline(raycast_path);
            const int gemm_rc = writeGemmBaseline(gemm_path);
            return raycast_rc ? raycast_rc : gemm_rc;
        }
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
