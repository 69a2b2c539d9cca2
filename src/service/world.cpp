#include "service/world.h"

#include <array>
#include <utility>
#include <vector>

#include "geom/angle.h"
#include "grid/map_gen.h"
#include "pointcloud/scene_gen.h"
#include "search/grid_planner2d.h"
#include "util/logging.h"

namespace rtr {
namespace service {

namespace {

PrmConfig
prmConfigOf(const WorldConfig &config)
{
    PrmConfig prm;
    prm.n_samples = config.prm_samples;
    prm.k_neighbors = config.prm_k;
    prm.max_edge_length = config.prm_max_edge;
    prm.collision_step = config.prm_collision_step;
    prm.search_engine = config.search_engine;
    return prm;
}

/** Uniform points in a 10 m cube — the NnBatch search space. */
PointCloud
makeNnCloud(const WorldConfig &config)
{
    Rng rng(splitSeed(config.seed, 3));
    std::vector<Vec3> points;
    points.reserve(config.nn_points);
    for (std::size_t i = 0; i < config.nn_points; ++i) {
        points.push_back(Vec3{rng.uniform(0.0, 10.0),
                              rng.uniform(0.0, 10.0),
                              rng.uniform(0.0, 10.0)});
    }
    return PointCloud(std::move(points));
}

/**
 * The ICP target model: one simulated depth scan of the living-room
 * scene. A reduced ray grid keeps per-request registration in the
 * sub-millisecond class the serving workload targets.
 */
PointCloud
makeIcpModel(const WorldConfig &config)
{
    IndoorScene scene = IndoorScene::livingRoom(config.icp_scene_seed);
    std::vector<CameraPose> poses = makeTrajectory(scene, 8);
    DepthCamera camera;
    camera.width = 48;
    camera.height = 36;
    Rng rng(splitSeed(config.seed, 4));
    return simulateScan(scene, poses.front(), camera, rng);
}

} // namespace

World::World(const WorldConfig &config)
    : config_(config),
      grid_(makeCityMap(config.grid_size, config.grid_resolution,
                        splitSeed(config.seed, 1))),
      footprint_(config.footprint_length, config.footprint_width),
      planes_(FootprintPlanes::build(grid_, footprint_,
                                     GridPlanner2D::moveHeadings())),
      arm_(PlanarArm::uniform(Vec2{0.25, 0.0}, config.arm_dof, 0.45)),
      workspace_(makeMapC()),
      space_(config.arm_dof, -kPi, kPi),
      checker_(arm_, workspace_),
      prm_(space_, checker_, prmConfigOf(config)),
      nn_cloud_(makeNnCloud(config)),
      icp_target_(makeIcpModel(config))
{
    Rng prm_rng(splitSeed(config.seed, 2));
    prm_.build(prm_rng);

    std::vector<std::array<double, 3>> points;
    points.reserve(nn_cloud_.size());
    for (const Vec3 &p : nn_cloud_.points())
        points.push_back({p.x, p.y, p.z});
    nn_index_.build(points);
}

Pp2dPlanRequest
World::randomPp2d(Rng &rng) const
{
    // Sample footprint-valid cells so most plans are non-trivial; the
    // planner handles unreachable goals by returning found = false,
    // which is still a deterministic response.
    GridPlanner2D planner(grid_, &footprint_, config_.search_engine,
                          footprintPlanes());
    auto free_cell = [&] {
        for (int attempt = 0; attempt < 10000; ++attempt) {
            Cell2 cell{static_cast<int>(rng.index(
                           static_cast<std::size_t>(grid_.width()))),
                       static_cast<int>(rng.index(
                           static_cast<std::size_t>(grid_.height())))};
            if (planner.stateValid(cell, 0))
                return cell;
        }
        fatal("service world: no footprint-valid cells found");
    };
    Pp2dPlanRequest request;
    request.start = free_cell();
    request.goal = free_cell();
    request.epsilon = config_.pp2d_epsilon;
    return request;
}

PrmQueryRequest
World::randomPrm(Rng &rng) const
{
    auto free_config = [&] {
        for (int attempt = 0; attempt < 10000; ++attempt) {
            ArmConfig q = space_.sample(rng);
            if (!checker_.configCollides(q))
                return q;
        }
        fatal("service world: no free arm configurations found");
    };
    PrmQueryRequest request;
    request.start = free_config();
    request.goal = free_config();
    return request;
}

NnBatchRequest
World::randomNnBatch(Rng &rng, std::size_t n_queries,
                     std::uint32_t k) const
{
    NnBatchRequest request;
    request.k = k;
    request.queries.reserve(n_queries);
    for (std::size_t i = 0; i < n_queries; ++i) {
        request.queries.push_back({rng.uniform(0.0, 10.0),
                                   rng.uniform(0.0, 10.0),
                                   rng.uniform(0.0, 10.0)});
    }
    return request;
}

IcpRegisterRequest
World::randomIcp(Rng &rng) const
{
    IcpRegisterRequest request;
    request.seed = rng.engine()();
    request.n_points = config_.icp_points;
    request.max_iterations = config_.icp_iterations;
    return request;
}

Request
World::randomRequest(RequestType type, Rng &rng) const
{
    switch (type) {
    case RequestType::Pp2dPlan:
        return randomPp2d(rng);
    case RequestType::PrmQuery:
        return randomPrm(rng);
    case RequestType::NnBatch:
        return randomNnBatch(rng);
    case RequestType::IcpRegister:
        return randomIcp(rng);
    }
    fatal("unknown request type");
}

} // namespace service
} // namespace rtr
