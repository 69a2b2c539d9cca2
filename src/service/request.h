/**
 * @file
 * Request/response vocabulary of the planning service.
 *
 * A request is a small, self-contained description of one planning
 * problem against the service's shared World — never a pointer into
 * mutable state. The determinism contract of the whole subsystem
 * starts here: a response must be a pure function of (request, world),
 * so every stochastic request type (IcpRegister) carries its own seed
 * and every handler derives all randomness from it. Nothing in a
 * request or response may depend on arrival order, queue depth, or
 * worker count.
 *
 * Responses are plain value structs; appendCanonicalBytes() flattens
 * one into a padding-free byte string so the determinism replay tests
 * can memcmp responses across submission orders and thread counts.
 */

#ifndef RTR_SERVICE_REQUEST_H
#define RTR_SERVICE_REQUEST_H

#include <cstdint>
#include <variant>
#include <vector>

#include "arm/planar_arm.h"
#include "grid/occupancy_grid2d.h"
#include "pointcloud/kdtree.h"
#include "pointcloud/point_cloud.h"

namespace rtr {
namespace service {

/** The planning operations the service can execute. */
enum class RequestType : std::uint8_t
{
    Pp2dPlan,    ///< Footprint-checked A* on the shared city grid.
    PrmQuery,    ///< Online query against the shared PRM roadmap.
    NnBatch,     ///< Batched k-NN against the shared bucket k-d index.
    IcpRegister, ///< Register a seed-generated scan onto the shared model.
};

/** Display name of a request type ("pp2d", "prm", "nn", "icp"). */
const char *requestTypeName(RequestType type);

/** Plan start -> goal on the World's city grid with its footprint. */
struct Pp2dPlanRequest
{
    Cell2 start{0, 0};
    Cell2 goal{0, 0};
    /** Heuristic weight: 1 = A*, > 1 = WA*. */
    double epsilon = 1.0;
};

/** Query the World's PRM roadmap between two arm configurations. */
struct PrmQueryRequest
{
    ArmConfig start;
    ArmConfig goal;
};

/** k nearest neighbors for each query point in the World's cloud. */
struct NnBatchRequest
{
    std::vector<std::array<double, 3>> queries;
    std::uint32_t k = 4;
};

/**
 * Register a synthetic scan onto the World's prebuilt ICP target.
 * The source cloud is generated *inside the handler* from @p seed (a
 * perturbed, noisy subset of the target), so the request stays small
 * and the response stays a pure function of the request.
 */
struct IcpRegisterRequest
{
    /** Sole source of randomness for scan generation. */
    std::uint64_t seed = 1;
    /** Source-scan size (points sampled from the target model). */
    std::uint32_t n_points = 96;
    /** Outer ICP iteration cap. */
    int max_iterations = 8;
};

/** Any request the service accepts. */
using Request = std::variant<Pp2dPlanRequest, PrmQueryRequest,
                             NnBatchRequest, IcpRegisterRequest>;

/** The type tag of a request. */
RequestType requestTypeOf(const Request &request);

/** Outcome of a Pp2dPlanRequest. */
struct Pp2dPlanResponse
{
    bool found = false;
    double cost = 0.0;
    std::uint64_t expanded = 0;
    std::vector<Cell2> path;
};

/** Outcome of a PrmQueryRequest. */
struct PrmQueryResponse
{
    bool found = false;
    double cost = 0.0;
    std::uint64_t heuristic_evals = 0;
    std::vector<ArmConfig> path;
};

/** Outcome of an NnBatchRequest: k hits per query, query-major. */
struct NnBatchResponse
{
    std::vector<KdHit> hits;
};

/** Outcome of an IcpRegisterRequest. */
struct IcpRegisterResponse
{
    double rmse = 0.0;
    int iterations = 0;
    bool converged = false;
    /** Estimated transform: rotation row-major (9) then translation (3). */
    std::array<double, 12> transform{};
};

/** Any response the service produces (same alternative order). */
using Response = std::variant<Pp2dPlanResponse, PrmQueryResponse,
                              NnBatchResponse, IcpRegisterResponse>;

/**
 * Append a padding-free canonical flattening of @p response to
 * @p out: a type tag, then every field in declaration order (scalars
 * by value bytes, vectors as a u64 length followed by elements). Two
 * responses are equal iff their canonical bytes are — this is the
 * memcmp the determinism replay runs across submission orders and
 * worker counts.
 */
void appendCanonicalBytes(const Response &response,
                          std::vector<std::uint8_t> &out);

} // namespace service
} // namespace rtr

#endif // RTR_SERVICE_REQUEST_H
