/**
 * @file
 * Regenerates Table I: every kernel with its pipeline stage and its
 * measured dominant bottleneck (phase shares of the ROI), at reduced
 * but representative configurations so the whole table runs in tens of
 * seconds.
 */

#include <algorithm>

#include "bench_common.h"

namespace {

using namespace rtr;
using namespace rtr::bench;

/** Per-kernel run configuration and the Table I bottleneck label. */
struct Row
{
    const char *kernel;
    const char *paper_bottleneck;
    std::vector<std::string> overrides;
    /** Phase whose ROI share Table I implies, with its floor (or null). */
    const char *share_phase = nullptr;
    double share_floor = 0.0;
};

const std::vector<Row> kRows = {
    {"pfl", "Ray-casting", {"--particles", "800", "--steps", "50"},
     "raycast", 0.5},
    {"ekfslam", "Matrix operations", {}, "matrix-ops", 0.7},
    {"srec", "Point cloud ops, matrix ops", {"--frames", "8"}},
    {"pp2d", "Collision detection", {"--map-size", "512"}, "collision",
     0.5},
    {"pp3d", "Collision detection, graph search", {"--map-size", "128"}},
    {"movtar", "Input-dependent", {"--env-size", "96"}},
    {"prm", "Graph search, L2-norm calculations", {}},
    {"rrt", "Collision detection, NN search", {}, "collision", 0.3},
    {"rrtstar", "Collision detection, NN search", {"--samples", "2500"}},
    {"rrtpp", "Collision detection, NN search", {}},
    {"sym-blkw", "Graph search, string manipulation", {}},
    {"sym-fext", "Graph search, string manipulation", {}},
    {"dmp", "Fine-grained serialization", {}},
    {"mpc", "Optimization", {"--ref-points", "60"}, "optimize", 0.8},
    {"cem", "Sort", {"--repeats", "500"}},
    {"bo", "Sort", {"--candidates", "8000"}},
};

} // namespace

int
main(int argc, char **argv)
{
    rtr::bench::Harness harness(argc, argv);
    rtr::bench::requireKnownOptions(argc, argv);
    banner("Table I — RTRBench's kernels and their key characteristics",
           "stage + dominant bottleneck per kernel (Table I)");

    // The "Bottleneck share" column is the wall-clock check that used to
    // live in ctest (which now asserts deterministic work counters
    // instead): the Table I phase's share of the ROI against its floor.
    Table table({"Kernel", "Stage", "Paper bottleneck",
                 "Measured top phases (share of ROI)",
                 "Bottleneck share (floor)", "ROI (ms)", "ok"});

    int index = 0;
    for (const Row &row : kRows) {
        ++index;
        KernelReport report = runKernel(row.kernel, row.overrides);

        // Top two phases by inclusive share.
        std::vector<std::pair<double, std::string>> shares;
        for (const auto &phase : report.profiler.phases())
            shares.emplace_back(report.phaseFraction(phase.name),
                                phase.name);
        std::sort(shares.rbegin(), shares.rend());
        std::string top;
        for (std::size_t i = 0; i < shares.size() && i < 2; ++i) {
            if (i)
                top += ", ";
            top += shares[i].second + " " +
                   Table::pct(shares[i].first, 0);
        }

        std::string share = "-";
        if (row.share_phase != nullptr) {
            const double got = report.phaseFraction(row.share_phase);
            share = std::string(row.share_phase) + " " +
                    Table::pct(got, 0) + " (" +
                    Table::pct(row.share_floor, 0) + ")" +
                    (got < row.share_floor ? " BELOW" : "");
        }

        auto kernel = makeKernel(row.kernel);
        std::string id = (index < 10 ? "0" : "") + std::to_string(index);
        table.addRow({id + "." + row.kernel,
                      stageName(kernel->stage()), row.paper_bottleneck,
                      top, share, Table::num(report.roi_seconds * 1e3, 1),
                      report.success ? "yes" : "NO"});
    }
    table.print();
    return 0;
}
