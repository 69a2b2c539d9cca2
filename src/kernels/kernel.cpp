#include "kernels/kernel.h"

#include <fstream>

#include "linalg/matrix.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace rtr {

void
addThreadsOption(ArgParser &parser)
{
    parser.addOption("threads", "0",
                     "Worker threads (0 = all hardware threads, "
                     "1 = sequential)");
}

void
applyThreadsOption(const ArgParser &args)
{
    const std::int64_t n = args.getInt("threads");
    if (n < 0)
        fatal("--threads must be >= 0");
    setParallelThreads(static_cast<std::size_t>(n));
}

int
intOptionInRange(const ArgParser &args, const std::string &name, int lo,
                 int hi)
{
    const std::int64_t value = args.getInt(name);
    if (value < lo)
        fatal("--", name, " must be >= ", lo, ", got ", value);
    if (value > hi)
        fatal("--", name, " must be <= ", hi, ", got ", value);
    return static_cast<int>(value);
}

void
addSimdOption(ArgParser &parser)
{
    parser.addOption("simd", "1",
                     "Dense-linalg kernels: 1 = SIMD micro-kernels, "
                     "0 = scalar reference (bitwise-identical results)");
}

void
applySimdOption(const ArgParser &args)
{
    setSimdKernelsEnabled(args.getInt("simd") != 0);
}

void
addNnOption(ArgParser &parser)
{
    parser.addOption("nn", nnEngineName(defaultNnEngine()),
                     "NN engine: bucket = leaf-bucketed SoA k-d tree, "
                     "node = reference tree (identical results)");
}

NnEngine
nnEngineFromArgs(const ArgParser &args)
{
    NnEngine engine = defaultNnEngine();
    const std::string name = args.get("nn");
    if (!parseNnEngine(name, engine))
        fatal("--nn must be 'bucket' or 'node', got '", name, "'");
    return engine;
}

void
addBatchOption(ArgParser &parser)
{
    parser.addOption("batch", batchEngineName(defaultBatchEngine()),
                     "Rollout engine: soa = SIMD across environments, "
                     "scalar = reference (identical results)");
}

BatchEngine
batchEngineFromArgs(const ArgParser &args)
{
    BatchEngine engine = defaultBatchEngine();
    const std::string name = args.get("batch");
    if (!parseBatchEngine(name, engine))
        fatal("--batch must be 'soa' or 'scalar', got '", name, "'");
    return engine;
}

void
addSearchOption(ArgParser &parser)
{
    parser.addOption("search", searchEngineName(defaultSearchEngine()),
                     "Graph-search engine: flat = SoA pools + epoch "
                     "stamps + 4-ary heap, heap = reference binary "
                     "heap (identical results)");
}

SearchEngine
searchEngineFromArgs(const ArgParser &args)
{
    SearchEngine engine = defaultSearchEngine();
    const std::string name = args.get("search");
    if (!parseSearchEngine(name, engine))
        fatal("--search must be 'flat' or 'heap', got '", name, "'");
    return engine;
}

void
writeReportFile(const KernelReport &report, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write report file '", path, "'");
    out << "section,key,value\n";
    out << "run,success," << (report.success ? 1 : 0) << "\n";
    out << "run,roi_seconds," << report.roi_seconds << "\n";
    for (const auto &phase : report.profiler.phases()) {
        out << "phase_ns," << phase.name << "," << phase.ns << "\n";
        out << "phase_count," << phase.name << "," << phase.count
            << "\n";
    }
    for (const auto &[key, value] : report.metrics)
        out << "metric," << key << "," << value << "\n";
    for (const auto &[name, series] : report.series) {
        out << "series," << name << ",";
        for (std::size_t i = 0; i < series.size(); ++i) {
            if (i)
                out << ";";
            out << series[i];
        }
        out << "\n";
    }
}

std::string
stageName(Stage stage)
{
    switch (stage) {
      case Stage::Perception:
        return "Perception";
      case Stage::Planning:
        return "Planning";
      case Stage::Control:
        return "Control";
    }
    panic("unknown stage");
}

KernelReport
Kernel::runWithDefaults(const std::vector<std::string> &overrides) const
{
    ArgParser parser(name());
    addOptions(parser);
    parser.parse(overrides);
    return run(parser);
}

} // namespace rtr
