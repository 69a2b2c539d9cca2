/**
 * @file
 * Entry point of the suite benchmark (rtr_suite). Usually started by
 * suitebench/run.py, which builds it first:
 *
 *   rtr_suite --workload kernels-1t|kernels-mt|service-open --seed N
 *             --seconds S --trace 0|1 [--offered-rps R]
 *             [--trace-file out.json] [--source-id ID] [--corrupt OP]
 *
 * Prints a provenance line, a detail line, and last the result line
 * {"correct", "attempted", "failed", "metrics"}.
 */

#include <sched.h>
#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "grid/raycast.h"
#include "linalg/matrix.h"
#include "pointcloud/nn_engine.h"
#include "search/search_engine.h"
#include "suite.h"
#include "suite_build_info.h"
#include "util/batch_engine.h"
#include "util/simd.h"
#include "util/stats.h"

namespace suite {

std::size_t
cpuCount()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 1;
    const int n = CPU_COUNT(&set);
    return n > 0 ? static_cast<std::size_t>(n) : 1;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(const std::vector<double> &samples)
{
    return rtr::quantile(samples, 0.5);
}

double
percentile(const std::vector<double> &samples, double q)
{
    return rtr::quantile(samples, q);
}

double
geomean(const std::vector<double> &values)
{
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

std::uint64_t
fnv1a(const void *data, std::size_t size, std::uint64_t hash)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

} // namespace suite

namespace {

[[noreturn]] void
usage(const std::string &message)
{
    std::cerr << "rtr_suite: " << message
              << "\nusage: rtr_suite --workload kernels-1t|kernels-mt|"
                 "service-open --seed N --seconds S --trace 0|1 "
                 "[--offered-rps R] [--trace-file PATH] [--source-id ID] "
                 "[--corrupt OP]\n";
    std::exit(2);
}

double
parseNumber(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || !std::isfinite(value) || value < 0)
        usage("bad value for " + flag + ": '" + text + "'");
    return value;
}

suite::Options
parseOptions(int argc, char **argv)
{
    suite::Options options;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            const double seed = parseNumber(flag, value);
            if (seed != std::floor(seed) || seed > 9.0e15)
                usage("--seed must be a whole number");
            options.seed = static_cast<std::uint64_t>(seed);
            have_seed = true;
        } else if (flag == "--seconds") {
            options.seconds = parseNumber(flag, value);
            have_seconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace must be 0 or 1");
            options.trace = value == "1";
            have_trace = true;
        } else if (flag == "--offered-rps") {
            options.offered_rps = parseNumber(flag, value);
        } else if (flag == "--trace-file") {
            options.trace_file = value;
        } else if (flag == "--source-id") {
            options.source_id = value;
        } else if (flag == "--corrupt") {
            options.corrupt = value;
        } else {
            usage("unknown option '" + flag + "'");
        }
    }
    if (options.workload != "kernels-1t" &&
        options.workload != "kernels-mt" &&
        options.workload != "service-open")
        usage("unknown --workload '" + options.workload + "'");
    if (!have_seed || !have_seconds || !have_trace)
        usage("--seed, --seconds and --trace are required");
    if (options.seconds <= 0.0)
        usage("--seconds must be positive");
    return options;
}

/**
 * The benchmark measures the default program only: refuse to run when
 * an environment variable would switch an engine or the warm-up.
 */
void
requireDefaultEngines()
{
    for (const char *name :
         {"RTR_RAYCAST", "RTR_SEARCH", "RTR_NN_ENGINE", "RTR_BATCH_ENGINE",
          "RTR_LINALG_SCALAR", "RTR_BENCH_WARMUP"}) {
        if (std::getenv(name) != nullptr) {
            std::cerr << "rtr_suite: " << name
                      << " is set; unset it so the default engines are "
                         "measured\n";
            std::exit(2);
        }
    }
}

std::string
cpuModel()
{
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos && colon + 2 <= line.size())
                return line.substr(colon + 2);
        }
    }
    return "unknown";
}

std::string
quoted(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

/** Shortest text that reads back as exactly @p value. */
std::string
number(double value)
{
    char buffer[64];
    const auto end =
        std::to_chars(buffer, buffer + sizeof buffer, value).ptr;
    return std::string(buffer, end);
}

void
printProvenance(const suite::Options &options)
{
    using namespace rtr;
    std::cout << "provenance: {"
              << "\"source\": " << quoted(options.source_id)
              << ", \"build_type\": " << quoted(RTR_SUITE_BUILD_TYPE)
              << ", \"cxx_flags\": " << quoted(RTR_SUITE_CXX_FLAGS)
              << ", \"compiler\": " << quoted(__VERSION__)
              << ", \"simd_backend\": " << quoted(simd::kBackendName)
              << ", \"simd_width\": " << simd::VecD::kWidth
              << ", \"linalg_simd\": "
              << (simdKernelsEnabled() ? "true" : "false")
              << ", \"engines\": {\"raycast\": "
              << quoted(rayEngineName(defaultRayEngine()))
              << ", \"nn\": " << quoted(nnEngineName(defaultNnEngine()))
              << ", \"batch\": "
              << quoted(batchEngineName(defaultBatchEngine()))
              << ", \"search\": "
              << quoted(searchEngineName(defaultSearchEngine())) << "}"
              << ", \"cpu\": " << quoted(cpuModel())
              << ", \"nproc\": " << suite::cpuCount()
              << ", \"workload\": " << quoted(options.workload)
              << ", \"seed\": " << options.seed
              << ", \"seconds\": " << number(options.seconds)
              << ", \"trace\": " << (options.trace ? 1 : 0)
              << ", \"offered_rps\": " << number(options.offered_rps)
              << "}\n";
}

void
printMetrics(const char *label, const std::vector<suite::Metric> &metrics)
{
    std::cout << label << "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const suite::Metric &m = metrics[i];
        if (!std::isfinite(m.value))
            throw std::runtime_error("metric " + m.name + " is not finite");
        std::cout << (i ? ", " : "") << quoted(m.name) << ": {\"value\": "
                  << number(m.value) << ", \"unit\": " << quoted(m.unit)
                  << "}";
    }
    std::cout << "}";
}

} // namespace

int
main(int argc, char **argv)
{
    const suite::Options options = parseOptions(argc, argv);
    requireDefaultEngines();
    printProvenance(options);
    try {
        suite::Result result;
        if (options.workload == "service-open")
            result = suite::runService(options);
        else
            result = suite::runKernels(options,
                                       options.workload == "kernels-mt");
        printMetrics("detail: ", result.detail);
        std::cout << "\n{\"correct\": "
                  << (result.failed == 0 ? "true" : "false")
                  << ", \"attempted\": " << result.attempted
                  << ", \"failed\": " << result.failed << ", ";
        printMetrics("\"metrics\": ", result.metrics);
        std::cout << "}\n";
    } catch (const suite::InvalidRun &invalid) {
        std::cout.flush();
        std::cerr << "rtr_suite: invalid run: " << invalid.what() << "\n";
        return suite::kInvalidRunExit;
    } catch (const std::exception &error) {
        std::cout.flush();
        std::cerr << "rtr_suite: " << error.what() << "\n";
        return 1;
    }
    return 0;
}
