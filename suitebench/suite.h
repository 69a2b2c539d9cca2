/**
 * @file
 * The suite benchmark: one program for the three workloads described in
 * suitebench/README.md (kernels-1t, kernels-mt, service-open).
 *
 * A workload run returns the metrics it measured; suitebench/run.py
 * checks their names and units against BENCHMARK.json and prints the
 * final result line.
 */

#ifndef RTR_SUITEBENCH_SUITE_H
#define RTR_SUITEBENCH_SUITE_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace suite {

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Where a traced run writes its Perfetto trace (empty: nowhere). */
    std::string trace_file;
    /** service-open: Poisson arrival rate of the open-loop phase. */
    double offered_rps = 0.0;
    /**
     * Self-test hook: corrupt the first checked output of the named
     * kernel or request type, which must then count as failed.
     */
    std::string corrupt;
    /** Identity of the measured source tree (git sha or digest). */
    std::string source_id = "unknown";
};

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run measured. */
struct Result
{
    /** Operations whose output was checked. */
    std::uint64_t attempted = 0;
    /** Checked operations that failed or mismatched their reference. */
    std::uint64_t failed = 0;
    /** End-to-end metrics (untraced run) or per-layer ones (traced). */
    std::vector<Metric> metrics;
    /** Context for humans: sample counts, per-operation medians. */
    std::vector<Metric> detail;

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    void
    note(std::string name, double value, std::string unit = "")
    {
        detail.push_back({std::move(name), value, std::move(unit)});
    }
};

/**
 * A run whose measurement cannot be trusted (the load generator fell
 * behind its schedule, or the tracer dropped events). main() exits
 * with kInvalidRunExit and prints no result.
 */
class InvalidRun : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

constexpr int kInvalidRunExit = 3;

/** CPUs this process may run on (what `nproc` prints). */
std::size_t cpuCount();

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** Median / q-quantile (linear interpolation); samples non-empty. */
double median(const std::vector<double> &samples);
double percentile(const std::vector<double> &samples, double q);

/** Geometric mean of positive values; values non-empty. */
double geomean(const std::vector<double> &values);

/** 64-bit FNV-1a over bytes, chained through @p hash. */
std::uint64_t fnv1a(const void *data, std::size_t size,
                    std::uint64_t hash = 0xcbf29ce484222325ULL);

/** kernels-1t (multithreaded = false) or kernels-mt. */
Result runKernels(const Options &options, bool multithreaded);

/** service-open. */
Result runService(const Options &options);

} // namespace suite

#endif // RTR_SUITEBENCH_SUITE_H
