/**
 * @file
 * Plumbing shared by the three benchmark workloads: the run options,
 * the report every workload fills (metrics, correctness checks,
 * attempted/failed counts), the options of the bench suite every
 * workload sets up (base operating points and alpha_qual, Section
 * 3.7), trace spans recorded from the benchmark's own calls into each
 * layer, and registry deltas.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/common.hh"
#include "stats.hh"
#include "util/telemetry.hh"

namespace perfbench {

using namespace ramp;

/** Pool workers every workload's evaluation path gets. */
inline constexpr unsigned pool_workers = 2;

/** How many times each workload repeats its set-up to report the
 *  median set-up time. */
inline constexpr int setup_repeats = 3;

/** Command-line options of one run. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for caches, sockets and trace files; the run
     *  creates and removes its own subdirectory inside. */
    std::string workdir;
};

/** What a run reports. */
class Report
{
  public:
    /** Record a correctness check; prints it and clears correct()
     *  when it fails. */
    void check(bool ok, const std::string &what);

    /** Set an end-to-end metric (reported with tracing off). */
    void endToEnd(const std::string &name, double value,
                  const std::string &unit);

    /** Set a per-layer metric (reported by the traced run). */
    void layer(const std::string &name, double value,
               const std::string &unit);

    /** Report the per-layer metrics @p names, of a layer this
     *  workload does not exercise, as explicit zeros. Every workload
     *  names its unexercised metrics, so one it forgot to report is
     *  missing from the result (and run.py fails it) rather than
     *  reading as 0. Call it after the measured metrics; naming a
     *  measured one is fatal. */
    void unexercised(const std::string &unit,
                     std::initializer_list<const char *> names);

    /** Count attempted operations and the failed ones. */
    void attempt(std::uint64_t attempted, std::uint64_t failed)
    {
        attempted_ += attempted;
        failed_ += failed;
    }

    bool correct() const { return correct_; }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    /** The last stdout line: {"correct","attempted","failed",
     *  "metrics"}, with the end-to-end or the per-layer metrics. */
    std::string json(bool per_layer) const;

  private:
    struct Metric
    {
        double value = 0.0;
        std::string unit;
    };
    bool correct_ = true;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::map<std::string, Metric> end_to_end_;
    std::map<std::string, Metric> layers_;
};

/** Seconds on the steady clock since an arbitrary epoch. */
double nowS();

/** Peak resident set of this process, MiB. */
double peakRssMb();

/** A fresh empty directory under @p workdir (removed by the
 *  destructor with everything in it). */
class RunDir
{
  public:
    RunDir(const std::string &workdir, const std::string &name);
    ~RunDir();
    RunDir(const RunDir &) = delete;
    RunDir &operator=(const RunDir &) = delete;

    const std::string &path() const { return path_; }
    std::string file(const std::string &name) const
    {
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

/**
 * The suite options of a run: the bench suite (bench::Suite, the
 * reproduction benches' own set-up) with pool_workers workers, the
 * workload seed (which also keys the evaluation cache), and the
 * cache at @p cache_path ("" = in memory). Constructing the suite is
 * the set-up every workload pays; on a fresh cache file it simulates
 * the base machine once per application, from which alpha_qual
 * follows.
 */
bench::Options suiteOptions(const std::string &cache_path,
                            std::uint64_t seed);

/** Index of a standard app of @p suite by name (fatal when
 *  unknown). */
std::size_t appIndex(const bench::Suite &suite, std::string_view name);

/** Worst relative IPC and power error of the base points against
 *  the paper's Table 2. */
struct Table2Error
{
    double ipc = 0.0;
    double power = 0.0;
};
Table2Error table2Error(const bench::Suite &suite);

/** The trace seed the app profiles were calibrated at (the default
 *  core::EvalParams seed, which bench_table2 gates). */
inline constexpr std::uint64_t calibration_seed = 1;

/**
 * Table 2 residuals at the calibration seed, from an in-memory
 * suite: a calibration residual, not a validation, and fixed
 * whatever the workload seed. Other trace seeds drift further (see
 * METRICS.md); reportResidualAtSeed shows the run's own.
 */
Table2Error calibrationResidual();

/** Report the run seed's Table 2 residuals as per-layer metrics
 *  (ungated). */
void reportResidualAtSeed(Report &report, const Table2Error &t2);

/** A timed interval on the nowS() clock. */
struct Interval
{
    double t0 = 0.0;
    double t1 = 0.0;
};

/** The durations of @p spans. */
std::vector<double> durations(const std::vector<Interval> &spans);

/** The timing part of a run's end-to-end metrics. */
struct Timing
{
    double throughput_per_s = 0.0;
    double p50_s = 0.0;
    double tail_s = 0.0;
};

/**
 * Report the end-to-end metrics every workload shares: median
 * set-up time, the peak RSS as of the end of the timed region (so
 * the benchmark's own analysis afterwards does not count), the ok
 * share of attempted operations, the workload's throughput and
 * latency median and tail, and the Table 2 calibration residuals.
 */
void reportEndToEnd(Report &report, const std::vector<double> &setup_s,
                    double peak_rss_mb, const Timing &timing,
                    const Table2Error &t2);

/** The reported timing of a closed loop: slice medians of the
 *  completions (sliceSummary), with the slice count printed. */
Timing sliceTiming(const std::vector<Completion> &done,
                   std::size_t per_slice);

/** Check the Table 2 residuals against the tolerance the
 *  bench_table2 calibration gate locks (15% IPC, 25% power). */
void checkTable2(Report &report, const Table2Error &t2);

/** State the sample count and tail percentile of the traced run's
 *  latency samples @p latency_s on stdout. */
void printLatencyShape(const std::vector<double> &latency_s);

/**
 * One trace span around a benchmark call into a layer. Records a
 * complete event into the telemetry registry when it ends (dropped
 * there when tracing is off), carrying its own id and its parent's,
 * so a viewer or a script can rebuild the call tree.
 */
class Span
{
  public:
    Span(const char *name, const char *layer, std::uint64_t parent = 0);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::uint64_t id() const { return id_; }
    /** Seconds since the span began. */
    double elapsed() const;

  private:
    const char *name_;
    const char *layer_;
    std::uint64_t id_;
    std::uint64_t parent_;
    double start_us_;
    std::chrono::steady_clock::time_point start_;
};

/** Difference between two registry snapshots. */
struct RegistryDelta
{
    telemetry::Registry::Snapshot before;
    telemetry::Registry::Snapshot after;

    std::uint64_t counter(const std::string &name) const;
    /** Samples and sum added to a histogram. */
    std::uint64_t histCount(const std::string &name) const;
    double histSum(const std::string &name) const;
};

/** Snapshot now (pair with RegistryDelta::after). */
telemetry::Registry::Snapshot snapshot();

/** Write the collected spans as a Chrome trace under @p workdir and
 *  print where. */
void writeTrace(const RunOptions &opts);

} // namespace perfbench
