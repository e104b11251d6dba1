#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/logging.hh"

namespace perfbench {

namespace fs = std::filesystem;

void
Report::check(bool ok, const std::string &what)
{
    std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
    correct_ &= ok;
}

void
Report::endToEnd(const std::string &name, double value,
                 const std::string &unit)
{
    end_to_end_[name] = {value, unit};
}

void
Report::layer(const std::string &name, double value,
              const std::string &unit)
{
    layers_[name] = {value, unit};
}

void
Report::unexercised(const std::string &unit,
                    std::initializer_list<const char *> names)
{
    for (const char *name : names) {
        if (layers_.count(name))
            util::fatal(util::cat("per-layer metric ", name,
                                  " is both measured and unexercised"));
        layer(name, 0.0, unit);
    }
}

namespace {

/** JSON number with every digit of the double (integers plain). */
std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    if (v == std::floor(v) && std::fabs(v) < 1e15)
        std::snprintf(buf, sizeof buf, "%.0f", v);
    else
        std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

std::string
Report::json(bool per_layer) const
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct_ ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": "
       << failed_ << ", \"metrics\": {";
    const auto &metrics = per_layer ? layers_ : end_to_end_;
    bool first = true;
    for (const auto &[name, m] : metrics) {
        os << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
           << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    os << "}}";
    return os.str();
}

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

RunDir::RunDir(const std::string &workdir,
                       const std::string &name)
    : path_(workdir + "/" + name)
{
    fs::remove_all(path_);
    fs::create_directories(path_);
}

RunDir::~RunDir()
{
    std::error_code ec;
    fs::remove_all(path_, ec);
}

bench::Options
suiteOptions(const std::string &cache_path, std::uint64_t seed)
{
    bench::Options opts;
    opts.threads = pool_workers;
    opts.seed = seed;
    opts.cache_path = cache_path;
    opts.cache_set = true;
    return opts;
}

std::size_t
appIndex(const bench::Suite &suite, std::string_view name)
{
    for (std::size_t i = 0; i < suite.apps.size(); ++i)
        if (suite.apps[i].name == name)
            return i;
    util::fatal(util::cat("unknown application ", name));
}

Table2Error
table2Error(const bench::Suite &suite)
{
    Table2Error err;
    for (std::size_t i = 0; i < suite.apps.size(); ++i) {
        const auto &app = suite.apps[i];
        const auto &op = suite.base_ops[i];
        err.ipc = std::max(err.ipc, std::fabs(op.ipc() - app.table2_ipc) /
                                        app.table2_ipc);
        err.power = std::max(err.power,
                             std::fabs(op.totalPower() -
                                       app.table2_power_w) /
                                 app.table2_power_w);
    }
    return err;
}

Table2Error
calibrationResidual()
{
    const bench::Suite suite(suiteOptions("", calibration_seed));
    return table2Error(suite);
}

void
reportResidualAtSeed(Report &report, const Table2Error &t2)
{
    report.layer("workload.table2_ipc_err_at_seed", t2.ipc, "frac");
    report.layer("workload.table2_power_err_at_seed", t2.power, "frac");
}

void
reportEndToEnd(Report &report, const std::vector<double> &setup_s,
               double peak_rss_mb, const Timing &timing,
               const Table2Error &t2)
{
    std::printf("  set-up: median of %zu\n", setup_s.size());
    report.endToEnd("setup_s", median(setup_s), "s");
    report.endToEnd("peak_rss_mb", peak_rss_mb, "MiB");
    const double attempted = static_cast<double>(report.attempted());
    report.endToEnd("ok_frac",
                    attempted > 0.0
                        ? (attempted -
                           static_cast<double>(report.failed())) /
                              attempted
                        : 0.0,
                    "ok/attempted");
    report.endToEnd("throughput_per_s", timing.throughput_per_s, "1/s");
    report.endToEnd("latency_p50_ms", timing.p50_s * 1e3, "ms");
    report.endToEnd("latency_tail_ms", timing.tail_s * 1e3, "ms");
    report.endToEnd("table2_ipc_err", t2.ipc, "frac");
    report.endToEnd("table2_power_err", t2.power, "frac");
}

Timing
sliceTiming(const std::vector<Completion> &done, std::size_t per_slice)
{
    const SliceSummary s = sliceSummary(done, per_slice);
    std::printf("  %zu slices of %zu completions (throughput %.4f to "
                "%.4f/s); slice medians of throughput, p50 and p%g "
                "latency\n",
                s.slices, s.per_slice, s.min_throughput_per_s,
                s.max_throughput_per_s, s.tail_p * 100.0);
    return {s.throughput_per_s, s.p50_s, s.tail_s};
}

std::vector<double>
durations(const std::vector<Interval> &spans)
{
    std::vector<double> out;
    for (const Interval &i : spans)
        out.push_back(i.t1 - i.t0);
    return out;
}

void
checkTable2(Report &report, const Table2Error &t2)
{
    char what[160];
    std::snprintf(what, sizeof what,
                  "Table 2 residuals within tolerance: IPC %.1f%% "
                  "(< 15%%), power %.1f%% (< 25%%)",
                  100.0 * t2.ipc, 100.0 * t2.power);
    report.check(t2.ipc < 0.15 && t2.power < 0.25, what);
}

void
printLatencyShape(const std::vector<double> &latency_s)
{
    const LatencySummary lat = summarize(latency_s);
    std::printf("  traced latency: %zu samples, tail p%g\n", lat.samples,
                lat.tail_p * 100.0);
}

namespace {

std::atomic<std::uint64_t> next_span_id{1};

} // namespace

Span::Span(const char *name, const char *layer, std::uint64_t parent)
    : name_(name),
      layer_(layer),
      id_(next_span_id.fetch_add(1, std::memory_order_relaxed)),
      parent_(parent),
      start_us_(telemetry::Registry::instance().nowUs()),
      start_(std::chrono::steady_clock::now())
{
}

Span::~Span()
{
    auto &reg = telemetry::Registry::instance();
    reg.recordSpan(name_, layer_, start_us_, elapsed() * 1e6,
                   {{"id", static_cast<double>(id_)},
                    {"parent", static_cast<double>(parent_)}});
}

double
Span::elapsed() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start_)
        .count();
}

std::uint64_t
RegistryDelta::counter(const std::string &name) const
{
    return after.counter(name) - before.counter(name);
}

std::uint64_t
RegistryDelta::histCount(const std::string &name) const
{
    const auto a = after.histograms.find(name);
    if (a == after.histograms.end())
        return 0;
    const auto b = before.histograms.find(name);
    return a->second.total -
           (b == before.histograms.end() ? 0 : b->second.total);
}

double
RegistryDelta::histSum(const std::string &name) const
{
    const auto a = after.histograms.find(name);
    if (a == after.histograms.end())
        return 0.0;
    const auto b = before.histograms.find(name);
    return a->second.sum -
           (b == before.histograms.end() ? 0.0 : b->second.sum);
}

telemetry::Registry::Snapshot
snapshot()
{
    return telemetry::Registry::instance().snapshot();
}

void
writeTrace(const RunOptions &opts)
{
    const std::string path = util::cat(opts.workdir, "/trace-",
                                       opts.workload, "-seed",
                                       opts.seed, ".json");
    std::ofstream os(path, std::ios::trunc);
    telemetry::Registry::instance().writeTraceJson(os);
    std::printf("  trace: %s\n", path.c_str());
}

} // namespace perfbench
