#include "util/telemetry.hh"

// Intra-file lock checking for the registry's shared state
// (declared in telemetry.hh, used here):
// ramp-lint: guarded_by(mu_): live_
// ramp-lint: guarded_by(trace_mu_): spans_

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <ostream>

#include "util/json.hh"
#include "util/logging.hh"

namespace ramp {
namespace telemetry {

namespace {

/** Span cap: ~a few hundred bytes each; beyond this the run is
 *  producing a trace nobody can load anyway. */
constexpr std::size_t max_spans = 1'000'000;

std::uint32_t
threadTraceId()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local std::uint32_t id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

} // namespace

namespace detail {

void
ThreadState::growCounters(std::size_t slot)
{
    std::lock_guard lock(mu);
    while (counters.size() <= slot)
        counters.emplace_back();
}

void
ThreadState::ensureHist(std::size_t slot, double lo, double hi,
                        std::size_t bins)
{
    std::lock_guard lock(mu);
    while (hists.size() <= slot)
        hists.emplace_back();
    if (!hists[slot])
        hists[slot] = std::make_unique<LocalHist>(lo, hi, bins);
}

ThreadState &
localState()
{
    // The holder registers the state on thread start and retires it
    // (merging into the registry totals) on thread exit. The state
    // itself is owned by the registry so a snapshot can never see a
    // dangling pointer.
    struct Holder
    {
        ThreadState *state;

        // ramp-lint: allow(raw-new): state outlives the thread.
        Holder() : state(new ThreadState())
        {
            Registry::instance().registerState(state);
        }

        ~Holder() { Registry::instance().retireState(state); }
    };
    thread_local Holder holder;
    return *holder.state;
}

} // namespace detail

void
Histogram::add(double x) const
{
    if (slot_ == npos)
        return;
    auto &ts = detail::localState();
    if (slot_ >= ts.hists.size() || !ts.hists[slot_])
        ts.ensureHist(slot_, lo_, hi_, bins_);
    std::lock_guard lock(ts.mu);
    ts.hists[slot_]->add(x);
}

Registry::Registry() : epoch_(std::chrono::steady_clock::now()) {}

Registry &
Registry::instance()
{
    // Leaked on purpose: thread_local destructors and atexit writers
    // may run after static destruction would have torn it down.
    // ramp-lint: allow(raw-new): leaked on purpose, see above.
    static Registry *r = new Registry();
    return *r;
}

const Registry::MetricInfo &
Registry::lookupOrCreate(std::string_view name, MetricInfo::Kind kind,
                         double lo, double hi, std::size_t bins)
{
    auto it = by_name_.find(name);
    if (it != by_name_.end()) {
        const MetricInfo &info = metrics_[it->second];
        if (info.kind != kind)
            util::panic(util::cat("telemetry metric '", name,
                                  "' re-registered as a different "
                                  "kind"));
        if (kind == MetricInfo::Kind::Histogram &&
            (info.lo != lo || info.hi != hi || info.bins != bins))
            util::panic(util::cat("telemetry histogram '", name,
                                  "' re-registered with a different "
                                  "shape"));
        return info;
    }

    MetricInfo info;
    info.kind = kind;
    info.name = std::string(name);
    info.lo = lo;
    info.hi = hi;
    info.bins = bins;
    switch (kind) {
      case MetricInfo::Kind::Counter:
        info.slot = counter_slots_++;
        counter_totals_.push_back(0);
        break;
      case MetricInfo::Kind::Gauge:
        info.slot = gauges_.size();
        gauges_.emplace_back();
        break;
      case MetricInfo::Kind::Histogram:
        info.slot = hist_slots_++;
        hist_totals_.emplace_back();
        hist_totals_.back().counts.resize(bins, 0);
        break;
    }
    metrics_.push_back(info);
    by_name_.emplace(info.name, metrics_.size() - 1);
    return metrics_.back();
}

Counter
Registry::counter(std::string_view name)
{
    std::lock_guard lock(mu_);
    return Counter(
        lookupOrCreate(name, MetricInfo::Kind::Counter, 0, 0, 0)
            .slot);
}

Gauge
Registry::gauge(std::string_view name)
{
    std::lock_guard lock(mu_);
    const auto &info =
        lookupOrCreate(name, MetricInfo::Kind::Gauge, 0, 0, 0);
    return Gauge(&gauges_[info.slot]);
}

Histogram
Registry::histogram(std::string_view name, double lo, double hi,
                    std::size_t bins)
{
    if (!(hi > lo) || bins == 0)
        util::panic(util::cat("telemetry histogram '", name,
                              "' needs hi > lo and at least one "
                              "bin"));
    std::lock_guard lock(mu_);
    const auto &info = lookupOrCreate(
        name, MetricInfo::Kind::Histogram, lo, hi, bins);
    return Histogram(info.slot, lo, hi, bins);
}

void
Registry::registerState(detail::ThreadState *state)
{
    std::lock_guard lock(mu_);
    live_.push_back(state);
}

void
Registry::retireState(detail::ThreadState *state)
{
    std::unique_ptr<detail::ThreadState> owned(state);
    std::lock_guard lock(mu_);
    {
        std::lock_guard state_lock(state->mu);
        mergeLocked(*state);
    }
    std::erase(live_, state);
}

void
Registry::mergeLocked(const detail::ThreadState &state)
{
    for (std::size_t i = 0;
         i < state.counters.size() && i < counter_totals_.size(); ++i)
        counter_totals_[i] +=
            state.counters[i].load(std::memory_order_relaxed);

    for (std::size_t i = 0;
         i < state.hists.size() && i < hist_totals_.size(); ++i) {
        const auto *lh = state.hists[i].get();
        if (!lh)
            continue;
        HistTotals &t = hist_totals_[i];
        for (std::size_t b = 0; b < t.counts.size(); ++b)
            t.counts[b] += lh->hist.binCount(b);
        t.underflow += lh->hist.underflow();
        t.overflow += lh->hist.overflow();
        t.total += lh->hist.total();
        t.sum += lh->stat.sum();
        if (lh->stat.count()) {
            t.min = std::min(t.min, lh->stat.min());
            t.max = std::max(t.max, lh->stat.max());
        }
    }
}

std::uint64_t
Registry::Snapshot::counter(const std::string &name) const
{
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

Registry::Snapshot
Registry::snapshot() const
{
    std::lock_guard lock(mu_);

    // Start from the retired totals, then fold in every live thread.
    std::vector<std::uint64_t> counters = counter_totals_;
    std::vector<HistTotals> hists = hist_totals_;
    for (const detail::ThreadState *ts : live_) {
        std::lock_guard state_lock(
            const_cast<detail::ThreadState *>(ts)->mu);
        for (std::size_t i = 0;
             i < ts->counters.size() && i < counters.size(); ++i)
            counters[i] +=
                ts->counters[i].load(std::memory_order_relaxed);
        for (std::size_t i = 0;
             i < ts->hists.size() && i < hists.size(); ++i) {
            const auto *lh = ts->hists[i].get();
            if (!lh)
                continue;
            HistTotals &t = hists[i];
            for (std::size_t b = 0; b < t.counts.size(); ++b)
                t.counts[b] += lh->hist.binCount(b);
            t.underflow += lh->hist.underflow();
            t.overflow += lh->hist.overflow();
            t.total += lh->hist.total();
            t.sum += lh->stat.sum();
            if (lh->stat.count()) {
                t.min = std::min(t.min, lh->stat.min());
                t.max = std::max(t.max, lh->stat.max());
            }
        }
    }

    Snapshot snap;
    for (const MetricInfo &info : metrics_) {
        switch (info.kind) {
          case MetricInfo::Kind::Counter:
            snap.counters[info.name] = counters[info.slot];
            break;
          case MetricInfo::Kind::Gauge:
            snap.gauges[info.name] =
                gauges_[info.slot].load(std::memory_order_relaxed);
            break;
          case MetricInfo::Kind::Histogram: {
            const HistTotals &t = hists[info.slot];
            HistogramSnapshot hs;
            hs.lo = info.lo;
            hs.hi = info.hi;
            hs.counts = t.counts;
            hs.underflow = t.underflow;
            hs.overflow = t.overflow;
            hs.total = t.total;
            hs.sum = t.sum;
            hs.min = t.total ? t.min : 0.0;
            hs.max = t.total ? t.max : 0.0;
            snap.histograms[info.name] = std::move(hs);
            break;
          }
        }
    }
    return snap;
}

void
Registry::writeMetricsJson(std::ostream &os) const
{
    // Built as a document tree and serialized with util::writeJson
    // so the emitted file is guaranteed to round-trip through
    // util::parseJson (the validator and manifest checker both parse
    // it back).
    const Snapshot snap = snapshot();
    util::JsonValue root = util::JsonValue::makeObject();

    util::JsonValue counters = util::JsonValue::makeObject();
    for (const auto &[name, value] : snap.counters)
        counters.set(name, util::JsonValue::makeNumber(
                               static_cast<double>(value)));
    root.set("counters", std::move(counters));

    util::JsonValue gauges = util::JsonValue::makeObject();
    for (const auto &[name, value] : snap.gauges)
        gauges.set(name, util::JsonValue::makeNumber(value));
    root.set("gauges", std::move(gauges));

    util::JsonValue hists = util::JsonValue::makeObject();
    for (const auto &[name, h] : snap.histograms) {
        util::JsonValue entry = util::JsonValue::makeObject();
        entry.set("lo", util::JsonValue::makeNumber(h.lo));
        entry.set("hi", util::JsonValue::makeNumber(h.hi));
        util::JsonValue counts = util::JsonValue::makeArray();
        for (std::uint64_t c : h.counts)
            counts.push(util::JsonValue::makeNumber(
                static_cast<double>(c)));
        entry.set("counts", std::move(counts));
        entry.set("underflow", util::JsonValue::makeNumber(
                                   static_cast<double>(h.underflow)));
        entry.set("overflow", util::JsonValue::makeNumber(
                                  static_cast<double>(h.overflow)));
        entry.set("total", util::JsonValue::makeNumber(
                               static_cast<double>(h.total)));
        entry.set("sum", util::JsonValue::makeNumber(h.sum));
        entry.set("mean", util::JsonValue::makeNumber(h.mean()));
        entry.set("min", util::JsonValue::makeNumber(h.min));
        entry.set("max", util::JsonValue::makeNumber(h.max));
        hists.set(name, std::move(entry));
    }
    root.set("histograms", std::move(hists));

    util::writeJson(os, root);
    os << '\n';
}

void
Registry::setTracing(bool on)
{
    tracing_.store(on, std::memory_order_relaxed);
}

double
Registry::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

void
Registry::addSpan(Span span)
{
    std::lock_guard lock(trace_mu_);
    if (spans_.size() >= max_spans) {
        ++spans_dropped_;
        return;
    }
    spans_.push_back(std::move(span));
}

void
Registry::recordSpan(std::string_view name, std::string_view cat,
                     double ts_us, double dur_us,
                     std::vector<SpanArg> args)
{
    if (!tracing())
        return;
    Span s;
    s.name = std::string(name);
    s.cat = std::string(cat);
    s.tid = threadTraceId();
    s.ts_us = ts_us;
    s.dur_us = dur_us;
    s.args = std::move(args);
    addSpan(std::move(s));
}

void
Registry::recordInstant(std::string_view name, std::string_view cat,
                        std::vector<SpanArg> args)
{
    if (!tracing())
        return;
    Span s;
    s.name = std::string(name);
    s.cat = std::string(cat);
    s.tid = threadTraceId();
    s.ts_us = nowUs();
    s.instant = true;
    s.args = std::move(args);
    addSpan(std::move(s));
}

void
Registry::writeTraceJson(std::ostream &os) const
{
    using util::JsonValue;
    std::lock_guard lock(trace_mu_);
    // Streamed one span at a time: a tree for the whole trace would
    // cost far more than the span buffer it serializes.
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        JsonValue ev = JsonValue::makeObject();
        ev.set("name", JsonValue::makeString(s.name));
        ev.set("cat", JsonValue::makeString(s.cat.empty() ? "ramp"
                                                          : s.cat));
        ev.set("ph", JsonValue::makeString(s.instant ? "i" : "X"));
        ev.set("pid", JsonValue::makeNumber(1));
        ev.set("tid",
               JsonValue::makeNumber(static_cast<double>(s.tid)));
        ev.set("ts", JsonValue::makeNumber(s.ts_us));
        if (s.instant) // Thread-scoped instant.
            ev.set("s", JsonValue::makeString("t"));
        else
            ev.set("dur", JsonValue::makeNumber(s.dur_us));
        if (!s.args.empty()) {
            JsonValue args = JsonValue::makeObject();
            for (const auto &[k, v] : s.args)
                args.set(k, JsonValue::makeNumber(v));
            ev.set("args", std::move(args));
        }
        if (i > 0)
            os << ',';
        util::writeJson(os, ev);
    }
    os << "],\"displayTimeUnit\":\"ms\"";
    if (spans_dropped_)
        os << ",\"rampSpansDropped\":" << spans_dropped_;
    os << "}\n";
}

void
Registry::reset()
{
    std::lock_guard lock(mu_);
    std::fill(counter_totals_.begin(), counter_totals_.end(), 0);
    for (HistTotals &t : hist_totals_) {
        std::fill(t.counts.begin(), t.counts.end(), 0);
        t.underflow = t.overflow = t.total = 0;
        t.sum = 0.0;
        t.min = 1.0 / 0.0;
        t.max = -1.0 / 0.0;
    }
    for (auto &g : gauges_)
        g.store(0.0, std::memory_order_relaxed);
    for (detail::ThreadState *ts : live_) {
        std::lock_guard state_lock(ts->mu);
        for (auto &c : ts->counters)
            c.store(0, std::memory_order_relaxed);
        // Replace, never null: an owner's unlocked pre-check may have
        // already seen a live pointer for its locked add().
        for (auto &h : ts->hists)
            if (h) {
                const double lo = h->hist.binLo(0);
                const double hi = h->hist.binHi(h->hist.bins() - 1);
                h = std::make_unique<detail::LocalHist>(
                    lo, hi, h->hist.bins());
            }
    }
    std::lock_guard trace_lock(trace_mu_);
    spans_.clear();
    spans_dropped_ = 0;
}

ScopedTimer::ScopedTimer(Histogram hist, const char *span_name,
                         const char *category)
    : hist_(hist), name_(span_name), cat_(category),
      start_(std::chrono::steady_clock::now())
{
}

ScopedTimer::~ScopedTimer()
{
    const auto end = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(end - start_).count();
    hist_.add(seconds);
    if (name_ && Registry::instance().tracing()) {
        auto &r = Registry::instance();
        const double end_us = r.nowUs();
        r.recordSpan(name_, cat_, end_us - seconds * 1e6,
                     seconds * 1e6, std::move(args_));
    }
}

void
ScopedTimer::arg(std::string name, double value)
{
    args_.emplace_back(std::move(name), value);
}

Counter
counter(std::string_view name)
{
    return Registry::instance().counter(name);
}

Gauge
gauge(std::string_view name)
{
    return Registry::instance().gauge(name);
}

Histogram
histogram(std::string_view name, double lo, double hi,
          std::size_t bins)
{
    return Registry::instance().histogram(name, lo, hi, bins);
}

void
instant(std::string_view name, std::string_view cat,
        std::vector<SpanArg> args)
{
    Registry::instance().recordInstant(name, cat, std::move(args));
}

namespace {

std::mutex exit_mu;
std::string exit_metrics_path;
std::string exit_trace_path;

void
writeFilesNow()
{
    std::string metrics, trace;
    {
        std::lock_guard lock(exit_mu);
        metrics = exit_metrics_path;
        trace = exit_trace_path;
    }
    if (!metrics.empty()) {
        std::ofstream os(metrics, std::ios::trunc);
        if (os)
            Registry::instance().writeMetricsJson(os);
        else
            util::warn(util::cat("telemetry: cannot write metrics "
                                 "file ",
                                 metrics));
    }
    if (!trace.empty()) {
        std::ofstream os(trace, std::ios::trunc);
        if (os)
            Registry::instance().writeTraceJson(os);
        else
            util::warn(util::cat("telemetry: cannot write trace "
                                 "file ",
                                 trace));
    }
}

} // namespace

void
writeFilesAtExit(std::string metrics_path, std::string trace_path)
{
    static bool installed = [] {
        std::atexit(writeFilesNow);
        return true;
    }();
    (void)installed;
    if (!trace_path.empty())
        Registry::instance().setTracing(true);
    std::lock_guard lock(exit_mu);
    exit_metrics_path = std::move(metrics_path);
    exit_trace_path = std::move(trace_path);
}

int
consumeOutputFlags(int argc, char **argv)
{
    std::string metrics, trace;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        std::string *dest = nullptr;
        std::string_view inline_value;
        bool has_inline = false;
        if (arg == "--metrics" || arg == "--trace") {
            dest = arg == "--metrics" ? &metrics : &trace;
        } else if (arg.rfind("--metrics=", 0) == 0) {
            dest = &metrics;
            inline_value = arg.substr(10);
            has_inline = true;
        } else if (arg.rfind("--trace=", 0) == 0) {
            dest = &trace;
            inline_value = arg.substr(8);
            has_inline = true;
        }
        if (!dest) {
            argv[out++] = argv[i];
            continue;
        }
        if (has_inline) {
            *dest = std::string(inline_value);
        } else if (i + 1 < argc) {
            *dest = argv[++i];
        } else {
            util::fatal(util::cat(arg, " needs a file path"));
        }
        if (dest->empty())
            util::fatal(util::cat(arg, " needs a file path"));
    }
    argv[out] = nullptr;
    if (!metrics.empty() || !trace.empty())
        writeFilesAtExit(metrics, trace);
    return out;
}

} // namespace telemetry
} // namespace ramp
