/**
 * @file
 * serve_mix: four protocol-v3 Session connections drive an in-process
 * Server + EvaluationService in a closed loop -- each connection
 * waits for its reply before it sends again. Reads (evaluate on a
 * warm cache, select_drm, select_chip on 2 or 4 cores,
 * remaining_lifetime) interleave with aging-registry writes
 * (report_usage), so a gain for one verb that costs another shows.
 * The verb weights are bench_cluster's mixed schedule (see
 * ServeStream::next).
 * Every selection uses the DVS space, whose only simulation per app
 * is the base machine the set-up already ran; the simulator does
 * nothing here, and the protocol, JSON encoding, batching, aging and
 * cache-hit paths carry the load. Each connection owns its chips, so
 * every reply is deterministic and is checked, after the timed
 * region, byte for byte against the direct in-process answer.
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <thread>
#include <vector>

#include "aging/state.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

constexpr std::size_t connections = 4;
constexpr std::size_t chips_per_connection = 4;
/** Completions per slice of the timed window (sliceSummary). */
constexpr std::size_t slice_requests = 1000;
/** Leading requests per connection of each pass that warm up the
 *  memos and the fresh threads, left out of the timings. */
constexpr std::size_t warmup_requests = 1000;
/** Fresh servers the timed window is split across. */
constexpr int server_restarts = 3;
/** Record slots per connection and second of a timed pass: about ten
 *  times the ~5.3k requests per second one connection made when the
 *  benchmark was defined. The slots are allocated and written before
 *  the window opens, so the peak RSS does not follow throughput. */
constexpr double record_slots_per_s = 50000.0;
/** Requests per connection in each fixed pass of --trace 1. */
constexpr std::size_t traced_requests = 1500;
/** Leading replies per connection that make up the fingerprint. */
constexpr std::size_t fingerprint_requests = 256;
constexpr double t_quals[] = {345.0, 370.0, 400.0};
constexpr auto space = drm::AdaptationSpace::Dvs;

constexpr serve::RequestType verbs[] = {
    serve::RequestType::Evaluate, serve::RequestType::SelectDrm,
    serve::RequestType::SelectChip, serve::RequestType::RemainingLifetime,
    serve::RequestType::ReportUsage};

std::size_t
verbIndex(serve::RequestType type)
{
    return static_cast<std::size_t>(
        std::find(std::begin(verbs), std::end(verbs), type) -
        std::begin(verbs));
}

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** One completed request as the client saw it, kept small because a
 *  run records every request. The request itself is regenerated from
 *  its stream when needed. */
struct Record
{
    std::uint64_t digest = 0; ///< Reply digest; 0 = no ok reply.
    float start_s = 0.0f;     ///< Since the pass began.
    float latency_s = 0.0f;
};

std::uint64_t
jsonDigest(const util::JsonValue &v)
{
    Digest d;
    d.add(util::writeJson(v));
    return d.value();
}

util::Result<util::JsonValue>
wireCall(serve::Session &session, const serve::Request &req)
{
    switch (req.type) {
      case serve::RequestType::Evaluate:
        return session.evaluate(req.app, req.space, req.config,
                                req.t_qual_k);
      case serve::RequestType::SelectDrm:
        return session.selectDrm(req.app, req.space, req.t_qual_k);
      case serve::RequestType::SelectChip:
        return session.selectChip(req.core_apps, req.space,
                                  req.budget_policy, req.t_qual_k);
      case serve::RequestType::RemainingLifetime:
        return session.remainingLifetime(req.chip, req.app, req.space,
                                         req.t_qual_k);
      default:
        return session.reportUsage(req.chip, req.state, req.seq);
    }
}

/** The same request through a direct EvaluationService call, as the
 *  server's batcher or reader thread would make it. */
util::Result<util::JsonValue>
directCall(serve::EvaluationService &service, const serve::Request &req)
{
    switch (req.type) {
      case serve::RequestType::Evaluate: {
        auto op = service.evaluatePoint(req.app, req.space, req.config);
        if (!op)
            return op.error();
        return service.encodeEvaluation(req, op.value());
      }
      case serve::RequestType::SelectDrm:
        return service.select(req);
      case serve::RequestType::SelectChip:
        return service.selectChip(req);
      case serve::RequestType::RemainingLifetime:
        return service.remainingLifetime(req);
      default:
        return service.reportUsage(req);
    }
}

/** The service behind the server, on a fresh cache file. */
struct ServeSetup
{
    ServeSetup(const std::string &cache_path, std::uint64_t seed)
        : service([&] {
              serve::ServiceOptions opts;
              opts.cache_path = cache_path;
              opts.threads = pool_workers;
              opts.eval_params =
                  bench::benchEvalParams(suiteOptions("", seed));
              return opts;
          }())
    {
        service.ensureReady();
        restartServer();
    }

    /** Stop the server, if one runs, and start a fresh one over the
     *  same (warm) service: new threads, new sockets. */
    void
    restartServer()
    {
        server.reset();
        server = std::make_unique<serve::Server>(service,
                                                 serve::ServerOptions{});
        if (auto started = server->start(); !started)
            util::fatal(util::cat("server start: ",
                                  started.error().str()));
    }

    serve::EvaluationService service;
    std::unique_ptr<serve::Server> server;
};

/** What one pass of the four connections saw. */
struct Pass
{
    int id = 0;
    /** Per connection, in request order. */
    std::array<std::vector<Record>, connections> records;
    double t0 = 0.0; ///< nowS() when the pass began.
    double wall_s = 0.0;
    std::size_t transport_errors = 0;
    /** Client time spent digesting replies, all connections. */
    double digest_s = 0.0;
    /** Connections that filled their record slots before the end. */
    std::size_t full = 0;
};

/**
 * Run the four connections, each until @p max_requests or until
 * @p seconds have passed. With @p traced every request is spanned
 * from the client side.
 */
Pass
runPass(const RunOptions &opts, ServeSetup &s, int id,
        std::size_t max_requests, double seconds, bool traced)
{
    Pass pass;
    pass.id = id;
    const std::size_t slots = std::min(
        max_requests,
        static_cast<std::size_t>(seconds * record_slots_per_s) + 1);
    for (auto &records : pass.records)
        records.assign(slots, Record{});
    std::vector<std::string> apps;
    for (const auto &app : s.service.apps())
        apps.push_back(app.name);

    std::vector<serve::Session> sessions;
    for (std::size_t c = 0; c < connections; ++c) {
        serve::ClientOptions copts;
        copts.port = s.server->port();
        auto session = serve::Session::open(copts);
        if (!session || session.value().version() < 3)
            util::fatal("serve_mix: cannot open a v3 session");
        sessions.push_back(std::move(session.value()));
    }

    const double t0 = nowS();
    pass.t0 = t0;
    const double t_end = t0 + seconds;
    std::vector<std::thread> threads;
    std::array<std::size_t, connections> errors{}, made{};
    std::array<double, connections> digest_s{};
    for (std::size_t c = 0; c < connections; ++c) {
        threads.emplace_back([&, c] {
            ServeStream stream(opts.seed, id, c, apps);
            auto &records = pass.records[c];
            std::size_t &n = made[c];
            while (n < records.size() && nowS() < t_end) {
                const serve::Request req = stream.next();
                std::optional<Span> span;
                if (traced)
                    span.emplace(serve::requestTypeName(req.type),
                                 "serve");
                const double start = nowS();
                const auto reply = wireCall(sessions[c], req);
                const double end = nowS();
                span.reset();
                Record &rec = records[n++];
                rec.start_s = static_cast<float>(start - t0);
                rec.latency_s = static_cast<float>(end - start);
                if (reply) {
                    rec.digest = jsonDigest(reply.value());
                    digest_s[c] += nowS() - end;
                } else {
                    errors[c] += 1;
                }
            }
        });
    }
    for (auto &t : threads)
        t.join();
    pass.wall_s = nowS() - t0;
    for (std::size_t c = 0; c < connections; ++c) {
        pass.transport_errors += errors[c];
        pass.digest_s += digest_s[c];
        pass.full += made[c] == slots && slots < max_requests;
        // Shrinking keeps the slots' memory, so the peak RSS is fixed.
        pass.records[c].resize(made[c]);
    }
    return pass;
}

/** Per-verb in-process and encode timings of a verification. */
struct DirectTimes
{
    std::array<std::vector<double>, std::size(verbs)> call_s;
    std::vector<double> encode_s;
};

/**
 * Replay every connection's stream of @p pass through @p direct and
 * compare each ok reply with the direct answer. State-free reads are
 * memoized unless @p times is given, in which case every call is
 * made and timed. Returns the mismatch count.
 */
std::size_t
verify(const RunOptions &opts, serve::EvaluationService &direct,
       const Pass &pass, DirectTimes *times)
{
    std::vector<std::string> apps;
    for (const auto &app : direct.apps())
        apps.push_back(app.name);
    std::map<std::string, std::uint64_t> memo;
    std::size_t mismatches = 0;
    for (std::size_t c = 0; c < connections; ++c) {
        ServeStream stream(opts.seed, pass.id, c, apps);
        for (const Record &rec : pass.records[c]) {
            const serve::Request req = stream.next();
            const bool stateful =
                req.type == serve::RequestType::RemainingLifetime ||
                req.type == serve::RequestType::ReportUsage;
            std::uint64_t want = 0;
            const std::string key =
                stateful || times ? "" : serve::encodeRequest(req);
            if (auto it = memo.find(key); !key.empty() && it != memo.end()) {
                want = it->second;
            } else {
                std::optional<Span> span;
                if (times)
                    span.emplace("serve.inproc", "serve");
                const double t0 = nowS();
                const auto answer = directCall(direct, req);
                const double t1 = nowS();
                span.reset();
                if (!answer) {
                    ++mismatches;
                    continue;
                }
                std::string text;
                {
                    std::optional<Span> encode;
                    if (times)
                        encode.emplace("util.json.writeJson", "util");
                    text = util::writeJson(answer.value());
                }
                const double t2 = nowS();
                Digest d;
                d.add(text);
                want = d.value();
                if (!key.empty())
                    memo.emplace(key, want);
                if (times) {
                    times->call_s[verbIndex(req.type)].push_back(t1 - t0);
                    times->encode_s.push_back(t2 - t1);
                }
            }
            if (rec.digest != 0 && rec.digest != want)
                ++mismatches;
        }
    }
    return mismatches;
}

std::uint64_t
replyDigest(const Pass &pass, std::size_t per_connection)
{
    Digest d;
    for (const auto &records : pass.records)
        for (std::size_t k = 0; k < std::min(per_connection, records.size());
             ++k)
            d.add(records[k].digest);
    return d.value();
}

std::size_t
requestCount(const Pass &pass)
{
    std::size_t n = 0;
    for (const auto &records : pass.records)
        n += records.size();
    return n;
}

} // namespace

ServeStream::ServeStream(std::uint64_t seed, int pass,
                         std::size_t connection,
                         const std::vector<std::string> &apps)
    : seed_(seed),
      pass_(pass),
      connection_(connection),
      apps_(apps),
      chip_seq_(chips_per_connection, 0)
{
}

serve::Request
ServeStream::next()
{
    util::Rng rng(splitmix(splitmix(splitmix(seed_) ^
                                    static_cast<std::uint64_t>(pass_)) ^
                           connection_ * 0x100000001b3ull) ^
                  index_);
    ++index_;
    serve::Request req;
    req.version = serve::protocol_version_max;
    req.space = space;
    req.app = apps_[rng.below(apps_.size())];
    req.t_qual_k = t_quals[rng.below(std::size(t_quals))];
    const std::size_t chip = rng.below(chips_per_connection);
    req.chip = util::cat("p", pass_, "-c", connection_, "-", chip);

    // bench_cluster's mixed read/write schedule without its stats
    // share, and with select_chip in the place of select_dtm: evaluate
    // 55, select_drm 15, select_chip 8, report_usage 10 and
    // remaining_lifetime 6, out of 94.
    const double roll = rng.uniform(0.0, 0.94);
    if (roll < 0.55) {
        req.type = serve::RequestType::Evaluate;
        req.config = rng.below(drm::configSpace(space).size());
    } else if (roll < 0.70) {
        req.type = serve::RequestType::SelectDrm;
    } else if (roll < 0.78) {
        req.type = serve::RequestType::SelectChip;
        const std::size_t cores = rng.chance(0.5) ? 2 : 4;
        for (std::size_t c = 0; c < cores; ++c)
            req.core_apps.push_back(apps_[rng.below(apps_.size())]);
        req.budget_policy = rng.chance(0.5) ? cmp::BudgetPolicy::Global
                                            : cmp::BudgetPolicy::PerCore;
    } else if (roll >= 0.88 && chip_seq_[chip] != 0) {
        // A chip must report usage before it can be asked about.
        req.type = serve::RequestType::RemainingLifetime;
        req.t_qual_k = t_quals[0];
    } else {
        req.type = serve::RequestType::ReportUsage;
        aging::AgingState delta;
        delta.age_hours = rng.uniform(100.0, 1000.0);
        for (auto &per_mechanism : delta.damage)
            for (double &d : per_mechanism)
                d = rng.uniform(0.0, 1e-4);
        req.state = aging::toJson(delta);
        req.seq = ++chip_seq_[chip];
    }
    return req;
}

void
runServeMix(const RunOptions &opts, Report &report)
{
    std::vector<Interval> setups;
    std::unique_ptr<RunDir> dir;
    std::unique_ptr<ServeSetup> setup;
    for (int i = 0; i < (opts.trace ? 1 : setup_repeats); ++i) {
        setup.reset();
        dir = std::make_unique<RunDir>(opts.workdir,
                                       util::cat("serve_setup", i));
        const double t0 = nowS();
        setup = std::make_unique<ServeSetup>(dir->file("eval_cache.txt"),
                                             opts.seed);
        setups.push_back({t0, nowS()});
    }
    ServeSetup &s = *setup;

    std::vector<Pass> passes;
    double rss_mb = 0.0;
    std::optional<RegistryDelta> traced_delta;
    if (!opts.trace) {
        // Where the scheduler places the server's and the clients'
        // threads on the vCPUs sets the tail for a whole pass, so the
        // window is split across fresh servers and clients.
        for (int r = 0; r < server_restarts; ++r) {
            if (r > 0)
                s.restartServer();
            passes.push_back(runPass(opts, s, r, SIZE_MAX,
                                     opts.seconds / server_restarts, false));
        }
        rss_mb = peakRssMb();
    } else {
        // A warm-up pass fills the memos, so the untraced and traced
        // passes that follow do identical work.
        passes.push_back(runPass(opts, s, 0, warmup_requests, 1e9, false));
        passes.push_back(runPass(opts, s, 1, traced_requests, 1e9, false));
        telemetry::Registry::instance().setTracing(true);
        traced_delta.emplace(RegistryDelta{snapshot(), {}});
        passes.push_back(runPass(opts, s, 2, traced_requests, 1e9, true));
        traced_delta->after = snapshot();
    }
    const Table2Error at_seed = [&] {
        // Base points of the run's seed, from the service's warm cache.
        const bench::Suite suite(
            suiteOptions(dir->file("eval_cache.txt"), opts.seed));
        return table2Error(suite);
    }();
    s.server.reset();

    // Correctness, outside the timed region: every reply against a
    // fresh direct service on the same (warm) cache.
    serve::ServiceOptions direct_opts;
    direct_opts.cache_path = dir->file("eval_cache.txt");
    direct_opts.threads = pool_workers;
    direct_opts.eval_params =
        bench::benchEvalParams(suiteOptions("", opts.seed));
    serve::EvaluationService direct(direct_opts);
    direct.ensureReady();
    DirectTimes times;
    std::size_t mismatches = 0, errors = 0, requests = 0;
    for (const Pass &pass : passes) {
        const bool timed = opts.trace && pass.id == 2;
        mismatches += verify(opts, direct, pass, timed ? &times : nullptr);
        errors += pass.transport_errors;
        requests += requestCount(pass);
    }
    report.check(mismatches == 0,
                 util::cat("all ", requests - errors,
                           " ok replies byte-identical to the direct "
                           "in-process answer (",
                           mismatches, " mismatches)"));
    report.check(errors == 0,
                 util::cat("every request answered ok (", errors,
                           " failed)"));
    report.attempt(requests, errors);

    const Pass &last = passes.back();
    const std::uint64_t reply_digest = replyDigest(
        opts.trace ? last : passes.front(),
        opts.trace ? traced_requests : fingerprint_requests);
    const std::uint64_t cache_digest =
        sortedLinesDigest(dir->file("eval_cache.txt")).value_or(0);
    std::printf("  fingerprint: first %zu replies per connection digest "
                "%016llx, cache digest %016llx\n",
                opts.trace ? traced_requests : fingerprint_requests,
                static_cast<unsigned long long>(reply_digest),
                static_cast<unsigned long long>(cache_digest));

    if (!opts.trace) {
        std::vector<double> throughput, p50, tail;
        for (const Pass &pass : passes) {
            std::printf("  pass %d: client reply digests took %.2f%% of "
                        "the connections' time\n",
                        pass.id,
                        100.0 * pass.digest_s /
                            (connections * pass.wall_s));
            if (pass.full)
                std::printf("  pass %d: %zu connections filled their "
                            "record slots early (raise "
                            "record_slots_per_s)\n",
                            pass.id, pass.full);
            std::vector<Completion> done;
            for (const auto &records : pass.records)
                for (std::size_t k = warmup_requests; k < records.size();
                     ++k)
                    done.push_back({pass.t0 + records[k].start_s +
                                        records[k].latency_s,
                                    records[k].latency_s});
            const Timing t = sliceTiming(done, slice_requests);
            throughput.push_back(t.throughput_per_s);
            p50.push_back(t.p50_s);
            tail.push_back(t.tail_s);
        }
        reportEndToEnd(report, durations(setups), rss_mb,
                       {median(throughput), median(p50), median(tail)},
                       calibrationResidual());
        return;
    }

    const RegistryDelta &delta = *traced_delta;
    std::array<std::vector<double>, std::size(verbs)> wire_s;
    std::vector<double> all_wire_s, all_direct_s;
    std::vector<std::string> apps;
    for (const auto &app : direct.apps())
        apps.push_back(app.name);
    for (std::size_t c = 0; c < connections; ++c) {
        ServeStream stream(opts.seed, last.id, c, apps);
        for (const Record &rec : last.records[c]) {
            wire_s[verbIndex(stream.next().type)].push_back(rec.latency_s);
            all_wire_s.push_back(rec.latency_s);
        }
    }
    // Each verb's share of the requests, of their wire time and of
    // their in-process service time, so a claim about one verb can be
    // weighed against its weight in the mix.
    std::array<double, std::size(verbs)> wire_sum{}, direct_sum{};
    for (std::size_t v = 0; v < std::size(verbs); ++v) {
        wire_sum[v] =
            std::accumulate(wire_s[v].begin(), wire_s[v].end(), 0.0);
        direct_sum[v] = std::accumulate(times.call_s[v].begin(),
                                        times.call_s[v].end(), 0.0);
    }
    const double wire_total =
        std::accumulate(wire_sum.begin(), wire_sum.end(), 0.0);
    const double direct_total =
        std::accumulate(direct_sum.begin(), direct_sum.end(), 0.0);
    for (std::size_t v = 0; v < std::size(verbs); ++v)
        std::printf("  %-18s %5.1f%% of requests, %5.1f%% of wire time, "
                    "%5.1f%% of in-process time\n",
                    serve::requestTypeName(verbs[v]),
                    100.0 * static_cast<double>(wire_s[v].size()) /
                        static_cast<double>(all_wire_s.size()),
                    100.0 * wire_sum[v] / wire_total,
                    100.0 * direct_sum[v] / direct_total);
    for (std::size_t v = 0; v < std::size(verbs); ++v) {
        const std::string name = serve::requestTypeName(verbs[v]);
        report.layer(util::cat("serve.", name, "_ms"),
                     median(wire_s[v]) * 1e3, "ms");
        report.layer(util::cat("serve.inproc.", name, "_us"),
                     median(times.call_s[v]) * 1e6, "us");
        all_direct_s.insert(all_direct_s.end(), times.call_s[v].begin(),
                            times.call_s[v].end());
    }
    report.layer("serve.wire_overhead_ms",
                 (median(all_wire_s) - median(all_direct_s)) * 1e3, "ms");
    report.layer("util.json.encode_us", median(times.encode_s) * 1e6, "us");
    const auto batches = delta.histCount("server.batch_size");
    report.layer("server.batch_size",
                 batches ? delta.histSum("server.batch_size") /
                               static_cast<double>(batches)
                         : 0.0,
                 "requests");
    report.layer("server.batches",
                 static_cast<double>(delta.counter("server.batches")),
                 "count");
    report.layer("server.coalesced",
                 static_cast<double>(delta.counter("server.coalesced")),
                 "count");
    report.layer("server.rejected",
                 static_cast<double>(delta.counter("server.rejected")),
                 "count");
    report.layer("drm.cache.hits",
                 static_cast<double>(delta.counter("cache.hits")), "count");
    report.layer("drm.cache.misses",
                 static_cast<double>(delta.counter("cache.misses")),
                 "count");
    printLatencyShape(all_wire_s);
    report.layer("trace.overhead_frac",
                 last.wall_s / passes[1].wall_s - 1.0, "frac");
    reportResidualAtSeed(report, at_seed);
    // No simulation, exploration or chip DRM loop: select_chip is
    // answered from the service's explored memos.
    report.unexercised("s", {"workload.gen_s", "sim.core_s",
                             "core.converge_s", "drm.explore_s",
                             "drm.select_s"});
    report.unexercised("count", {"workload.uops", "sim.cycles",
                                 "sim.uops_retired",
                                 "core.fixed_point_iters",
                                 "drm.exact_sims", "drm.cache.appends",
                                 "cmp.chip_solves", "cmp.converge_calls",
                                 "cmp.leak_clamp_evals"});
    report.unexercised("Mcycles/s", {"sim.mcycles_per_s"});
    report.unexercised("Muops/s", {"sim.muops_per_s"});
    report.unexercised("us", {"thermal.steady_us", "drm.cache.insert_us",
                              "drm.cache.lookup_us", "cmp.eval_us.c1",
                              "cmp.eval_us.c2", "cmp.eval_us.c4",
                              "cmp.eval_us.c8",
                              "thermal.chip_solve_us.c1",
                              "thermal.chip_solve_us.c2",
                              "thermal.chip_solve_us.c4",
                              "thermal.chip_solve_us.c8",
                              "cmp.select_us", "cmp.wear_epoch_us"});
    report.unexercised("frac", {"util.pool.busy_frac"});
    report.unexercised("K", {"cmp.max_temp_k"});
    writeTrace(opts);
}

} // namespace perfbench
