/**
 * @file
 * explore_cold: the paper's oracle DRM (Section 5) on a cold cache.
 * Every round sets up the bench suite on a fresh file-backed
 * evaluation cache, explores the ArchDVS space of three apps that
 * span the suite's behaviours -- MP3dec (hot, high IPC), twolf
 * (branchy, low IPC), art (memory-bound) -- and selects at the four
 * Figure 2 qualification temperatures. Trace generation and the
 * timing simulator do nearly all the work; chip thermals and serving
 * do none.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "drm/adaptation.hh"
#include "replay.hh"
#include "thermal/model.hh"
#include "util/logging.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

constexpr const char *subset[] = {"MP3dec", "twolf", "art"};
constexpr double t_quals[] = {400.0, 370.0, 345.0, 325.0};
constexpr auto space = drm::AdaptationSpace::ArchDvs;

/** Counter deltas over one round's exploration phase. */
struct ExploreCounts
{
    std::uint64_t exact_sims = 0;
    std::uint64_t appends = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t cycles = 0;
    std::uint64_t uops_retired = 0;
};

/** One set-up plus cold exploration of the subset. */
struct Round
{
    Interval setup;
    double explore_s = 0.0; ///< Explore + select, all apps.
    double explore_only_s = 0.0; ///< OracleExplorer::explore calls.
    double select_s = 0.0;       ///< drm::selectDrm calls.
    std::vector<Interval> app_spans; ///< Explore + select, per app.
    std::vector<drm::ExploredApp> explored;
    /** [app][t_qual] selections. */
    std::vector<std::vector<drm::Selection>> selections;
    Table2Error t2;
    ExploreCounts counts;
    std::uint64_t points = 0;
    std::uint64_t invalid = 0;
    std::uint64_t cache_digest = 0;
    std::uint64_t selection_digest = 0;
};

std::uint64_t
selectionDigest(const Round &r)
{
    Digest d;
    for (const auto &app : r.selections) {
        for (const auto &sel : app) {
            d.add(static_cast<std::uint64_t>(sel.index));
            d.add(sel.perf_rel);
            d.add(sel.fit);
            d.add(sel.max_temp_k);
            d.add(static_cast<std::uint64_t>(sel.feasible));
            for (const auto &pt : sel.table) {
                d.add(pt.perf_rel);
                d.add(pt.fit);
                d.add(pt.max_temp_k);
                d.add(static_cast<std::uint64_t>(pt.feasible) << 2 |
                      static_cast<std::uint64_t>(pt.valid) << 1 |
                      static_cast<std::uint64_t>(pt.converged));
            }
        }
    }
    return d.value();
}

Round
runRound(const RunOptions &opts, const std::string &name)
{
    RunDir dir(opts.workdir, name);
    Round r;
    const std::string cache_path = dir.file("eval_cache.txt");
    {
        const double t0 = nowS();
        const bench::Suite base(suiteOptions(cache_path, opts.seed));
        r.setup = {t0, nowS()};
        r.t2 = table2Error(base);

        RegistryDelta delta{snapshot(), {}};
        const double e0 = nowS();
        for (const char *name : subset) {
            const double a0 = nowS();
            const auto &app = base.apps[appIndex(base, name)];
            {
                Span span("drm.explore", "drm");
                r.explored.push_back(base.explorer.explore(app, space));
                r.explore_only_s += span.elapsed();
            }
            auto &sels = r.selections.emplace_back();
            for (double tq : t_quals) {
                Span span("drm.select", "drm");
                sels.push_back(drm::selectDrm(r.explored.back(),
                                              base.qualification(tq)));
                r.select_s += span.elapsed();
            }
            r.app_spans.push_back({a0, nowS()});
        }
        r.explore_s = nowS() - e0;
        delta.after = snapshot();

        r.counts.exact_sims = delta.counter("evaluator.evaluate_calls");
        r.counts.appends = delta.counter("cache.appends");
        r.counts.hits = delta.counter("cache.hits");
        r.counts.misses = delta.counter("cache.misses");
        r.counts.cycles = delta.counter("sim.cycles");
        r.counts.uops_retired = delta.counter("sim.uops_retired");
    } // Closes the cache, so the log below is complete.

    for (const auto &app : r.explored) {
        r.points += app.points.size();
        for (const auto &pt : app.points)
            r.invalid += pt.valid ? 0 : 1;
    }
    r.cache_digest = sortedLinesDigest(cache_path).value_or(0);
    r.selection_digest = selectionDigest(r);
    return r;
}

/** Figure 2's six shape checks (Section 7.1), adapted to the subset:
 *  MP3dec stands in for the hottest apps, art for the coolest, twolf
 *  for the low-IPC ones. */
void
checkShape(Report &report, const Round &r)
{
    std::map<std::string, std::map<double, double>> perf;
    for (std::size_t a = 0; a < r.selections.size(); ++a)
        for (std::size_t t = 0; t < std::size(t_quals); ++t)
            perf[subset[a]][t_quals[t]] = r.selections[a][t].perf_rel;
    for (const auto &[app, by_tq] : perf)
        std::printf("  perf_rel %-7s 400K %.3f  370K %.3f  345K %.3f  "
                    "325K %.3f\n",
                    app.c_str(), by_tq.at(400.0), by_tq.at(370.0),
                    by_tq.at(345.0), by_tq.at(325.0));

    bool gain_400 = true, limited_345 = true;
    for (const char *app : subset) {
        gain_400 &= perf[app][400.0] >= 1.0;
        limited_345 &= perf[app][345.0] >= 0.80;
    }
    report.check(gain_400, "fig2 T_qual=400K: every app gains or holds");
    report.check(perf["MP3dec"][370.0] > 0.93 &&
                     perf["MP3dec"][370.0] < 1.1,
                 "fig2 T_qual=370K: hottest app (MP3dec) near 1.0");
    report.check(limited_345, "fig2 T_qual=345K: losses limited (>= 0.80)");
    report.check(perf["MP3dec"][325.0] < perf["art"][325.0],
                 "fig2 T_qual=325K: hot multimedia slows the most");
    report.check(perf["art"][325.0] >= 0.95,
                 "fig2 T_qual=325K: coolest app (art) holds >= 0.95");
    report.check(perf["twolf"][400.0] > perf["MP3dec"][400.0],
                 "fig2 400K: low-IPC app gains more than hot multimedia");
}

void
printFingerprint(const Round &r)
{
    std::printf("  fingerprint: exact_sims %llu, cache appends %llu, "
                "sim cycles %llu, uops retired %llu, cache digest "
                "%016llx, selection digest %016llx\n",
                static_cast<unsigned long long>(r.counts.exact_sims),
                static_cast<unsigned long long>(r.counts.appends),
                static_cast<unsigned long long>(r.counts.cycles),
                static_cast<unsigned long long>(r.counts.uops_retired),
                static_cast<unsigned long long>(r.cache_digest),
                static_cast<unsigned long long>(r.selection_digest));
}

/** Decomposed replay of a traced round's exploration; reports the
 *  per-layer split and checks bit-identity with the explorer. */
void
replayRound(const RunOptions &opts, const Round &traced, Report &report)
{
    RunDir dir(opts.workdir, "explore_replay");
    drm::EvaluationCache cache(dir.file("eval_cache.txt"));
    util::ThreadPool pool(pool_workers);
    const core::Evaluator evaluator(
        bench::benchEvalParams(suiteOptions("", opts.seed)));
    const auto apps = workload::standardApps();
    const auto cfgs = drm::configSpace(space);

    ReplayTimes times;
    std::vector<double> insert_us, lookup_us, steady_us;
    double busy_s = 0.0, batch_wall_s = 0.0;
    std::uint64_t mismatches = 0, failures = 0;

    RegistryDelta delta{snapshot(), {}};
    for (std::size_t a = 0; a < std::size(subset); ++a) {
        const workload::AppProfile *app = nullptr;
        for (const auto &candidate : apps)
            if (candidate.name == subset[a])
                app = &candidate;
        Span app_span("replay.explore", "drm");

        // One representative per timing key, as the explorer's first
        // pass simulates; the rest re-converge its cached sample.
        std::vector<std::string> keys(cfgs.size());
        std::map<std::string, std::size_t> rep_of;
        std::vector<std::size_t> reps;
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            keys[i] = drm::EvaluationCache::key(cfgs[i], *app,
                                                evaluator.params());
            if (rep_of.emplace(keys[i], i).second)
                reps.push_back(i);
        }

        std::vector<core::OperatingPoint> ops(cfgs.size());
        std::vector<ReplayTimes> rep_times(reps.size());
        std::vector<double> item_s(reps.size());
        std::vector<double> put_s(reps.size());
        std::vector<char> ok(reps.size(), 0);
        const double b0 = nowS();
        const auto batch = pool.parallelFor(reps.size(), [&](std::size_t n) {
            const double i0 = nowS();
            const std::size_t i = reps[n];
            auto op = decomposedEvaluate(evaluator, cfgs[i], *app,
                                         rep_times[n], app_span.id());
            if (op) {
                drm::CachedEvaluation rec;
                rec.activity = op.value().activity;
                rec.stats = op.value().stats;
                rec.l1d_miss_ratio = op.value().l1d_miss_ratio;
                rec.l1i_miss_ratio = op.value().l1i_miss_ratio;
                rec.l2_miss_ratio = op.value().l2_miss_ratio;
                Span put("drm.cache.put", "drm", app_span.id());
                cache.put(keys[i], rec);
                put_s[n] = put.elapsed();
                ops[i] = std::move(op.value());
                ok[n] = 1;
            }
            item_s[n] = nowS() - i0;
        });
        batch_wall_s += nowS() - b0;
        if (!batch.ok())
            failures += batch.failures.size();
        for (std::size_t n = 0; n < reps.size(); ++n) {
            busy_s += item_s[n];
            if (ok[n])
                insert_us.push_back(put_s[n] * 1e6);
            failures += ok[n] ? 0 : 1;
            times.gen_s += rep_times[n].gen_s;
            times.sim_self_s += rep_times[n].sim_self_s;
            times.converge_s += rep_times[n].converge_s;
            times.uops += rep_times[n].uops;
        }

        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            const std::size_t rep = rep_of[keys[i]];
            if (rep == i)
                continue;
            const double l0 = nowS();
            const auto hit = cache.get(keys[i]);
            lookup_us.push_back((nowS() - l0) * 1e6);
            if (!hit) {
                ++failures;
                continue;
            }
            Span span("core.converge", "core", app_span.id());
            auto op = evaluator.tryConvergeThermal(cfgs[i], hit->activity,
                                                   hit->stats);
            times.converge_s += span.elapsed();
            if (!op) {
                ++failures;
                continue;
            }
            ops[i] = std::move(op.value());
            ops[i].l1d_miss_ratio = hit->l1d_miss_ratio;
            ops[i].l1i_miss_ratio = hit->l1i_miss_ratio;
            ops[i].l2_miss_ratio = hit->l2_miss_ratio;
        }

        const auto &explored = traced.explored[a];
        const thermal::ThermalModel tmodel(
            evaluator.params().thermal_params);
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            const auto &pt = explored.points[i];
            if (!pt.valid || !sameOperatingPoint(ops[i], pt.op))
                ++mismatches;
            sim::PerStructure<double> total{};
            for (std::size_t s = 0; s < total.size(); ++s)
                total[s] = ops[i].power.dynamic_w[s] +
                           ops[i].power.leakage_w[s];
            Span span("thermal.steady", "thermal", app_span.id());
            const auto solve = tmodel.trySteadyState(total);
            steady_us.push_back(span.elapsed() * 1e6);
            failures += solve ? 0 : 1;
        }
    }
    delta.after = snapshot();

    report.check(mismatches == 0 && failures == 0,
                 util::cat("decomposed replay is bit-identical to the "
                           "explorer on all ",
                           traced.points, " points (", mismatches,
                           " mismatches, ", failures, " failures)"));
    const double cycles = static_cast<double>(delta.counter("sim.cycles"));
    const double retired =
        static_cast<double>(delta.counter("sim.uops_retired"));

    report.layer("workload.gen_s", times.gen_s, "s");
    report.layer("workload.uops", static_cast<double>(times.uops), "count");
    report.layer("sim.core_s", times.sim_self_s, "s");
    report.layer("sim.cycles", cycles, "count");
    report.layer("sim.uops_retired", retired, "count");
    report.layer("sim.mcycles_per_s",
                 times.sim_self_s > 0 ? cycles / times.sim_self_s / 1e6 : 0,
                 "Mcycles/s");
    report.layer("sim.muops_per_s",
                 times.sim_self_s > 0 ? retired / times.sim_self_s / 1e6 : 0,
                 "Muops/s");
    report.layer("core.converge_s", times.converge_s, "s");
    report.layer("core.fixed_point_iters",
                 delta.histSum("evaluator.iterations"), "count");
    report.layer("thermal.steady_us", median(steady_us), "us");
    report.layer("drm.cache.insert_us", median(insert_us), "us");
    report.layer("drm.cache.lookup_us", median(lookup_us), "us");
    report.layer("util.pool.busy_frac",
                 batch_wall_s > 0
                     ? busy_s / (pool_workers * batch_wall_s)
                     : 0.0,
                 "frac");
}

} // namespace

void
runExploreCold(const RunOptions &opts, Report &report)
{
    std::vector<Round> rounds;
    std::vector<Interval> setups;
    if (!opts.trace) {
        // At least setup_repeats rounds, so each app's median round
        // (and the median set-up) holds when the host slows one round.
        double measured = 0.0;
        do {
            rounds.push_back(runRound(
                opts, util::cat("explore_round", rounds.size())));
            measured += rounds.back().explore_s;
            setups.push_back(rounds.back().setup);
        } while (measured < opts.seconds || setups.size() < setup_repeats);
    } else {
        // An untraced round, then a traced one of identical work: the
        // difference is the tracing overhead.
        rounds.push_back(runRound(opts, "explore_untraced"));
        telemetry::Registry::instance().setTracing(true);
        rounds.push_back(runRound(opts, "explore_traced"));
    }
    const double rss_mb = peakRssMb();

    const Round &first = rounds.front();
    printFingerprint(first);
    checkShape(report, first);
    const Table2Error calibration = calibrationResidual();
    checkTable2(report, calibration);
    bool same = true;
    for (const Round &r : rounds)
        same &= r.cache_digest == first.cache_digest &&
                r.selection_digest == first.selection_digest &&
                r.counts.exact_sims == first.counts.exact_sims;
    report.check(same, util::cat("all ", rounds.size(),
                                 " rounds reproduce the first exactly"));
    report.check(first.cache_digest != 0 && first.counts.appends ==
                                                first.counts.exact_sims,
                 "every exact simulation was appended to the cache file");

    // Every round does identical work; each app's median round is
    // what the code costs, whatever a noisy host did to one round.
    std::vector<std::vector<double>> app_s(std::size(subset));
    double explore_s = 0.0;
    for (const Round &r : rounds) {
        explore_s += r.explore_s;
        report.attempt(r.points + std::size(subset) * std::size(t_quals),
                       r.invalid);
        for (std::size_t a = 0; a < std::size(subset); ++a) {
            const Interval &span = r.app_spans[a];
            app_s[a].push_back(span.t1 - span.t0);
        }
    }
    std::vector<double> median_app_s;
    double median_round_s = 0.0;
    for (const auto &samples : app_s) {
        median_app_s.push_back(median(samples));
        median_round_s += median_app_s.back();
    }
    const double selections = std::size(subset) * std::size(t_quals);
    std::printf("  %zu rounds, %.4f selections/s over all of them\n",
                rounds.size(), selections * rounds.size() / explore_s);

    if (!opts.trace) {
        Timing timing;
        timing.throughput_per_s = selections / median_round_s;
        timing.p50_s = median(median_app_s);
        timing.tail_s =
            *std::max_element(median_app_s.begin(), median_app_s.end());
        reportEndToEnd(report, durations(setups), rss_mb, timing,
                       calibration);
        return;
    }

    const Round &traced = rounds.back();
    replayRound(opts, traced, report);
    std::vector<double> latency_s;
    for (const Interval &span : traced.app_spans)
        latency_s.push_back(span.t1 - span.t0);
    printLatencyShape(latency_s);
    report.layer("trace.overhead_frac",
                 traced.explore_s / first.explore_s - 1.0, "frac");
    report.layer("drm.exact_sims",
                 static_cast<double>(traced.counts.exact_sims), "count");
    report.layer("drm.explore_s", traced.explore_only_s, "s");
    report.layer("drm.select_s", traced.select_s, "s");
    report.layer("drm.cache.appends",
                 static_cast<double>(traced.counts.appends), "count");
    report.layer("drm.cache.hits",
                 static_cast<double>(traced.counts.hits), "count");
    report.layer("drm.cache.misses",
                 static_cast<double>(traced.counts.misses), "count");
    reportResidualAtSeed(report, traced.t2);
    // No chip DRM and no serving here.
    report.unexercised("us", {"cmp.eval_us.c1", "cmp.eval_us.c2",
                              "cmp.eval_us.c4", "cmp.eval_us.c8",
                              "thermal.chip_solve_us.c1",
                              "thermal.chip_solve_us.c2",
                              "thermal.chip_solve_us.c4",
                              "thermal.chip_solve_us.c8",
                              "cmp.select_us", "cmp.wear_epoch_us",
                              "serve.inproc.evaluate_us",
                              "serve.inproc.select_drm_us",
                              "serve.inproc.select_chip_us",
                              "serve.inproc.remaining_lifetime_us",
                              "serve.inproc.report_usage_us",
                              "util.json.encode_us"});
    report.unexercised("count", {"cmp.chip_solves", "cmp.converge_calls",
                                 "cmp.leak_clamp_evals", "server.batches",
                                 "server.coalesced", "server.rejected"});
    report.unexercised("K", {"cmp.max_temp_k"});
    report.unexercised("ms", {"serve.evaluate_ms", "serve.select_drm_ms",
                              "serve.select_chip_ms",
                              "serve.remaining_lifetime_ms",
                              "serve.report_usage_ms",
                              "serve.wire_overhead_ms"});
    report.unexercised("requests", {"server.batch_size"});
    writeTrace(opts);
}

} // namespace perfbench
