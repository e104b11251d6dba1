/**
 * @file
 * chip_warm: a closed loop of chip DRM decisions on a warm cache.
 * One decision is a chip-level selection (cmp::selectChipDrm), the
 * coupled evaluation of the selected configurations
 * (cmp::ChipEvaluator::tryEvaluate), and one wear-leveling epoch
 * (cmp::WearLeveler). Decisions rotate over the 1/2/4/8-core grids,
 * bench_cmp's three duty mixes and both budget policies. The timing
 * simulator does no work (every per-core sample is a cache hit), so
 * the coupled chip solve dominates. The 8-core grid stays in the
 * rotation although its die runs away thermally today; the benchmark
 * reports that (cmp.max_temp_k, cmp.leak_clamp_evals) instead of
 * hiding it.
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "cmp/evaluator.hh"
#include "cmp/floorplan.hh"
#include "cmp/wear.hh"
#include "util/constants.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

constexpr double t_qual_k = 345.0;
constexpr double per_core_fit = 4000.0;
constexpr double epoch_hours = 0.25 * util::hours_per_year;
/** Leakage evaluation cap of the chip fixed point (cmp/evaluator.cc);
 *  a tile above it means the clamp bound. */
constexpr double leak_temp_cap_k = 450.0;
constexpr std::array<std::size_t, 4> grids = {1, 2, 4, 8};
constexpr cmp::BudgetPolicy policies[] = {cmp::BudgetPolicy::PerCore,
                                          cmp::BudgetPolicy::Global};
/** Decisions per slice of the timed loop (sliceSummary). */
constexpr std::size_t slice_decisions = 1000;
/** Decisions of the fixed untraced and traced passes of --trace 1. */
constexpr std::size_t traced_decisions = 960;

/** bench_cmp's duty mixes: suite app index per core slot, and the
 *  active-duty fraction per epoch. */
struct Mix
{
    const char *name;
    std::array<std::size_t, 8> slots;
    double (*duty)(std::uint64_t epoch);
};

const Mix mixes[] = {
    {"consumer_burst",
     {0, 2, 1, 3, 0, 2, 1, 3},
     [](std::uint64_t i) { return i % 2 == 0 ? 0.9 : 0.1; }},
    {"server_sustained",
     {4, 1, 5, 0, 4, 1, 5, 0},
     [](std::uint64_t) { return 1.0; }},
    {"mobile_media",
     {6, 7, 8, 1, 6, 7, 8, 1},
     [](std::uint64_t) { return 0.6; }},
};

std::size_t
gridIndex(std::size_t cores)
{
    return static_cast<std::size_t>(
        std::find(grids.begin(), grids.end(), cores) - grids.begin());
}

/** The set-up: the bench suite, every mix app's explored DVS
 *  space, and one chip evaluator (with its own pool) per grid. */
struct ChipSetup
{
    ChipSetup(const std::string &cache_path, std::uint64_t seed)
        : base(suiteOptions(cache_path, seed))
    {
        std::vector<const workload::AppProfile *> apps;
        for (const auto &app : base.apps)
            apps.push_back(&app);
        explored = cmp::exploreApps(base.explorer, &base.pool, apps,
                                    drm::AdaptationSpace::Dvs);
        for (std::size_t g = 0; g < grids.size(); ++g) {
            pools[g] = std::make_unique<util::ThreadPool>(pool_workers);
            evals[g] = std::make_unique<cmp::ChipEvaluator>(
                cmp::ChipFloorplan::grid(grids[g]), &base.explorer,
                pools[g].get());
        }
    }

    bench::Suite base;
    std::vector<drm::ExploredApp> explored;
    std::array<std::unique_ptr<util::ThreadPool>, grids.size()> pools;
    std::array<std::unique_ptr<cmp::ChipEvaluator>, grids.size()> evals;
};

/** Wear state of one (grid, mix, policy) combination. */
struct ComboState
{
    std::unique_ptr<cmp::WearLeveler> leveler;
    std::vector<std::size_t> assignment; ///< Mix slot per core.
    std::uint64_t epoch = 0;
};

/** A chip solve and a cache lookup to time after the traced pass. */
struct Probe
{
    std::size_t grid = 0;
    std::vector<sim::PerStructure<double>> power_w;
    std::vector<std::string> keys;
};

/** One pass of decisions and what it measured. */
struct Pass
{
    std::size_t decisions = 0;
    std::size_t failed = 0;
    std::size_t budget_violations = 0;
    std::size_t leak_clamp_evals = 0;
    double max_temp_k = 0.0;
    double wall_s = 0.0;
    std::vector<Completion> done;
    std::array<std::vector<double>, grids.size()> eval_s;
    std::vector<double> select_s;
    std::vector<double> wear_s;
    std::vector<Probe> probes;
    std::vector<ComboState> states;
};

std::vector<ComboState>
freshStates(const ChipSetup &s, const std::vector<ChipCombo> &rotation)
{
    const core::Qualification shipped = s.base.qualification(t_qual_k);
    std::vector<ComboState> states(rotation.size());
    for (std::size_t i = 0; i < rotation.size(); ++i) {
        const std::size_t n = rotation[i].cores;
        states[i].leveler =
            std::make_unique<cmp::WearLeveler>(shipped, n);
        for (std::size_t c = 0; c < n; ++c)
            states[i].assignment.push_back(c);
    }
    return states;
}

/** Explored spaces of the cores, in the assignment's placement. */
std::vector<const drm::ExploredApp *>
placedCores(const ChipSetup &s, const Mix &mix,
            const std::vector<std::size_t> &assignment)
{
    std::vector<const drm::ExploredApp *> cores;
    for (std::size_t slot : assignment)
        cores.push_back(&s.explored[mix.slots[slot] % s.explored.size()]);
    return cores;
}

core::QualificationSpec
chipSpec(const ChipSetup &s, std::size_t cores)
{
    core::QualificationSpec spec;
    spec.t_qual_k = t_qual_k;
    spec.alpha_qual = s.base.alpha_qual;
    spec.target_fit = per_core_fit * static_cast<double>(cores);
    return spec;
}

void
digestDecision(Digest &d, const cmp::ChipSelection &sel,
               const cmp::ChipOperatingPoint &pt)
{
    for (const auto &core : sel.cores) {
        d.add(static_cast<std::uint64_t>(core.index));
        d.add(core.perf_rel);
        d.add(core.fit);
    }
    for (double fit : sel.budget_fit)
        d.add(fit);
    d.add(sel.chip_fit);
    d.add(sel.throughput_rel);
    d.add(static_cast<std::uint64_t>(sel.feasible));
    for (const auto &core : pt.cores)
        for (double t : core.temps_k)
            d.add(t);
    d.add(pt.sink_temp_k);
}

/**
 * Run decisions from fresh wear states until @p max_decisions are
 * made or @p seconds have passed. With @p traced, each decision and
 * its three steps are spanned and the probes are kept. @p digest,
 * when given, fingerprints the first rotation.
 */
Pass
runPass(const ChipSetup &s, const std::vector<ChipCombo> &rotation,
        std::size_t max_decisions, double seconds, bool traced,
        Digest *digest = nullptr)
{
    Pass pass;
    pass.states = freshStates(s, rotation);
    const double t_start = nowS();
    while (pass.decisions < max_decisions &&
           (pass.decisions == 0 || nowS() - t_start < seconds)) {
        const std::size_t r = pass.decisions % rotation.size();
        const ChipCombo &combo = rotation[r];
        ComboState &st = pass.states[r];
        const Mix &mix = mixes[combo.mix];
        const std::size_t g = gridIndex(combo.cores);
        const core::QualificationSpec spec = chipSpec(s, combo.cores);

        std::optional<Span> decision;
        if (traced)
            decision.emplace("cmp.decision", "cmp");
        const double t0 = nowS();
        std::optional<Span> step;
        if (traced)
            step.emplace("cmp.selectChipDrm", "cmp", decision->id());
        const auto cores = placedCores(s, mix, st.assignment);
        const cmp::ChipSelection sel =
            cmp::selectChipDrm(cores, spec, combo.policy);
        const double t1 = nowS();
        if (traced)
            step.emplace("cmp.ChipEvaluator::tryEvaluate", "cmp",
                         decision->id());
        std::vector<const workload::AppProfile *> apps;
        std::vector<sim::MachineConfig> cfgs;
        for (std::size_t c = 0; c < combo.cores; ++c) {
            apps.push_back(
                &s.base.apps[mix.slots[st.assignment[c]] % s.base.apps.size()]);
            cfgs.push_back(sel.cores[c].config);
        }
        const auto pt = s.evals[g]->tryEvaluate(apps, cfgs);
        const double t2 = nowS();
        if (traced)
            step.emplace("cmp.wearEpoch", "cmp", decision->id());
        if (pt) {
            const double hours = mix.duty(st.epoch) * epoch_hours;
            for (std::size_t c = 0; c < combo.cores; ++c)
                st.leveler->addInterval(c, pt.value().cores[c], hours);
            st.leveler->maybeMigrate(st.assignment);
            ++st.epoch;
        }
        const double t3 = nowS();
        step.reset();
        decision.reset();

        pass.done.push_back({t3, t3 - t0});
        pass.select_s.push_back(t1 - t0);
        pass.eval_s[g].push_back(t2 - t1);
        pass.wear_s.push_back(t3 - t2);
        ++pass.decisions;
        if (!pt) {
            ++pass.failed;
            continue;
        }
        const double max_temp = pt.value().maxTemp();
        pass.max_temp_k = std::max(pass.max_temp_k, max_temp);
        pass.leak_clamp_evals += max_temp > leak_temp_cap_k ? 1 : 0;
        if (combo.policy == cmp::BudgetPolicy::Global && sel.feasible &&
            sel.chip_fit > spec.target_fit * (1.0 + 1e-12))
            ++pass.budget_violations;
        if (digest && pass.decisions <= rotation.size())
            digestDecision(*digest, sel, pt.value());
        if (traced) {
            Probe probe;
            probe.grid = g;
            for (std::size_t c = 0; c < combo.cores; ++c) {
                const auto &power = pt.value().cores[c].power;
                auto &total = probe.power_w.emplace_back();
                for (std::size_t i = 0; i < total.size(); ++i)
                    total[i] = power.dynamic_w[i] + power.leakage_w[i];
                probe.keys.push_back(drm::EvaluationCache::key(
                    cfgs[c], *apps[c], s.base.explorer.evaluator().params()));
            }
            pass.probes.push_back(std::move(probe));
        }
    }
    pass.wall_s = nowS() - t_start;
    return pass;
}

/** Global budgeting never loses to per-core at equal chip FIT, for
 *  every (grid, mix) at the placements the pass ended in. */
std::size_t
globalBelowPerCore(const ChipSetup &s, const std::vector<ChipCombo> &rotation,
                   const Pass &pass)
{
    std::size_t losses = 0;
    for (std::size_t r = 0; r < rotation.size(); ++r) {
        const ChipCombo &combo = rotation[r];
        const auto cores =
            placedCores(s, mixes[combo.mix], pass.states[r].assignment);
        const auto spec = chipSpec(s, combo.cores);
        const auto per_core =
            cmp::selectChipDrm(cores, spec, cmp::BudgetPolicy::PerCore);
        const auto global =
            cmp::selectChipDrm(cores, spec, cmp::BudgetPolicy::Global);
        losses += global.throughput_rel < per_core.throughput_rel - 1e-9;
    }
    return losses;
}

void
checkPass(Report &report, const ChipSetup &s,
          const std::vector<ChipCombo> &rotation, const Pass &pass,
          const RegistryDelta &delta, const char *what)
{
    report.check(delta.counter("cache.misses") == 0 &&
                     delta.counter("evaluator.evaluate_calls") == 0,
                 util::cat(what, ": no cache misses, no simulations (",
                           delta.counter("cache.hits"), " hits)"));
    report.check(pass.budget_violations == 0,
                 util::cat(what, ": every feasible global selection within "
                                 "the chip FIT budget (",
                           pass.budget_violations, " violations)"));
    report.check(globalBelowPerCore(s, rotation, pass) == 0,
                 util::cat(what, ": global throughput >= per-core on all ",
                           rotation.size(), " combinations"));
    std::printf("  %s: %zu decisions in %.3f s, max die temperature %.1f "
                "K, %zu evaluations past the %g K leakage clamp\n",
                what, pass.decisions, pass.wall_s, pass.max_temp_k,
                pass.leak_clamp_evals, leak_temp_cap_k);
}

void
reportLayers(Report &report, const ChipSetup &s, const Pass &pass,
             const RegistryDelta &delta)
{
    for (std::size_t g = 0; g < grids.size(); ++g)
        report.layer(util::cat("cmp.eval_us.c", grids[g]),
                     median(pass.eval_s[g]) * 1e6, "us");
    report.layer("cmp.select_us", median(pass.select_s) * 1e6, "us");
    report.layer("cmp.wear_epoch_us", median(pass.wear_s) * 1e6, "us");
    report.layer("cmp.chip_solves",
                 static_cast<double>(delta.counter("cmp.chip_solves")),
                 "count");
    report.layer("cmp.converge_calls",
                 static_cast<double>(delta.counter("cmp.converge_calls")),
                 "count");
    report.layer("drm.cache.hits",
                 static_cast<double>(delta.counter("cache.hits")), "count");
    report.layer("drm.cache.misses",
                 static_cast<double>(delta.counter("cache.misses")),
                 "count");
    report.layer("cmp.max_temp_k", pass.max_temp_k, "K");
    report.layer("cmp.leak_clamp_evals",
                 static_cast<double>(pass.leak_clamp_evals), "count");

    // Probes run after the pass so their solves and lookups stay out
    // of the counters above.
    std::array<std::vector<double>, grids.size()> solve_us;
    std::vector<double> lookup_us;
    for (const Probe &probe : pass.probes) {
        {
            Span span("thermal.chip_solve", "thermal");
            const auto solve =
                s.evals[probe.grid]->thermalModel().trySteadyState(
                    probe.power_w);
            solve_us[probe.grid].push_back(span.elapsed() * 1e6);
            if (!solve)
                util::fatal(util::cat("chip solve probe: ",
                                      solve.error().str()));
        }
        for (const auto &key : probe.keys) {
            Span span("drm.cache.get", "drm");
            const bool hit = s.base.cache.get(key).has_value();
            lookup_us.push_back(span.elapsed() * 1e6);
            if (!hit)
                util::fatal("cache lookup probe missed a warm record");
        }
    }
    for (std::size_t g = 0; g < grids.size(); ++g)
        report.layer(util::cat("thermal.chip_solve_us.c", grids[g]),
                     median(solve_us[g]), "us");
    report.layer("drm.cache.lookup_us", median(lookup_us), "us");
}

} // namespace

std::vector<ChipCombo>
chipRotation(std::uint64_t seed)
{
    std::vector<ChipCombo> combos;
    for (std::size_t cores : grids)
        for (std::size_t mix = 0; mix < std::size(mixes); ++mix)
            for (cmp::BudgetPolicy policy : policies)
                combos.push_back({cores, mix, policy});
    util::Rng rng(seed ^ 0x636869705f77726dull);
    for (std::size_t i = combos.size() - 1; i > 0; --i)
        std::swap(combos[i], combos[rng.below(i + 1)]);
    return combos;
}

void
runChipWarm(const RunOptions &opts, Report &report)
{
    const auto rotation = chipRotation(opts.seed);
    std::vector<Interval> setups;
    std::unique_ptr<RunDir> dir;
    std::unique_ptr<ChipSetup> setup;
    for (int i = 0; i < (opts.trace ? 1 : setup_repeats); ++i) {
        setup.reset();
        dir = std::make_unique<RunDir>(opts.workdir,
                                       util::cat("chip_setup", i));
        const double t0 = nowS();
        setup = std::make_unique<ChipSetup>(dir->file("eval_cache.txt"),
                                            opts.seed);
        setups.push_back({t0, nowS()});
    }
    const ChipSetup &s = *setup;

    // One untimed rotation from fresh wear state: warms up the timed
    // code, and its decisions and counts are the fingerprint.
    Digest digest;
    RegistryDelta fp{snapshot(), {}};
    const Pass first = runPass(s, rotation, rotation.size(), 1e9, false,
                               &digest);
    fp.after = snapshot();
    const std::uint64_t cache_digest =
        sortedLinesDigest(dir->file("eval_cache.txt")).value_or(0);
    std::printf("  fingerprint: first rotation of %zu decisions: "
                "chip solves %llu, chip converges %llu, cache hits %llu, "
                "cache digest %016llx, selection digest %016llx\n",
                rotation.size(),
                static_cast<unsigned long long>(fp.counter("cmp.chip_solves")),
                static_cast<unsigned long long>(
                    fp.counter("cmp.converge_calls")),
                static_cast<unsigned long long>(fp.counter("cache.hits")),
                static_cast<unsigned long long>(cache_digest),
                static_cast<unsigned long long>(digest.value()));
    report.check(first.failed == 0 && cache_digest != 0,
                 "first rotation: every chip evaluation succeeded");

    if (!opts.trace) {
        RegistryDelta delta{snapshot(), {}};
        const Pass pass = runPass(s, rotation, SIZE_MAX, opts.seconds, false);
        delta.after = snapshot();
        const double rss_mb = peakRssMb();
        checkPass(report, s, rotation, pass, delta, "timed loop");
        report.attempt(pass.decisions, pass.failed);
        reportEndToEnd(report, durations(setups), rss_mb,
                       sliceTiming(pass.done, slice_decisions),
                       calibrationResidual());
        return;
    }

    const Pass untraced =
        runPass(s, rotation, traced_decisions, 1e9, false);
    telemetry::Registry::instance().setTracing(true);
    RegistryDelta delta{snapshot(), {}};
    const Pass traced = runPass(s, rotation, traced_decisions, 1e9, true);
    delta.after = snapshot();
    checkPass(report, s, rotation, traced, delta, "traced pass");
    report.attempt(traced.decisions, traced.failed);
    reportLayers(report, s, traced, delta);
    std::vector<double> latency_s;
    for (const Completion &c : traced.done)
        latency_s.push_back(c.latency_s);
    printLatencyShape(latency_s);
    report.layer("trace.overhead_frac",
                 traced.wall_s / untraced.wall_s - 1.0, "frac");
    reportResidualAtSeed(report, table2Error(s.base));
    // No simulation (the cache is warm), no exploration and no
    // serving in the timed loop.
    report.unexercised("s", {"workload.gen_s", "sim.core_s",
                             "core.converge_s", "drm.explore_s",
                             "drm.select_s"});
    report.unexercised("count", {"workload.uops", "sim.cycles",
                                 "sim.uops_retired",
                                 "core.fixed_point_iters",
                                 "drm.exact_sims", "drm.cache.appends",
                                 "server.batches", "server.coalesced",
                                 "server.rejected"});
    report.unexercised("Mcycles/s", {"sim.mcycles_per_s"});
    report.unexercised("Muops/s", {"sim.muops_per_s"});
    report.unexercised("us", {"thermal.steady_us", "drm.cache.insert_us",
                              "serve.inproc.evaluate_us",
                              "serve.inproc.select_drm_us",
                              "serve.inproc.select_chip_us",
                              "serve.inproc.remaining_lifetime_us",
                              "serve.inproc.report_usage_us",
                              "util.json.encode_us"});
    report.unexercised("frac", {"util.pool.busy_frac"});
    report.unexercised("ms", {"serve.evaluate_ms", "serve.select_drm_ms",
                              "serve.select_chip_ms",
                              "serve.remaining_lifetime_ms",
                              "serve.report_usage_ms",
                              "serve.wire_overhead_ms"});
    report.unexercised("requests", {"server.batch_size"});
    writeTrace(opts);
}

} // namespace perfbench
