#include "core/evaluator.hh"

#include <algorithm>
#include <cmath>

#include "fault/fault.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"
#include "workload/trace_gen.hh"

namespace ramp {
namespace core {

using sim::num_structures;
using sim::PerStructure;

namespace {

/** Telemetry handles, registered once (Section 6.3 hot loop). */
struct EvalMetrics
{
    telemetry::Counter evaluate_calls =
        telemetry::counter("evaluator.evaluate_calls");
    telemetry::Counter converge_calls =
        telemetry::counter("evaluator.converge_calls");
    /** Fixed-point iterations per convergeThermal() call. */
    telemetry::Histogram iterations =
        telemetry::histogram("evaluator.iterations", 0.0, 32.0, 32);
    /** Worst per-block residual (K) when the loop stopped; overflow
     *  bin = hit the iteration limit far from convergence. */
    telemetry::Histogram residual_k =
        telemetry::histogram("evaluator.residual_k", 0.0, 0.02, 20);
    /** Wall time of a full evaluate() (sim + fixed point). */
    telemetry::Histogram evaluate_s =
        telemetry::histogram("evaluator.evaluate_s", 0.0, 2.0, 40);
    /** Fixed points that stopped at the iteration limit (including
     *  fault-forced ones); their points carry converged == false. */
    telemetry::Counter non_converged =
        telemetry::counter("evaluator.non_converged");
    /** Steady-state solves, under the per-core solver's name. */
    telemetry::Counter steady_solves =
        telemetry::counter("thermal.steady_solves");
};

EvalMetrics &
evalMetrics()
{
    static EvalMetrics m;
    return m;
}

} // namespace

double
OperatingPoint::maxTemp() const
{
    double m = temps_k[0];
    for (double t : temps_k)
        m = std::max(m, t);
    return m;
}

double
OperatingPoint::avgTemp() const
{
    double sum = 0.0;
    double area = 0.0;
    for (auto id : sim::allStructures()) {
        const double a = sim::structureArea(id);
        sum += temps_k[sim::structureIndex(id)] * a;
        area += a;
    }
    return sum / area;
}

Evaluator::Evaluator(EvalParams params)
    : params_(params), network_(params_.thermal_params)
{
    if (params_.measure_uops == 0)
        util::fatal("evaluator needs a nonzero measurement length");
    if (params_.max_iterations == 0)
        util::fatal("evaluator needs at least one thermal iteration");
    if (params_.tolerance_k <= 0.0)
        util::fatal("thermal tolerance must be positive");
}

namespace {

/** Scheduling-independent identity of one fixed-point invocation,
 *  for the forced-non-convergence fault hook. */
std::uint64_t
convergeSiteHash(const sim::MachineConfig &cfg,
                 const sim::ActivitySample &activity)
{
    std::uint64_t h = fault::faultHash(0, cfg.frequency_ghz);
    h = fault::faultHash(h, cfg.voltage_v);
    h = fault::faultHash(h, static_cast<double>(cfg.fetch_duty_x8));
    h = fault::faultHash(h, static_cast<double>(cfg.num_int_alu));
    h = fault::faultHash(h, static_cast<double>(cfg.num_fpu));
    h = fault::faultHash(h, static_cast<double>(cfg.num_agen));
    h = fault::faultHash(h, static_cast<double>(activity.cycles));
    h = fault::faultHash(h, static_cast<double>(activity.retired));
    return h;
}

/**
 * Leakage evaluation temperature cap: above ~450 K the exponential
 * leakage-temperature loop has no stable fixed point (thermal
 * runaway). The clamp keeps the solve finite; runaway operating
 * points then report enormous (but finite) temperatures and FIT, and
 * every selection policy rejects them.
 */
constexpr double leak_temp_cap = 450.0;

} // namespace

util::Result<FixedPointStats>
tryLeakageFixedPoint(const thermal::ThermalModel &network,
                     std::span<OperatingPoint> tiles,
                     const EvalParams &params,
                     const telemetry::Counter &solves)
{
    /** Fixed points whose final iterate has a block past the cap. */
    static const telemetry::Counter leak_clamped =
        telemetry::counter("evaluator.leak_clamped");

    const std::size_t n = tiles.size();
    std::vector<power::PowerModel> pmodels;
    pmodels.reserve(n);
    std::vector<PerStructure<double>> dyn(n);
    std::vector<PerStructure<double>> temps(n);
    for (std::size_t c = 0; c < n; ++c) {
        pmodels.emplace_back(tiles[c].config, params.power_params);
        dyn[c] = pmodels[c].dynamicPower(tiles[c].activity);
        // Start from a flat guess a little above ambient.
        temps[c].fill(params.thermal_params.ambient_k + 30.0);
    }
    const auto leak_temps = [&](const PerStructure<double> &t) {
        PerStructure<double> clamped = t;
        for (auto &v : clamped)
            v = std::min(v, leak_temp_cap);
        if (!params.leakage_feedback) {
            // Ablation: leakage pinned at the reference density.
            clamped.fill(params.power_params.leakage_t_ref);
        }
        return clamped;
    };

    FixedPointStats stats;
    thermal::ChipSteadyTemps steady{};
    std::vector<PerStructure<double>> total(n);
    for (std::uint32_t it = 0; it < params.max_iterations; ++it) {
        for (std::size_t c = 0; c < n; ++c) {
            const auto leak = pmodels[c].leakagePower(leak_temps(temps[c]));
            for (std::size_t i = 0; i < num_structures; ++i)
                total[c][i] = dyn[c][i] + leak[i];
        }
        solves.add();
        auto solve = network.trySteadyState(total);
        if (!solve)
            return solve.error();
        steady = std::move(solve.value());

        double worst = 0.0;
        for (std::size_t c = 0; c < n; ++c) {
            for (std::size_t i = 0; i < num_structures; ++i) {
                worst = std::max(worst, std::fabs(steady.core_k[c][i] -
                                                  temps[c][i]));
                // Mild damping keeps the exponential leakage loop
                // stable even at high power density.
                temps[c][i] = 0.5 * temps[c][i] + 0.5 * steady.core_k[c][i];
            }
        }
        ++stats.iterations;
        stats.residual_k = worst;
        if (worst < params.tolerance_k)
            break;
        if (it + 1 == params.max_iterations)
            util::warn("thermal fixed point hit the iteration limit");
    }

    bool clamped = false;
    for (std::size_t c = 0; c < n; ++c) {
        OperatingPoint &op = tiles[c];
        op.temps_k = temps[c];
        op.sink_temp_k = steady.sink_k;
        op.converged = stats.residual_k < params.tolerance_k;
        op.power = pmodels[c].breakdown(op.activity, leak_temps(temps[c]));
        for (double t : op.temps_k) {
            if (!std::isfinite(t))
                return util::RampError{
                    util::ErrorCode::NonFiniteValue,
                    util::cat("thermal fixed point produced non-finite "
                              "temperatures on core ",
                              c)};
            clamped = clamped || t > leak_temp_cap;
        }
    }
    if (clamped)
        leak_clamped.add();
    return stats;
}

util::Result<OperatingPoint>
Evaluator::tryConvergeThermal(const sim::MachineConfig &cfg,
                              const sim::ActivitySample &activity,
                              const sim::CoreStats &stats) const
{
    OperatingPoint op;
    op.config = cfg;
    op.activity = activity;
    op.stats = stats;

    auto &metrics = evalMetrics();
    metrics.converge_calls.add();
    const auto fixed = tryLeakageFixedPoint(network_, {&op, 1}, params_,
                                            metrics.steady_solves);
    if (!fixed)
        return fixed.error();
    metrics.iterations.add(static_cast<double>(fixed.value().iterations));
    metrics.residual_k.add(fixed.value().residual_k);

    // The hook for the forced-non-convergence fault, which flags the
    // (otherwise clean) point so downstream handling of untrusted
    // evaluations can be exercised.
    if (const auto *plan = fault::activeFaultPlan();
        plan && op.converged &&
        fault::forceNonConvergence(
            *plan, convergeSiteHash(cfg, activity)))
        op.converged = false;
    if (!op.converged)
        metrics.non_converged.add();
    return op;
}

OperatingPoint
Evaluator::convergeThermal(const sim::MachineConfig &cfg,
                           const sim::ActivitySample &activity,
                           const sim::CoreStats &stats) const
{
    auto result = tryConvergeThermal(cfg, activity, stats);
    if (!result)
        util::fatal(util::cat("convergeThermal: ",
                              result.error().str()));
    return std::move(result.value());
}

util::Result<OperatingPoint>
Evaluator::tryEvaluate(const sim::MachineConfig &cfg,
                       const workload::AppProfile &profile) const
{
    auto &metrics = evalMetrics();
    metrics.evaluate_calls.add();
    telemetry::ScopedTimer timer(metrics.evaluate_s, "evaluate",
                                 "evaluator");

    workload::TraceGenerator gen(profile, params_.seed);
    sim::Core core(cfg, gen);

    core.runUops(params_.warmup_uops);
    core.takeInterval();
    core.resetStats();

    const auto &mem = core.memory();
    const auto l1d_acc0 = mem.l1d().accesses();
    const auto l1d_miss0 = mem.l1d().misses();
    const auto l1i_acc0 = mem.l1i().accesses();
    const auto l1i_miss0 = mem.l1i().misses();
    const auto l2_acc0 = mem.l2().accesses();
    const auto l2_miss0 = mem.l2().misses();

    core.runUops(params_.measure_uops);
    const sim::ActivitySample activity = core.takeInterval();

    auto result = tryConvergeThermal(cfg, activity, core.stats());
    if (!result)
        return result.error();
    OperatingPoint &op = result.value();
    auto ratio = [](std::uint64_t miss, std::uint64_t acc) {
        return acc ? static_cast<double>(miss) /
                         static_cast<double>(acc)
                   : 0.0;
    };
    op.l1d_miss_ratio = ratio(mem.l1d().misses() - l1d_miss0,
                              mem.l1d().accesses() - l1d_acc0);
    op.l1i_miss_ratio = ratio(mem.l1i().misses() - l1i_miss0,
                              mem.l1i().accesses() - l1i_acc0);
    op.l2_miss_ratio = ratio(mem.l2().misses() - l2_miss0,
                             mem.l2().accesses() - l2_acc0);
    return result;
}

OperatingPoint
Evaluator::evaluate(const sim::MachineConfig &cfg,
                    const workload::AppProfile &profile) const
{
    auto result = tryEvaluate(cfg, profile);
    if (!result)
        util::fatal(util::cat("evaluate: ", result.error().str()));
    return std::move(result.value());
}

} // namespace core
} // namespace ramp
