/**
 * @file
 * Google-benchmark micro-kernels for the performance-critical pieces:
 * the failure-mechanism models, qualification FIT evaluation, the
 * thermal solvers (single core and the 1/2/4/8-core chip grids), the
 * cache model, the branch predictor, trace generation, and whole-core
 * throughput per cycle (run) and per retired uop (runUops). These
 * bound the cost of the reproduction sweeps.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "cmp/floorplan.hh"
#include "common.hh"
#include "core/engine.hh"
#include "core/mechanisms.hh"
#include "core/qualification.hh"
#include "sim/bpred.hh"
#include "sim/cache.hh"
#include "sim/core.hh"
#include "thermal/model.hh"
#include "util/random.hh"
#include "workload/trace_gen.hh"

namespace {

using namespace ramp;

void
BM_MechanismLogRate(benchmark::State &state)
{
    const auto mech = static_cast<core::Mechanism>(state.range(0));
    core::OperatingConditions c;
    c.temp_k = 360.0;
    double t = 340.0;
    for (auto _ : state) {
        c.temp_k = t;
        t = t < 400.0 ? t + 0.01 : 340.0;
        benchmark::DoNotOptimize(core::logRelativeRate(mech, c));
    }
}
BENCHMARK(BM_MechanismLogRate)->DenseRange(0, 3);

void
BM_QualificationFit(benchmark::State &state)
{
    core::QualificationSpec spec;
    spec.alpha_qual.fill(0.5);
    const core::Qualification qual(spec);
    core::OperatingConditions c;
    c.temp_k = 365.0;
    for (auto _ : state) {
        double total = 0.0;
        for (auto s : sim::allStructures())
            for (auto m : core::allMechanisms())
                total += qual.fit(s, m, c);
        benchmark::DoNotOptimize(total);
    }
}
BENCHMARK(BM_QualificationFit);

void
BM_SteadyFitReport(benchmark::State &state)
{
    core::QualificationSpec spec;
    spec.alpha_qual.fill(0.5);
    const core::Qualification qual(spec);
    sim::PerStructure<double> on;
    on.fill(1.0);
    sim::PerStructure<double> temps;
    temps.fill(362.0);
    sim::PerStructure<double> act;
    act.fill(0.3);
    for (auto _ : state) {
        const auto rep =
            core::steadyFit(qual, on, temps, act, 1.0, 4.0);
        benchmark::DoNotOptimize(rep.totalFit());
    }
}
BENCHMARK(BM_SteadyFitReport);

void
BM_ThermalSteadyState(benchmark::State &state)
{
    const thermal::ThermalModel model;
    sim::PerStructure<double> power;
    power.fill(2.5);
    for (auto _ : state) {
        const auto t = model.steadyState(power);
        benchmark::DoNotOptimize(t.sink_k);
    }
}
BENCHMARK(BM_ThermalSteadyState);

void
BM_ChipSteadyState(benchmark::State &state)
{
    const auto cores = static_cast<std::size_t>(state.range(0));
    const thermal::ThermalModel model(
        cmp::ChipFloorplan::grid(cores).layout());
    std::vector<sim::PerStructure<double>> power(cores);
    for (auto &p : power)
        p.fill(2.5);
    for (auto _ : state) {
        const auto t = model.trySteadyState(power);
        benchmark::DoNotOptimize(t.value().sink_k);
    }
}
BENCHMARK(BM_ChipSteadyState)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void
BM_ThermalTransientStep(benchmark::State &state)
{
    thermal::ThermalModel model;
    sim::PerStructure<double> power;
    power.fill(2.5);
    model.initialiseSteady(power);
    for (auto _ : state)
        model.step(power, 1e-3);
}
BENCHMARK(BM_ThermalTransientStep);

void
BM_CacheAccess(benchmark::State &state)
{
    sim::Cache cache(64, 2, 64);
    util::Rng rng(1);
    std::uint64_t addr = 0;
    for (auto _ : state) {
        addr = (addr + 8) % (128 * 1024);
        benchmark::DoNotOptimize(cache.access(addr, false));
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_BranchPredict(benchmark::State &state)
{
    sim::BimodalAgree bp(8192);
    std::uint64_t pc = 0x1000;
    for (auto _ : state) {
        pc = 0x1000 + (pc * 2654435761u) % 4096;
        const bool taken = (pc & 64) != 0;
        benchmark::DoNotOptimize(bp.predict(pc));
        bp.update(pc, taken);
    }
}
BENCHMARK(BM_BranchPredict);

void
BM_TraceGeneration(benchmark::State &state)
{
    workload::TraceGenerator gen(workload::findApp("bzip2"), 1);
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.next());
}
BENCHMARK(BM_TraceGeneration);

/** Core kernels: the two original base-machine apps, the
 *  memory-bound one (most idle cycles), a narrow ArchDVS machine and
 *  a DTM fetch-throttled one. */
struct CoreCase
{
    const char *app;
    std::uint32_t window;
    std::uint32_t int_alus;
    std::uint32_t fpus;
    std::uint32_t fetch_duty_x8;
};

constexpr CoreCase core_cases[] = {
    {"MPGdec", 128, 6, 4, 8}, {"twolf", 128, 6, 4, 8},
    {"art", 128, 6, 4, 8},    {"twolf", 48, 2, 1, 8},
    {"art", 48, 2, 1, 8},     {"twolf", 128, 6, 4, 4},
    {"art", 128, 6, 4, 4},
};

/** A core for case `i`, warmed by 50k cycles. */
struct WarmCore
{
    explicit WarmCore(benchmark::State &state)
        : c(core_cases[state.range(0)]),
          gen(workload::findApp(c.app), 1), core(machine(c), gen)
    {
        core.run(50000);
        state.SetLabel(std::string(c.app) + " " + core.config().describe());
    }

    static sim::MachineConfig
    machine(const CoreCase &c)
    {
        sim::MachineConfig cfg = sim::baseMachine();
        cfg.window_size = c.window;
        cfg.num_int_alu = c.int_alus;
        cfg.num_fpu = c.fpus;
        cfg.fetch_duty_x8 = c.fetch_duty_x8;
        return cfg;
    }

    CoreCase c;
    workload::TraceGenerator gen;
    sim::Core core;
};

void
BM_CoreCycles(benchmark::State &state)
{
    WarmCore w(state);
    for (auto _ : state)
        w.core.run(1000);
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CoreCycles)->DenseRange(0, std::size(core_cases) - 1);

/** runUops, the call the evaluator makes; items are retired uops. */
void
BM_CoreUops(benchmark::State &state)
{
    WarmCore w(state);
    const std::uint64_t before = w.core.stats().retired;
    for (auto _ : state)
        w.core.runUops(1000);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(w.core.stats().retired - before));
}
BENCHMARK(BM_CoreUops)->DenseRange(0, std::size(core_cases) - 1);

} // namespace

int
main(int argc, char **argv)
{
    // The unified bench flags are stripped first; everything left
    // over belongs to google-benchmark, which rejects what it does
    // not recognize either.
    ramp::bench::Options::parseStripping(argc, argv);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
