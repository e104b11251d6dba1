/**
 * @file
 * Trace capture and replay demonstration: the bring-your-own-trace
 * path. Captures a synthetic stream to a binary trace file, replays
 * it through the full evaluation stack, and emits the operating
 * point and FIT report as JSON.
 *
 * Usage: trace_tools [app] [uops] [path]
 *        (defaults: bzip2 1200000 /tmp/ramp_demo.trace)
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "core/report_json.hh"
#include "sim/core.hh"
#include "workload/trace_file.hh"
#include "workload/trace_gen.hh"
#include "util/telemetry.hh"

int
main(int argc, char **argv)
{
    argc = ramp::telemetry::consumeOutputFlags(argc, argv);
    using namespace ramp;

    const std::string app_name = argc > 1 ? argv[1] : "bzip2";
    const std::uint64_t uops =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1'200'000;
    const std::string path =
        argc > 3 ? argv[3] : "/tmp/ramp_demo.trace";

    // 1. Capture: any UopSource works; here the synthetic generator.
    {
        workload::TraceGenerator gen(workload::findApp(app_name), 1);
        const auto n = workload::captureTrace(gen, path, uops);
        std::fprintf(stderr, "captured %llu uops to %s\n",
                     static_cast<unsigned long long>(n),
                     path.c_str());
    }

    // 2. Replay through the core, then power/thermal/RAMP.
    workload::FileTraceSource replay(path);
    sim::Core core(sim::baseMachine(), replay);
    core.runUops(uops / 2); // warm
    core.takeInterval();
    core.resetStats();
    core.runUops(uops / 2);
    const auto activity = core.takeInterval();

    const core::Evaluator evaluator;
    const auto op = evaluator.convergeThermal(sim::baseMachine(),
                                              activity, core.stats());

    core::QualificationSpec spec;
    spec.t_qual_k = 370.0;
    spec.alpha_qual = op.activity.activity;
    const core::Qualification qual(spec);
    sim::PerStructure<double> on;
    on.fill(1.0);
    const auto report = core::steadyFit(
        qual, on, op.temps_k, op.activity.activity, 1.0, 4.0);

    // 3. Machine-readable output.
    util::writeJson(std::cout, core::toJson(op));
    std::cout << '\n';
    util::writeJson(std::cout, core::toJson(report));
    std::cout << '\n';
    return 0;
}
