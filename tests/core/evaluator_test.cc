/**
 * @file
 * Tests for the operating-point evaluator: the paper's two-pass
 * power/thermal methodology (Section 6.3), leakage feedback, and
 * determinism. Uses short simulations to stay fast.
 */

#include <gtest/gtest.h>

#include "core/evaluator.hh"
#include "workload/profile.hh"

namespace ramp::core {
namespace {

EvalParams
fastParams()
{
    EvalParams p;
    p.warmup_uops = 60'000;
    p.measure_uops = 120'000;
    return p;
}

TEST(Evaluator, DeterministicAcrossCalls)
{
    const Evaluator e(fastParams());
    const auto &app = workload::findApp("gzip");
    const auto a = e.evaluate(sim::baseMachine(), app);
    const auto b = e.evaluate(sim::baseMachine(), app);
    EXPECT_EQ(a.stats.retired, b.stats.retired);
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    for (std::size_t i = 0; i < sim::num_structures; ++i) {
        EXPECT_DOUBLE_EQ(a.activity.activity[i],
                         b.activity.activity[i]);
        EXPECT_DOUBLE_EQ(a.temps_k[i], b.temps_k[i]);
    }
}

TEST(Evaluator, TemperaturesAboveAmbientBelowMelting)
{
    const Evaluator e(fastParams());
    const auto op =
        e.evaluate(sim::baseMachine(), workload::findApp("MP3dec"));
    for (double t : op.temps_k) {
        EXPECT_GT(t, e.params().thermal_params.ambient_k);
        EXPECT_LT(t, 450.0);
    }
    EXPECT_GE(op.maxTemp(), op.avgTemp());
    EXPECT_GT(op.sink_temp_k, e.params().thermal_params.ambient_k);
    EXPECT_LT(op.sink_temp_k, op.avgTemp());
}

TEST(Evaluator, LeakageFeedbackRaisesPowerAndTemperature)
{
    EvalParams on = fastParams();
    EvalParams off = fastParams();
    off.leakage_feedback = false;
    const auto &app = workload::findApp("MPGdec");
    const auto op_on = Evaluator(on).evaluate(sim::baseMachine(), app);
    const auto op_off =
        Evaluator(off).evaluate(sim::baseMachine(), app);
    // Feedback at > 383 K reference... our temps are below 383, so
    // the no-feedback variant (pinned at 383) *overstates* leakage
    // for cool runs; what must hold is simply that they differ and
    // that both converge.
    EXPECT_NE(op_on.power.totalLeakage(), op_off.power.totalLeakage());
    EXPECT_GT(op_on.power.totalLeakage(), 0.0);
}

TEST(Evaluator, HigherFrequencyRunsHotter)
{
    const Evaluator e(fastParams());
    const auto &app = workload::findApp("bzip2");
    sim::MachineConfig slow = sim::baseMachine();
    slow.frequency_ghz = 2.5;
    slow.voltage_v = 0.85;
    const auto op_slow = e.evaluate(slow, app);
    const auto op_base = e.evaluate(sim::baseMachine(), app);
    EXPECT_GT(op_base.totalPower(), op_slow.totalPower());
    EXPECT_GT(op_base.maxTemp(), op_slow.maxTemp());
    EXPECT_GT(op_base.uopsPerSecond(), op_slow.uopsPerSecond());
}

TEST(Evaluator, MissRatiosPopulated)
{
    const Evaluator e(fastParams());
    const auto op =
        e.evaluate(sim::baseMachine(), workload::findApp("art"));
    EXPECT_GT(op.l1d_miss_ratio, 0.0);
    EXPECT_LT(op.l1d_miss_ratio, 1.0);
    EXPECT_GT(op.l2_miss_ratio, 0.0);
}

TEST(Evaluator, ConvergeThermalIsIdempotent)
{
    const Evaluator e(fastParams());
    const auto &app = workload::findApp("equake");
    const auto op = e.evaluate(sim::baseMachine(), app);
    const auto again =
        e.convergeThermal(sim::baseMachine(), op.activity, op.stats);
    for (std::size_t i = 0; i < sim::num_structures; ++i)
        EXPECT_NEAR(again.temps_k[i], op.temps_k[i], 0.05);
}

TEST(Evaluator, ConvergeThermalMatchesGoldenValues)
{
    // One fixed point on a synthetic activity sample, captured before
    // the loop was shared with the chip evaluator and the network
    // factored once; neither may move a bit.
    const double temps_k[sim::num_structures] = {
        0x1.76af9e5cc5a03p+8, 0x1.74bc48ecb26c6p+8, 0x1.77d4165fb9e36p+8,
        0x1.75ab96466a57dp+8, 0x1.7e887ae3d1948p+8, 0x1.83f6b8d4ec963p+8,
        0x1.7fedc93c699p+8, 0x1.7642b34bf54c6p+8, 0x1.7d7a0281ea1fep+8,
        0x1.92efc15ffdc21p+8,
    };
    sim::ActivitySample activity;
    activity.cycles = 1'000'000;
    activity.retired = 1'300'000;
    for (std::size_t i = 0; i < sim::num_structures; ++i)
        activity.activity[i] = 0.05 + 0.07 * i;
    const Evaluator e;
    const auto op =
        e.convergeThermal(sim::baseMachine(), activity, sim::CoreStats{});
    for (std::size_t i = 0; i < sim::num_structures; ++i)
        EXPECT_EQ(op.temps_k[i], temps_k[i]) << i;
    EXPECT_EQ(op.sink_temp_k, 0x1.4ea4a02f0f4cdp+8);
    EXPECT_EQ(op.totalPower(), 0x1.33f19d06eed5cp+5);
    EXPECT_TRUE(op.converged);
}

TEST(Evaluator, PerformanceMetricConsistency)
{
    const Evaluator e(fastParams());
    const auto op =
        e.evaluate(sim::baseMachine(), workload::findApp("gzip"));
    EXPECT_NEAR(op.uopsPerSecond(),
                op.ipc() * op.config.frequency_ghz * 1e9, 1.0);
    EXPECT_GT(op.ipc(), 0.0);
}

TEST(EvaluatorDeath, RejectsBadParams)
{
    EvalParams p = fastParams();
    p.measure_uops = 0;
    EXPECT_EXIT(Evaluator{p}, testing::ExitedWithCode(1),
                "measurement");

    p = fastParams();
    p.max_iterations = 0;
    EXPECT_EXIT(Evaluator{p}, testing::ExitedWithCode(1),
                "iteration");

    p = fastParams();
    p.tolerance_k = 0.0;
    EXPECT_EXIT(Evaluator{p}, testing::ExitedWithCode(1),
                "tolerance");
}

} // namespace
} // namespace ramp::core
