/**
 * @file
 * Tests for the chip operating-point evaluator: exact 1-core
 * reduction to the single-core evaluation, cold-run determinism at
 * any thread count, and the coupled fixed point actually coupling
 * (a busy neighbor warms an idle core's point).
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "cmp/evaluator.hh"
#include "drm/oracle.hh"
#include "util/telemetry.hh"
#include "util/thread_pool.hh"
#include "workload/profile.hh"

namespace ramp::cmp {
namespace {

core::EvalParams
quickParams()
{
    core::EvalParams p;
    p.warmup_uops = 30'000;
    p.measure_uops = 40'000;
    return p;
}

/** Exact (bit-level, via ==) equality of two operating points. */
void
expectOpIdentical(const core::OperatingPoint &a,
                  const core::OperatingPoint &b)
{
    EXPECT_EQ(a.activity.cycles, b.activity.cycles);
    EXPECT_EQ(a.activity.retired, b.activity.retired);
    for (std::size_t i = 0; i < sim::num_structures; ++i) {
        EXPECT_EQ(a.activity.activity[i], b.activity.activity[i]);
        EXPECT_EQ(a.temps_k[i], b.temps_k[i]) << i;
    }
    EXPECT_EQ(a.sink_temp_k, b.sink_temp_k);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.totalPower(), b.totalPower());
    EXPECT_EQ(a.uopsPerSecond(), b.uopsPerSecond());
}

TEST(ChipEvaluator, OneCoreMatchesSingleCoreBitForBit)
{
    // A 1-core chip runs the same timing sample and the same fixed
    // point over a bit-identical thermal system, so the whole
    // operating point reduces exactly to the single-core path.
    const drm::OracleExplorer explorer(quickParams());
    const ChipEvaluator chip(ChipFloorplan::grid(1), &explorer);
    const auto &app = workload::findApp("twolf");
    const auto cfg = sim::baseMachine();

    const auto got = chip.tryEvaluate({&app}, {cfg});
    ASSERT_TRUE(got.ok()) << got.error().message;
    const auto want = explorer.tryEvaluate(cfg, app);
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(got.value().cores.size(), 1u);
    expectOpIdentical(got.value().cores[0], want.value());
    EXPECT_EQ(got.value().sink_temp_k, want.value().sink_temp_k);
    EXPECT_EQ(got.value().uopsPerSecond(),
              want.value().uopsPerSecond());
}

TEST(ChipEvaluator, ColdRunsBitIdenticalAtAnyThreadCount)
{
    const auto &twolf = workload::findApp("twolf");
    const auto &gzip = workload::findApp("gzip");
    const std::vector<const workload::AppProfile *> apps{
        &twolf, &gzip, &gzip, &twolf};
    std::vector<sim::MachineConfig> cfgs(4, sim::baseMachine());
    cfgs[1].frequency_ghz = 3.5;
    cfgs[1].voltage_v = 0.95;

    const drm::OracleExplorer serial_explorer(quickParams());
    const ChipEvaluator serial(ChipFloorplan::grid(4),
                               &serial_explorer);
    const auto want = serial.tryEvaluate(apps, cfgs);
    ASSERT_TRUE(want.ok()) << want.error().message;

    util::ThreadPool pool(4);
    const drm::OracleExplorer pooled_explorer(quickParams());
    const ChipEvaluator pooled(ChipFloorplan::grid(4),
                               &pooled_explorer, &pool);
    const auto got = pooled.tryEvaluate(apps, cfgs);
    ASSERT_TRUE(got.ok()) << got.error().message;

    ASSERT_EQ(got.value().cores.size(), want.value().cores.size());
    for (std::size_t c = 0; c < 4; ++c)
        expectOpIdentical(got.value().cores[c],
                          want.value().cores[c]);
    EXPECT_EQ(got.value().sink_temp_k, want.value().sink_temp_k);
    EXPECT_EQ(got.value().converged, want.value().converged);
}

TEST(ChipEvaluator, BusyNeighborWarmsAnIdleCorePoint)
{
    // The chip fixed point must couple the cores: the same app on
    // core0 comes out hotter when core1 runs flat out than when the
    // whole comparison chip is identical except for core1's clock.
    const drm::OracleExplorer explorer(quickParams());
    const ChipEvaluator chip(ChipFloorplan::grid(2), &explorer);
    const auto &app = workload::findApp("twolf");

    auto evaluate_with_neighbor = [&](double neighbor_ghz) {
        std::vector<sim::MachineConfig> cfgs(2, sim::baseMachine());
        cfgs[1].frequency_ghz = neighbor_ghz;
        const auto r = chip.tryEvaluate({&app, &app}, cfgs);
        EXPECT_TRUE(r.ok());
        return r.value();
    };
    const auto slow = evaluate_with_neighbor(3.0);
    const auto fast = evaluate_with_neighbor(4.75);
    EXPECT_GT(fast.cores[0].maxTemp(), slow.cores[0].maxTemp());
    // Core0's own timing sample is neighbor-independent.
    EXPECT_EQ(fast.cores[0].activity.cycles,
              slow.cores[0].activity.cycles);
    EXPECT_EQ(fast.cores[0].uopsPerSecond(),
              slow.cores[0].uopsPerSecond());
}

TEST(ChipEvaluator, FourCoreEvaluationMatchesGoldenValues)
{
    // Captured before the chip shared the single-core fixed point and
    // the network was factored once; neither may move a bit. The die
    // runs past the leakage clamp, so the clamped path is pinned too.
    const double temps_k[4 * sim::num_structures] = {
        0x1.00a91b97d9501p+9, 0x1.ff39102a9e659p+8, 0x1.0077ff39026bcp+9,
        0x1.ff1f944bf739cp+8, 0x1.00253b860a6a5p+9, 0x1.007674c81476ep+9,
        0x1.0014a76db165p+9, 0x1.ff960a38564acp+8, 0x1.0098f41152cfp+9,
        0x1.0131aa2006249p+9, 0x1.ff92076ba06fp+8, 0x1.fd5a324c78a2fp+8,
        0x1.ffaee1ade4bc7p+8, 0x1.fe38731192658p+8, 0x1.fe9f116c6d312p+8,
        0x1.ff6ca271fe284p+8, 0x1.ffa038dec4addp+8, 0x1.fe0fc1ca86c83p+8,
        0x1.000bf1fa542d6p+9, 0x1.008db737eccp+9, 0x1.015736c478d68p+9,
        0x1.ffae68e92f77cp+8, 0x1.010c1a1f6cc6ap+9, 0x1.ff8ba023c36d3p+8,
        0x1.00660a65dd89cp+9, 0x1.011fac795607ep+9, 0x1.00dfd316dd85p+9,
        0x1.ff7e86d98ed56p+8, 0x1.010de1ca55092p+9, 0x1.019ef731aa7fcp+9,
        0x1.009a1a1858668p+9, 0x1.ff0fc5f7b648ap+8, 0x1.00a3ddb5b43ap+9,
        0x1.000027c319fc2p+9, 0x1.ff71810cd730fp+8, 0x1.008c9801ce1bep+9,
        0x1.009cf4b41ca56p+9, 0x1.fe8b072cae4d6p+8, 0x1.005883c1fac7p+9,
        0x1.00e6acc1a7dffp+9,
    };
    const double power_w[4] = {0x1.4cd177af7c5fep+5, 0x1.3a2de38882d0ep+5,
                               0x1.5a7d1964595f6p+5, 0x1.4cd177af7c5fep+5};
    const drm::OracleExplorer explorer(quickParams());
    const ChipEvaluator chip(ChipFloorplan::grid(4), &explorer);
    const auto &twolf = workload::findApp("twolf");
    const auto &gzip = workload::findApp("gzip");
    std::vector<sim::MachineConfig> cfgs(4, sim::baseMachine());
    cfgs[1].frequency_ghz = 3.5;
    cfgs[1].voltage_v = 0.95;
    const auto r = chip.tryEvaluate({&twolf, &gzip, &gzip, &twolf}, cfgs);
    ASSERT_TRUE(r.ok()) << r.error().message;
    for (std::size_t c = 0; c < 4; ++c) {
        for (std::size_t i = 0; i < sim::num_structures; ++i)
            EXPECT_EQ(r.value().cores[c].temps_k[i],
                      temps_k[c * sim::num_structures + i])
                << "core " << c << " block " << i;
        EXPECT_EQ(r.value().cores[c].totalPower(), power_w[c]) << c;
    }
    EXPECT_EQ(r.value().sink_temp_k, 0x1.c13590fbbb2c5p+8);
    EXPECT_TRUE(r.value().converged);
}

std::uint64_t
leakClamped()
{
    return telemetry::Registry::instance().snapshot().counter(
        "evaluator.leak_clamped");
}

TEST(ChipEvaluator, LeakClampIsCounted)
{
    // An 8-core base-config die runs away past the leakage clamp; a
    // lone base-config core does not. Each fixed point whose final
    // iterate crosses the clamp counts once.
    const drm::OracleExplorer explorer(quickParams());
    const auto &app = workload::findApp("twolf");

    const std::uint64_t before_single = leakClamped();
    const auto single = explorer.tryEvaluate(sim::baseMachine(), app);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(leakClamped(), before_single);

    const ChipEvaluator chip(ChipFloorplan::grid(8), &explorer);
    const std::uint64_t before_chip = leakClamped();
    const auto r = chip.tryEvaluate(
        std::vector<const workload::AppProfile *>(8, &app),
        std::vector<sim::MachineConfig>(8, sim::baseMachine()));
    ASSERT_TRUE(r.ok());
    EXPECT_GT(r.value().maxTemp(), 450.0);
    EXPECT_EQ(leakClamped(), before_chip + 1);
}

TEST(ChipEvaluator, ThroughputSumsCores)
{
    const drm::OracleExplorer explorer(quickParams());
    const ChipEvaluator chip(ChipFloorplan::grid(2), &explorer);
    const auto &app = workload::findApp("gzip");
    const std::vector<sim::MachineConfig> cfgs(2,
                                               sim::baseMachine());
    const auto r = chip.tryEvaluate({&app, &app}, cfgs);
    ASSERT_TRUE(r.ok());
    EXPECT_DOUBLE_EQ(r.value().uopsPerSecond(),
                     r.value().cores[0].uopsPerSecond() +
                         r.value().cores[1].uopsPerSecond());
    EXPECT_GE(r.value().maxTemp(), r.value().cores[0].maxTemp());
}

} // namespace
} // namespace ramp::cmp
