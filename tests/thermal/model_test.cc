/**
 * @file
 * Tests for the RC thermal model: steady-state physics (energy
 * balance, monotonicity), transient convergence, and the separation
 * of block and heat-sink time constants the paper's two-pass
 * methodology relies on.
 */

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "thermal/model.hh"

namespace ramp::thermal {
namespace {

using sim::num_structures;
using sim::PerStructure;
using sim::StructureId;
using sim::structureIndex;

PerStructure<double>
flatPower(double watts_per_block)
{
    PerStructure<double> p;
    p.fill(watts_per_block);
    return p;
}

TEST(ThermalSteady, ZeroPowerIsAmbientEverywhere)
{
    const ThermalModel model;
    const auto t = model.steadyState(flatPower(0.0));
    for (double temp_k : t.block_k)
        EXPECT_NEAR(temp_k, model.params().ambient_k, 1e-6);
    EXPECT_NEAR(t.sink_k, model.params().ambient_k, 1e-6);
}

TEST(ThermalSteady, HeatFlowsDownTheStack)
{
    const ThermalModel model;
    const auto t = model.steadyState(flatPower(2.0));
    const double ambient_k = model.params().ambient_k;
    EXPECT_GT(t.sink_k, ambient_k);
    EXPECT_GT(t.spreader_k, t.sink_k);
    for (double temp_k : t.block_k)
        EXPECT_GT(temp_k, t.spreader_k);
}

TEST(ThermalSteady, EnergyBalanceAtTheSink)
{
    // In steady state all injected power leaves through the sink:
    // T_sink - T_amb = P_total * R_convection.
    const ThermalModel model;
    const double per_block = 2.5;
    const auto t = model.steadyState(flatPower(per_block));
    const double total = per_block * num_structures;
    EXPECT_NEAR(t.sink_k - model.params().ambient_k,
                total * model.params().r_convection, 1e-6);
}

TEST(ThermalSteady, MorePowerIsMonotonicallyHotter)
{
    const ThermalModel model;
    const auto t1 = model.steadyState(flatPower(1.0));
    const auto t2 = model.steadyState(flatPower(2.0));
    for (std::size_t i = 0; i < num_structures; ++i)
        EXPECT_GT(t2.block_k[i], t1.block_k[i]);
}

TEST(ThermalSteady, LinearityInPower)
{
    // The RC network is linear: temperature *rise* doubles with power.
    const ThermalModel model;
    const double amb = model.params().ambient_k;
    const auto t1 = model.steadyState(flatPower(1.0));
    const auto t2 = model.steadyState(flatPower(2.0));
    for (std::size_t i = 0; i < num_structures; ++i)
        EXPECT_NEAR(t2.block_k[i] - amb, 2.0 * (t1.block_k[i] - amb),
                    1e-6);
}

TEST(ThermalSteady, PowerDensityMakesHotspots)
{
    // Equal power into a small block (IntReg, 1.2mm^2) vs a large one
    // (L1D, 4.05mm^2): the small block must get hotter.
    const ThermalModel model;
    PerStructure<double> p{};
    p[structureIndex(StructureId::IntReg)] = 3.0;
    const auto t_small = model.steadyState(p);
    PerStructure<double> q{};
    q[structureIndex(StructureId::L1D)] = 3.0;
    const auto t_large = model.steadyState(q);
    EXPECT_GT(t_small.block_k[structureIndex(StructureId::IntReg)],
              t_large.block_k[structureIndex(StructureId::L1D)]);
}

TEST(ThermalSteady, LateralCouplingWarmsNeighbours)
{
    const ThermalModel model;
    PerStructure<double> p{};
    p[structureIndex(StructureId::IntAlu)] = 5.0;
    const auto t = model.steadyState(p);
    // IntReg is adjacent to IntALU; L1I sits two rows away.
    EXPECT_GT(t.block_k[structureIndex(StructureId::IntReg)],
              t.block_k[structureIndex(StructureId::L1I)]);
}

TEST(ThermalSteady, AvgAndMaxAreConsistent)
{
    const ThermalModel model;
    PerStructure<double> p = flatPower(1.0);
    p[structureIndex(StructureId::IntAlu)] = 6.0;
    const auto t = model.steadyState(p);
    EXPECT_GE(t.maxBlock(), t.avgBlock());
    EXPECT_EQ(t.maxBlock(),
              t.block_k[structureIndex(StructureId::IntAlu)]);
}

TEST(ThermalSteady, AsymmetricMapMatchesGoldenValues)
{
    // Captured from the assemble-and-eliminate-per-solve solver the
    // factored network replaced; factoring once must not move a bit.
    const double block_k[num_structures] = {
        0x1.569032ca3db0ep+8, 0x1.5478ac7b29181p+8, 0x1.5b0817705b988p+8,
        0x1.5a198edd60264p+8, 0x1.62909da55dfe6p+8, 0x1.5fc890bc849bdp+8,
        0x1.63d3f38f6536cp+8, 0x1.565cc0790ee9fp+8, 0x1.63dc56bcde67dp+8,
        0x1.6d904318a370fp+8,
    };
    const ThermalModel model;
    PerStructure<double> p{};
    for (std::size_t i = 0; i < num_structures; ++i)
        p[i] = 0.3 + 0.45 * i;
    const auto t = model.steadyState(p);
    for (std::size_t i = 0; i < num_structures; ++i)
        EXPECT_EQ(t.block_k[i], block_k[i]) << i;
    EXPECT_EQ(t.spreader_k, 0x1.43b70a3d70a5bp+8);
    EXPECT_EQ(t.sink_k, 0x1.40ecccccccce7p+8);
}

TEST(ThermalTransient, ConvergesToSteadyState)
{
    ThermalModel model;
    model.initialiseFlat(model.params().ambient_k);
    const auto power = flatPower(2.0);
    const auto steady = model.steadyState(power);
    // Sink RC is ~minutes; run long enough to settle.
    for (int i = 0; i < 1200; ++i)
        model.step(power, 1.0);
    const auto blocks = model.blockTemps();
    for (std::size_t i = 0; i < num_structures; ++i)
        EXPECT_NEAR(blocks[i], steady.block_k[i], 0.5);
    EXPECT_NEAR(model.sinkTemp(), steady.sink_k, 0.5);
}

TEST(ThermalTransient, BlocksRespondFastSinkSlow)
{
    // The paper's two-pass methodology exists because the sink time
    // constant dwarfs the block time constants. After 50 ms, blocks
    // must have moved most of their way while the sink barely moved.
    ThermalModel model;
    model.initialiseFlat(model.params().ambient_k);
    const auto power = flatPower(2.0);
    const auto steady = model.steadyState(power);
    model.step(power, 0.05);

    const double sink_rise =
        model.sinkTemp() - model.params().ambient_k;
    const double sink_final =
        steady.sink_k - model.params().ambient_k;
    EXPECT_LT(sink_rise, 0.05 * sink_final);

    const auto i = structureIndex(StructureId::IntAlu);
    const double block_rise =
        model.blockTemps()[i] - model.params().ambient_k;
    // Blocks equilibrate against the (still cold) spreader quickly;
    // they must have covered a visible fraction of their local rise.
    EXPECT_GT(block_rise, 1.0);
}

TEST(ThermalTransient, InitialiseSteadySkipsTheWarmup)
{
    ThermalModel model;
    const auto power = flatPower(2.0);
    model.initialiseSteady(power);
    const auto steady = model.steadyState(power);
    EXPECT_NEAR(model.sinkTemp(), steady.sink_k, 1e-9);
    // Stepping from the steady state goes nowhere.
    model.step(power, 1.0);
    EXPECT_NEAR(model.sinkTemp(), steady.sink_k, 1e-3);
    const auto blocks = model.blockTemps();
    for (std::size_t i = 0; i < num_structures; ++i)
        EXPECT_NEAR(blocks[i], steady.block_k[i], 1e-3);
}

TEST(ThermalTransient, StepIsStableWithLargeDt)
{
    // Internal sub-stepping must keep explicit Euler stable even for
    // huge caller-side steps.
    ThermalModel model;
    model.initialiseFlat(model.params().ambient_k);
    const auto power = flatPower(3.0);
    model.step(power, 100.0);
    for (double t : model.blockTemps()) {
        EXPECT_GT(t, model.params().ambient_k - 1.0);
        EXPECT_LT(t, 500.0); // no oscillatory blow-up
    }
}

TEST(ThermalDeath, RejectsBadParameters)
{
    ThermalParams p;
    p.r_convection = 0.0;
    EXPECT_EXIT(ThermalModel{p}, testing::ExitedWithCode(1),
                "resistance");

    ThermalParams q;
    q.c_sink = -1.0;
    EXPECT_EXIT(ThermalModel{q}, testing::ExitedWithCode(1),
                "capacitance");

    ThermalParams r;
    r.ambient_k = -5.0;
    EXPECT_EXIT(ThermalModel{r}, testing::ExitedWithCode(1),
                "ambient");
}

TEST(ThermalDeath, NegativePowerIsFatal)
{
    const ThermalModel model;
    PerStructure<double> p{};
    p[0] = -1.0;
    EXPECT_EXIT(model.steadyState(p), testing::ExitedWithCode(1),
                "negative");
}

TEST(ThermalDeath, NonPositiveDtIsFatal)
{
    ThermalModel model;
    EXPECT_EXIT(model.step(flatPower(1.0), 0.0),
                testing::ExitedWithCode(1), "dt");
}

TEST(ThermalDeath, NanDtIsFatal)
{
    ThermalModel model;
    EXPECT_EXIT(model.step(flatPower(1.0),
                           std::numeric_limits<double>::quiet_NaN()),
                testing::ExitedWithCode(1), "dt");
}

TEST(ThermalDeath, InfiniteDtIsFatal)
{
    // An infinite step would never drain its sub-step budget.
    ThermalModel model;
    EXPECT_EXIT(model.step(flatPower(1.0),
                           std::numeric_limits<double>::infinity()),
                testing::ExitedWithCode(1), "dt");
}

} // namespace
} // namespace ramp::thermal
