/**
 * @file
 * Property tests for the thermal network on chip floorplans: golden
 * steady solves on the built-in grids, energy balance, reciprocity
 * (the network symmetry), cross-core coupling, monotonicity in a
 * neighbor's power, and the transient integrator on a coupled die.
 */

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cmp/floorplan.hh"
#include "thermal/model.hh"
#include "util/json.hh"

namespace ramp::cmp {
namespace {

using sim::num_structures;
using sim::PerStructure;
using thermal::ChipSteadyTemps;
using thermal::ThermalModel;

/** The network of a chip floorplan, at default package constants. */
ThermalModel
chipModel(const ChipFloorplan &plan)
{
    return ThermalModel(plan.layout());
}

PerStructure<double>
flatPower(double watts_per_block)
{
    PerStructure<double> p;
    p.fill(watts_per_block);
    return p;
}

ChipSteadyTemps
solve(const ThermalModel &model,
      const std::vector<PerStructure<double>> &power)
{
    auto t = model.trySteadyState(power);
    EXPECT_TRUE(t.ok())
        << (t.ok() ? "" : t.error().message);
    return std::move(t.value());
}

/** A grid steady solve pinned bit for bit: block temperatures
 *  core-major, then spreader and sink. */
struct GridPin
{
    std::size_t cores;
    double spreader_k;
    double sink_k;
    std::vector<double> block_k;
};

TEST(ChipThermal, GridSolvesMatchGoldenValues)
{
    // Captured from the assemble-and-eliminate-per-solve solver this
    // network replaced; factoring once must not move a bit. Power:
    // 0.4 W + 0.1 W per core index + 0.05 W per structure index.
    const GridPin pins[] = {
    {2,
     0x1.39c51eb851eccp+8, 0x1.3826666666678p+8,
     {
        0x1.3fbd98d8ff9efp+8, 0x1.3ed36aa8566c2p+8, 0x1.411c4338d94bbp+8,
        0x1.40c0837026888p+8, 0x1.41d95b2030bcep+8, 0x1.4118900ac3999p+8,
        0x1.41e126cd7d9dcp+8, 0x1.3ead88b151e6fp+8, 0x1.41bb84f34b388p+8,
        0x1.4332e3bf4966ap+8, 0x1.40a8faba84272p+8, 0x1.3f99c81a0d03p+8,
        0x1.4207f20080f08p+8, 0x1.41d96f4e0a2dp+8, 0x1.43097a370ddefp+8,
        0x1.41edd7e82a86ap+8, 0x1.4304751fdc4efp+8, 0x1.3f57d4262bdfcp+8,
        0x1.42ddc2e3d8f4bp+8, 0x1.44738ec5bc03bp+8,
     }},
    {4,
     0x1.4b9eb851eb88cp+8, 0x1.47e666666669ap+8,
     {
        0x1.51d8898d7351ap+8, 0x1.5160915892262p+8, 0x1.533090b4d23c6p+8,
        0x1.5325d7442ddaap+8, 0x1.53d491587cbdfp+8, 0x1.532cb3167e683p+8,
        0x1.544ab26d28d41p+8, 0x1.5248188b042f1p+8, 0x1.53b6700eaeca5p+8,
        0x1.552e5402ee3c7p+8, 0x1.52c8073391bebp+8, 0x1.5233e07391b4dp+8,
        0x1.541ec3a1c3c85p+8, 0x1.54469bd0f0d7dp+8, 0x1.55067baaeb8f5p+8,
        0x1.5404e86f1e517p+8, 0x1.5575e24540456p+8, 0x1.5314ad8d19ef9p+8,
        0x1.54da373c3990ap+8, 0x1.567076791a05p+8, 0x1.5319de5d76668p+8,
        0x1.522deeab4a6acp+8, 0x1.54fb2875f1816p+8, 0x1.54cf33b30c3ep+8,
        0x1.546f3cec81603p+8, 0x1.5484c54d38481p+8, 0x1.55ec4025d14d4p+8,
        0x1.51ec83544a653p+8, 0x1.548ffa16643bfp+8, 0x1.55ef505427714p+8,
        0x1.53ee9992a244ap+8, 0x1.52eb567f0c805p+8, 0x1.55bdf304752e7p+8,
        0x1.55ddb903f5a2p+8, 0x1.556faa444376ep+8, 0x1.5537bb0a7a382p+8,
        0x1.5707d7ca37b51p+8, 0x1.52920c16bc909p+8, 0x1.558c7bc3333e4p+8,
        0x1.5704d0bf5743ep+8,
     }},
    {8,
     0x1.7b8f5c28f5cd6p+8, 0x1.72333333333cdp+8,
     {
        0x1.81e4ecce84329p+8, 0x1.819cc0511e0bcp+8, 0x1.833a011541c42p+8,
        0x1.83512fc61c7aep+8, 0x1.83d3e2fb3acd7p+8, 0x1.83373753e95e4p+8,
        0x1.8478ea26adb6fp+8, 0x1.82f4f9eef5e61p+8, 0x1.83b546e92be33p+8,
        0x1.852eb58c30b88p+8, 0x1.82e2a266507cp+8, 0x1.827d211d4479dp+8,
        0x1.842da3da8337bp+8, 0x1.84779eeeefe4fp+8, 0x1.8510f847e3d49p+8,
        0x1.845317c1b075fp+8, 0x1.85b8560347beap+8, 0x1.83cf1b8ee8183p+8,
        0x1.84de7fbbed919p+8, 0x1.8676e2fc49c52p+8, 0x1.83f113d878eafp+8,
        0x1.83662dd282417p+8, 0x1.856f16b356bdfp+8, 0x1.85b6c32d8adf4p+8,
        0x1.865479f6f532dp+8, 0x1.8571f29e4a23dp+8, 0x1.86f97caa2a094p+8,
        0x1.84b424c68e979p+8, 0x1.861280ab42755p+8, 0x1.87c08f74a3f0fp+8,
        0x1.84f01d2526444p+8, 0x1.84421932649d2p+8, 0x1.86ac4117947dbp+8,
        0x1.86f24296dd2a6p+8, 0x1.878d48ff24822p+8, 0x1.864132a5a3356p+8,
        0x1.88291446070c1p+8, 0x1.858d160b6534ap+8, 0x1.8741b50a60fcap+8,
        0x1.890b2f1b223d3p+8, 0x1.84e2fa2071898p+8, 0x1.83c12fed4be1dp+8,
        0x1.8741c9568132ep+8, 0x1.87174d4b5f42fp+8, 0x1.861d064c19902p+8,
        0x1.866f22c7c826ap+8, 0x1.8838b80deefb8p+8, 0x1.8356bb98ec04cp+8,
        0x1.86439ad469168p+8, 0x1.87d2325a7ddd2p+8, 0x1.85c5729b56c0fp+8,
        0x1.848bd49252de8p+8, 0x1.87f42371f88bep+8, 0x1.88282f6dbbf7ap+8,
        0x1.872bd54e06e09p+8, 0x1.8776a8a2b777cp+8, 0x1.8966660f48733p+8,
        0x1.8408d19676138p+8, 0x1.874a7071b84f8p+8, 0x1.88f3bb115eebp+8,
        0x1.86c17bc8c35b3p+8, 0x1.85616afa91b64p+8, 0x1.892399756363ep+8,
        0x1.89563e0761418p+8, 0x1.884463437fd4ap+8, 0x1.8882e25cbd62fp+8,
        0x1.8a96462e7cddfp+8, 0x1.84c6ac779cf5ap+8, 0x1.885cf18f06245p+8,
        0x1.8a190582a164p+8, 0x1.87a824cbb4a6cp+8, 0x1.862684a78b457p+8,
        0x1.8a4d2c86048ap+8, 0x1.8a7fdd3800a3bp+8, 0x1.894dd7e285357p+8,
        0x1.891e7f1cb382dp+8, 0x1.8bb5402abcaafp+8, 0x1.857765a6e350bp+8,
        0x1.8967c3e2ca139p+8, 0x1.8b3a5d967d651p+8,
     }},
    };
    for (const GridPin &pin : pins) {
        const ThermalModel model = chipModel(ChipFloorplan::grid(pin.cores));
        std::vector<PerStructure<double>> power(pin.cores);
        for (std::size_t c = 0; c < pin.cores; ++c)
            for (std::size_t i = 0; i < num_structures; ++i)
                power[c][i] = 0.4 + 0.1 * c + 0.05 * i;
        const auto t = solve(model, power);
        for (std::size_t c = 0; c < pin.cores; ++c)
            for (std::size_t i = 0; i < num_structures; ++i)
                EXPECT_EQ(t.core_k[c][i],
                          pin.block_k[c * num_structures + i])
                    << pin.cores << " cores, core " << c << " block "
                    << i;
        EXPECT_EQ(t.spreader_k, pin.spreader_k) << pin.cores;
        EXPECT_EQ(t.sink_k, pin.sink_k) << pin.cores;
    }
}

TEST(ChipThermal, ZeroPowerIsAmbientEverywhere)
{
    const ThermalModel model = chipModel(ChipFloorplan::grid(4));
    const auto t =
        solve(model, std::vector<PerStructure<double>>(
                         4, flatPower(0.0)));
    for (std::size_t c = 0; c < 4; ++c)
        for (double temp_k : t.core_k[c])
            EXPECT_NEAR(temp_k, model.params().ambient_k, 1e-6);
    EXPECT_NEAR(t.sink_k, model.params().ambient_k, 1e-6);
}

TEST(ChipThermal, EnergyBalanceAtTheSharedSink)
{
    // All injected power leaves through the one shared sink:
    // T_sink - T_amb = P_total * R_convection, at any core count.
    for (const std::size_t cores : {2u, 4u, 8u}) {
        const ThermalModel model = chipModel(ChipFloorplan::grid(cores));
        std::vector<PerStructure<double>> power;
        double total = 0.0;
        for (std::size_t c = 0; c < cores; ++c) {
            const double per_block = 0.5 + 0.25 * c;
            power.push_back(flatPower(per_block));
            total += per_block * num_structures;
        }
        const auto t = solve(model, power);
        EXPECT_NEAR(t.sink_k - model.params().ambient_k,
                    total * model.params().r_convection, 1e-6)
            << cores << " cores";
    }
}

TEST(ChipThermal, ReciprocityAcrossCores)
{
    // The conductance network is symmetric, so the temperature rise
    // at node j per watt injected at node i equals the rise at i per
    // watt injected at j -- even across different cores. This pins
    // the cross-tile coupling terms to a physical (symmetric)
    // network, not just any perturbation.
    const ThermalModel model = chipModel(ChipFloorplan::grid(2));
    const std::vector<PerStructure<double>> idle(2, flatPower(0.0));
    const auto base = solve(model, idle);

    const std::size_t block_i = 0;
    const std::size_t block_j = num_structures - 1;
    auto bump = [&](std::size_t core, std::size_t block) {
        auto power = idle;
        power[core][block] = 1.0;
        return solve(model, power);
    };
    const auto inject_0 = bump(0, block_i);
    const auto inject_1 = bump(1, block_j);
    const double rise_at_1 =
        inject_0.core_k[1][block_j] - base.core_k[1][block_j];
    const double rise_at_0 =
        inject_1.core_k[0][block_i] - base.core_k[0][block_i];
    EXPECT_GT(rise_at_1, 0.0);
    EXPECT_NEAR(rise_at_1, rise_at_0, 1e-9);
}

TEST(ChipThermal, NeighborPowerWarmsEveryTile)
{
    // Cross-core coupling: raising ONLY core1's power strictly warms
    // every structure of idle core0 (through the die laterally and
    // through the shared spreader), and monotonically -- more
    // neighbor power, more heat.
    const ThermalModel model = chipModel(ChipFloorplan::grid(2));
    auto with_neighbor = [&](double watts) {
        return solve(model, {flatPower(1.0), flatPower(watts)});
    };
    const auto cool = with_neighbor(0.0);
    const auto warm = with_neighbor(2.0);
    const auto hot = with_neighbor(6.0);
    for (std::size_t i = 0; i < num_structures; ++i) {
        EXPECT_GT(warm.core_k[0][i], cool.core_k[0][i]) << i;
        EXPECT_GT(hot.core_k[0][i], warm.core_k[0][i]) << i;
    }
    // And the loaded core is hotter than the idle one.
    EXPECT_GT(hot.maxCore(1), hot.maxCore(0));
}

TEST(ChipThermal, CouplingDecaysWithDistance)
{
    // On an 8-core 4x2 grid, heating one corner core raises the
    // adjacent core's temperature more than the far corner's.
    const ThermalModel model = chipModel(ChipFloorplan::grid(8));
    std::vector<PerStructure<double>> power(8, flatPower(0.0));
    power[0] = flatPower(5.0);
    const auto t = solve(model, power);
    // core1 abuts core0; core7 is the opposite corner.
    EXPECT_GT(t.maxCore(1), t.maxCore(7));
    // Everyone still sits above ambient -- the spreader couples all.
    for (std::size_t c = 0; c < 8; ++c)
        EXPECT_GT(t.maxCore(c), model.params().ambient_k);
}

TEST(ChipThermal, TranslationInvariance)
{
    // The same relative placement at a different chip origin is the
    // same network: absolute coordinates must not leak into the
    // conductances beyond rounding.
    std::string error;
    const auto near_doc = util::parseJson(
        "{\"cores\": [{\"x_mm\": 0.0, \"y_mm\": 0.0},"
        "{\"x_mm\": 4.5, \"y_mm\": 0.0}]}",
        &error);
    const auto far_doc = util::parseJson(
        "{\"cores\": [{\"x_mm\": 16.0, \"y_mm\": 8.0},"
        "{\"x_mm\": 20.5, \"y_mm\": 8.0}]}",
        &error);
    ASSERT_TRUE(near_doc && far_doc) << error;
    const auto near_plan =
        ChipFloorplan::tryParse(*near_doc, "near");
    const auto far_plan = ChipFloorplan::tryParse(*far_doc, "far");
    ASSERT_TRUE(near_plan.ok() && far_plan.ok());

    const ThermalModel near_model = chipModel(near_plan.value());
    const ThermalModel far_model = chipModel(far_plan.value());
    const std::vector<PerStructure<double>> power{flatPower(3.0),
                                                  flatPower(0.5)};
    const auto a = solve(near_model, power);
    const auto b = solve(far_model, power);
    for (std::size_t c = 0; c < 2; ++c)
        for (std::size_t i = 0; i < num_structures; ++i)
            EXPECT_NEAR(a.core_k[c][i], b.core_k[c][i], 1e-9);
}

TEST(ChipThermal, RejectsBadPower)
{
    const ThermalModel model = chipModel(ChipFloorplan::grid(2));
    std::vector<PerStructure<double>> power(2, flatPower(1.0));
    power[1][3] = -0.5;
    auto negative = model.trySteadyState(power);
    ASSERT_FALSE(negative.ok());
    EXPECT_EQ(negative.error().code, util::ErrorCode::InvalidInput);
    EXPECT_NE(negative.error().message.find("core 1"),
              std::string::npos);

    power[1][3] = std::numeric_limits<double>::quiet_NaN();
    auto nan = model.trySteadyState(power);
    ASSERT_FALSE(nan.ok());
    EXPECT_EQ(nan.error().code, util::ErrorCode::NonFiniteValue);
}

TEST(ChipThermal, TransientStepConvergesToCoupledSteadyState)
{
    // The transient integrator runs on the coupled network unchanged:
    // stepping a 2-tile die from ambient under constant, unequal
    // power settles on the coupled steady state, the idle tile
    // included.
    ThermalModel model = chipModel(ChipFloorplan::grid(2));
    model.initialiseFlat(model.params().ambient_k);
    const std::vector<PerStructure<double>> power{flatPower(3.0),
                                                  flatPower(0.5)};
    const auto steady = solve(model, power);
    // The shared sink's RC is minutes; run long enough to settle.
    for (int i = 0; i < 1200; ++i)
        model.step(power, 1.0);
    for (std::size_t c = 0; c < 2; ++c) {
        const auto blocks = model.blockTemps(c);
        for (std::size_t i = 0; i < num_structures; ++i)
            EXPECT_NEAR(blocks[i], steady.core_k[c][i], 0.5)
                << "core " << c << " block " << i;
    }
    EXPECT_NEAR(model.sinkTemp(), steady.sink_k, 0.5);
    EXPECT_GT(model.blockTemps(0)[0], model.blockTemps(1)[0]);
}

} // namespace
} // namespace ramp::cmp
