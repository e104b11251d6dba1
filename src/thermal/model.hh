/**
 * @file
 * Block-level RC thermal model (the HotSpot stand-in).
 *
 * Nodes: one silicon node per floorplan block per core tile
 * (tile-major order), one shared heat-spreader node, and one shared
 * heat-sink node; the ambient is a fixed-temperature boundary. Each
 * block conducts vertically (die + TIM) into the spreader and
 * laterally into adjacent blocks -- within its tile and, on a
 * multi-tile die, across an abutting tile border with the same
 * kt * border / distance conductance, so a core's temperature
 * depends on its neighbors' power. The spreader conducts into the
 * sink, and the sink convects to ambient. A single core is the
 * 1-tile network.
 *
 * The conductance system is constant per (layout, params), so it is
 * assembled and LU-factored once at construction; a steady-state
 * solve only builds the right-hand side and substitutes.
 *
 * Capacitances give the blocks millisecond time constants and the
 * sink a time constant of minutes -- which is why, exactly as the
 * paper describes in Section 6.3, transient simulations must be
 * initialised with a steady-state heat-sink temperature obtained
 * from a first averaging pass.
 */

#pragma once

#include <vector>

#include "sim/structures.hh"
#include "thermal/floorplan.hh"
#include "util/linalg.hh"

namespace ramp {
namespace thermal {

/** Physical constants of the package model. */
struct ThermalParams
{
    /** Ambient (chassis) temperature, K. */
    double ambient_k = 300.0;

    /** Vertical (die + TIM) specific resistance, K*mm^2/W. */
    double r_vertical_mm2 = 21.0;

    /** Spreader -> sink conduction resistance, K/W. */
    double r_spreader = 0.12;

    /** Sink -> ambient convection resistance, K/W. */
    double r_convection = 0.90;

    /** Silicon thermal conductivity, W/(mm*K). */
    double k_silicon = 0.15;

    /** Die thickness, mm (drives lateral conduction and block C). */
    double die_thickness = 0.5;

    /** Silicon volumetric heat capacity, J/(mm^3*K). */
    double c_silicon = 1.63e-3;

    /** Spreader lumped capacitance, J/K. */
    double c_spreader = 3.0;

    /** Sink lumped capacitance, J/K (sets the minutes-scale RC). */
    double c_sink = 180.0;

    /** Die area multiplier relative to the 65 nm reference floorplan
     *  (technology-scaling studies shrink or grow the same layout;
     *  1.0 = the paper's 20.25 mm^2 die). Linear dimensions scale by
     *  its square root; lateral conductances are scale-invariant. */
    double area_scale = 1.0;
};

/** Result of a steady-state solve. */
struct SteadyTemps
{
    sim::PerStructure<double> block_k{};
    double spreader_k = 0.0;
    double sink_k = 0.0;

    /** Hottest block temperature. */
    double maxBlock() const;

    /** Area-weighted average block temperature. */
    double avgBlock() const;
};

/** Result of a multi-tile steady-state solve. */
struct ChipSteadyTemps
{
    /** Per-core block temperatures, indexed by core then structure. */
    std::vector<sim::PerStructure<double>> core_k;
    double spreader_k = 0.0;
    double sink_k = 0.0;

    /** Hottest structure temperature on one core. */
    double maxCore(std::size_t core) const;
};

/**
 * The RC network with steady-state and transient solvers. The
 * per-core overloads (one power map, one set of block temperatures)
 * are for the 1-tile network; calling them on a multi-tile network
 * is a caller bug and panics, as is a per-tile power vector of the
 * wrong length.
 */
class ThermalModel
{
  public:
    /** A single core: one tile at the origin. */
    explicit ThermalModel(ThermalParams params = {});

    /** One core tile per layout tile, sharing spreader and sink. */
    explicit ThermalModel(TileLayout layout, ThermalParams params = {});

    /**
     * Steady-state temperatures for fixed per-tile per-block power
     * maps (W), one map per tile. Does not modify transient state.
     * Negative or non-finite block power is an InvalidInput /
     * NonFiniteValue error (a corrupted power sample must not crash
     * the control loop); a singular conductance system is propagated
     * as SingularSystem.
     */
    [[nodiscard]] util::Result<ChipSteadyTemps> trySteadyState(
        const std::vector<sim::PerStructure<double>> &power_w) const;

    /** The 1-tile steady state; counts thermal.steady_solves. */
    [[nodiscard]] util::Result<SteadyTemps>
    trySteadyState(const sim::PerStructure<double> &power_w) const;

    /**
     * trySteadyState that treats any failure as unrecoverable (calls
     * fatal). For callers whose power map comes from validated model
     * output rather than a fault-prone measurement path.
     */
    SteadyTemps steadyState(const sim::PerStructure<double> &power_w) const;

    /**
     * Initialise the transient state to the steady state of the given
     * power map (the paper's two-pass heat-sink initialisation).
     */
    void initialiseSteady(const sim::PerStructure<double> &power_w);

    /** Set every node (including spreader and sink) to a temperature. */
    void initialiseFlat(double temp_k);

    /**
     * Advance the transient state by dt seconds with constant
     * per-tile power. Internally sub-steps for stability. A
     * non-finite or non-positive dt is fatal.
     */
    void step(const std::vector<sim::PerStructure<double>> &power_w,
              double dt_s);

    /** The 1-tile step. */
    void step(const sim::PerStructure<double> &power_w, double dt_s);

    /** Current transient block temperatures of one tile. */
    sim::PerStructure<double> blockTemps(std::size_t tile = 0) const;

    /** Current transient sink temperature. */
    double sinkTemp() const { return state_[sink_]; }

    /** Current transient spreader temperature. */
    double spreaderTemp() const { return state_[spreader_]; }

    std::size_t numTiles() const { return layout_.numTiles(); }
    const ThermalParams &params() const { return params_; }
    const Floorplan &floorplan() const { return layout_.core(); }

  private:
    std::size_t blockNodes() const
    {
        return numTiles() * sim::num_structures;
    }
    std::size_t nodes() const { return blockNodes() + 2; }
    void buildNetwork();
    void requireOneTile() const;
    [[nodiscard]] util::Result<std::vector<double>>
    trySolve(const std::vector<sim::PerStructure<double>> &power_w) const;
    std::vector<double>
    derivative(const std::vector<double> &temps,
               const std::vector<sim::PerStructure<double>> &p) const;

    ThermalParams params_;
    TileLayout layout_;

    std::size_t spreader_;  ///< Node index of the shared spreader.
    std::size_t sink_;      ///< Node index of the shared sink.

    /** Conductance matrix G (W/K), nodes x nodes, ambient folded into
     *  g_amb_. G is symmetric with zero diagonal (link conductances). */
    util::Matrix g_;
    std::vector<double> g_amb_;  ///< Node -> ambient conductance.
    std::vector<double> cap_;    ///< Node capacitance, J/K.

    /** LU factors of the steady-state system A = diag(sum_j g_ij +
     *  g_amb_i) - G, or the SingularSystem error factoring hit. */
    util::Result<util::LuFactors> steady_lu_;

    std::vector<double> state_;  ///< Transient node temperatures, K.
    double max_stable_dt_;       ///< Explicit-Euler stability bound.
};

} // namespace thermal
} // namespace ramp

