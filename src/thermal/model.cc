#include "thermal/model.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/logging.hh"
#include "util/telemetry.hh"

namespace ramp {
namespace thermal {

using sim::allStructures;
using sim::num_structures;
using sim::PerStructure;
using sim::structureIndex;

double
SteadyTemps::maxBlock() const
{
    double m = block_k[0];
    for (double t : block_k)
        m = std::max(m, t);
    return m;
}

double
SteadyTemps::avgBlock() const
{
    double sum = 0.0;
    double area = 0.0;
    for (auto id : allStructures()) {
        const double a = sim::structureArea(id);
        sum += block_k[structureIndex(id)] * a;
        area += a;
    }
    return sum / area;
}

double
ChipSteadyTemps::maxCore(std::size_t core) const
{
    double m = core_k[core][0];
    for (double t : core_k[core])
        m = std::max(m, t);
    return m;
}

ThermalModel::ThermalModel(ThermalParams params)
    : ThermalModel(TileLayout(), params)
{
}

ThermalModel::ThermalModel(TileLayout layout, ThermalParams params)
    : params_(params), layout_(std::move(layout)),
      spreader_(blockNodes()), sink_(blockNodes() + 1),
      g_(nodes(), nodes()), g_amb_(nodes(), 0.0), cap_(nodes(), 0.0),
      steady_lu_(util::RampError{util::ErrorCode::SingularSystem,
                                 "thermal network not assembled"}),
      state_(nodes(), params.ambient_k)
{
    if (params_.ambient_k <= 0.0)
        util::fatal("ambient temperature must be positive kelvin");
    if (params_.r_vertical_mm2 <= 0.0 || params_.r_spreader <= 0.0 ||
        params_.r_convection <= 0.0)
        util::fatal("thermal resistances must be positive");
    if (params_.c_sink <= 0.0 || params_.c_spreader <= 0.0 ||
        params_.c_silicon <= 0.0)
        util::fatal("thermal capacitances must be positive");
    if (params_.area_scale <= 0.0)
        util::fatal("thermal area scale must be positive");
    buildNetwork();
}

void
ThermalModel::buildNetwork()
{
    const Floorplan &core = layout_.core();
    const auto structure = [](std::size_t node) {
        return static_cast<sim::StructureId>(node % num_structures);
    };

    // Vertical block -> spreader conduction and block capacitance.
    // Block areas carry the technology area scale; lateral
    // conductances do not (border and distance shrink together).
    for (std::size_t i = 0; i < blockNodes(); ++i) {
        const double area =
            core.block(structure(i)).area() * params_.area_scale;
        const double g = area / params_.r_vertical_mm2;
        g_.at(i, spreader_) += g;
        g_.at(spreader_, i) += g;
        cap_[i] = params_.c_silicon * (area * params_.die_thickness);
    }

    // Lateral block <-> block conduction through the die, within a
    // tile and across abutting tile borders.
    const double kt = params_.k_silicon * params_.die_thickness;
    for (std::size_t i = 0; i < blockNodes(); ++i) {
        const std::size_t ti = i / num_structures;
        for (std::size_t j = i + 1; j < blockNodes(); ++j) {
            const std::size_t tj = j / num_structures;
            if (ti != tj && !layout_.tilesAdjacent(ti, tj))
                continue;
            const double border = layout_.sharedBorder(
                ti, structure(i), tj, structure(j));
            if (border <= 0.0)
                continue;
            const double dist = layout_.centerDistance(
                ti, structure(i), tj, structure(j));
            const double g = kt * border / dist;
            g_.at(i, j) += g;
            g_.at(j, i) += g;
        }
    }

    // Shared spreader -> shared sink, sink -> ambient.
    g_.at(spreader_, sink_) += 1.0 / params_.r_spreader;
    g_.at(sink_, spreader_) += 1.0 / params_.r_spreader;
    g_amb_[sink_] = 1.0 / params_.r_convection;
    cap_[spreader_] = params_.c_spreader;
    cap_[sink_] = params_.c_sink;

    // The steady-state system A*T = b with A_ii = sum_j g_ij +
    // g_amb_i and A_ij = -g_ij depends on G alone: factor it once.
    // Explicit-Euler stability: dt < min_i C_i / (sum_j g_ij + g_amb).
    const std::size_t n = nodes();
    util::Matrix a(n, n);
    max_stable_dt_ = 1e30;
    for (std::size_t i = 0; i < n; ++i) {
        double diag = g_amb_[i];
        for (std::size_t j = 0; j < n; ++j) {
            diag += g_.at(i, j);
            if (i != j && g_.at(i, j) > 0.0)
                a.at(i, j) = -g_.at(i, j);
        }
        a.at(i, i) = diag;
        if (diag > 0.0)
            max_stable_dt_ = std::min(max_stable_dt_, cap_[i] / diag);
    }
    max_stable_dt_ *= 0.5; // safety margin
    steady_lu_ = util::LuFactors::tryFactor(std::move(a));
}

void
ThermalModel::requireOneTile() const
{
    if (numTiles() != 1)
        util::panic(util::cat("per-core thermal call on a ", numTiles(),
                              "-tile network"));
}

util::Result<std::vector<double>>
ThermalModel::trySolve(const std::vector<PerStructure<double>> &power_w) const
{
    if (power_w.size() != numTiles())
        util::panic(util::cat("thermal solve got ", power_w.size(),
                              " power maps for ", numTiles(), " tiles"));

    // b_i = P_i + g_amb_i * T_amb.
    std::vector<double> b(nodes(), 0.0);
    for (std::size_t i = 0; i < nodes(); ++i) {
        b[i] = g_amb_[i] * params_.ambient_k;
        if (i >= blockNodes())
            continue;
        const double p = power_w[i / num_structures][i % num_structures];
        if (!std::isfinite(p))
            return util::RampError{
                util::ErrorCode::NonFiniteValue,
                util::cat("non-finite block power ", p, " at core ",
                          i / num_structures, " structure ",
                          i % num_structures, " in thermal solve")};
        if (p < 0.0)
            return util::RampError{
                util::ErrorCode::InvalidInput,
                util::cat("negative block power ", p, " at core ",
                          i / num_structures, " structure ",
                          i % num_structures, " in thermal solve")};
        b[i] += p;
    }
    if (!steady_lu_)
        return steady_lu_.error();
    return steady_lu_.value().solve(std::move(b));
}

util::Result<ChipSteadyTemps>
ThermalModel::trySteadyState(
    const std::vector<PerStructure<double>> &power_w) const
{
    auto t = trySolve(power_w);
    if (!t)
        return t.error();
    ChipSteadyTemps out;
    out.core_k.resize(numTiles());
    for (std::size_t i = 0; i < blockNodes(); ++i)
        out.core_k[i / num_structures][i % num_structures] = t.value()[i];
    out.spreader_k = t.value()[spreader_];
    out.sink_k = t.value()[sink_];
    return out;
}

util::Result<SteadyTemps>
ThermalModel::trySteadyState(const PerStructure<double> &power_w) const
{
    requireOneTile();
    static const telemetry::Counter solves =
        telemetry::counter("thermal.steady_solves");
    solves.add();

    auto t = trySolve({power_w});
    if (!t)
        return t.error();
    SteadyTemps out;
    for (std::size_t i = 0; i < num_structures; ++i)
        out.block_k[i] = t.value()[i];
    out.spreader_k = t.value()[spreader_];
    out.sink_k = t.value()[sink_];
    return out;
}

SteadyTemps
ThermalModel::steadyState(const PerStructure<double> &power_w) const
{
    auto result = trySteadyState(power_w);
    if (!result)
        util::fatal(util::cat("thermal steady state: ",
                              result.error().str()));
    return std::move(result.value());
}

void
ThermalModel::initialiseSteady(const PerStructure<double> &power_w)
{
    const SteadyTemps s = steadyState(power_w);
    for (std::size_t i = 0; i < num_structures; ++i)
        state_[i] = s.block_k[i];
    state_[spreader_] = s.spreader_k;
    state_[sink_] = s.sink_k;
}

void
ThermalModel::initialiseFlat(double temp_k)
{
    std::fill(state_.begin(), state_.end(), temp_k);
}

std::vector<double>
ThermalModel::derivative(const std::vector<double> &temps,
                         const std::vector<PerStructure<double>> &p) const
{
    std::vector<double> d(nodes(), 0.0);
    for (std::size_t i = 0; i < nodes(); ++i) {
        double q = 0.0;
        if (i < blockNodes())
            q += p[i / num_structures][i % num_structures];
        for (std::size_t j = 0; j < nodes(); ++j) {
            const double g = g_.at(i, j);
            if (g > 0.0)
                q += g * (temps[j] - temps[i]);
        }
        q += g_amb_[i] * (params_.ambient_k - temps[i]);
        d[i] = q / cap_[i];
    }
    return d;
}

void
ThermalModel::step(const std::vector<PerStructure<double>> &power_w,
                   double dt_s)
{
    // !(dt > 0) also rejects NaN; +inf would never drain `remaining`.
    if (!(dt_s > 0.0) || !std::isfinite(dt_s))
        util::fatal(util::cat("thermal step needs a finite dt > 0, got ",
                              dt_s));
    if (power_w.size() != numTiles())
        util::panic(util::cat("thermal step got ", power_w.size(),
                              " power maps for ", numTiles(), " tiles"));
    static const telemetry::Counter steps =
        telemetry::counter("thermal.transient_steps");
    static const telemetry::Counter substeps =
        telemetry::counter("thermal.transient_substeps");
    steps.add();
    std::uint64_t subs = 0;
    double remaining = dt_s;
    while (remaining > 0.0) {
        const double h = std::min(remaining, max_stable_dt_);
        const auto d = derivative(state_, power_w);
        for (std::size_t i = 0; i < nodes(); ++i)
            state_[i] += h * d[i];
        remaining -= h;
        ++subs;
    }
    substeps.add(subs);
}

void
ThermalModel::step(const PerStructure<double> &power_w, double dt_s)
{
    requireOneTile();
    step(std::vector<PerStructure<double>>{power_w}, dt_s);
}

PerStructure<double>
ThermalModel::blockTemps(std::size_t tile) const
{
    PerStructure<double> t{};
    for (std::size_t i = 0; i < num_structures; ++i)
        t[i] = state_[tile * num_structures + i];
    return t;
}

} // namespace thermal
} // namespace ramp
