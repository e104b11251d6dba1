/**
 * @file
 * The decomposed single-core evaluation the traced explore_cold run
 * uses to split an evaluation's time by layer.
 *
 * core::Evaluator::tryEvaluate runs trace generation, the timing
 * simulator and the power/thermal fixed point as one call. The replay
 * makes the same public calls one by one -- a TraceGenerator behind a
 * chunked buffer whose refills are timed, sim::Core::runUops, and
 * Evaluator::tryConvergeThermal -- so each layer's time is measured
 * at its boundary. The core sees the identical micro-op stream, so
 * the replay's operating point is bit-identical to tryEvaluate's;
 * sameOperatingPoint() is how the benchmark proves it on every run.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "core/evaluator.hh"
#include "sim/uop.hh"
#include "workload/profile.hh"
#include "workload/trace_gen.hh"

namespace perfbench {

using namespace ramp;

/** Uops generated per buffer refill. */
inline constexpr std::size_t replay_chunk = 4096;

/** A TraceGenerator served through a buffer refilled in chunks, with
 *  the refill time accumulated (and spanned under @p parent). */
class ChunkedReplay : public sim::UopSource
{
  public:
    ChunkedReplay(const workload::AppProfile &app, std::uint64_t seed,
                  std::uint64_t parent_span = 0);

    sim::Uop next() override;

    /** Seconds spent generating micro-ops. */
    double genSeconds() const { return gen_s_; }
    /** Micro-ops handed to the core. */
    std::uint64_t served() const { return served_; }

  private:
    void refill();

    workload::TraceGenerator gen_;
    std::vector<sim::Uop> buf_;
    std::size_t pos_ = 0;
    std::uint64_t served_ = 0;
    double gen_s_ = 0.0;
    std::uint64_t parent_span_;
};

/** Layer times of one decomposed evaluation, seconds. */
struct ReplayTimes
{
    double gen_s = 0.0;      ///< Trace generation (buffer refills).
    double sim_self_s = 0.0; ///< runUops minus the refills inside.
    double converge_s = 0.0; ///< Power/thermal fixed point.
    std::uint64_t uops = 0;  ///< Micro-ops the core consumed.
};

/**
 * Evaluator::tryEvaluate, one layer call at a time. Adds its layer
 * times to @p times and records spans under @p parent_span.
 */
util::Result<core::OperatingPoint>
decomposedEvaluate(const core::Evaluator &evaluator,
                   const sim::MachineConfig &cfg,
                   const workload::AppProfile &app, ReplayTimes &times,
                   std::uint64_t parent_span = 0);

/** Bitwise equality of everything an evaluation produces. */
bool sameOperatingPoint(const core::OperatingPoint &a,
                        const core::OperatingPoint &b);

} // namespace perfbench
