/**
 * @file
 * Synthetic micro-op stream generator.
 *
 * Implements sim::UopSource from an AppProfile. The generator produces
 * a statistically stationary (per phase) stream with:
 *  - per-phase instruction mix;
 *  - geometric register-dependence distances;
 *  - a fixed set of static branch sites with per-site bias, fixed
 *    branch targets within the code footprint (so the I-cache and the
 *    bimodal-agree predictor see realistic locality);
 *  - matched call/return pairs against an internal shadow stack (so
 *    the RAS behaves, and over-deep recursion mispredicts);
 *  - a data stream mixing a sequential strided walk with uniform
 *    random accesses inside the phase working set.
 *
 * Everything is a deterministic function of the profile and seed.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "sim/uop.hh"
#include "util/random.hh"
#include "workload/profile.hh"

namespace ramp {
namespace workload {

/** Deterministic synthetic trace source for one application. */
class TraceGenerator : public sim::UopSource
{
  public:
    /**
     * @param profile Application description (validated here).
     * @param seed Stream seed; the same (profile, seed) pair always
     *        produces the identical stream.
     */
    TraceGenerator(const AppProfile &profile, std::uint64_t seed = 1);

    /** Produce the next micro-op in program order. */
    sim::Uop next() override;

    /** Micro-ops produced so far. */
    std::uint64_t produced() const { return produced_; }

    /** Index of the phase the generator is currently in. */
    std::size_t currentPhase() const { return phase_idx_; }

  private:
    struct BranchSite
    {
        std::uint64_t pc;      ///< Site address in the code region.
        std::uint64_t target;  ///< Taken target (fixed per site).
        double taken_prob;     ///< Per-site bias.
    };

    const Phase &phase() const { return profile_.phases[phase_idx_]; }
    void advancePhase();
    sim::UopClass pickClass();
    std::uint64_t pickDataAddr(bool &advance_stream);
    void fillDeps(sim::Uop &u);

    AppProfile profile_;
    util::Rng rng_;

    std::vector<BranchSite> branches_;
    std::vector<std::uint64_t> shadow_stack_;  ///< Call return addrs.

    std::size_t phase_idx_ = 0;
    std::uint64_t phase_left_ = 0;
    std::uint64_t produced_ = 0;

    std::uint64_t cur_pc_;          ///< Next fetch address.
    std::uint64_t code_base_;
    std::uint64_t data_base_;
    std::uint64_t stream_pos_ = 0;  ///< Sequential-walk offset.

    double dep_p_ = 1.0;        ///< Geometric dependence-distance p.
    double dep_log1m_p_ = 0.0;  ///< log1p(-dep_p_), computed once.
};

} // namespace workload
} // namespace ramp

