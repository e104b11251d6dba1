#include "workload/trace_gen.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace ramp {
namespace workload {

using sim::Uop;
using sim::UopClass;

namespace {

/** Salt the seed with the profile name so every app gets its own
 *  decorrelated stream even under a common experiment seed. */
std::uint64_t
saltSeed(std::uint64_t seed, const std::string &name)
{
    std::uint64_t h = 1469598103934665603ull; // FNV-1a
    for (char c : name)
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    return seed ^ h;
}

} // namespace

TraceGenerator::TraceGenerator(const AppProfile &profile,
                               std::uint64_t seed)
    : profile_(profile), rng_(saltSeed(seed, profile.name)),
      code_base_(0x0040'0000), data_base_(0x1000'0000)
{
    profile_.validate();
    cur_pc_ = code_base_;
    phase_left_ = profile_.phases[0].length_uops;
    shadow_stack_.reserve(profile_.branch.max_call_depth);
    dep_p_ = std::min(1.0, 1.0 / profile_.dep.mean_dist);
    dep_log1m_p_ = std::log1p(-dep_p_);

    // Build the static branch sites: fixed pc, fixed taken target,
    // per-site bias drawn once.
    const auto &br = profile_.branch;
    const std::uint64_t code_slots = profile_.code_bytes / 4;
    branches_.reserve(br.num_static);
    for (std::uint32_t i = 0; i < br.num_static; ++i) {
        BranchSite site;
        site.pc = code_base_ + rng_.below(code_slots) * 4;
        // Taken targets are mostly short backward jumps (loops), with
        // occasional long jumps -- keeps I-cache locality realistic.
        const std::uint64_t span =
            rng_.chance(0.8) ? std::min<std::uint64_t>(1024,
                                                       profile_.code_bytes)
                             : profile_.code_bytes;
        const std::uint64_t off = rng_.below(span / 4) * 4;
        site.target =
            site.pc >= code_base_ + off ? site.pc - off
                                        : code_base_ + off;
        if (rng_.chance(br.easy_frac)) {
            site.taken_prob =
                rng_.chance(0.7) ? br.easy_bias : 1.0 - br.easy_bias;
        } else {
            site.taken_prob = br.hard_bias;
        }
        branches_.push_back(site);
    }
    // Control flow is emitted in address order: the next branch
    // encountered is the first site at or after the current pc.
    std::sort(branches_.begin(), branches_.end(),
              [](const BranchSite &a, const BranchSite &b) {
                  return a.pc < b.pc;
              });
}

void
TraceGenerator::advancePhase()
{
    if (phase_left_ > 0)
        return;
    phase_idx_ = (phase_idx_ + 1) % profile_.phases.size();
    phase_left_ = phase().length_uops;
    stream_pos_ = 0;
}

UopClass
TraceGenerator::pickClass()
{
    const UopMix &mix = phase().mix;
    double r = rng_.uniform();
    auto take = [&](double f) {
        if (r < f)
            return true;
        r -= f;
        return false;
    };
    if (take(mix.load))
        return UopClass::Load;
    if (take(mix.store))
        return UopClass::Store;
    if (take(mix.branch))
        return UopClass::Branch;
    if (take(mix.call))
        return UopClass::Call; // resolved to Call/Return below
    if (take(mix.fp_op))
        return UopClass::FpOp;
    if (take(mix.fp_div))
        return UopClass::FpDiv;
    if (take(mix.int_mul))
        return UopClass::IntMul;
    if (take(mix.int_div))
        return UopClass::IntDiv;
    return UopClass::IntAlu;
}

std::uint64_t
TraceGenerator::pickDataAddr(bool &advance_stream)
{
    const MemBehavior &mem = phase().mem;
    advance_stream = false;
    const double r = rng_.uniform();
    if (r < mem.hot_frac) {
        // Hot region: stack and loop-carried state at the bottom of
        // the working set.
        return data_base_ + rng_.below(mem.hot_bytes);
    }
    if (r < mem.hot_frac + mem.random_frac) {
        return data_base_ + rng_.below(mem.working_set_bytes);
    }
    advance_stream = true;
    // The streaming walk covers the working set above the hot region.
    return data_base_ + mem.hot_bytes + stream_pos_;
}

void
TraceGenerator::fillDeps(Uop &u)
{
    const DepBehavior &dep = profile_.dep;
    const double scale =
        sim::isCtrlClass(u.cls) ? dep.ctrl_dep_scale : 1.0;
    auto dist = [&] {
        const std::uint64_t d = dep_p_ > 0.0 && dep_p_ < 1.0
                                    ? rng_.geometricLog1m(dep_log1m_p_)
                                    : rng_.geometric(dep_p_);
        return static_cast<std::uint16_t>(std::min<std::uint64_t>(d, 500));
    };
    if (rng_.chance(dep.p_src1 * scale))
        u.src_dist[0] = dist();
    if (rng_.chance(dep.p_src2 * scale))
        u.src_dist[1] = dist();
}

Uop
TraceGenerator::next()
{
    advancePhase();
    --phase_left_;
    ++produced_;

    Uop u;
    u.cls = pickClass();
    u.pc = cur_pc_;

    // Default: fall through to the next word, wrapping in the region.
    std::uint64_t next_pc = cur_pc_ + 4;
    if (next_pc >= code_base_ + profile_.code_bytes)
        next_pc = code_base_;

    switch (u.cls) {
      case UopClass::Branch: {
        // The branch reached by sequential execution from cur_pc: the
        // first site at or after it (wrapping). This keeps the
        // dynamic code footprint concentrated in hot neighbourhoods
        // even when the static footprint is large, which is what
        // keeps real programs' I-cache miss rates low.
        auto it = std::lower_bound(
            branches_.begin(), branches_.end(), cur_pc_,
            [](const BranchSite &s, std::uint64_t pc) {
                return s.pc < pc;
            });
        if (it == branches_.end())
            it = branches_.begin();
        const BranchSite &site = *it;
        u.pc = site.pc;
        u.taken = rng_.chance(site.taken_prob);
        next_pc = u.taken ? site.target : site.pc + 4;
        break;
      }
      case UopClass::Call: {
        const bool can_call =
            shadow_stack_.size() < profile_.branch.max_call_depth;
        const bool do_return =
            !shadow_stack_.empty() &&
            (!can_call || rng_.chance(0.5));
        if (do_return) {
            u.cls = UopClass::Return;
            u.addr = shadow_stack_.back();
            shadow_stack_.pop_back();
            next_pc = u.addr;
        } else {
            u.addr = cur_pc_ + 4; // return address
            shadow_stack_.push_back(u.addr);
            // Jump to a function body somewhere in the code region.
            next_pc = code_base_ +
                      rng_.below(profile_.code_bytes / 4) * 4;
        }
        break;
      }
      case UopClass::Load:
      case UopClass::Store: {
        bool advance = false;
        u.addr = pickDataAddr(advance);
        if (advance) {
            const auto span = phase().mem.working_set_bytes -
                              phase().mem.hot_bytes;
            stream_pos_ += phase().mem.stride_bytes;
            if (stream_pos_ >= span)
                stream_pos_ = 0;
        }
        break;
      }
      default:
        break;
    }

    fillDeps(u);
    u.writes_int = sim::isIntClass(u.cls) || u.cls == UopClass::Load;
    u.writes_fp = sim::isFpClass(u.cls);

    cur_pc_ = next_pc;
    return u;
}

} // namespace workload
} // namespace ramp
