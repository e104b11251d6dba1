#include "replay.hh"

#include <cstring>

#include "harness.hh"

namespace perfbench {

ChunkedReplay::ChunkedReplay(const workload::AppProfile &app,
                             std::uint64_t seed,
                             std::uint64_t parent_span)
    : gen_(app, seed), parent_span_(parent_span)
{
    buf_.reserve(replay_chunk);
}

void
ChunkedReplay::refill()
{
    Span span("workload.refill", "workload", parent_span_);
    buf_.clear();
    for (std::size_t i = 0; i < replay_chunk; ++i)
        buf_.push_back(gen_.next());
    pos_ = 0;
    gen_s_ += span.elapsed();
}

sim::Uop
ChunkedReplay::next()
{
    if (pos_ == buf_.size())
        refill();
    ++served_;
    return buf_[pos_++];
}

util::Result<core::OperatingPoint>
decomposedEvaluate(const core::Evaluator &evaluator,
                   const sim::MachineConfig &cfg,
                   const workload::AppProfile &app, ReplayTimes &times,
                   std::uint64_t parent_span)
{
    const core::EvalParams &params = evaluator.params();
    Span point("core.evaluate", "core", parent_span);
    ChunkedReplay source(app, params.seed, point.id());
    sim::Core core(cfg, source);

    const auto run = [&](std::uint64_t uops) {
        const double gen0 = source.genSeconds();
        Span span("sim.runUops", "sim", point.id());
        core.runUops(uops);
        times.sim_self_s += span.elapsed() - (source.genSeconds() - gen0);
    };

    run(params.warmup_uops);
    core.takeInterval();
    core.resetStats();

    const auto &mem = core.memory();
    const auto l1d_acc0 = mem.l1d().accesses();
    const auto l1d_miss0 = mem.l1d().misses();
    const auto l1i_acc0 = mem.l1i().accesses();
    const auto l1i_miss0 = mem.l1i().misses();
    const auto l2_acc0 = mem.l2().accesses();
    const auto l2_miss0 = mem.l2().misses();

    run(params.measure_uops);
    const sim::ActivitySample activity = core.takeInterval();
    times.gen_s += source.genSeconds();
    times.uops += source.served();

    Span converge("core.converge", "core", point.id());
    auto result = evaluator.tryConvergeThermal(cfg, activity, core.stats());
    times.converge_s += converge.elapsed();
    if (!result)
        return result.error();
    core::OperatingPoint &op = result.value();
    const auto ratio = [](std::uint64_t miss, std::uint64_t acc) {
        return acc ? static_cast<double>(miss) / static_cast<double>(acc)
                   : 0.0;
    };
    op.l1d_miss_ratio = ratio(mem.l1d().misses() - l1d_miss0,
                              mem.l1d().accesses() - l1d_acc0);
    op.l1i_miss_ratio = ratio(mem.l1i().misses() - l1i_miss0,
                              mem.l1i().accesses() - l1i_acc0);
    op.l2_miss_ratio = ratio(mem.l2().misses() - l2_miss0,
                             mem.l2().accesses() - l2_acc0);
    return result;
}

namespace {

template <typename T>
bool
sameBits(const T &a, const T &b)
{
    return std::memcmp(&a, &b, sizeof(T)) == 0;
}

} // namespace

bool
sameOperatingPoint(const core::OperatingPoint &a,
                   const core::OperatingPoint &b)
{
    const auto &sa = a.stats;
    const auto &sb = b.stats;
    return a.activity.cycles == b.activity.cycles &&
           a.activity.retired == b.activity.retired &&
           sameBits(a.activity.activity, b.activity.activity) &&
           sa.cycles == sb.cycles && sa.fetched == sb.fetched &&
           sa.retired == sb.retired && sa.dispatched == sb.dispatched &&
           sa.issued == sb.issued && sa.branches == sb.branches &&
           sa.mispredicts == sb.mispredicts &&
           sa.ras_returns == sb.ras_returns && sa.loads == sb.loads &&
           sa.stores == sb.stores &&
           sameBits(a.power.dynamic_w, b.power.dynamic_w) &&
           sameBits(a.power.leakage_w, b.power.leakage_w) &&
           sameBits(a.temps_k, b.temps_k) &&
           sameBits(a.sink_temp_k, b.sink_temp_k) &&
           a.converged == b.converged &&
           sameBits(a.l1d_miss_ratio, b.l1d_miss_ratio) &&
           sameBits(a.l1i_miss_ratio, b.l1i_miss_ratio) &&
           sameBits(a.l2_miss_ratio, b.l2_miss_ratio);
}

} // namespace perfbench
