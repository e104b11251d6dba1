#include "sim/core.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"
#include "util/telemetry.hh"

namespace ramp {
namespace sim {

Core::Core(const MachineConfig &cfg, UopSource &source)
    : cfg_(cfg), source_(source), mem_(cfg), bpred_(cfg.bpred_entries),
      ras_(cfg.ras_entries), int_fu_busy_(cfg.num_int_alu, 0),
      fp_fu_busy_(cfg.num_fpu, 0), agen_busy_(cfg.num_agen, 0)
{
    cfg_.validate();
    const std::uint64_t ring = std::bit_ceil(cfg_.window_size);
    window_.resize(ring);
    window_mask_ = ring - 1;
    ready_.assign((ring + 63) / 64, 0);
    const std::uint64_t fetch_ring = std::bit_ceil(cfg_.fetch_buffer);
    fetch_buffer_.resize(fetch_ring);
    fetch_mask_ = fetch_ring - 1;
    wheel_head_.fill(no_link);
    due_.reserve(ring);
    // The rename pool: physical registers beyond the 64+64 architected
    // state. The window can never hold more writers than this.
    free_int_regs_ = cfg_.int_regs > 64 ? cfg_.int_regs - 64 : 1;
    free_fp_regs_ = cfg_.fp_regs > 64 ? cfg_.fp_regs - 64 : 1;
}

namespace {

/** Per-run-call throughput counters, fed from CoreStats deltas so
 *  the per-cycle loop itself stays untouched. */
struct CoreMetrics
{
    telemetry::Counter run_calls = telemetry::counter("sim.run_calls");
    telemetry::Counter cycles = telemetry::counter("sim.cycles");
    /** Idle cycles jumped over rather than stepped (part of cycles). */
    telemetry::Counter skipped_cycles =
        telemetry::counter("sim.skipped_cycles");
    telemetry::Counter fetched =
        telemetry::counter("sim.uops_fetched");
    telemetry::Counter issued = telemetry::counter("sim.uops_issued");
    telemetry::Counter retired =
        telemetry::counter("sim.uops_retired");
    telemetry::Counter branches = telemetry::counter("sim.branches");
    telemetry::Counter mispredicts =
        telemetry::counter("sim.mispredicts");
    telemetry::Counter intervals = telemetry::counter("sim.intervals");
    /** Retired IPC of each closed measurement interval. */
    telemetry::Histogram interval_ipc =
        telemetry::histogram("sim.interval_ipc", 0.0, 8.0, 32);
    /** L1D MSHR occupancy sampled when an interval closes. */
    telemetry::Histogram mshr_occupancy =
        telemetry::histogram("sim.mshr_occupancy", 0.0, 16.0, 16);
};

CoreMetrics &
coreMetrics()
{
    static CoreMetrics m;
    return m;
}

} // namespace

void
Core::run(std::uint64_t cycles)
{
    auto &metrics = coreMetrics();
    metrics.run_calls.add();
    const CoreStats before = stats_;
    const std::uint64_t end = cycle_ + cycles;
    std::uint64_t skipped = 0;
    while (cycle_ < end)
        if (!stepCycle())
            skipped += skipIdle(end);
    metrics.cycles.add(stats_.cycles - before.cycles);
    metrics.skipped_cycles.add(skipped);
    metrics.fetched.add(stats_.fetched - before.fetched);
    metrics.issued.add(stats_.issued - before.issued);
    metrics.retired.add(stats_.retired - before.retired);
    metrics.branches.add(stats_.branches - before.branches);
    metrics.mispredicts.add(stats_.mispredicts - before.mispredicts);
}

void
Core::runUops(std::uint64_t uops)
{
    auto &metrics = coreMetrics();
    metrics.run_calls.add();
    const CoreStats before = stats_;

    const std::uint64_t target = stats_.retired + uops;
    const std::uint64_t cycle_bound = cycle_ + uops * 1000 + 10000;
    std::uint64_t skipped = 0;
    while (stats_.retired < target) {
        if (cycle_ >= cycle_bound) {
            util::warn(util::cat("runUops safety bound hit at cycle ",
                                 cycle_, "; machine may be deadlocked"));
            break;
        }
        if (!stepCycle())
            skipped += skipIdle(cycle_bound);
    }

    metrics.cycles.add(stats_.cycles - before.cycles);
    metrics.skipped_cycles.add(skipped);
    metrics.fetched.add(stats_.fetched - before.fetched);
    metrics.issued.add(stats_.issued - before.issued);
    metrics.retired.add(stats_.retired - before.retired);
    metrics.branches.add(stats_.branches - before.branches);
    metrics.mispredicts.add(stats_.mispredicts - before.mispredicts);
}

bool
Core::stepCycle()
{
    // Every stage runs every cycle; `|` keeps the calls unconditional.
    const bool progress =
        complete() | retire() | issue() | dispatch() | fetch();

    ++interval_.cycles;
    ++stats_.cycles;
    ++cycle_;
    return progress;
}

std::uint64_t
Core::nextEventCycle() const
{
    std::uint64_t next = ~std::uint64_t{0};

    // The earliest completion: the first non-empty wheel bucket at or
    // after now's bucket, then the far heap. A ready op blocked on a
    // busy unit needs no event of its own: after a cycle with no
    // issue, a pipelined unit or AGEN is already free, and an
    // unpipelined unit or an L1D MSHR is held exactly until the
    // completion of the op that took it.
    const std::uint64_t now_bucket = cycle_ & (wheel_size - 1);
    for (std::uint64_t i = 0; i <= wheel_bits_.size(); ++i) {
        const std::uint64_t w = (now_bucket / 64 + i) % wheel_bits_.size();
        std::uint64_t bits = wheel_bits_[w];
        if (i == 0)
            bits &= ~std::uint64_t{0} << (now_bucket % 64);
        if (bits) {
            const std::uint64_t b = w * 64 + std::countr_zero(bits);
            next = cycle_ + ((b - now_bucket) & (wheel_size - 1));
            break;
        }
    }
    if (!far_completions_.empty())
        next = std::min(next, far_completions_.top().first);

    // Fetch resumes after an I-miss fill, in a duty-on cycle, unless it
    // waits on a mispredict (a completion) or a full buffer (dispatch).
    if (redirect_seq_ == 0 && next_seq_ - tail_seq_ < cfg_.fetch_buffer) {
        std::uint64_t t = std::max(cycle_, fetch_resume_cycle_);
        if ((t & 7) >= cfg_.fetch_duty_x8)
            t = (t | 7) + 1;
        next = std::min(next, t);
    }
    return next;
}

std::uint64_t
Core::skipIdle(std::uint64_t limit)
{
    // The cycles before the next event would repeat the idle cycle
    // just stepped exactly; only the cycle counters move.
    const std::uint64_t target = std::min(nextEventCycle(), limit);
    if (target <= cycle_)
        return 0;
    const std::uint64_t n = target - cycle_;
    cycle_ = target;
    stats_.cycles += n;
    interval_.cycles += n;
    return n;
}

void
Core::scheduleCompletion(std::uint32_t idx)
{
    WinEntry &e = window_[idx];
    if (e.done_cycle <= cycle_ || e.done_cycle - cycle_ >= wheel_size) {
        far_completions_.emplace(e.done_cycle, e.seq);
        return;
    }
    const std::uint64_t b = e.done_cycle & (wheel_size - 1);
    e.wheel_next = wheel_head_[b];
    wheel_head_[b] = idx;
    wheel_bits_[b / 64] |= std::uint64_t{1} << (b % 64);
}

bool
Core::complete()
{
    // Every wheel entry in now's bucket is due now. Completions are
    // handled in (done_cycle, seq) order: the predictor updates and
    // the redirect check depend on it.
    due_.clear();
    const std::uint64_t b = cycle_ & (wheel_size - 1);
    if (wheel_head_[b] != no_link) {
        for (std::uint32_t i = wheel_head_[b]; i != no_link;
             i = window_[i].wheel_next)
            due_.emplace_back(window_[i].done_cycle, window_[i].seq);
        wheel_head_[b] = no_link;
        wheel_bits_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
    }
    while (!far_completions_.empty() &&
           far_completions_.top().first <= cycle_) {
        due_.push_back(far_completions_.top());
        far_completions_.pop();
    }
    if (due_.size() > 1)
        std::sort(due_.begin(), due_.end());

    for (const auto &[done, s] : due_) {
        WinEntry &e = slot(s);
        e.state = State::Done;

        // Wake consumers whose last outstanding producer this was.
        for (std::uint32_t link = e.wake_head; link != no_link;) {
            const std::uint32_t c = link >> 1;
            WinEntry &ce = window_[c];
            link = ce.wake_next[link & 1];
            if (--ce.remaining == 0 && ce.state == State::Waiting)
                ready_[c / 64] |= std::uint64_t{1} << (c % 64);
        }
        e.wake_head = no_link;

        if (isCtrlClass(e.uop.cls)) {
            ++stats_.branches;
            if (e.uop.cls == UopClass::Branch)
                bpred_.update(e.uop.pc, e.uop.taken);
            if (s == redirect_seq_) {
                ++stats_.mispredicts;
                redirect_seq_ = 0;
                fetch_resume_cycle_ = std::max(
                    fetch_resume_cycle_, done + cfg_.mispredict_penalty);
            }
        }
    }
    return !due_.empty();
}

bool
Core::retire()
{
    std::uint32_t n = 0;
    while (n < cfg_.retire_width && head_seq_ < tail_seq_) {
        WinEntry &e = slot(head_seq_);
        if (e.state != State::Done)
            break;
        if (e.in_lsq) {
            --lsq_used_;
            if (e.uop.cls == UopClass::Load)
                ++stats_.loads;
            else
                ++stats_.stores;
        }
        if (e.uop.writes_int)
            ++free_int_regs_;
        if (e.uop.writes_fp)
            ++free_fp_regs_;
        ++head_seq_;
        ++n;
        ++stats_.retired;
        ++interval_.retired;
    }
    return n != 0;
}

bool
Core::issue()
{
    std::uint32_t issued = 0;
    std::uint32_t dports_used = 0;
    const std::uint32_t width = cfg_.issueWidth();

    auto find_free = [&](std::vector<std::uint64_t> &pool)
        -> std::uint64_t * {
        for (auto &busy : pool)
            if (busy <= cycle_)
                return &busy;
        return nullptr;
    };

    // Issue ring slot idx unless its resources are taken.
    auto try_issue = [&](std::uint32_t idx) {
        WinEntry &e = window_[idx];
        const UopClass cls = e.uop.cls;
        if (isMemClass(cls)) {
            if (dports_used >= cfg_.l1d_ports ||
                !mem_.mshrAvailable(cycle_))
                return;
            auto *agen = find_free(agen_busy_);
            if (!agen)
                return;
            *agen = cycle_ + 1;
            ++dports_used;
            ++interval_.l1d_acc;
            const auto res = mem_.dataAccess(
                e.uop.addr, cls == UopClass::Store, cycle_ + 1);
            e.done_cycle = res.done_cycle;
        } else if (isFpClass(cls)) {
            auto *fu = find_free(fp_fu_busy_);
            if (!fu)
                return;
            if (cls == UopClass::FpDiv) {
                // Not pipelined: the unit is held for the full op.
                *fu = cycle_ + cfg_.lat_fp_div;
                e.done_cycle = cycle_ + cfg_.lat_fp_div;
                interval_.fp_fu_busy += cfg_.lat_fp_div;
            } else {
                *fu = cycle_ + 1;
                e.done_cycle = cycle_ + cfg_.lat_fp;
                interval_.fp_fu_busy += 1;
            }
        } else {
            // Integer and control ops share the integer units.
            auto *fu = find_free(int_fu_busy_);
            if (!fu)
                return;
            std::uint32_t lat = cfg_.lat_int_add;
            bool pipelined = true;
            if (cls == UopClass::IntMul) {
                lat = cfg_.lat_int_mul;
            } else if (cls == UopClass::IntDiv) {
                lat = cfg_.lat_int_div;
                pipelined = false;
            }
            *fu = pipelined ? cycle_ + 1 : cycle_ + lat;
            e.done_cycle = cycle_ + lat;
            interval_.int_fu_busy += pipelined ? 1 : lat;
        }

        e.state = State::Issued;
        scheduleCompletion(idx);
        ready_[idx / 64] &= ~(std::uint64_t{1} << (idx % 64));
        ++issued;
        ++stats_.issued;
        ++interval_.iwin_ops;
    };

    // Oldest first: scan the ready bits from the head's slot up to the
    // end of the ring, then wrap to the slots below it.
    const std::uint32_t start = ringIndex(head_seq_);
    const std::size_t words = ready_.size();
    const std::uint64_t below_start =
        (std::uint64_t{1} << (start % 64)) - 1;
    for (std::size_t i = 0; i <= words && issued < width; ++i) {
        const std::size_t w = (start / 64 + i) % words;
        std::uint64_t bits = ready_[w];
        if (i == 0)
            bits &= ~below_start;
        else if (i == words)
            bits &= below_start;
        while (bits && issued < width) {
            try_issue(static_cast<std::uint32_t>(
                w * 64 + std::countr_zero(bits)));
            bits &= bits - 1;
        }
    }
    return issued != 0;
}

bool
Core::dispatch()
{
    std::uint32_t n = 0;
    while (n < cfg_.fetch_width && tail_seq_ < next_seq_) {
        if (tail_seq_ - head_seq_ >= cfg_.window_size)
            break; // window full
        const Uop &u = fetch_buffer_[tail_seq_ & fetch_mask_];

        if (isMemClass(u.cls) && lsq_used_ >= cfg_.mem_queue)
            break;
        if (u.writes_int && free_int_regs_ == 0)
            break;
        if (u.writes_fp && free_fp_regs_ == 0)
            break;

        const std::uint64_t seq = tail_seq_;
        const std::uint32_t idx = ringIndex(seq);
        WinEntry &e = window_[idx];
        e.uop = u;
        e.seq = seq;
        e.state = State::Waiting;
        e.done_cycle = 0;
        e.in_lsq = false;
        e.remaining = 0;
        e.wake_head = no_link;

        std::uint32_t reads = 0;
        for (std::uint32_t i = 0; i < 2; ++i) {
            const std::uint16_t d = u.src_dist[i];
            if (d == 0 || d > seq)
                continue; // no register operand
            ++reads;
            const std::uint64_t p = seq - d;
            if (p < head_seq_)
                continue; // producer already retired
            WinEntry &pe = slot(p);
            if (pe.state != State::Done) {
                e.wake_next[i] = pe.wake_head;
                pe.wake_head = idx << 1 | i;
                ++e.remaining;
            }
        }
        if (e.remaining == 0)
            ready_[idx / 64] |= std::uint64_t{1} << (idx % 64);

        if (isMemClass(u.cls)) {
            e.in_lsq = true;
            ++lsq_used_;
        }
        if (u.writes_int)
            --free_int_regs_;
        if (u.writes_fp)
            --free_fp_regs_;

        // Register-file activity: AGEN and integer/control ops read
        // the integer file; FP ops read the FP file.
        if (isFpClass(u.cls)) {
            interval_.fp_reg_ops += reads + (u.writes_fp ? 1 : 0);
            interval_.int_reg_ops += u.writes_int ? 1 : 0;
        } else {
            interval_.int_reg_ops += reads + (u.writes_int ? 1 : 0);
            interval_.fp_reg_ops += u.writes_fp ? 1 : 0;
        }

        ++tail_seq_;
        ++n;
        ++stats_.dispatched;
        ++interval_.iwin_ops;
    }
    return n != 0;
}

bool
Core::fetch()
{
    if (redirect_seq_ != 0 || cycle_ < fetch_resume_cycle_)
        return false;
    // DTM fetch toggling: the front end runs fetch_duty_x8 of every
    // eight cycles.
    if ((cycle_ & 7) >= cfg_.fetch_duty_x8)
        return false;

    for (std::uint32_t n = 0; n < cfg_.fetch_width; ++n) {
        if (next_seq_ - tail_seq_ >= cfg_.fetch_buffer)
            return n != 0;

        Uop u;
        if (have_pending_) {
            u = pending_;
            have_pending_ = false;
        } else {
            u = source_.next();
        }

        // Instruction-cache access, once per new fetch block.
        const std::uint64_t block = u.pc / cfg_.line_bytes;
        if (block != last_fetch_block_) {
            ++interval_.l1i_acc;
            last_fetch_block_ = block;
            const auto res = mem_.fetchAccess(u.pc, cycle_);
            if (res.done_cycle > cycle_) {
                // I-miss: hold the uop and stall until the fill.
                pending_ = u;
                have_pending_ = true;
                fetch_resume_cycle_ = res.done_cycle;
                return true;
            }
        }

        const std::uint64_t seq = next_seq_++;
        bool mispredicted = false;
        if (isCtrlClass(u.cls)) {
            ++interval_.bpred_acc;
            if (u.cls == UopClass::Branch) {
                mispredicted = bpred_.predict(u.pc) != u.taken;
            } else if (u.cls == UopClass::Call) {
                ras_.push(u.addr);
            } else { // Return
                ++stats_.ras_returns;
                mispredicted = ras_.pop() != u.addr;
            }
        }

        fetch_buffer_[seq & fetch_mask_] = u;
        ++stats_.fetched;
        ++interval_.fetched;

        if (mispredicted) {
            // Trace-driven redirect model: stop fetching until the
            // mispredicted op resolves, then pay the refill penalty.
            redirect_seq_ = seq;
            return true;
        }
    }
    return true;
}

ActivitySample
Core::takeInterval()
{
    ActivitySample s;
    s.cycles = interval_.cycles;
    s.retired = interval_.retired;

    auto &metrics = coreMetrics();
    metrics.intervals.add();
    metrics.interval_ipc.add(s.ipc());
    metrics.mshr_occupancy.add(
        static_cast<double>(mem_.mshrInUse(cycle_)));

    const auto cyc = static_cast<double>(
        interval_.cycles ? interval_.cycles : 1);
    auto ratio = [&](double num, double denom_per_cycle) {
        const double v = num / (denom_per_cycle * cyc);
        return std::clamp(v, 0.0, 1.0);
    };

    using enum StructureId;
    auto &a = s.activity;
    a[structureIndex(IntAlu)] =
        ratio(static_cast<double>(interval_.int_fu_busy), cfg_.num_int_alu);
    a[structureIndex(Fpu)] =
        ratio(static_cast<double>(interval_.fp_fu_busy), cfg_.num_fpu);
    a[structureIndex(IntReg)] =
        ratio(static_cast<double>(interval_.int_reg_ops),
              3.0 * cfg_.fetch_width);
    a[structureIndex(FpReg)] =
        ratio(static_cast<double>(interval_.fp_reg_ops),
              3.0 * cfg_.fetch_width);
    a[structureIndex(Bpred)] =
        ratio(static_cast<double>(interval_.bpred_acc), 2.0);
    a[structureIndex(IWin)] =
        ratio(static_cast<double>(interval_.iwin_ops),
              2.0 * cfg_.issueWidth());
    // LSQ power activity is access-based (insert/issue CAM traffic),
    // not occupancy-based: a stalled full queue burns little dynamic
    // power.
    a[structureIndex(Lsq)] =
        ratio(static_cast<double>(interval_.l1d_acc), cfg_.num_agen);
    a[structureIndex(L1D)] =
        ratio(static_cast<double>(interval_.l1d_acc), cfg_.l1d_ports);
    a[structureIndex(L1I)] =
        ratio(static_cast<double>(interval_.l1i_acc), 1.0);
    a[structureIndex(FrontEnd)] =
        ratio(static_cast<double>(interval_.fetched), cfg_.fetch_width);

    interval_ = IntervalAccum{};
    return s;
}

void
Core::resetStats()
{
    stats_ = CoreStats{};
    interval_ = IntervalAccum{};
}

void
Core::setOperatingPoint(double frequency_ghz, double voltage_v)
{
    if (frequency_ghz <= 0.0 || voltage_v <= 0.0)
        util::fatal("operating point must be positive");
    cfg_.frequency_ghz = frequency_ghz;
    cfg_.voltage_v = voltage_v;
    mem_.setFrequency(frequency_ghz);
}

} // namespace sim
} // namespace ramp
