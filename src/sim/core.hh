/**
 * @file
 * Cycle-level out-of-order core model (the RSIM stand-in).
 *
 * The core is trace-driven by a UopSource but models machine state
 * faithfully: a live bimodal-agree branch predictor and return-address
 * stack, tag-exact caches with MSHR/port/bank contention, a unified
 * instruction window / reorder buffer, physical register limits, a
 * load-store queue, and per-class functional-unit pools with
 * pipelined/unpipelined latencies (paper Table 1). Branch mispredicts
 * are modelled as fetch-redirect bubbles (no wrong-path execution --
 * the standard trace-driven approximation).
 *
 * Per-structure activity factors -- the alpha inputs of the paper's
 * electromigration model and of the Wattch-style power model -- are
 * accumulated per interval. Each activity factor is a utilisation in
 * [0, 1], normalised to the structure's peak bandwidth:
 *   IntALU, FPU  : busy unit-cycles / (units x cycles)
 *   IntReg, FpReg: operand reads+writes / (3 x dispatch width x cycles)
 *   Bpred        : predictor accesses / (2 x cycles)
 *   IWin         : (dispatched + issued) / (2 x issue width x cycles)
 *   LSQ          : memory ops issued / (AGEN units x cycles)
 *   L1D          : accesses / (ports x cycles)
 *   L1I          : block fetches / cycles
 *   FrontEnd     : uops fetched / (fetch width x cycles)
 *
 * Simulation speed. The pipeline state lives in fixed event
 * structures sized by the window: a ring of bit_ceil(window) slots
 * indexed by seq & mask (the occupancy cap stays the configured
 * window), one ready bit per slot scanned oldest-first from the ROB
 * head, intrusive wakeup lists (one link per consumer operand), and
 * a 256-bucket completion wheel whose buckets are handled in seq
 * order, with a small heap for completions 256 or more cycles out.
 * After a cycle in which no stage changed state the core jumps to the
 * next timed event -- the earliest completion (which is also when a
 * held unit or MSHR frees) or the fetch resume/duty-on cycle -- and
 * only the cycle counters move over the skipped span. Every timing
 * decision is bit-identical to stepping each cycle with an ordered
 * ready set and a completion heap; tests/sim/core_test.cc pins this.
 */

#pragma once

#include <array>
#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "sim/bpred.hh"
#include "sim/machine.hh"
#include "sim/mem.hh"
#include "sim/structures.hh"
#include "sim/uop.hh"

namespace ramp {
namespace sim {

/** Cumulative whole-run statistics. */
struct CoreStats
{
    std::uint64_t cycles = 0;
    std::uint64_t fetched = 0;
    std::uint64_t retired = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t issued = 0;

    std::uint64_t branches = 0;       ///< Resolved conditional branches.
    std::uint64_t mispredicts = 0;    ///< Includes RAS mispredicts.
    std::uint64_t ras_returns = 0;

    std::uint64_t loads = 0;
    std::uint64_t stores = 0;

    /** Retired micro-ops per cycle. */
    double ipc() const
    {
        return cycles ? static_cast<double>(retired) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    /** Mispredicts per resolved control op. */
    double mispredictRate() const
    {
        return branches ? static_cast<double>(mispredicts) /
                              static_cast<double>(branches)
                        : 0.0;
    }
};

/**
 * One measurement interval: cycle count plus the per-structure
 * activity factors the power and reliability models consume
 * (paper Section 3.6 -- instantaneous values per interval).
 */
struct ActivitySample
{
    std::uint64_t cycles = 0;
    std::uint64_t retired = 0;
    PerStructure<double> activity{};  ///< alpha per structure, [0,1].

    double ipc() const
    {
        return cycles ? static_cast<double>(retired) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
};

/** The out-of-order core. */
class Core
{
  public:
    /**
     * @param cfg Machine configuration (validated on construction).
     * @param source Micro-op stream; must outlive the core.
     */
    Core(const MachineConfig &cfg, UopSource &source);

    /** Advance the machine by `cycles` clock ticks. */
    void run(std::uint64_t cycles);

    /**
     * Advance until `uops` more micro-ops retire (or a safety cycle
     * bound of 1000 cycles per uop is hit, which trips a warning).
     */
    void runUops(std::uint64_t uops);

    /** Whole-run statistics. */
    const CoreStats &stats() const { return stats_; }

    /**
     * Close the current measurement interval: return activity factors
     * accumulated since the previous call and start a new interval.
     */
    ActivitySample takeInterval();

    /** Discard all statistics (machine state is kept). */
    void resetStats();

    /**
     * Switch the DVS operating point at run time (used by the
     * closed-loop DRM/DTM controllers). Microarchitectural knobs
     * cannot change mid-run; only clock and supply can.
     */
    void setOperatingPoint(double frequency_ghz, double voltage_v);

    const MachineConfig &config() const { return cfg_; }
    const MemorySystem &memory() const { return mem_; }

    /** Current cycle (for tests). */
    std::uint64_t now() const { return cycle_; }

  private:
    enum class State : std::uint8_t {
        Waiting,   ///< In the window, operands not ready.
        Issued,    ///< Executing; done at done_cycle.
        Done,      ///< Completed, awaiting in-order retire.
    };

    /** End of an intrusive list (wakeup or completion bucket). */
    static constexpr std::uint32_t no_link = ~std::uint32_t{0};
    /** Completion-wheel buckets; completions this many or more
     *  cycles out, or due in their issue cycle, wait in the far heap
     *  instead. */
    static constexpr std::uint64_t wheel_size = 256;

    struct WinEntry
    {
        Uop uop;
        std::uint64_t seq = 0;
        std::uint64_t done_cycle = 0;
        State state = State::Waiting;
        bool in_lsq = false;
        /** Outstanding (not yet completed) producers. */
        std::uint8_t remaining = 0;
        /** First link of the list of consumers to wake on completion.
         *  A link is (ring slot << 1 | operand index). */
        std::uint32_t wake_head = no_link;
        /** Next link after this entry's operand i in its producer's
         *  wakeup list. */
        std::uint32_t wake_next[2] = {no_link, no_link};
        /** Next ring slot in the same completion-wheel bucket. */
        std::uint32_t wheel_next = no_link;
    };

    /** One cycle of all stages; false when no stage changed state. */
    bool stepCycle();
    bool complete();
    bool retire();
    bool issue();
    bool dispatch();
    bool fetch();

    /** Queue entry `idx`'s completion at its done_cycle. */
    void scheduleCompletion(std::uint32_t idx);
    /** Earliest cycle >= now() at which some stage could progress. */
    std::uint64_t nextEventCycle() const;
    /** After an idle cycle, jump to the next event (at most to
     *  `limit`); returns the cycles skipped. */
    std::uint64_t skipIdle(std::uint64_t limit);

    /** Ring index for a window sequence number. */
    std::uint32_t ringIndex(std::uint64_t seq) const
    {
        return static_cast<std::uint32_t>(seq & window_mask_);
    }
    WinEntry &slot(std::uint64_t seq) { return window_[ringIndex(seq)]; }

    MachineConfig cfg_;
    UopSource &source_;
    MemorySystem mem_;
    BimodalAgree bpred_;
    ReturnAddressStack ras_;

    std::uint64_t cycle_ = 0;
    std::uint64_t next_seq_ = 1;   ///< Seq of the next fetched uop.

    // Window ring of bit_ceil(window_size) slots indexed by
    // seq & window_mask_: [head_seq_, tail_seq_) are live entries,
    // at most cfg_.window_size of them.
    std::vector<WinEntry> window_;
    std::uint64_t window_mask_ = 0;
    std::uint64_t head_seq_ = 1;
    std::uint64_t tail_seq_ = 1;

    // Fetch -> dispatch buffer (decoupled front end): the fetched,
    // not yet dispatched seqs [tail_seq_, next_seq_), in a ring
    // indexed by seq & fetch_mask_.
    std::vector<Uop> fetch_buffer_;
    std::uint64_t fetch_mask_ = 0;

    // Fetch stall state.
    std::uint64_t fetch_resume_cycle_ = 0;  ///< I-miss / redirect wait.
    std::uint64_t redirect_seq_ = 0;  ///< Mispredicted ctrl op we wait on.
    bool have_pending_ = false;
    Uop pending_;                     ///< Uop stalled on an I-miss.
    std::uint64_t last_fetch_block_ = ~std::uint64_t{0};

    // Operand-ready entries: one bit per ring slot. Issue scans from
    // head_seq_'s slot, so selection stays oldest-first.
    std::vector<std::uint64_t> ready_;

    // Completions: a wheel of wheel_size buckets (intrusive lists of
    // ring slots whose done_cycle is bucket-index congruent and 1 to
    // wheel_size - 1 cycles out), a bitmap of non-empty buckets, and
    // a min-heap of (done_cycle, seq) for all other completions.
    using Completion = std::pair<std::uint64_t, std::uint64_t>;
    std::array<std::uint32_t, wheel_size> wheel_head_{};
    std::array<std::uint64_t, wheel_size / 64> wheel_bits_{};
    std::priority_queue<Completion, std::vector<Completion>,
                        std::greater<Completion>>
        far_completions_;
    std::vector<Completion> due_;  ///< complete() scratch.

    // Resource state.
    std::vector<std::uint64_t> int_fu_busy_;   ///< busy-until cycles.
    std::vector<std::uint64_t> fp_fu_busy_;
    std::vector<std::uint64_t> agen_busy_;
    std::uint32_t lsq_used_ = 0;
    std::uint32_t free_int_regs_ = 0;
    std::uint32_t free_fp_regs_ = 0;

    CoreStats stats_;

    // Interval accumulators for activity factors.
    struct IntervalAccum
    {
        std::uint64_t cycles = 0;
        std::uint64_t retired = 0;
        std::uint64_t int_fu_busy = 0;   ///< unit-cycles.
        std::uint64_t fp_fu_busy = 0;
        std::uint64_t int_reg_ops = 0;   ///< reads + writes.
        std::uint64_t fp_reg_ops = 0;
        std::uint64_t bpred_acc = 0;
        std::uint64_t iwin_ops = 0;      ///< dispatched + issued.
        std::uint64_t l1d_acc = 0;
        std::uint64_t l1i_acc = 0;
        std::uint64_t fetched = 0;
    };
    IntervalAccum interval_;
};

} // namespace sim
} // namespace ramp

