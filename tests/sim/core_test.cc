/**
 * @file
 * Tests for the out-of-order core: steady-state throughput limits per
 * resource class, dependence serialisation, branch/RAS redirect
 * behaviour, memory-level parallelism limits, activity factors,
 * determinism, bit-identity pins on the calibrated workloads, and the
 * idle-cycle skip against single-cycle stepping.
 */

#include <algorithm>
#include <array>
#include <bit>
#include <functional>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "sim/core.hh"
#include "util/telemetry.hh"
#include "workload/profile.hh"
#include "workload/trace_gen.hh"

namespace ramp::sim {
namespace {

/** UopSource driven by a lambda over the fetch index. */
class FnSource : public UopSource
{
  public:
    explicit FnSource(std::function<Uop(std::uint64_t)> fn)
        : fn_(std::move(fn))
    {
    }

    Uop next() override { return fn_(i_++); }

  private:
    std::function<Uop(std::uint64_t)> fn_;
    std::uint64_t i_ = 0;
};

/** Sequential 8KB code loop: always L1I-resident after warmup. */
std::uint64_t
loopPc(std::uint64_t i)
{
    return 0x1000 + (i % 2048) * 4;
}

Uop
makeUop(UopClass cls, std::uint64_t i, std::uint16_t dep = 0)
{
    Uop u;
    u.cls = cls;
    u.pc = loopPc(i);
    u.src_dist[0] = dep;
    u.writes_int = isIntClass(cls) || cls == UopClass::Load;
    u.writes_fp = isFpClass(cls);
    return u;
}

/** Run warmup + measurement, returning measured IPC. */
double
measureIpc(Core &core, std::uint64_t warm = 20000,
           std::uint64_t measure = 20000)
{
    core.run(warm);
    core.resetStats();
    core.run(measure);
    return core.stats().ipc();
}

TEST(Core, IndependentIntStreamSaturatesAlus)
{
    FnSource src([](std::uint64_t i) {
        return makeUop(UopClass::IntAlu, i);
    });
    Core core(baseMachine(), src);
    // 6 integer ALUs bound throughput below the 8-wide front end.
    EXPECT_NEAR(measureIpc(core), 6.0, 0.1);
}

TEST(Core, DependentChainSerialises)
{
    FnSource src([](std::uint64_t i) {
        return makeUop(UopClass::IntAlu, i, 1);
    });
    Core core(baseMachine(), src);
    EXPECT_NEAR(measureIpc(core), 1.0, 0.05);
}

TEST(Core, FpStreamSaturatesFpus)
{
    FnSource src([](std::uint64_t i) {
        return makeUop(UopClass::FpOp, i);
    });
    Core core(baseMachine(), src);
    EXPECT_NEAR(measureIpc(core), 4.0, 0.1);
}

TEST(Core, UnpipelinedFpDivThroughput)
{
    FnSource src([](std::uint64_t i) {
        return makeUop(UopClass::FpDiv, i);
    });
    Core core(baseMachine(), src);
    // 4 FPUs, each held 12 cycles per divide.
    EXPECT_NEAR(measureIpc(core), 4.0 / 12.0, 0.03);
}

TEST(Core, UnpipelinedIntDivThroughput)
{
    FnSource src([](std::uint64_t i) {
        return makeUop(UopClass::IntDiv, i);
    });
    Core core(baseMachine(), src);
    EXPECT_NEAR(measureIpc(core), 6.0 / 12.0, 0.05);
}

TEST(Core, PipelinedMulKeepsFullThroughput)
{
    FnSource src([](std::uint64_t i) {
        return makeUop(UopClass::IntMul, i);
    });
    Core core(baseMachine(), src);
    // Latency 7 but pipelined: independent stream still runs 6/cycle.
    EXPECT_NEAR(measureIpc(core), 6.0, 0.1);
}

TEST(Core, L1LoadStreamBoundByPorts)
{
    FnSource src([](std::uint64_t i) {
        Uop u = makeUop(UopClass::Load, i);
        u.addr = 0x100000 + (i % 256) * 64; // 16KB set, L1-resident
        return u;
    });
    Core core(baseMachine(), src);
    // 2 D-cache ports / 2 AGEN units bound loads at 2 per cycle.
    EXPECT_NEAR(measureIpc(core), 2.0, 0.1);
}

/** A 64B-stride walk over 16MB: every load misses L1, L2 and goes
 *  to memory (the L2 is 1MB and the walk never revisits a line
 *  within a test). */
std::uint64_t
missAddr(std::uint64_t i)
{
    return (i * 64) % (16 * 1024 * 1024);
}

/** Cycles one load spends from L1 lookup to data, when it misses
 *  every level and nothing else is in flight. */
double
fullMissLatency(const MachineConfig &m)
{
    return m.l1_hit_cycles + m.l2HitCycles() + m.memLatencyCycles();
}

TEST(Core, MemoryMissStreamIsSlow)
{
    FnSource src([](std::uint64_t i) {
        Uop u = makeUop(UopClass::Load, i);
        u.addr = missAddr(i);
        return u;
    });
    Core core(baseMachine(), src);
    const double ipc = measureIpc(core, 30000, 30000);
    EXPECT_LT(ipc, 1.0);
    EXPECT_GT(ipc, 0.05); // MLP through 12 MSHRs keeps it above serial
    EXPECT_GT(core.memory().memAccesses(), 0u);
}

TEST(Core, PointerChaseCostsTheFullMissLatencyPerLoad)
{
    // Each load's address comes from the previous load: no overlap,
    // so every load pays L1 + L2 + memory latency in full.
    FnSource src([](std::uint64_t i) {
        Uop u = makeUop(UopClass::Load, i, 1);
        u.addr = missAddr(i);
        return u;
    });
    const MachineConfig m = baseMachine();
    Core core(m, src);
    const double cycles_per_load = 1.0 / measureIpc(core, 60000, 60000);
    // Tolerance: one cycle over the closed form, the AGEN cycle
    // before the L1 lookup.
    EXPECT_GE(cycles_per_load, fullMissLatency(m));
    EXPECT_LE(cycles_per_load, fullMissLatency(m) + 1.0);
}

TEST(Core, IndependentMissStreamRunsAtLittlesLaw)
{
    // Independent misses overlap until the L1D MSHRs run out:
    // throughput = MSHRs in flight / latency each one is held.
    FnSource src([](std::uint64_t i) {
        Uop u = makeUop(UopClass::Load, i);
        u.addr = missAddr(i);
        return u;
    });
    const MachineConfig m = baseMachine();
    Core core(m, src);
    const double ipc = measureIpc(core, 30000, 30000);
    // Tolerance: 1% of the closed form, which covers each MSHR being
    // claimed one cycle before its L1 lookup (the AGEN cycle, 0.8%
    // of the 125 cycles it is held here).
    const double little = m.l1d_mshrs / fullMissLatency(m);
    EXPECT_NEAR(ipc, little, 0.01 * little);
}

TEST(Core, PredictableBranchesBarelyCost)
{
    FnSource src([](std::uint64_t i) {
        if (i % 8 == 7) {
            Uop u = makeUop(UopClass::Branch, i);
            u.taken = true; // same pc pattern learns perfectly
            return u;
        }
        return makeUop(UopClass::IntAlu, i);
    });
    Core core(baseMachine(), src);
    const double ipc = measureIpc(core);
    EXPECT_GT(ipc, 5.0);
    EXPECT_LT(core.stats().mispredictRate(), 0.02);
}

TEST(Core, RandomBranchesCauseRedirectBubbles)
{
    FnSource src([](std::uint64_t i) {
        if (i % 8 == 7) {
            Uop u = makeUop(UopClass::Branch, i);
            // Aperiodic direction on one pc: ~50% mispredicts.
            u.pc = 0x1000;
            u.taken = (i / 8) % 3 == 0;
            return u;
        }
        return makeUop(UopClass::IntAlu, i);
    });
    Core core(baseMachine(), src);
    const double ipc = measureIpc(core);
    EXPECT_GT(core.stats().mispredictRate(), 0.2);
    EXPECT_LT(ipc, 4.0);
}

TEST(Core, MatchedCallsAndReturnsPredictViaRas)
{
    // call ... return pairs, nesting depth 4 (well within the RAS).
    FnSource src([](std::uint64_t i) {
        const std::uint64_t phase = i % 16;
        if (phase < 4) {
            Uop u = makeUop(UopClass::Call, i);
            u.addr = 0x9000 + phase; // return address
            return u;
        }
        if (phase >= 12) {
            Uop u = makeUop(UopClass::Return, i);
            u.addr = 0x9000 + (15 - phase); // LIFO match
            return u;
        }
        return makeUop(UopClass::IntAlu, i);
    });
    Core core(baseMachine(), src);
    measureIpc(core);
    EXPECT_GT(core.stats().ras_returns, 0u);
    EXPECT_LT(core.stats().mispredictRate(), 0.01);
}

TEST(Core, RasOverflowMispredicts)
{
    // Nesting depth 48 > 32 RAS entries: outer returns mispredict.
    FnSource src([](std::uint64_t i) {
        const std::uint64_t phase = i % 96;
        if (phase < 48) {
            Uop u = makeUop(UopClass::Call, i);
            u.addr = 0xA000 + phase;
            return u;
        }
        Uop u = makeUop(UopClass::Return, i);
        u.addr = 0xA000 + (95 - phase);
        return u;
    });
    Core core(baseMachine(), src);
    measureIpc(core);
    EXPECT_GT(core.stats().mispredictRate(), 0.05);
}

TEST(Core, StoresRetireAndFreeLsq)
{
    FnSource src([](std::uint64_t i) {
        Uop u = makeUop(UopClass::Store, i);
        u.addr = 0x200000 + (i % 128) * 64;
        u.writes_int = false;
        return u;
    });
    Core core(baseMachine(), src);
    core.run(20000);
    EXPECT_GT(core.stats().stores, 1000u);
}

TEST(Core, RunUopsRetiresRequestedCount)
{
    FnSource src([](std::uint64_t i) {
        return makeUop(UopClass::IntAlu, i);
    });
    Core core(baseMachine(), src);
    core.runUops(5000);
    EXPECT_GE(core.stats().retired, 5000u);
    EXPECT_LT(core.stats().retired, 5100u); // no huge overshoot
}

TEST(Core, DeterministicAcrossRuns)
{
    auto make = [](std::uint64_t i) {
        if (i % 13 == 0) {
            Uop u = makeUop(UopClass::Load, i);
            u.addr = (i * 8209) % (1 << 22);
            return u;
        }
        if (i % 7 == 0) {
            Uop u = makeUop(UopClass::Branch, i);
            u.taken = (i % 3) == 0;
            return u;
        }
        return makeUop(i % 5 == 0 ? UopClass::FpOp : UopClass::IntAlu, i);
    };
    FnSource src_a(make), src_b(make);
    Core a(baseMachine(), src_a), b(baseMachine(), src_b);
    a.run(30000);
    b.run(30000);
    EXPECT_EQ(a.stats().retired, b.stats().retired);
    EXPECT_EQ(a.stats().mispredicts, b.stats().mispredicts);
    EXPECT_EQ(a.stats().issued, b.stats().issued);
}

TEST(Core, ActivityFactorsAreBounded)
{
    FnSource src([](std::uint64_t i) {
        if (i % 4 == 3) {
            Uop u = makeUop(UopClass::Load, i);
            u.addr = (i * 64) % (1 << 20);
            return u;
        }
        return makeUop(i % 4 == 2 ? UopClass::FpOp : UopClass::IntAlu, i);
    });
    Core core(baseMachine(), src);
    core.run(10000);
    core.takeInterval();
    core.run(10000);
    const ActivitySample s = core.takeInterval();
    EXPECT_EQ(s.cycles, 10000u);
    for (double a : s.activity) {
        EXPECT_GE(a, 0.0);
        EXPECT_LE(a, 1.0);
    }
    EXPECT_GT(s.ipc(), 0.0);
}

TEST(Core, SaturatedAluShowsFullActivity)
{
    FnSource src([](std::uint64_t i) {
        return makeUop(UopClass::IntAlu, i);
    });
    Core core(baseMachine(), src);
    core.run(20000);
    core.takeInterval();
    core.run(20000);
    const ActivitySample s = core.takeInterval();
    EXPECT_NEAR(s.activity[structureIndex(StructureId::IntAlu)], 1.0,
                0.02);
    EXPECT_NEAR(s.activity[structureIndex(StructureId::Fpu)], 0.0, 1e-9);
}

TEST(Core, DownsizedMachineStillRuns)
{
    MachineConfig small = baseMachine();
    small.window_size = 16;
    small.num_int_alu = 2;
    small.num_fpu = 1;
    small.mem_queue = 8;
    FnSource src([](std::uint64_t i) {
        if (i % 6 == 5) {
            Uop u = makeUop(UopClass::Load, i);
            u.addr = 0x100000 + (i % 512) * 64;
            return u;
        }
        return makeUop(i % 6 == 4 ? UopClass::FpOp : UopClass::IntAlu, i);
    });
    Core core(small, src);
    const double ipc = measureIpc(core);
    EXPECT_GT(ipc, 0.5);
    // 4-of-6 ops are integer through 2 ALUs => 2 cycles per group of 6.
    EXPECT_LE(ipc, 3.0 + 0.1);
}

TEST(Core, SmallerWindowNeverBeatsBase)
{
    auto make = [](std::uint64_t i) {
        if (i % 3 == 2) {
            Uop u = makeUop(UopClass::Load, i);
            u.addr = (i * 64) % (1 << 21); // 2MB: L2-resident misses
            return u;
        }
        return makeUop(UopClass::IntAlu, i, i % 3 == 1 ? 1 : 0);
    };
    FnSource src_big(make), src_small(make);
    Core big(baseMachine(), src_big);
    MachineConfig small_cfg = baseMachine();
    small_cfg.window_size = 16;
    Core small(small_cfg, src_small);
    EXPECT_GE(measureIpc(big), measureIpc(small) - 0.01);
}

TEST(Core, FetchThrottleBoundsThroughput)
{
    // Duty x/8 with an 8-wide front end caps sustained fetch at x
    // uops per cycle; an ALU-saturating stream tracks that cap until
    // the 6-ALU limit takes over.
    for (std::uint32_t duty : {2u, 4u}) {
        MachineConfig cfg = baseMachine();
        cfg.fetch_duty_x8 = duty;
        FnSource src([](std::uint64_t i) {
            return makeUop(UopClass::IntAlu, i);
        });
        Core core(cfg, src);
        EXPECT_NEAR(measureIpc(core), static_cast<double>(duty), 0.1)
            << "duty " << duty;
    }
}

TEST(Core, FetchThrottleMonotone)
{
    double prev = 0.0;
    for (std::uint32_t duty = 1; duty <= 8; ++duty) {
        MachineConfig cfg = baseMachine();
        cfg.fetch_duty_x8 = duty;
        FnSource src([](std::uint64_t i) {
            return makeUop(UopClass::IntAlu, i);
        });
        Core core(cfg, src);
        const double ipc = measureIpc(core, 10000, 10000);
        EXPECT_GE(ipc, prev - 0.05) << "duty " << duty;
        prev = ipc;
    }
}

TEST(Core, IntervalResetsBetweenTakes)
{
    FnSource src([](std::uint64_t i) {
        return makeUop(UopClass::IntAlu, i);
    });
    Core core(baseMachine(), src);
    core.run(1000);
    const auto s1 = core.takeInterval();
    EXPECT_EQ(s1.cycles, 1000u);
    const auto s2 = core.takeInterval();
    EXPECT_EQ(s2.cycles, 0u);
    EXPECT_EQ(s2.retired, 0u);
}

// ---------------------------------------------------------------------
// Bit-identity pins. The values below were produced by the simulator
// before its event structures (ready bitmap, completion wheel, idle
// skip) replaced the ordered set, the heap and cycle-by-cycle
// stepping; any change to a timing decision moves one of them.

enum class GoldenConfig {
    W128,
    W96,
    W48Narrow,
    W16,
    Duty3,
    FixedOffchip2G5,
    SlowMemory,     ///< Memory fills land beyond the completion wheel.
    ZeroLatencyAlu, ///< Completions due in the cycle they issue.
};

MachineConfig
goldenMachine(GoldenConfig c)
{
    MachineConfig m = baseMachine();
    switch (c) {
      case GoldenConfig::W128:
        break;
      case GoldenConfig::W96:
        m.window_size = 96;
        m.num_int_alu = 6;
        break;
      case GoldenConfig::W48Narrow:
        m.window_size = 48;
        m.num_int_alu = 2;
        m.num_fpu = 1;
        break;
      case GoldenConfig::W16:
        m.window_size = 16;
        break;
      case GoldenConfig::Duty3:
        m.fetch_duty_x8 = 3;
        break;
      case GoldenConfig::FixedOffchip2G5:
        m.offchip_scales_with_clock = false;
        m.frequency_ghz = 2.5;
        break;
      case GoldenConfig::SlowMemory:
        m.mem_latency_ns = 150.0;
        break;
      case GoldenConfig::ZeroLatencyAlu:
        m.lat_int_add = 0;
        break;
    }
    return m;
}

struct GoldenCase
{
    const char *app;
    GoldenConfig config;
    /** CoreStats: cycles, fetched, retired, dispatched, issued,
     *  branches, mispredicts, ras_returns, loads, stores. */
    std::array<std::uint64_t, 10> stats;
    /** L1D, L1I, L2 misses. */
    std::array<std::uint64_t, 3> misses;
    /** Measured interval's activity, in StructureId order. */
    std::array<double, num_structures> activity;
};

// clang-format off
const GoldenCase golden_cases[] = {
    {"MP3dec", GoldenConfig::W128,
     {84585u, 150118u, 150005u, 150102u, 150056u,
      11132u, 265u, 277u, 29977u, 10576u},
     {896u, 160u, 1056u},
     {0x1.9a3db2474fb98p-2, 0x1.5ca723071797fp-3,
      0x1.0afc175836a89p-2, 0x1.cca3f5effb702p-5,
      0x1.4152dd5727032p-3, 0x1.68d5fc1bf6e3fp-2,
      0x1.249379427e3adp-1, 0x1.249379427e3adp-1,
      0x1.611d28b91c612p-1, 0x1.0eb0149db1eeap-1}},
    {"MP3dec", GoldenConfig::W96,
     {91699u, 150117u, 150005u, 150101u, 150057u,
      11132u, 264u, 277u, 29977u, 10576u},
     {896u, 160u, 1056u},
     {0x1.7d5eac54a6218p-2, 0x1.4418a3493aa7ep-3,
      0x1.f05cf80ad7c17p-3, 0x1.ac2b6cc3704e6p-5,
      0x1.2aac6263eb8c9p-3, 0x1.4f6f803f8dc66p-2,
      0x1.1005cc113afa5p-1, 0x1.1005cc113afa5p-1,
      0x1.4839015419483p-1, 0x1.f73e70a44092ep-2}},
    {"MP3dec", GoldenConfig::W48Narrow,
     {133690u, 150068u, 150004u, 150052u, 150019u,
      11130u, 265u, 277u, 29977u, 10576u},
     {896u, 160u, 1056u},
     {0x1.7f18cd514eb83p-1, 0x1.b20ff5a5d99c6p-2,
      0x1.4c5e0832090eep-3, 0x1.1ec4d5a826887p-5,
      0x1.9003736221369p-4, 0x1.0d8db1ed73d09p-1,
      0x1.6c5fc1e319aa3p-2, 0x1.6c5fc1e319aa3p-2,
      0x1.b78fda0ac892ap-2, 0x1.50fbe6fb788f3p-2}},
    {"MP3dec", GoldenConfig::W16,
     {187609u, 150039u, 150007u, 150023u, 150014u,
      11130u, 265u, 277u, 29977u, 10576u},
     {896u, 160u, 1056u},
     {0x1.592b75da1a634p-3, 0x1.2544c60689a8p-4,
      0x1.c11024dbe0eeap-4, 0x1.835edb8e91fc2p-6,
      0x1.0e6ea19f357eap-4, 0x1.2f88324952bf5p-3,
      0x1.ec67b166d3f4fp-3, 0x1.ec67b166d3f4fp-3,
      0x1.292f1a40442e8p-2, 0x1.c74ce09d0d0c5p-3}},
    {"MP3dec", GoldenConfig::Duty3,
     {99175u, 150033u, 150007u, 150033u, 150025u,
      11130u, 265u, 277u, 29977u, 10576u},
     {896u, 160u, 1056u},
     {0x1.130b72f8650aep-2, 0x1.d37161e6959e2p-4,
      0x1.65df706514cfdp-3, 0x1.34b6db4064131p-5,
      0x1.aec1e266da664p-4, 0x1.e3c4f55d3be38p-3,
      0x1.8866d2f6b0ce2p-2, 0x1.8866d2f6b0ce2p-2,
      0x1.d95e4c8981631p-2, 0x1.6acf89422e9e9p-2}},
    {"MP3dec", GoldenConfig::FixedOffchip2G5,
     {64638u, 150118u, 150005u, 150102u, 150056u,
      11132u, 265u, 277u, 29977u, 10576u},
     {896u, 160u, 1056u},
     {0x1.9b05f773941fbp-2, 0x1.5d51575455d51p-3,
      0x1.0b7e6d4ee93d7p-2, 0x1.cd84d5b2d4f6p-5,
      0x1.41efba3926354p-3, 0x1.698622f5f09fdp-2,
      0x1.25224d7518eep-1, 0x1.25224d7518eep-1,
      0x1.61c98a88a56a8p-1, 0x1.0f34395dc06dbp-1}},
    {"MP3dec", GoldenConfig::SlowMemory,
     {305199u, 150118u, 150005u, 150102u, 150056u,
      11132u, 265u, 277u, 29977u, 10576u},
     {896u, 160u, 1056u},
     {0x1.91c73966c4545p-2, 0x1.5575e8f23427p-3,
      0x1.057a26d54bd4fp-2, 0x1.c3235488d319p-5,
      0x1.3ab1f664773c5p-3, 0x1.61646b78c24cep-2,
      0x1.1e8a6310e48bap-1, 0x1.1e8a6310e48bap-1,
      0x1.59d45fa6c0ef9p-1, 0x1.091a95cc1a2bfp-1}},
    {"MP3dec", GoldenConfig::ZeroLatencyAlu,
     {84388u, 150118u, 150005u, 150102u, 150056u,
      11132u, 265u, 277u, 29977u, 10576u},
     {896u, 160u, 1056u},
     {0x1.9bdc6e87f7d35p-2, 0x1.5e079bfdd36e5p-3,
      0x1.0c0a0037a82aap-2, 0x1.ce75a5cdcead5p-5,
      0x1.4297b5628d45ep-3, 0x1.6a42c616db654p-2,
      0x1.25bb4149c462ep-1, 0x1.25bb4149c462ep-1,
      0x1.628224387088p-1, 0x1.0fc1bbdd20a22p-1}},
    {"twolf", GoldenConfig::W128,
     {357324u, 150066u, 150006u, 150066u, 150047u,
      22572u, 2579u, 726u, 41987u, 10566u},
     {4340u, 3185u, 5120u},
     {0x1.c6a584ed7d11fp-5, 0x0p+0,
      0x1.44954d9a091d6p-5, 0x0p+0,
      0x1.3adff9c7f4c7ep-5, 0x1.5e133fa06b4a5p-5,
      0x1.70380de895a1ep-4, 0x1.70380de895a1ep-4,
      0x1.00e89f0b71f3dp-3, 0x1.0686084f350b7p-4}},
    {"twolf", GoldenConfig::W96,
     {361098u, 150066u, 150006u, 150066u, 150047u,
      22572u, 2581u, 726u, 41987u, 10566u},
     {4340u, 3185u, 5120u},
     {0x1.c14b979bf57f6p-5, 0x0p+0,
      0x1.40c3476ace999p-5, 0x0p+0,
      0x1.372b344f0862bp-5, 0x1.59f469aa0a8bbp-5,
      0x1.6be28c5c378cep-4, 0x1.6be28c5c378cep-4,
      0x1.fbc5061dff2a1p-4, 0x1.036f0128fce8bp-4}},
    {"twolf", GoldenConfig::W48Narrow,
     {438950u, 150054u, 150006u, 150054u, 150038u,
      22568u, 2586u, 726u, 41987u, 10566u},
     {4339u, 3185u, 5120u},
     {0x1.0b6442911ed2bp-3, 0x0p+0,
      0x1.fd11cef383b12p-6, 0x0p+0,
      0x1.edc33e4306211p-6, 0x1.496cc791a1023p-4,
      0x1.20c2287f66e32p-4, 0x1.20c2287f66e32p-4,
      0x1.92ed0f837292cp-4, 0x1.9bb9be6046b16p-5}},
    {"twolf", GoldenConfig::W16,
     {578846u, 150038u, 150006u, 150022u, 150014u,
      22565u, 2592u, 725u, 41987u, 10566u},
     {4337u, 3185u, 5119u},
     {0x1.05da0d36b27b8p-5, 0x0p+0,
      0x1.75e55ccc1bdd7p-6, 0x0p+0,
      0x1.6ab2aeddccec9p-6, 0x1.93438e988c503p-6,
      0x1.a83f9cf2bd3cep-5, 0x1.a83f9cf2bd3cep-5,
      0x1.27fb628a39592p-4, 0x1.2e71e4bf1d4c7p-5}},
    {"twolf", GoldenConfig::Duty3,
     {377648u, 150066u, 150006u, 150066u, 150047u,
      22572u, 2581u, 726u, 41987u, 10566u},
     {4339u, 3185u, 5120u},
     {0x1.abcd910f5919bp-5, 0x0p+0,
      0x1.316b3fd55311p-5, 0x0p+0,
      0x1.2848a9926a722p-5, 0x1.4967e2a04061ep-5,
      0x1.5a7a72f9ee99cp-4, 0x1.5a7a72f9ee99cp-4,
      0x1.e37aed636b452p-4, 0x1.ee0c032b04f92p-5}},
    {"twolf", GoldenConfig::FixedOffchip2G5,
     {243011u, 150066u, 150006u, 150066u, 150047u,
      22572u, 2578u, 726u, 41987u, 10566u},
     {4340u, 3185u, 5120u},
     {0x1.49aefb65d0b29p-4, 0x0p+0,
      0x1.d6bcf6cde7d31p-5, 0x0p+0,
      0x1.c8a887fd2a903p-5, 0x1.fbb571bb4d5b9p-5,
      0x1.0b02de36560e4p-3, 0x1.0b02de36560e4p-3,
      0x1.74973d43abb43p-3, 0x1.7cbbe523f37dfp-4}},
    {"twolf", GoldenConfig::SlowMemory,
     {1528492u, 150066u, 150006u, 150066u, 150047u,
      22572u, 2579u, 726u, 41987u, 10566u},
     {4340u, 3185u, 5120u},
     {0x1.c0c7401b13ebbp-7, 0x0p+0,
      0x1.4064cc046cf0dp-7, 0x0p+0,
      0x1.36cf8c5b1b3a4p-7, 0x1.598e82a5172e6p-7,
      0x1.6b775d4c15b1ap-6, 0x1.6b775d4c15b1ap-6,
      0x1.fb2f754e0969dp-6, 0x1.0322965785e9fp-6}},
    {"twolf", GoldenConfig::ZeroLatencyAlu,
     {355511u, 150066u, 150006u, 150066u, 150047u,
      22572u, 2577u, 726u, 41987u, 10566u},
     {4340u, 3185u, 5120u},
     {0x1.c9213314dee5p-5, 0x0p+0,
      0x1.465b2176e7d78p-5, 0x0p+0,
      0x1.3c983ab1db27fp-5, 0x1.5ffcb7f8f811ep-5,
      0x1.723ae48e1f038p-4, 0x1.723ae48e1f038p-4,
      0x1.024fd3c942c61p-3, 0x1.07f516d18c5c7p-4}},
    {"art", GoldenConfig::W128,
     {252066u, 150120u, 150007u, 150104u, 150097u,
      8022u, 188u, 235u, 48019u, 7437u},
     {7452u, 252u, 7278u},
     {0x1.2496b8a1441f5p-5, 0x1.d3d0de37b4bcbp-5,
      0x1.0f804fb4990c5p-5, 0x1.06a2e5d6df679p-6,
      0x1.23b9ee9b21964p-6, 0x1.c1686644c39f7p-5,
      0x1.f3605f083484p-4, 0x1.f3605f083484p-4,
      0x1.88fbf57b68413p-4, 0x1.510239a73cd42p-4}},
    {"art", GoldenConfig::W96,
     {254818u, 150119u, 150007u, 150103u, 150092u,
      8022u, 188u, 235u, 48019u, 7437u},
     {7452u, 252u, 7278u},
     {0x1.2128074219eeep-5, 0x1.ce50878c77ccep-5,
      0x1.0c4fcfba34aep-5, 0x1.038e28388d47ap-6,
      0x1.204dd44d0971bp-6, 0x1.bc1f57eddfdc6p-5,
      0x1.ed7705e0ce6d1p-4, 0x1.ed7705e0ce6d1p-4,
      0x1.845fc301215e9p-4, 0x1.4d0d478eeb1f6p-4}},
    {"art", GoldenConfig::W48Narrow,
     {362727u, 150071u, 150007u, 150055u, 150047u,
      8018u, 189u, 235u, 48019u, 7437u},
     {7446u, 252u, 7274u},
     {0x1.266d8c467e67bp-4, 0x1.39df11783e7d8p-3,
      0x1.6c52620608932p-6, 0x1.6066468747947p-7,
      0x1.87792979becd2p-7, 0x1.69ca74d5cdbd4p-4,
      0x1.4ef841ac71656p-4, 0x1.4ef841ac71656p-4,
      0x1.07a72cd5d0847p-4, 0x1.c430ea83d70f7p-5}},
    {"art", GoldenConfig::W16,
     {675633u, 150039u, 150007u, 150023u, 150018u,
      8015u, 189u, 235u, 48019u, 7437u},
     {7443u, 252u, 7272u},
     {0x1.991195100517ep-7, 0x1.471626e852795p-6,
      0x1.7bc0130a700aep-7, 0x1.6f4dfe7156778p-8,
      0x1.97f67255da1a8p-8, 0x1.3a39175eb2d63p-6,
      0x1.5d225d5d55a49p-5, 0x1.5d225d5d55a49p-5,
      0x1.12c5838b1847bp-5, 0x1.d753394dea6f3p-6}},
    {"art", GoldenConfig::Duty3,
     {256299u, 150120u, 150007u, 150104u, 150097u,
      8022u, 189u, 235u, 48019u, 7437u},
     {7452u, 252u, 7278u},
     {0x1.20389a7dcc4d3p-5, 0x1.ccd5203c0076fp-5,
      0x1.0b72c766ecb0dp-5, 0x1.02b73e054b5e5p-6,
      0x1.1f7a4bfdc1ae8p-6, 0x1.bab300d1d8d8ap-5,
      0x1.ebec05824ee29p-4, 0x1.ebec05824ee29p-4,
      0x1.83395ebec0582p-4, 0x1.4c06409d62a27p-4}},
    {"art", GoldenConfig::FixedOffchip2G5,
     {167414u, 150120u, 150007u, 150104u, 150097u,
      8022u, 188u, 235u, 48019u, 7437u},
     {7453u, 252u, 7278u},
     {0x1.b720f4f798b0ap-5, 0x1.5f0eea82c1742p-4,
      0x1.977acf80e0cbcp-5, 0x1.8a2cc9064e8fbp-6,
      0x1.b5d5967c3e40cp-6, 0x1.513e96365852cp-4,
      0x1.76bdef3bbc2a3p-3, 0x1.76bdef3bbc2a3p-3,
      0x1.26e7319f580cep-3, 0x1.f9cbc226c58ap-4}},
    {"art", GoldenConfig::SlowMemory,
     {1185318u, 150120u, 150007u, 150104u, 150097u,
      8022u, 188u, 235u, 48019u, 7437u},
     {7452u, 252u, 7278u},
     {0x1.f48313b2a63d6p-8, 0x1.9021746613be6p-7,
      0x1.d07060ce6a11ep-8, 0x1.c1463e807690dp-9,
      0x1.f30963402d63ep-9, 0x1.8062cd60720d2p-7,
      0x1.ab1ffcd48eea1p-6, 0x1.ab1ffcd48eea1p-6,
      0x1.50203b9ff4f25p-6, 0x1.203fc635343bfp-6}},
    {"art", GoldenConfig::ZeroLatencyAlu,
     {251953u, 150120u, 150007u, 150104u, 150097u,
      8022u, 188u, 235u, 48019u, 7437u},
     {7452u, 252u, 7278u},
     {0x1.24a8f62825d29p-5, 0x1.d3ee084189293p-5,
      0x1.0f913cb05b6ccp-5, 0x1.06b3455843477p-6,
      0x1.23cc1e5e5c6b8p-6, 0x1.c1846a86a6798p-5,
      0x1.f37f80c1ab3c7p-4, 0x1.f37f80c1ab3c7p-4,
      0x1.8914754162574p-4, 0x1.51173c17f3d78p-4}},
};
// clang-format on

/** The pinned run: seed-1 stream, 50k-uop warm-up, interval reset,
 *  100k-uop measure. Returns the measured interval. */
ActivitySample
runGolden(Core &core)
{
    core.runUops(50000);
    core.takeInterval();
    core.runUops(100000);
    return core.takeInterval();
}

std::array<std::uint64_t, 10>
statsArray(const CoreStats &s)
{
    return {s.cycles, s.fetched, s.retired, s.dispatched, s.issued,
            s.branches, s.mispredicts, s.ras_returns, s.loads, s.stores};
}

TEST(CoreGolden, StatsMissesAndActivityMatchPins)
{
    for (const GoldenCase &g : golden_cases) {
        const MachineConfig cfg = goldenMachine(g.config);
        SCOPED_TRACE(std::string(g.app) + " " + cfg.describe());
        workload::TraceGenerator gen(workload::findApp(g.app), 1);
        Core core(cfg, gen);
        const ActivitySample s = runGolden(core);
        EXPECT_EQ(statsArray(core.stats()), g.stats);
        EXPECT_EQ(core.now(), g.stats[0]);
        const std::array<std::uint64_t, 3> misses = {
            core.memory().l1d().misses(), core.memory().l1i().misses(),
            core.memory().l2().misses()};
        EXPECT_EQ(misses, g.misses);
        for (std::size_t i = 0; i < num_structures; ++i)
            EXPECT_EQ(std::bit_cast<std::uint64_t>(s.activity[i]),
                      std::bit_cast<std::uint64_t>(g.activity[i]))
                << structureName(allStructures()[i]) << ": "
                << s.activity[i] << " vs " << g.activity[i];
    }
}

/** Everything a driver can observe of a core, bit for bit. */
struct Observed
{
    std::array<std::uint64_t, 10> stats;
    std::array<std::uint64_t, num_structures> activity_bits;
    std::uint64_t interval_cycles;
    std::uint64_t now;

    bool operator==(const Observed &) const = default;
};

Observed
observe(Core &core)
{
    Observed o{};
    const ActivitySample s = core.takeInterval();
    o.stats = statsArray(core.stats());
    for (std::size_t i = 0; i < num_structures; ++i)
        o.activity_bits[i] = std::bit_cast<std::uint64_t>(s.activity[i]);
    o.interval_cycles = s.cycles;
    o.now = core.now();
    return o;
}

TEST(CoreSkip, SkippingMatchesSingleCycleReference)
{
    // run(1) can never skip, so a core stepped one cycle at a time is
    // the no-skip reference for both runUops and run(N).
    MachineConfig one_mshr = baseMachine();
    one_mshr.l1d_mshrs = 1;
    MachineConfig slow_throttled = goldenMachine(GoldenConfig::SlowMemory);
    slow_throttled.fetch_duty_x8 = 5;
    const std::uint64_t uops = 30000;
    for (const char *app : {"art", "twolf"}) {
        for (const MachineConfig &cfg :
             {baseMachine(), one_mshr, slow_throttled,
              goldenMachine(GoldenConfig::ZeroLatencyAlu),
              goldenMachine(GoldenConfig::W48Narrow),
              goldenMachine(GoldenConfig::Duty3)}) {
            SCOPED_TRACE(std::string(app) + " " + cfg.describe());
            const auto &profile = workload::findApp(app);

            workload::TraceGenerator ref_gen(profile, 1);
            Core ref(cfg, ref_gen);
            while (ref.stats().retired < uops)
                ref.run(1);
            const Observed expect = observe(ref);

            workload::TraceGenerator uops_gen(profile, 1);
            Core by_uops(cfg, uops_gen);
            by_uops.runUops(uops);
            EXPECT_TRUE(observe(by_uops) == expect);

            workload::TraceGenerator cycles_gen(profile, 1);
            Core by_cycles(cfg, cycles_gen);
            by_cycles.run(expect.now);
            EXPECT_TRUE(observe(by_cycles) == expect);
        }
    }
}

TEST(CoreSkip, RunAdvancesExactlyTheRequestedCycles)
{
    MachineConfig cfg = baseMachine();
    cfg.l1d_mshrs = 1;
    workload::TraceGenerator gen(workload::findApp("art"), 1);
    Core core(cfg, gen);
    std::uint64_t expect = 0;
    for (std::uint64_t n : {1u, 7u, 300u, 1u, 4096u, 12345u, 2u}) {
        core.run(n);
        expect += n;
        EXPECT_EQ(core.now(), expect);
        EXPECT_EQ(core.stats().cycles, expect);
    }
}

TEST(CoreSkip, SkippedCyclesAreCountedOnArt)
{
    const GoldenCase &art = *std::find_if(
        std::begin(golden_cases), std::end(golden_cases),
        [](const GoldenCase &g) {
            return std::string_view(g.app) == "art" &&
                   g.config == GoldenConfig::W128;
        });
    auto counter = [](const char *name) {
        return telemetry::Registry::instance().snapshot().counter(name);
    };
    const std::uint64_t skipped0 = counter("sim.skipped_cycles");
    const std::uint64_t cycles0 = counter("sim.cycles");
    workload::TraceGenerator gen(workload::findApp("art"), 1);
    Core core(baseMachine(), gen);
    runGolden(core);
    const std::uint64_t skipped = counter("sim.skipped_cycles") - skipped0;
    EXPECT_GT(skipped, 0u);
    EXPECT_LT(skipped, art.stats[0]);
    EXPECT_EQ(counter("sim.cycles") - cycles0, art.stats[0]);
}

} // namespace
} // namespace ramp::sim
