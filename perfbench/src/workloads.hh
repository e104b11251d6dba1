/**
 * @file
 * The three benchmark workloads, and the deterministic input
 * generators the benchmark's tests pin. METRICS.md says why each
 * workload exists and which metric each layer should move.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cmp/chip_drm.hh"
#include "harness.hh"
#include "serve/protocol.hh"

namespace perfbench {

/** Cold oracle exploration of {MP3dec, twolf, art} over ArchDVS,
 *  then DRM selection at four qualification temperatures. */
void runExploreCold(const RunOptions &opts, Report &report);

/** Closed loop of chip DRM decisions on a warm cache. */
void runChipWarm(const RunOptions &opts, Report &report);

/** Closed loop of four protocol-v3 connections against an in-process
 *  server, reads interleaved with aging-registry writes. */
void runServeMix(const RunOptions &opts, Report &report);

/** One chip DRM decision's shape: grid size, duty mix, policy. */
struct ChipCombo
{
    std::size_t cores = 1;
    std::size_t mix = 0;
    cmp::BudgetPolicy policy = cmp::BudgetPolicy::PerCore;
};

/** The decision rotation: every (grid, mix, policy) combination
 *  once, in a seed-determined order. */
std::vector<ChipCombo> chipRotation(std::uint64_t seed);

/**
 * The request stream of one serve_mix connection. Each request is a
 * pure function of (seed, pass, connection, index) plus which of the
 * connection's own chips have reported usage so far, which the
 * stream itself tracks -- so the same seed always yields the same
 * stream, and every reply is deterministic.
 */
class ServeStream
{
  public:
    ServeStream(std::uint64_t seed, int pass, std::size_t connection,
                const std::vector<std::string> &apps);

    /** The next request (ids are left to the client). */
    serve::Request next();

    /** Requests produced so far. */
    std::size_t produced() const { return index_; }

  private:
    std::uint64_t seed_;
    int pass_;
    std::size_t connection_;
    std::vector<std::string> apps_;
    std::size_t index_ = 0;
    /** Last report_usage seq per owned chip (0 = never reported). */
    std::vector<std::uint64_t> chip_seq_;
};

} // namespace perfbench
