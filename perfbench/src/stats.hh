/**
 * @file
 * Sample statistics and digests shared by the benchmark workloads.
 *
 * Percentiles are nearest-rank (util::percentile), so a reported
 * percentile is always one measured sample. A tail percentile is only
 * reported when at least ten samples lie beyond it; the rule lives in
 * tailPercentile() so every workload applies it the same way.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/** Samples strictly above the nearest-rank @p p percentile of @p n
 *  samples (p in [0, 1]). */
std::size_t samplesBeyond(std::size_t n, double p);

/**
 * The highest of the tail percentiles 99, 95, 90, 75 and 50
 * that has at least ten of @p n samples beyond it; nullopt when not
 * even the median has (n < 20).
 */
std::optional<double> tailPercentile(std::size_t n);

/** Latency summary of one sample set. */
struct LatencySummary
{
    std::size_t samples = 0;
    double p50 = 0.0;
    /** The tailPercentile() value, or the maximum when no percentile
     *  qualifies (then tail_p is 1.0). */
    double tail = 0.0;
    double tail_p = 0.0;
};

/** Summarize unsorted @p samples (empty gives all zeros). */
LatencySummary summarize(std::vector<double> samples);

/** Nearest-rank median of unsorted @p samples; 0 when empty. */
double median(std::vector<double> samples);

/** One completed operation of a closed loop. */
struct Completion
{
    double end_s = 0.0;     ///< When it finished.
    double latency_s = 0.0; ///< How long it took.
};

/**
 * A closed loop's completions summarized slice by slice. In finishing
 * order, the completions are cut into consecutive slices of
 * per_slice (a trailing partial slice is dropped); each slice gets its
 * own throughput, median and tail latency, and the summary keeps the
 * median of each across slices, so a burst of host contention that
 * spoils a few slices does not move it.
 */
struct SliceSummary
{
    std::size_t slices = 0;
    std::size_t per_slice = 0;
    double tail_p = 0.0; ///< tailPercentile(per_slice).
    double throughput_per_s = 0.0;
    double p50_s = 0.0;
    double tail_s = 0.0;
    /** Slowest and fastest slice throughput. */
    double min_throughput_per_s = 0.0;
    double max_throughput_per_s = 0.0;
};

/** Summarize @p done in slices of @p per_slice completions (at least
 *  20, so a tail percentile exists). */
SliceSummary sliceSummary(std::vector<Completion> done,
                          std::size_t per_slice);

/** 64-bit FNV-1a over bytes; feeds fingerprints of deterministic
 *  work (cache files, selection tables, reply streams). */
class Digest
{
  public:
    void add(std::string_view bytes);
    void add(std::uint64_t v);
    /** Adds the bit pattern, so -0.0 and 0.0 differ. */
    void add(double v);

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Digest of a text file's lines in sorted order, so the record
 *  order of a concurrently appended log does not matter. Returns
 *  nullopt when the file cannot be read. */
std::optional<std::uint64_t> sortedLinesDigest(const std::string &path);

} // namespace perfbench
