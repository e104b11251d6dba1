#include "stats.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>

#include "util/stats.hh"

namespace perfbench {

std::size_t
samplesBeyond(std::size_t n, double p)
{
    if (n == 0)
        return 0;
    // util::percentile's nearest-rank index: ceil(p n) - 1, at least 0.
    const double rank = std::ceil(p * static_cast<double>(n));
    const std::size_t index =
        rank <= 1.0 ? 0 : std::min(static_cast<std::size_t>(rank) - 1,
                                   n - 1);
    return n - 1 - index;
}

std::optional<double>
tailPercentile(std::size_t n)
{
    for (double p : {0.99, 0.95, 0.90, 0.75, 0.50})
        if (samplesBeyond(n, p) >= 10)
            return p;
    return std::nullopt;
}

LatencySummary
summarize(std::vector<double> samples)
{
    LatencySummary out;
    out.samples = samples.size();
    if (samples.empty())
        return out;
    std::sort(samples.begin(), samples.end());
    out.p50 = ramp::util::percentile(samples, 0.5);
    const auto p = tailPercentile(samples.size());
    out.tail_p = p.value_or(1.0);
    out.tail = ramp::util::percentile(samples, out.tail_p);
    return out;
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    return ramp::util::percentile(samples, 0.5);
}

SliceSummary
sliceSummary(std::vector<Completion> done, std::size_t per_slice)
{
    SliceSummary out;
    out.per_slice = per_slice;
    out.tail_p = tailPercentile(per_slice).value_or(1.0);
    std::sort(done.begin(), done.end(),
              [](const Completion &a, const Completion &b) {
                  return a.end_s < b.end_s;
              });
    std::vector<double> rates, p50s, tails;
    for (std::size_t first = 0; first + per_slice <= done.size();
         first += per_slice) {
        std::vector<double> lat;
        for (std::size_t i = first; i < first + per_slice; ++i)
            lat.push_back(done[i].latency_s);
        std::sort(lat.begin(), lat.end());
        // A slice spans from its earliest start to its last
        // completion.
        double begin = done[first].end_s - done[first].latency_s;
        for (std::size_t i = first; i < first + per_slice; ++i)
            begin = std::min(begin, done[i].end_s - done[i].latency_s);
        const double end = done[first + per_slice - 1].end_s;
        rates.push_back(static_cast<double>(per_slice) / (end - begin));
        p50s.push_back(ramp::util::percentile(lat, 0.5));
        tails.push_back(ramp::util::percentile(lat, out.tail_p));
    }
    out.slices = rates.size();
    out.throughput_per_s = median(rates);
    out.p50_s = median(p50s);
    out.tail_s = median(tails);
    if (!rates.empty()) {
        const auto [lo, hi] = std::minmax_element(rates.begin(), rates.end());
        out.min_throughput_per_s = *lo;
        out.max_throughput_per_s = *hi;
    }
    return out;
}

void
Digest::add(std::string_view bytes)
{
    for (unsigned char c : bytes) {
        h_ ^= c;
        h_ *= 0x100000001b3ull;
    }
}

void
Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xffu;
        h_ *= 0x100000001b3ull;
    }
}

void
Digest::add(double v)
{
    add(std::bit_cast<std::uint64_t>(v));
}

std::optional<std::uint64_t>
sortedLinesDigest(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        return std::nullopt;
    std::vector<std::string> lines;
    for (std::string line; std::getline(is, line);)
        lines.push_back(std::move(line));
    std::sort(lines.begin(), lines.end());
    Digest d;
    for (const auto &line : lines) {
        d.add(line);
        d.add(std::string_view("\n"));
    }
    return d.value();
}

} // namespace perfbench
