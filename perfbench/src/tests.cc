/**
 * @file
 * The benchmark's own tests: the tail-percentile rule, determinism of
 * the generated inputs (chip decision rotation, serve request mix),
 * and bit-identity of the decomposed replay with
 * core::Evaluator::tryEvaluate.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "drm/adaptation.hh"
#include "replay.hh"
#include "serve/protocol.hh"
#include "stats.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

TEST(TailPercentile, LeavesAtLeastTenSamplesBeyond)
{
    const double standard[] = {0.99, 0.95, 0.90, 0.75, 0.50};
    for (std::size_t n = 1; n <= 5000; ++n) {
        const auto p = tailPercentile(n);
        if (!p) {
            EXPECT_LT(samplesBeyond(n, 0.5), 10u) << n;
            continue;
        }
        EXPECT_GE(samplesBeyond(n, *p), 10u) << n;
        // No higher standard percentile would also qualify.
        for (double q : standard) {
            if (q > *p) {
                EXPECT_LT(samplesBeyond(n, q), 10u) << n << " " << q;
            }
        }
    }
    EXPECT_EQ(tailPercentile(1000), 0.99);
    EXPECT_EQ(tailPercentile(999), 0.95);
    EXPECT_EQ(tailPercentile(20), 0.50);
    EXPECT_FALSE(tailPercentile(19).has_value());
}

TEST(TailPercentile, SummaryCountsMatchTheRule)
{
    std::vector<double> samples;
    for (int i = 1000; i >= 1; --i)
        samples.push_back(i);
    const LatencySummary s = summarize(samples);
    EXPECT_EQ(s.samples, 1000u);
    EXPECT_EQ(s.p50, 500.0);
    EXPECT_EQ(s.tail_p, 0.99);
    std::size_t beyond = 0;
    for (double x : samples)
        beyond += x > s.tail;
    EXPECT_EQ(beyond, 10u);

    const LatencySummary few = summarize({3.0, 1.0, 2.0});
    EXPECT_EQ(few.tail_p, 1.0); // too few samples: the maximum
    EXPECT_EQ(few.tail, 3.0);
}

TEST(ChipRotation, SameSeedSameRotationCoveringEveryCombination)
{
    const auto a = chipRotation(7);
    const auto b = chipRotation(7);
    ASSERT_EQ(a.size(), 24u);
    ASSERT_EQ(a.size(), b.size());
    std::set<std::tuple<std::size_t, std::size_t, int>> seen;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].cores, b[i].cores);
        EXPECT_EQ(a[i].mix, b[i].mix);
        EXPECT_EQ(a[i].policy, b[i].policy);
        seen.emplace(a[i].cores, a[i].mix, static_cast<int>(a[i].policy));
    }
    EXPECT_EQ(seen.size(), 24u);

    const auto other = chipRotation(8);
    bool differs = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        differs |= a[i].cores != other[i].cores || a[i].mix != other[i].mix ||
                   a[i].policy != other[i].policy;
    EXPECT_TRUE(differs);
}

std::vector<std::string>
suiteNames()
{
    std::vector<std::string> names;
    for (const auto &app : workload::standardApps())
        names.push_back(app.name);
    return names;
}

TEST(ServeStream, SameSeedSameRequests)
{
    const auto apps = suiteNames();
    for (std::size_t c = 0; c < 4; ++c) {
        ServeStream a(11, 0, c, apps);
        ServeStream b(11, 0, c, apps);
        for (int k = 0; k < 500; ++k)
            ASSERT_EQ(serve::encodeRequest(a.next()),
                      serve::encodeRequest(b.next()))
                << c << " " << k;
    }
    ServeStream a(11, 0, 0, apps);
    ServeStream other(12, 0, 0, apps);
    bool differs = false;
    for (int k = 0; k < 50; ++k)
        differs |= serve::encodeRequest(a.next()) !=
                   serve::encodeRequest(other.next());
    EXPECT_TRUE(differs);
}

TEST(ServeStream, MixesEveryVerbOnOwnReportedChips)
{
    const auto apps = suiteNames();
    std::set<std::string> chips_by_other_connections;
    std::set<serve::RequestType> verbs;
    for (std::size_t c = 0; c < 4; ++c) {
        ServeStream stream(3, 0, c, apps);
        std::set<std::string> reported, own;
        for (int k = 0; k < 2000; ++k) {
            const serve::Request req = stream.next();
            verbs.insert(req.type);
            // Every request must parse as the server would see it.
            ASSERT_TRUE(serve::parseRequest(serve::encodeRequest(req)).ok());
            if (req.type == serve::RequestType::ReportUsage)
                reported.insert(req.chip);
            if (req.type == serve::RequestType::RemainingLifetime) {
                EXPECT_TRUE(reported.count(req.chip)) << req.chip;
            }
            if (req.type == serve::RequestType::ReportUsage ||
                req.type == serve::RequestType::RemainingLifetime)
                own.insert(req.chip);
        }
        for (const auto &chip : own)
            EXPECT_FALSE(chips_by_other_connections.count(chip)) << chip;
        chips_by_other_connections.insert(own.begin(), own.end());
    }
    EXPECT_EQ(verbs.size(), 5u);
}

TEST(ServeStream, VerbSharesAreBenchClustersSchedule)
{
    // bench_cluster's weights without stats, select_chip standing in
    // for select_dtm (out of 94).
    const std::map<serve::RequestType, double> want = {
        {serve::RequestType::Evaluate, 55.0 / 94.0},
        {serve::RequestType::SelectDrm, 15.0 / 94.0},
        {serve::RequestType::SelectChip, 8.0 / 94.0},
        {serve::RequestType::ReportUsage, 10.0 / 94.0},
        {serve::RequestType::RemainingLifetime, 6.0 / 94.0}};
    const auto apps = suiteNames();
    std::map<serve::RequestType, double> seen;
    const int per_connection = 10000;
    for (std::size_t c = 0; c < 4; ++c) {
        ServeStream stream(5, 0, c, apps);
        for (int k = 0; k < per_connection; ++k)
            seen[stream.next().type] += 1.0 / (4 * per_connection);
    }
    ASSERT_EQ(seen.size(), want.size());
    for (const auto &[type, share] : want)
        EXPECT_NEAR(seen[type], share, 0.01)
            << serve::requestTypeName(type);
}

TEST(DecomposedReplay, EqualsTryEvaluateBitForBit)
{
    core::EvalParams params;
    params.warmup_uops = 20'000;
    params.measure_uops = 30'000;
    const core::Evaluator evaluator(params);
    const auto cfgs = drm::configSpace(drm::AdaptationSpace::Arch);
    for (const auto &app : workload::standardApps()) {
        for (std::size_t i : {std::size_t{0}, cfgs.size() - 1}) {
            auto want = evaluator.tryEvaluate(cfgs[i], app);
            ReplayTimes times;
            auto got = decomposedEvaluate(evaluator, cfgs[i], app, times);
            ASSERT_TRUE(want.ok());
            ASSERT_TRUE(got.ok());
            EXPECT_TRUE(sameOperatingPoint(got.value(), want.value()))
                << app.name << " config " << i;
            EXPECT_GE(times.uops, params.warmup_uops + params.measure_uops);
            EXPECT_GT(times.gen_s, 0.0);
        }
    }
}

TEST(DecomposedReplay, ComparisonSeesOneBit)
{
    core::EvalParams params;
    params.warmup_uops = 5'000;
    params.measure_uops = 5'000;
    const core::Evaluator short_eval(params);
    const auto &app = workload::standardApps().front();
    auto op = short_eval.tryEvaluate(sim::baseMachine(), app);
    ASSERT_TRUE(op.ok());
    core::OperatingPoint changed = op.value();
    EXPECT_TRUE(sameOperatingPoint(changed, op.value()));
    changed.temps_k[3] = std::nextafter(changed.temps_k[3], 1e9);
    EXPECT_FALSE(sameOperatingPoint(changed, op.value()));
    changed = op.value();
    changed.stats.mispredicts += 1;
    EXPECT_FALSE(sameOperatingPoint(changed, op.value()));
}

} // namespace
} // namespace perfbench
