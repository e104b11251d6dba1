/**
 * @file
 * Tests for JSON serialisation of operating points and FIT reports:
 * the output must be well-formed and carry the right numbers.
 */

#include <gtest/gtest.h>

#include "core/report_json.hh"

namespace ramp::core {
namespace {

OperatingPoint
syntheticOp()
{
    OperatingPoint op;
    op.config = sim::baseMachine();
    op.activity.cycles = 1000;
    op.activity.retired = 1730;
    op.activity.activity.fill(0.25);
    op.temps_k.fill(360.0);
    op.sink_temp_k = 330.0;
    op.power.dynamic_w.fill(1.5);
    op.power.leakage_w.fill(0.5);
    op.l1d_miss_ratio = 0.03;
    return op;
}

FitReport
syntheticReport()
{
    QualificationSpec s;
    s.t_qual_k = 380.0;
    s.alpha_qual.fill(0.5);
    sim::PerStructure<double> ones;
    ones.fill(1.0);
    sim::PerStructure<double> temps;
    temps.fill(380.0);
    sim::PerStructure<double> act;
    act.fill(0.5);
    return steadyFit(Qualification(s), ones, temps, act, 1.0, 4.0);
}

TEST(ReportJson, OperatingPointFieldsPresent)
{
    const std::string out = util::writeJson(toJson(syntheticOp()));
    EXPECT_NE(out.find("\"ipc\":1.73"), std::string::npos);
    EXPECT_NE(out.find("\"power_total_w\":20"), std::string::npos);
    EXPECT_NE(out.find("\"temp_max_k\":360"), std::string::npos);
    EXPECT_NE(out.find("\"IntALU\""), std::string::npos);
    EXPECT_NE(out.find("\"FPU\""), std::string::npos);
    EXPECT_NE(out.find("\"l1d_miss_ratio\":0.03"),
              std::string::npos);
    // One complete root object per document.
    EXPECT_EQ(out.front(), '{');
    EXPECT_EQ(out.back(), '}');

    const auto doc = util::parseJson(out);
    ASSERT_TRUE(doc.has_value());
    EXPECT_DOUBLE_EQ(doc->at("ipc").number, 1.73);
    EXPECT_DOUBLE_EQ(doc->at("power_total_w").number, 20.0);
    EXPECT_EQ(doc->at("config").at("window").number,
              sim::baseMachine().window_size);
    EXPECT_EQ(doc->at("structures").object.size(),
              sim::allStructures().size());
    EXPECT_DOUBLE_EQ(
        doc->at("structures").at("IntALU").at("temp_k").number, 360.0);
}

TEST(ReportJson, FitReportAtQualPointCarriesTarget)
{
    const FitReport report = syntheticReport();
    const std::string out = util::writeJson(toJson(report));
    // At the qualification point the total is the 4000 FIT target.
    // Its shortest round-trip spelling is 3999.999999999999, so the
    // value is checked on the parsed document below, to the same
    // 12 significant digits the old "total_fit":4000 spelling held.
    EXPECT_NE(out.find("\"total_fit\":"), std::string::npos);
    for (const char *m : {"\"EM\"", "\"SM\"", "\"TDDB\"", "\"TC\""})
        EXPECT_NE(out.find(m), std::string::npos) << m;
    EXPECT_NE(out.find("\"by_structure\""), std::string::npos);
    EXPECT_NE(out.find("\"mttf_years\""), std::string::npos);

    // Lossless: every number parses back to the report's own double.
    const auto doc = util::parseJson(out);
    ASSERT_TRUE(doc.has_value());
    EXPECT_NEAR(doc->at("total_fit").number, 4000.0, 4000.0 * 1e-12);
    EXPECT_EQ(doc->at("total_fit").number, report.totalFit());
    EXPECT_EQ(doc->at("mttf_years").number, report.mttfYears());
    for (auto m : allMechanisms())
        EXPECT_EQ(doc->at("by_mechanism")
                      .at(mechanismName(m))
                      .number,
                  report.mechanismFit(m));
    for (auto s : sim::allStructures())
        EXPECT_EQ(doc->at("by_structure")
                      .at(sim::structureName(s))
                      .at("fit")
                      .number,
                  report.structureFit(s));
}

TEST(ReportJson, BalancedBraces)
{
    for (const std::string &out :
         {util::writeJson(toJson(syntheticOp())),
          util::writeJson(toJson(syntheticReport()))}) {
        int depth = 0;
        bool in_string = false;
        char prev = 0;
        for (char c : out) {
            if (c == '"' && prev != '\\')
                in_string = !in_string;
            if (!in_string) {
                depth += c == '{' || c == '[';
                depth -= c == '}' || c == ']';
            }
            prev = c;
            ASSERT_GE(depth, 0);
        }
        EXPECT_EQ(depth, 0);
        EXPECT_FALSE(in_string);
    }
}

} // namespace
} // namespace ramp::core
