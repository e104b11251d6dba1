#include "core/report_json.hh"

#include <string>

namespace ramp {
namespace core {

using sim::allStructures;
using sim::structureIndex;
using util::JsonValue;

namespace {

JsonValue
num(double v)
{
    return JsonValue::makeNumber(v);
}

} // namespace

JsonValue
toJson(const OperatingPoint &op)
{
    JsonValue config = JsonValue::makeObject();
    config.set("describe", JsonValue::makeString(op.config.describe()))
        .set("frequency_ghz", num(op.config.frequency_ghz))
        .set("voltage_v", num(op.config.voltage_v))
        .set("window", num(op.config.window_size))
        .set("int_alu", num(op.config.num_int_alu))
        .set("fpu", num(op.config.num_fpu));

    JsonValue root = JsonValue::makeObject();
    root.set("config", std::move(config))
        .set("ipc", num(op.ipc()))
        .set("uops_per_second", num(op.uopsPerSecond()))
        .set("power_dynamic_w", num(op.power.totalDynamic()))
        .set("power_leakage_w", num(op.power.totalLeakage()))
        .set("power_total_w", num(op.totalPower()))
        .set("temp_max_k", num(op.maxTemp()))
        .set("temp_avg_k", num(op.avgTemp()))
        .set("temp_sink_k", num(op.sink_temp_k))
        .set("l1d_miss_ratio", num(op.l1d_miss_ratio))
        .set("l1i_miss_ratio", num(op.l1i_miss_ratio))
        .set("l2_miss_ratio", num(op.l2_miss_ratio))
        .set("mispredict_rate", num(op.stats.mispredictRate()));

    JsonValue structures = JsonValue::makeObject();
    for (auto s : allStructures()) {
        const auto i = structureIndex(s);
        JsonValue entry = JsonValue::makeObject();
        entry.set("activity", num(op.activity.activity[i]))
            .set("temp_k", num(op.temps_k[i]))
            .set("power_w",
                 num(op.power.dynamic_w[i] + op.power.leakage_w[i]));
        structures.set(std::string(sim::structureName(s)),
                       std::move(entry));
    }
    root.set("structures", std::move(structures));
    return root;
}

JsonValue
toJson(const FitReport &report)
{
    JsonValue root = JsonValue::makeObject();
    root.set("total_fit", num(report.totalFit()))
        .set("mttf_years", num(report.mttfYears()))
        .set("total_time_s", num(report.total_time_s));

    JsonValue by_mechanism = JsonValue::makeObject();
    for (auto m : allMechanisms())
        by_mechanism.set(std::string(mechanismName(m)),
                         num(report.mechanismFit(m)));
    root.set("by_mechanism", std::move(by_mechanism));

    JsonValue by_structure = JsonValue::makeObject();
    for (auto s : allStructures()) {
        const auto i = structureIndex(s);
        JsonValue mechanisms = JsonValue::makeObject();
        for (auto m : allMechanisms())
            mechanisms.set(std::string(mechanismName(m)),
                           num(report.fit[i][mechanismIndex(m)]));
        JsonValue entry = JsonValue::makeObject();
        entry.set("fit", num(report.structureFit(s)))
            .set("avg_temp_k", num(report.avg_temp_k[i]))
            .set("mechanisms", std::move(mechanisms));
        by_structure.set(std::string(sim::structureName(s)),
                         std::move(entry));
    }
    root.set("by_structure", std::move(by_structure));
    return root;
}

} // namespace core
} // namespace ramp
