/**
 * @file
 * JSON documents for the library's result types, for plotting
 * scripts and CI diffing. Each function builds one complete
 * document; serialize it with util::writeJson.
 */

#pragma once

#include "core/engine.hh"
#include "core/evaluator.hh"
#include "util/json.hh"

namespace ramp {
namespace core {

/** An operating point (config, IPC, power, temps, misses). */
util::JsonValue toJson(const OperatingPoint &op);

/** A FIT report (per structure x mechanism, totals, MTTF). */
util::JsonValue toJson(const FitReport &report);

} // namespace core
} // namespace ramp
