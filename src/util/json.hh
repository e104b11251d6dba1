/**
 * @file
 * The project's one JSON emitter and parser. Every machine-readable
 * document (reports, traces, metrics, protocol messages, bench
 * artifacts) is built as a JsonValue tree and serialized by
 * writeJson: one string escaper, one number formatter (shortest
 * round-trip form; non-finite numbers become null, since JSON has
 * no NaN/Inf). parseJson is the strict recursive-descent reader
 * that tests, tooling and the serve protocol use to read them back.
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ramp {
namespace util {

/** A parsed JSON document node. */
struct JsonValue
{
    enum class Type {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> array;
    /** Insertion-ordered; duplicate keys are kept as parsed. */
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isNull() const { return type == Type::Null; }
    bool isBool() const { return type == Type::Bool; }
    bool isNumber() const { return type == Type::Number; }
    bool isString() const { return type == Type::String; }
    bool isArray() const { return type == Type::Array; }
    bool isObject() const { return type == Type::Object; }

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(std::string_view key) const;

    /** find() that dies (panic) when the key is missing. */
    const JsonValue &at(std::string_view key) const;

    // --- Construction helpers (building documents to serialize) ---

    static JsonValue makeNull();
    static JsonValue makeBool(bool v);
    static JsonValue makeNumber(double v);
    static JsonValue makeString(std::string v);
    static JsonValue makeArray();
    static JsonValue makeObject();

    /** Append an object member (no duplicate-key check) and return
     *  *this for chaining. Panics when this is not an object. */
    JsonValue &set(std::string key, JsonValue v);

    /** Append an array element; panics when this is not an array. */
    JsonValue &push(JsonValue v);
};

/**
 * Serialize a document tree. Exact round-trip with parseJson: string
 * escaping matches the parser's decoding, and numbers are printed
 * with the shortest representation that parses back to the same
 * double (integral values in range print without an exponent or
 * fraction). Non-finite numbers cannot be represented and are
 * emitted as null.
 */
void writeJson(std::ostream &os, const JsonValue &value);

/** writeJson into a string (protocol messages, tests). */
std::string writeJson(const JsonValue &value);

/**
 * Parse a complete JSON document. Strict: one root value, no trailing
 * garbage, no comments, no trailing commas. \uXXXX escapes are
 * decoded to UTF-8 (surrogate pairs included).
 *
 * @param text The document.
 * @param error When non-null, receives a message with the byte
 *        offset on failure.
 * @return The root value, or nullopt on malformed input.
 */
std::optional<JsonValue> parseJson(std::string_view text,
                                   std::string *error = nullptr);

} // namespace util
} // namespace ramp

