/**
 * @file
 * Tests for the JSON emitter and parser: structure, escaping,
 * numeric edge cases, round trips, and misuse detection.
 */

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "util/json.hh"

namespace ramp::util {
namespace {

TEST(Json, EmptyObject)
{
    EXPECT_EQ(writeJson(JsonValue::makeObject()), "{}");
    EXPECT_EQ(writeJson(JsonValue::makeArray()), "[]");
}

TEST(Json, FlatObject)
{
    JsonValue root = JsonValue::makeObject();
    root.set("name", JsonValue::makeString("bzip2"))
        .set("ipc", JsonValue::makeNumber(1.73))
        .set("count", JsonValue::makeNumber(42))
        .set("ok", JsonValue::makeBool(true));
    EXPECT_EQ(writeJson(root),
              "{\"name\":\"bzip2\",\"ipc\":1.73,\"count\":42,"
              "\"ok\":true}");
}

TEST(Json, NestedStructures)
{
    JsonValue inner = JsonValue::makeObject();
    inner.set("x", JsonValue::makeNumber(3.5));
    JsonValue arr = JsonValue::makeArray();
    arr.push(JsonValue::makeNumber(1))
        .push(JsonValue::makeNumber(2))
        .push(std::move(inner));
    JsonValue obj = JsonValue::makeObject();
    obj.set("y", JsonValue::makeBool(false));
    JsonValue root = JsonValue::makeObject();
    root.set("arr", std::move(arr)).set("obj", std::move(obj));
    EXPECT_EQ(writeJson(root),
              "{\"arr\":[1,2,{\"x\":3.5}],\"obj\":{\"y\":false}}");
}

TEST(Json, ArrayAsRoot)
{
    JsonValue root = JsonValue::makeArray();
    root.push(JsonValue::makeString("a"))
        .push(JsonValue::makeString("b"));
    EXPECT_EQ(writeJson(root), "[\"a\",\"b\"]");
}

TEST(Json, EscapesStrings)
{
    JsonValue root = JsonValue::makeObject();
    root.set("k", JsonValue::makeString("a\"b\\c\nd\te"));
    EXPECT_EQ(writeJson(root), "{\"k\":\"a\\\"b\\\\c\\nd\\te\"}");
}

TEST(Json, ControlCharactersEscapedAsUnicode)
{
    JsonValue root = JsonValue::makeObject();
    root.set("k", JsonValue::makeString(std::string("\x01\x1f", 2)));
    EXPECT_EQ(writeJson(root), "{\"k\":\"\\u0001\\u001f\"}");
}

TEST(Json, NonFiniteNumbersBecomeNull)
{
    JsonValue root = JsonValue::makeObject();
    root.set("nan", JsonValue::makeNumber(std::nan("")))
        .set("inf", JsonValue::makeNumber(INFINITY))
        .set("-inf", JsonValue::makeNumber(-INFINITY));
    EXPECT_EQ(writeJson(root),
              "{\"nan\":null,\"inf\":null,\"-inf\":null}");
}

TEST(Json, ExplicitNull)
{
    JsonValue root = JsonValue::makeArray();
    root.push(JsonValue::makeNull());
    EXPECT_EQ(writeJson(root), "[null]");
}

TEST(JsonParse, Scalars)
{
    EXPECT_TRUE(parseJson("null")->isNull());
    EXPECT_TRUE(parseJson("true")->boolean);
    EXPECT_FALSE(parseJson("false")->boolean);
    EXPECT_DOUBLE_EQ(parseJson("-12.5e2")->number, -1250.0);
    EXPECT_EQ(parseJson("\"hi\"")->str, "hi");
}

TEST(JsonParse, NestedDocument)
{
    const auto doc = parseJson(
        R"({"counters":{"a":3},"list":[1,2,3],"flag":true})");
    ASSERT_TRUE(doc.has_value());
    ASSERT_TRUE(doc->isObject());
    EXPECT_DOUBLE_EQ(doc->at("counters").at("a").number, 3.0);
    ASSERT_EQ(doc->at("list").array.size(), 3u);
    EXPECT_DOUBLE_EQ(doc->at("list").array[2].number, 3.0);
    EXPECT_TRUE(doc->at("flag").boolean);
    EXPECT_EQ(doc->find("absent"), nullptr);
}

TEST(JsonParse, StringEscapes)
{
    const auto doc = parseJson(R"(["a\"b\\c\n", "Aé"])");
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->array[0].str, "a\"b\\c\n");
    EXPECT_EQ(doc->array[1].str, "A\xc3\xa9");
}

TEST(JsonParse, SurrogatePairsDecodeToUtf8)
{
    // U+1F600 as a surrogate pair.
    const auto doc = parseJson(R"("😀")");
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->str, "\xf0\x9f\x98\x80");
}

TEST(JsonParse, RejectsMalformedInput)
{
    std::string err;
    EXPECT_FALSE(parseJson("", &err).has_value());
    EXPECT_FALSE(parseJson("{", &err).has_value());
    EXPECT_FALSE(parseJson("[1,]", &err).has_value());
    EXPECT_FALSE(parseJson("{\"a\" 1}", &err).has_value());
    EXPECT_FALSE(parseJson("12 34", &err).has_value());
    EXPECT_FALSE(parseJson("nul", &err).has_value());
    EXPECT_FALSE(parseJson("\"unterminated", &err).has_value());
    EXPECT_FALSE(err.empty());
}

TEST(JsonParseDeath, AtMissingKeyPanics)
{
    const auto doc = parseJson("{}");
    EXPECT_DEATH(doc->at("missing"), "missing");
}

TEST(WriteJson, BuildsAndSerializesTrees)
{
    JsonValue root = JsonValue::makeObject();
    root.set("name", JsonValue::makeString("serve"))
        .set("ok", JsonValue::makeBool(true))
        .set("none", JsonValue::makeNull());
    JsonValue tags = JsonValue::makeArray();
    tags.push(JsonValue::makeNumber(1.0))
        .push(JsonValue::makeNumber(2.5));
    root.set("tags", std::move(tags));
    EXPECT_EQ(writeJson(root),
              "{\"name\":\"serve\",\"ok\":true,\"none\":null,"
              "\"tags\":[1,2.5]}");
}

TEST(WriteJson, EscapingIsPinnedByteForByte)
{
    // Every character the escaper special-cases, in one string: the
    // five short escapes, then control characters as \u00XX.
    const std::string nasty = "a\"b\\c\nd\te\rf\x01g\x1fh";
    JsonValue root = JsonValue::makeObject();
    root.set("k", JsonValue::makeString(nasty));
    EXPECT_EQ(writeJson(root),
              "{\"k\":\"a\\\"b\\\\c\\nd\\te\\rf\\u0001g\\u001fh\"}");
    // Keys go through the same escaper.
    JsonValue keyed = JsonValue::makeObject();
    keyed.set(nasty, JsonValue::makeNull());
    EXPECT_EQ(writeJson(keyed),
              "{\"a\\\"b\\\\c\\nd\\te\\rf\\u0001g\\u001fh\":null}");
}

TEST(WriteJson, RoundTripsThroughParseJson)
{
    JsonValue root = JsonValue::makeObject();
    root.set("int", JsonValue::makeNumber(9007199254740991.0));
    root.set("neg", JsonValue::makeNumber(-42.0));
    // A double whose shortest decimal form needs 17 digits: %.12g
    // would lose bits, to_chars must not.
    root.set("pi", JsonValue::makeNumber(3.141592653589793));
    root.set("tiny", JsonValue::makeNumber(5e-324));
    root.set("text", JsonValue::makeString("x\"\\\n\x02"));
    root.set("inf", JsonValue::makeNumber(
                        std::numeric_limits<double>::infinity()));

    const auto doc = parseJson(writeJson(root));
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->at("int").number, 9007199254740991.0);
    EXPECT_EQ(doc->at("neg").number, -42.0);
    EXPECT_EQ(doc->at("pi").number, 3.141592653589793);
    EXPECT_EQ(doc->at("tiny").number, 5e-324);
    EXPECT_EQ(doc->at("text").str, "x\"\\\n\x02");
    // Non-finite values have no JSON spelling; null.
    EXPECT_TRUE(doc->at("inf").isNull());
}

TEST(WriteJson, SecondRoundTripIsAFixedPoint)
{
    // writeJson(parseJson(writeJson(v))) == writeJson(v): the wire
    // form is canonical, which is what byte-identity between the
    // served and direct evaluation paths rests on.
    JsonValue root = JsonValue::makeObject();
    root.set("perf", JsonValue::makeNumber(0.8125));
    root.set("fit", JsonValue::makeNumber(3171.381438049162));
    root.set("app", JsonValue::makeString("MPGdec"));
    const std::string once = writeJson(root);
    const auto doc = parseJson(once);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(writeJson(*doc), once);
}

TEST(WriteJsonDeath, SetOnNonObjectPanics)
{
    JsonValue arr = JsonValue::makeArray();
    EXPECT_DEATH(arr.set("k", JsonValue::makeNull()), "set");
}

TEST(WriteJsonDeath, PushOnNonArrayPanics)
{
    JsonValue obj = JsonValue::makeObject();
    EXPECT_DEATH(obj.push(JsonValue::makeNull()), "push");
}

} // namespace
} // namespace ramp::util
