#include "json/json.h"

#include <gtest/gtest.h>

#include <cmath>

#include "json_reference.h"
#include "workload/tweet_generator.h"

namespace leveldbpp {
namespace json {

TEST(Json, ParseScalars) {
  Value v;
  ASSERT_TRUE(Parse("null", &v));
  EXPECT_TRUE(v.is_null());
  ASSERT_TRUE(Parse("true", &v));
  EXPECT_TRUE(v.as_bool());
  ASSERT_TRUE(Parse("false", &v));
  EXPECT_FALSE(v.as_bool());
  ASSERT_TRUE(Parse("42", &v));
  EXPECT_EQ(42, v.as_int());
  ASSERT_TRUE(Parse("-3.5", &v));
  EXPECT_DOUBLE_EQ(-3.5, v.as_number());
  ASSERT_TRUE(Parse("1e3", &v));
  EXPECT_DOUBLE_EQ(1000.0, v.as_number());
  ASSERT_TRUE(Parse("\"hello\"", &v));
  EXPECT_EQ("hello", v.as_string());
}

TEST(Json, ParseStringEscapes) {
  Value v;
  ASSERT_TRUE(Parse(R"("a\"b\\c\/d\n\tA")", &v));
  EXPECT_EQ("a\"b\\c/d\n\tA", v.as_string());
}

TEST(Json, ParseNested) {
  Value v;
  ASSERT_TRUE(Parse(R"({"a":[1,2,{"b":"c"}],"d":{"e":null}})", &v));
  ASSERT_TRUE(v.is_object());
  const Value& a = v["a"];
  ASSERT_TRUE(a.is_array());
  ASSERT_EQ(3u, a.as_array().size());
  EXPECT_EQ(1, a.as_array()[0].as_int());
  EXPECT_EQ("c", a.as_array()[2]["b"].as_string());
  EXPECT_TRUE(v["d"]["e"].is_null());
  EXPECT_TRUE(v["missing"].is_null());
}

TEST(Json, ParseWhitespace) {
  Value v;
  ASSERT_TRUE(Parse("  {  \"a\" :\n [ 1 , 2 ]\t } ", &v));
  EXPECT_EQ(2u, v["a"].as_array().size());
}

TEST(Json, RejectsMalformed) {
  Value v;
  EXPECT_FALSE(Parse("", &v));
  EXPECT_FALSE(Parse("{", &v));
  EXPECT_FALSE(Parse("[1,", &v));
  EXPECT_FALSE(Parse("\"unterminated", &v));
  EXPECT_FALSE(Parse("{\"a\":}", &v));
  EXPECT_FALSE(Parse("tru", &v));
  EXPECT_FALSE(Parse("1 2", &v));  // Trailing garbage
  EXPECT_FALSE(Parse("{'a':1}", &v));  // Single quotes
}

TEST(Json, SerializeRoundTrip) {
  const char* docs[] = {
      R"({"Body":"text","UserID":"u1"})",
      R"([["t1",100],["t2",99,1]])",
      R"({"nested":{"arr":[1,2,3],"s":"x"}})",
      "[]",
      "{}",
  };
  for (const char* doc : docs) {
    Value v;
    ASSERT_TRUE(Parse(doc, &v)) << doc;
    EXPECT_EQ(doc, v.ToString()) << doc;
  }
}

TEST(Json, IntegersSerializeExactly) {
  // Sequence numbers up to 2^53 must round-trip exactly.
  Value v;
  ASSERT_TRUE(Parse("9007199254740992", &v));
  EXPECT_EQ("9007199254740992", v.ToString());
  ASSERT_TRUE(Parse("123456789012345", &v));
  EXPECT_EQ(123456789012345LL, v.as_int());
}

TEST(Json, AsIntTruncatesAndSaturatesOutOfRange) {
  EXPECT_EQ(-1, Value(-1.9).as_int());
  EXPECT_EQ(9007199254740992LL, Value(9007199254740992.0).as_int());
  EXPECT_EQ(INT64_MIN, Value(-9223372036854775808.0).as_int());
  EXPECT_EQ(INT64_MIN, Value(9223372036854775808.0).as_int());
  EXPECT_EQ(INT64_MIN, Value(-1e300).as_int());
  EXPECT_EQ(INT64_MIN, Value(std::nan("")).as_int());
}

TEST(Json, SerializeEscapes) {
  Value v(std::string("line1\nline2\t\"quoted\""));
  EXPECT_EQ(R"("line1\nline2\t\"quoted\"")", v.ToString());
}

TEST(Json, BuildProgrammatically) {
  Object obj;
  obj["name"] = Value(std::string("bob"));
  obj["count"] = Value(static_cast<int64_t>(7));
  Array arr;
  arr.push_back(Value(true));
  obj["flags"] = Value(std::move(arr));
  Value v(std::move(obj));
  EXPECT_EQ(R"({"count":7,"flags":[true],"name":"bob"})", v.ToString());
}

namespace {

std::string Nested(int depth, char open, char close) {
  std::string s;
  for (int i = 0; i < depth; i++) s += open == '{' ? "{\"a\":" : "[";
  s += "1";
  s.append(depth, close);
  return s;
}

}  // namespace

TEST(Json, NestingStopsAtMaxDepth) {
  Value v;
  EXPECT_TRUE(Parse(Nested(kMaxDepth, '[', ']'), &v));
  EXPECT_TRUE(Parse(Nested(kMaxDepth, '{', '}'), &v));
  EXPECT_FALSE(Parse(Nested(kMaxDepth + 1, '[', ']'), &v));
  EXPECT_FALSE(Parse(Nested(kMaxDepth + 1, '{', '}'), &v));
  EXPECT_TRUE(v.is_null());
  // Depth is nesting, not a count of containers.
  std::string wide = "[";
  for (int i = 0; i < 2 * kMaxDepth; i++) wide += "[[]],";
  wide += "1]";
  EXPECT_TRUE(Parse(wide, &v));
}

// A document nested a million deep is malformed, not a stack overflow —
// validated or built.
TEST(Json, MillionDeepNestingIsMalformed) {
  const std::string arrays = Nested(1000000, '[', ']');
  const std::string objects = Nested(1000000, '{', '}');
  Value v;
  EXPECT_FALSE(Parse(arrays, &v));
  EXPECT_FALSE(Parse(objects, &v));
  EXPECT_FALSE(Scanner(arrays).ParseValue(nullptr));
  EXPECT_FALSE(Scanner(objects).ParseValue(nullptr));
  // Unterminated, too.
  EXPECT_FALSE(Parse(std::string(1000000, '['), &v));
}

TEST(Json, ScannerValidatesWithoutBuilding) {
  const char* good[] = {"1", "-0.5e+3", "\"a\\u0041\"", "[1,[true,null]]",
                        "{\"a\":{\"b\":[]}}", " \"x\" "};
  const char* bad[] = {"", "1.2.3", "\"\\x\"", "[1,]", "{\"a\" 1}", "nul",
                       "+", "1e", "--1", "\"\\u12\""};
  for (const char* text : good) {
    Scanner scanner(text);
    EXPECT_TRUE(scanner.ParseValue(nullptr) && scanner.AtEnd()) << text;
  }
  for (const char* text : bad) {
    Scanner scanner(text);
    EXPECT_FALSE(scanner.ParseValue(nullptr) && scanner.AtEnd()) << text;
  }
}

TEST(Json, NumberForms) {
  const std::pair<const char*, const char*> cases[] = {
      {"+12", "12"},          {"007", "7"},
      {"-0", "0"},            {"1.", "1"},
      {".5", "0.5"},          {"1E3", "1000"},
      {"-2.5e-1", "-0.25"},   {"123456789012345678", "1.2345678901234568e+17"},
      {"1e400", "inf"},       {"0.1", "0.10000000000000001"},
  };
  for (const auto& [text, serialized] : cases) {
    Value v;
    ASSERT_TRUE(Parse(text, &v)) << text;
    EXPECT_EQ(serialized, v.ToString()) << text;
  }
  const char* malformed[] = {"1e", "1e+", "+-1", ".", "1-", "1.5.", "e5",
                             "0x10"};
  for (const char* text : malformed) {
    Value v;
    EXPECT_FALSE(Parse(text, &v)) << text;
  }
}

// Differential: Parse (one scanner, DOM outputs on) against the reference
// recursive-descent parser, on mutated tweets and hand-written documents.
TEST(Json, ParseMatchesReferenceOnMutatedDocuments) {
  std::vector<std::string> seeds = {
      R"({"UserID":"u1","UserID":"u2","n":+12,"m":007})",
      R"({"User\u0049D":"esc","a\"b":[1,2.5e3,-0,true,false,null]})",
      R"( { "x" : { "y" : [ { } , [ ] ] } , "s" : "\t\n\/\\" } )",
      R"([["t1",97],["t2",55,1],["t3",1e2,"x",{}]])",
  };
  TweetGenerator gen{TweetGeneratorOptions()};
  for (int i = 0; i < 4; i++) seeds.push_back(gen.Next().ToJson());
  Random64 rnd(301);
  for (int i = 0; i < json_reference::kFuzzCases; i++) {
    const std::string doc =
        json_reference::Mutate(seeds[rnd.Uniform(seeds.size())], &rnd);
    Value got, want;
    const bool got_ok = Parse(doc, &got);
    const bool want_ok = json_reference::RefParse(doc, &want);
    ASSERT_EQ(want_ok, got_ok) << doc;
    ASSERT_EQ(want.ToString(), got.ToString()) << doc;
    Scanner scanner(doc);
    ASSERT_EQ(want_ok, scanner.ParseValue(nullptr) && scanner.AtEnd()) << doc;
  }
}

}  // namespace json
}  // namespace leveldbpp
