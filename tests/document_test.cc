#include "core/document.h"

#include <gtest/gtest.h>

#include "json_reference.h"
#include "workload/tweet_generator.h"

namespace leveldbpp {

TEST(JsonAttributeExtractor, ExtractsStrings) {
  const AttributeExtractor* x = JsonAttributeExtractor::Instance();
  std::string out;
  ASSERT_TRUE(
      x->Extract(R"({"UserID":"u42","Body":"text"})", "UserID", &out));
  EXPECT_EQ("u42", out);
  ASSERT_TRUE(x->Extract(R"({"UserID":"u42","Body":"text"})", "Body", &out));
  EXPECT_EQ("text", out);
}

TEST(JsonAttributeExtractor, ExtractsNumbersAndBools) {
  const AttributeExtractor* x = JsonAttributeExtractor::Instance();
  std::string out;
  ASSERT_TRUE(x->Extract(R"({"n":12345})", "n", &out));
  EXPECT_EQ("12345", out);
  ASSERT_TRUE(x->Extract(R"({"b":true})", "b", &out));
  EXPECT_EQ("true", out);
}

TEST(JsonAttributeExtractor, MissingAttribute) {
  const AttributeExtractor* x = JsonAttributeExtractor::Instance();
  std::string out;
  EXPECT_FALSE(x->Extract(R"({"a":"1"})", "z", &out));
}

TEST(JsonAttributeExtractor, NonIndexableTypes) {
  const AttributeExtractor* x = JsonAttributeExtractor::Instance();
  std::string out;
  EXPECT_FALSE(x->Extract(R"({"a":null})", "a", &out));
  EXPECT_FALSE(x->Extract(R"({"a":[1,2]})", "a", &out));
  EXPECT_FALSE(x->Extract(R"({"a":{"b":1}})", "a", &out));
}

TEST(JsonAttributeExtractor, MalformedDocuments) {
  const AttributeExtractor* x = JsonAttributeExtractor::Instance();
  std::string out;
  EXPECT_FALSE(x->Extract("not json", "a", &out));
  EXPECT_FALSE(x->Extract("", "a", &out));
  EXPECT_FALSE(x->Extract("[1,2,3]", "a", &out));  // Not an object
  EXPECT_FALSE(x->Extract("42", "a", &out));
}

TEST(JsonAttributeExtractor, EscapedValuesDecoded) {
  const AttributeExtractor* x = JsonAttributeExtractor::Instance();
  std::string out;
  ASSERT_TRUE(x->Extract(R"({"u":"a\"b\nc"})", "u", &out));
  EXPECT_EQ("a\"b\nc", out);
}

TEST(JsonAttributeExtractor, DuplicateKeysLastWins) {
  const AttributeExtractor* x = JsonAttributeExtractor::Instance();
  std::string out;
  ASSERT_TRUE(x->Extract(R"({"u":"a","v":1,"u":"b"})", "u", &out));
  EXPECT_EQ("b", out);
  // The last value decides even when it is not indexable.
  EXPECT_FALSE(x->Extract(R"({"u":"a","u":null})", "u", &out));
  ASSERT_TRUE(x->Extract(R"({"u":[1],"u":7})", "u", &out));
  EXPECT_EQ("7", out);
}

TEST(JsonAttributeExtractor, KeysCompareUnescaped) {
  const AttributeExtractor* x = JsonAttributeExtractor::Instance();
  std::string out;
  ASSERT_TRUE(x->Extract(R"({"UserID":"u7"})", "UserID", &out));
  EXPECT_EQ("u7", out);
  ASSERT_TRUE(x->Extract(R"({"a\"b":"q"})", "a\"b", &out));
  EXPECT_EQ("q", out);
  EXPECT_FALSE(x->Extract(R"({"a\"b":"q"})", "a\\\"b", &out));
  // Only top-level members count.
  EXPECT_FALSE(x->Extract(R"({"o":{"UserID":"u1"}})", "UserID", &out));
}

TEST(JsonAttributeExtractor, NumbersExtractInSerializedForm) {
  const AttributeExtractor* x = JsonAttributeExtractor::Instance();
  const std::pair<const char*, const char*> cases[] = {
      {R"({"n":+12})", "12"},     {R"({"n":007})", "7"},
      {R"({"n":1e3})", "1000"},   {R"({"n":-2.5E-1})", "-0.25"},
      {R"({"n":0.1})", "0.10000000000000001"},
      {R"({"n":9007199254740993})", "9007199254740992"},
      {R"({"n":false})", "false"},
  };
  for (const auto& [doc, want] : cases) {
    std::string out;
    ASSERT_TRUE(x->Extract(doc, "n", &out)) << doc;
    EXPECT_EQ(want, out) << doc;
  }
}

TEST(JsonAttributeExtractor, MalformedAnywhereFailsTheRecord) {
  const AttributeExtractor* x = JsonAttributeExtractor::Instance();
  std::string out;
  // The attribute itself is fine; bytes after it are not.
  EXPECT_FALSE(x->Extract(R"({"u":"a","b":1.2.3})", "u", &out));
  EXPECT_FALSE(x->Extract(R"({"u":"a","b":"\q"})", "u", &out));
  EXPECT_FALSE(x->Extract(R"({"u":"a"} x)", "u", &out));
  EXPECT_FALSE(x->Extract(R"({"u":"a"}})", "u", &out));
  EXPECT_FALSE(x->Extract(R"({"u":"a",)", "u", &out));
  ASSERT_TRUE(x->Extract(" {\"u\":\"a\"}\n", "u", &out));
  EXPECT_EQ("a", out);
}

TEST(JsonAttributeExtractor, MillionDeepNestingIsMalformed) {
  const AttributeExtractor* x = JsonAttributeExtractor::Instance();
  std::string doc = R"({"UserID":"u1","x":)";
  doc.append(1000000, '[');
  doc.append(1000000, ']');
  doc += "}";
  std::string out;
  EXPECT_FALSE(x->Extract(doc, "UserID", &out));
}

// Differential: Extract against the DOM-based reference on mutated tweets
// and on hand-written records covering repeated and escaped keys, number
// forms, bools and non-indexable values.
TEST(JsonAttributeExtractor, MatchesReferenceOnMutatedRecords) {
  std::vector<std::string> seeds = {
      R"({"UserID":"u1","UserID":"u2","n":1})",
      R"({"UserID":"u1","UserID":null,"n":[1]})",
      R"({"User\u0049D":"esc","Body":"x","\u006e":{"UserID":"in"}})",
      R"({"UserID":"plain","User\u0049D":"esc","\u006e":5,"b\"":1})",
      R"({"UserID":"a\"b\\cé\n","n":+12,"b":true})",
      R"({"n":007,"m":-0.5e+3,"x":1E400,"y":.5,"z":1.,"b":false})",
      R"({"b":null,"e":[1,{"UserID":"inner"}],"UserID":{"k":"v"}})",
      R"( { "UserID" : "spaced" , "n" : 1e2 } )",
      R"({"n":123456789012345678,"UserID":"big","CreationTime":"000042"})",
      R"({"n":-0,"UserID":"","b":true,"b":1})",
  };
  TweetGenerator gen{TweetGeneratorOptions()};
  for (int i = 0; i < 4; i++) seeds.push_back(gen.Next().ToJson());
  const std::string attrs[] = {"UserID", "CreationTime", "n", "b"};
  const AttributeExtractor* x = JsonAttributeExtractor::Instance();
  Random64 rnd(302);
  for (int i = 0; i < json_reference::kFuzzCases; i++) {
    const std::string doc =
        json_reference::Mutate(seeds[rnd.Uniform(seeds.size())], &rnd);
    json::Value dom;
    const bool parsed = json_reference::RefParse(doc, &dom);
    for (const std::string& attr : attrs) {
      std::string want, got;
      const bool want_ok =
          parsed && json_reference::RefAttribute(dom, attr, &want);
      ASSERT_EQ(want_ok, x->Extract(doc, attr, &got)) << attr << " " << doc;
      if (want_ok) {
        ASSERT_EQ(want, got) << attr << " " << doc;
      }
    }
  }
}

}  // namespace leveldbpp
