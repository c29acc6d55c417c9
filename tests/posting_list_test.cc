#include "core/posting_list.h"

#include <gtest/gtest.h>

#include "json_reference.h"
#include "util/random.h"

namespace leveldbpp {

TEST(PostingList, SerializeParseRoundTrip) {
  std::vector<PostingEntry> entries = {
      {"t4", 97, false},
      {"t1", 55, false},
      {"t9", 12, true},
  };
  std::string data;
  PostingList::Serialize(entries, &data);
  EXPECT_EQ(R"([["t4",97],["t1",55],["t9",12,1]])", data);

  std::vector<PostingEntry> parsed;
  ASSERT_TRUE(PostingList::Parse(Slice(data), &parsed));
  ASSERT_EQ(3u, parsed.size());
  EXPECT_EQ("t4", parsed[0].primary_key);
  EXPECT_EQ(97u, parsed[0].seq);
  EXPECT_FALSE(parsed[0].deleted);
  EXPECT_TRUE(parsed[2].deleted);
}

TEST(PostingList, ParseRejectsGarbage) {
  std::vector<PostingEntry> parsed;
  EXPECT_FALSE(PostingList::Parse(Slice("not json"), &parsed));
  EXPECT_FALSE(PostingList::Parse(Slice("{\"a\":1}"), &parsed));
  EXPECT_FALSE(PostingList::Parse(Slice("[[1,2]]"), &parsed));   // Key not str
  EXPECT_FALSE(PostingList::Parse(Slice("[[\"k\"]]"), &parsed)); // No seq
}

TEST(PostingList, ParseTupleForms) {
  std::vector<PostingEntry> parsed;
  // Extra elements are validated and ignored; a non-numeric third element
  // is no deletion flag; the flag and seq convert double -> int64.
  ASSERT_TRUE(PostingList::Parse(
      Slice(R"([["k",5,1,"x",[1,{"a":2}]],["j",4,"1"],["i",1e3,0.5],)"
            R"(["h",+7,true],["g",007,-1],[ "f" , 2.9 ]])"),
      &parsed));
  ASSERT_EQ(6u, parsed.size());
  EXPECT_EQ(5u, parsed[0].seq);
  EXPECT_TRUE(parsed[0].deleted);
  EXPECT_FALSE(parsed[1].deleted);
  EXPECT_EQ(1000u, parsed[2].seq);
  EXPECT_FALSE(parsed[2].deleted);
  EXPECT_EQ(7u, parsed[3].seq);
  EXPECT_FALSE(parsed[3].deleted);
  EXPECT_EQ(7u, parsed[4].seq);
  EXPECT_TRUE(parsed[4].deleted);
  EXPECT_EQ("f", parsed[5].primary_key);
  EXPECT_EQ(2u, parsed[5].seq);
  ASSERT_TRUE(PostingList::Parse(Slice(R"([["a\"bA",9]])"), &parsed));
  EXPECT_EQ("a\"bA", parsed[0].primary_key);

  EXPECT_FALSE(PostingList::Parse(Slice(R"([["k","5"]])"), &parsed));
  EXPECT_TRUE(parsed.empty());
  EXPECT_FALSE(PostingList::Parse(Slice(R"([["k",5],"x"])"), &parsed));
  EXPECT_FALSE(PostingList::Parse(Slice(R"([["k",5]] ,)"), &parsed));
  EXPECT_FALSE(PostingList::Parse(Slice(R"([["k",5,1.2.3]])"), &parsed));
  EXPECT_FALSE(PostingList::Parse(Slice(R"([["k",5]])"
                                        "\x00", 11),
                                  &parsed));
  EXPECT_TRUE(parsed.empty());
}

TEST(PostingList, MillionDeepNestingIsMalformed) {
  std::string data = R"([["k",5,)";
  data.append(1000000, '[');
  data.append(1000000, ']');
  data += "]]";
  std::vector<PostingEntry> parsed;
  EXPECT_FALSE(PostingList::Parse(Slice(data), &parsed));
  EXPECT_FALSE(PostingList::Parse(Slice(std::string(1000000, '[')), &parsed));
}

// Parse must accept exactly what the DOM-based reference accepts, with the
// same entries.
static void ExpectParseMatchesReference(const std::string& data) {
  std::vector<PostingEntry> want, got;
  const bool want_ok = json_reference::RefPostingParse(Slice(data), &want);
  ASSERT_EQ(want_ok, PostingList::Parse(Slice(data), &got)) << data;
  if (!want_ok) return;
  ASSERT_EQ(want.size(), got.size()) << data;
  for (size_t j = 0; j < want.size(); j++) {
    ASSERT_EQ(want[j].primary_key, got[j].primary_key) << data;
    ASSERT_EQ(want[j].seq, got[j].seq) << data;
    ASSERT_EQ(want[j].deleted, got[j].deleted) << data;
  }
}

// Differential: Parse against the DOM-based reference on mutated lists —
// serialized ones with awkward keys, and hand-written tuples with extra
// elements, non-numeric seqs and assorted number forms.
TEST(PostingList, ParseMatchesReferenceOnMutatedLists) {
  std::vector<std::string> seeds = {
      R"([["k",5,1,"x",[1,{"a":2}]],["j",4]])",
      R"([["k","5"],["j",4,"1"]])",
      R"([["k",1e3],["j",+7],["i",007,0.5],["h",-0,true],["g",2,-1]])",
      R"([["k",5],"x",[]])",
      R"( [ [ "k" , 5 ] , [ "a\"b\\cA" , 12345678901234567 ] ] )",
      "[]",
  };
  Random64 rnd(303);
  for (int i = 0; i < 6; i++) {
    std::vector<PostingEntry> entries;
    for (int j = 0; j < 1 + static_cast<int>(rnd.Uniform(6)); j++) {
      std::string key = "t" + std::to_string(rnd.Uniform(100000));
      if (rnd.Uniform(3) == 0) key += "\"\\\n\x01";
      entries.emplace_back(key, rnd.Next() >> (11 + rnd.Uniform(40)),
                           rnd.Uniform(4) == 0);
    }
    seeds.emplace_back();
    PostingList::Serialize(entries, &seeds.back());
  }
  for (int i = 0; i < json_reference::kFuzzCases; i++) {
    ASSERT_NO_FATAL_FAILURE(ExpectParseMatchesReference(
        json_reference::Mutate(seeds[rnd.Uniform(seeds.size())], &rnd)));
  }
}

// Differential: the one-entry fragments a Lazy PUT or DELETE writes, which
// Parse reads without the scanner, against the DOM-based reference — the
// written forms, near misses the scanner must decide (escaped keys, wide
// or odd seqs, other flags, whitespace, a second entry), and mutations of
// them all.
TEST(PostingList, OneEntryFragmentsMatchReference) {
  std::vector<std::string> seeds = {
      R"([["t000000000042",123]])",
      R"([["t000000000042",123,1]])",
      R"([["",0]])",
      R"([["k",999999999999999]])",
      R"([["k",1000000000000000]])",
      R"([["k",12345678901234567,1]])",
      R"([["k",007]])",
      R"([["k",-5]])",
      R"([["k",5.0]])",
      R"([["k",5e1]])",
      R"([["k",5,0]])",
      R"([["k",5,2]])",
      R"([["k",5,1,1]])",
      R"([["a\"b\\c",5]])",
      R"([["a\u0041",5,1]])",
      R"([ ["k",5]])",
      R"([["k", 5]])",
      R"([["k",5]] )",
      R"([["k",5],["j",4]])",
      std::string("[[\"k\x01\xff\x7f\",7]]"),
  };
  for (const std::string& seed : seeds) {
    ASSERT_NO_FATAL_FAILURE(ExpectParseMatchesReference(seed));
  }
  std::vector<PostingEntry> entries;
  ASSERT_TRUE(PostingList::Parse(Slice(seeds[1]), &entries));
  ASSERT_EQ(1u, entries.size());
  EXPECT_EQ("t000000000042", entries[0].primary_key);
  EXPECT_EQ(123u, entries[0].seq);
  EXPECT_TRUE(entries[0].deleted);
  Random64 rnd(2026);
  for (int i = 0; i < json_reference::kFuzzCases; i++) {
    ASSERT_NO_FATAL_FAILURE(ExpectParseMatchesReference(
        json_reference::Mutate(seeds[rnd.Uniform(seeds.size())], &rnd)));
  }
}

TEST(PostingList, EmptyList) {
  std::string data;
  PostingList::Serialize({}, &data);
  EXPECT_EQ("[]", data);
  std::vector<PostingEntry> parsed;
  ASSERT_TRUE(PostingList::Parse(Slice(data), &parsed));
  EXPECT_TRUE(parsed.empty());
}

TEST(PostingList, MergeNewestWinsPerKey) {
  std::vector<std::vector<PostingEntry>> fragments = {
      {{"t3", 30, false}, {"t1", 25, false}},   // Newest fragment
      {{"t2", 20, false}, {"t1", 10, false}},   // Older: t1@10 shadowed
  };
  std::vector<PostingEntry> merged;
  PostingList::Merge(fragments, false, &merged);
  ASSERT_EQ(3u, merged.size());
  EXPECT_EQ("t3", merged[0].primary_key);
  EXPECT_EQ("t1", merged[1].primary_key);
  EXPECT_EQ(25u, merged[1].seq);  // The newer t1
  EXPECT_EQ("t2", merged[2].primary_key);
}

TEST(PostingList, MergeDeletionMarkers) {
  std::vector<std::vector<PostingEntry>> fragments = {
      {{"t1", 40, true}},                       // Marker for t1
      {{"t1", 10, false}, {"t2", 5, false}},    // Old entry for t1
  };
  std::vector<PostingEntry> merged;

  // Not at bottom: the marker must survive (older fragments may exist in
  // lower levels).
  PostingList::Merge(fragments, /*drop_deletions=*/false, &merged);
  ASSERT_EQ(2u, merged.size());
  EXPECT_EQ("t1", merged[0].primary_key);
  EXPECT_TRUE(merged[0].deleted);
  EXPECT_EQ("t2", merged[1].primary_key);

  // At bottom: marker (and its shadowed entry) vanish.
  PostingList::Merge(fragments, /*drop_deletions=*/true, &merged);
  ASSERT_EQ(1u, merged.size());
  EXPECT_EQ("t2", merged[0].primary_key);
}

TEST(PostingList, MergeOutputSortedBySeqDesc) {
  Random64 rnd(9);
  std::vector<std::vector<PostingEntry>> fragments(4);
  uint64_t seq = 1000;
  for (int f = 0; f < 4; f++) {
    for (int i = 0; i < 20; i++) {
      fragments[f].push_back(
          {"k" + std::to_string(rnd.Uniform(200)), seq--, false});
    }
  }
  std::vector<PostingEntry> merged;
  PostingList::Merge(fragments, false, &merged);
  for (size_t i = 1; i < merged.size(); i++) {
    EXPECT_GE(merged[i - 1].seq, merged[i].seq);
  }
  // No duplicate keys.
  std::set<std::string> keys;
  for (const PostingEntry& e : merged) {
    EXPECT_TRUE(keys.insert(e.primary_key).second) << e.primary_key;
  }
}

TEST(PostingListMerger, MergesFragmentValues) {
  std::string frag_new, frag_old;
  PostingList::Serialize({{"t5", 50, false}}, &frag_new);
  PostingList::Serialize({{"t4", 40, false}, {"t3", 30, false}}, &frag_old);
  std::vector<Slice> values = {Slice(frag_new), Slice(frag_old)};
  std::string out;
  ASSERT_TRUE(
      PostingListMerger::Instance()->Merge("u1", values, false, &out));
  std::vector<PostingEntry> merged;
  ASSERT_TRUE(PostingList::Parse(Slice(out), &merged));
  ASSERT_EQ(3u, merged.size());
  EXPECT_EQ("t5", merged[0].primary_key);
}

TEST(PostingListMerger, FullyDeletedListDroppedAtBottom) {
  std::string marker, entry;
  PostingList::Serialize({{"t1", 50, true}}, &marker);
  PostingList::Serialize({{"t1", 10, false}}, &entry);
  std::vector<Slice> values = {Slice(marker), Slice(entry)};
  std::string out;
  // At bottom: list becomes empty -> key dropped entirely.
  EXPECT_FALSE(
      PostingListMerger::Instance()->Merge("u1", values, true, &out));
  // Above bottom: marker must be preserved.
  ASSERT_TRUE(
      PostingListMerger::Instance()->Merge("u1", values, false, &out));
  std::vector<PostingEntry> merged;
  ASSERT_TRUE(PostingList::Parse(Slice(out), &merged));
  ASSERT_EQ(1u, merged.size());
  EXPECT_TRUE(merged[0].deleted);
}

TEST(PostingListMerger, UnparseableValueKeptVerbatim) {
  std::vector<Slice> values = {Slice("garbage"), Slice("[]")};
  std::string out;
  ASSERT_TRUE(
      PostingListMerger::Instance()->Merge("u1", values, true, &out));
  EXPECT_EQ("garbage", out);  // Never drop data on parse failure
}

}  // namespace leveldbpp
