// Data-block format tests: restart-point prefix compression round-trips,
// seeks (iterator and point seek), and parameterized restart intervals.

#include "table/block.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "table/block_builder.h"
#include "util/comparator.h"
#include "util/random.h"

namespace leveldbpp {
namespace {

class BlockRoundTripTest : public testing::TestWithParam<int> {
 protected:
  // Builds a block from `entries` and returns an iterator over it.
  void Build(const std::map<std::string, std::string>& entries) {
    BlockBuilder builder(GetParam());
    for (const auto& [key, value] : entries) {
      builder.Add(key, value);
    }
    contents_ = builder.Finish().ToString();
    BlockContents bc;
    bc.data = Slice(contents_);
    bc.heap_allocated = false;
    bc.cachable = false;
    block_ = std::make_unique<Block>(bc);
  }

  Iterator* NewIterator() {
    return block_->NewIterator(BytewiseComparator());
  }

  std::string contents_;
  std::unique_ptr<Block> block_;
};

TEST_P(BlockRoundTripTest, Empty) {
  Build({});
  std::unique_ptr<Iterator> it(NewIterator());
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid());
  it->Seek("anything");
  EXPECT_FALSE(it->Valid());
}

TEST_P(BlockRoundTripTest, IterationMatchesInput) {
  std::map<std::string, std::string> entries;
  Random64 rnd(GetParam());
  for (int i = 0; i < 300; i++) {
    // Shared prefixes stress the delta encoding.
    std::string key = "prefix/" + std::to_string(rnd.Uniform(10)) + "/key" +
                      std::to_string(i);
    entries[key] = "value" + std::to_string(i);
  }
  Build(entries);

  std::unique_ptr<Iterator> it(NewIterator());
  auto mit = entries.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++mit) {
    ASSERT_TRUE(mit != entries.end());
    EXPECT_EQ(mit->first, it->key().ToString());
    EXPECT_EQ(mit->second, it->value().ToString());
  }
  EXPECT_TRUE(mit == entries.end());
}

TEST_P(BlockRoundTripTest, SeekEveryKeyAndGaps) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 100; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%04d", i * 10);
    entries[key] = std::to_string(i);
  }
  Build(entries);
  std::unique_ptr<Iterator> it(NewIterator());

  for (const auto& [key, value] : entries) {
    it->Seek(key);
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(key, it->key().ToString());
    EXPECT_EQ(value, it->value().ToString());
  }
  // Seeks between keys land on the successor.
  it->Seek("k0015");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("k0020", it->key().ToString());
  // Before the first key.
  it->Seek("a");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("k0000", it->key().ToString());
  // After the last key.
  it->Seek("zzzz");
  EXPECT_FALSE(it->Valid());
}

TEST_P(BlockRoundTripTest, EmptyKeysAndValues) {
  std::map<std::string, std::string> entries;
  entries[""] = "";  // Empty key is legal as the first entry
  entries["a"] = "";
  entries["b"] = std::string(1000, 'v');
  Build(entries);
  std::unique_ptr<Iterator> it(NewIterator());
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("", it->key().ToString());
  it->Next();
  EXPECT_EQ("a", it->key().ToString());
  EXPECT_EQ("", it->value().ToString());
  it->Next();
  EXPECT_EQ(std::string(1000, 'v'), it->value().ToString());
}

// The iterator-free point seek lands where the iterator's Seek does, for
// every key, every gap, and targets before and past the block, reusing one
// key buffer throughout.
TEST_P(BlockRoundTripTest, PointSeekMatchesIterator) {
  std::map<std::string, std::string> entries;
  Random64 rnd(GetParam() + 7);
  for (int i = 0; i < 300; i++) {
    std::string key = "prefix/" + std::to_string(rnd.Uniform(10)) + "/key" +
                      std::to_string(i);
    entries[key] = "value" + std::to_string(i);
  }
  Build(entries);
  std::vector<std::string> targets = {"", "a", "prefix/", "zzzz"};
  for (const auto& [key, value] : entries) {
    targets.push_back(key);
    targets.push_back(key + "0");  // Between this key and its successor
  }
  std::unique_ptr<Iterator> it(NewIterator());
  std::string key_buf;
  for (const std::string& target : targets) {
    it->Seek(target);
    Slice key, value;
    Status s;
    const bool found = block_->Seek(BytewiseComparator(), target, &key_buf,
                                    &key, &value, &s);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_EQ(it->Valid(), found) << "target " << target;
    if (found) {
      EXPECT_EQ(it->key().ToString(), key.ToString()) << "target " << target;
      EXPECT_EQ(it->value().ToString(), value.ToString())
          << "target " << target;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RestartIntervals, BlockRoundTripTest,
                         testing::Values(1, 2, 16, 128),
                         [](const testing::TestParamInfo<int>& info) {
                           return "Restart" + std::to_string(info.param);
                         });

TEST(BlockTest, CorruptContentsYieldErrorIterator) {
  BlockContents bc;
  std::string garbage = "\x01\x02";
  bc.data = Slice(garbage);
  bc.heap_allocated = false;
  bc.cachable = false;
  Block block(bc);
  std::unique_ptr<Iterator> it(block.NewIterator(BytewiseComparator()));
  EXPECT_FALSE(it->Valid());
  // Either an error iterator or safely invalid — never a crash.
  it->Seek("x");
  EXPECT_FALSE(it->Valid());
  // The point seek reports the damage instead of an entry.
  std::string key_buf;
  Slice key, value;
  Status s;
  EXPECT_FALSE(
      block.Seek(BytewiseComparator(), "x", &key_buf, &key, &value, &s));
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

}  // namespace
}  // namespace leveldbpp
