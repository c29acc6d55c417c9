// SSTable round-trip tests: build a table with secondary meta blocks, read
// it back, verify iteration, point gets, bloom pruning, and the embedded
// scan surface.

#include "table/table.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/document.h"
#include "env/env.h"
#include "table/filter_policy.h"
#include "table/table_builder.h"
#include "util/random.h"

namespace leveldbpp {

class TableTest : public testing::Test {
 protected:
  TableTest() : env_(NewMemEnv()) {
    primary_filter_.reset(NewBloomFilterPolicy(10));
    secondary_filter_.reset(NewBloomFilterPolicy(20));
  }

  Options MakeOptions(bool with_secondary) {
    Options options;
    options.env = env_.get();
    options.block_size = 512;  // Small blocks -> many blocks per table
    options.filter_policy = primary_filter_.get();
    if (with_secondary) {
      options.secondary_attributes = {"UserID"};
      options.secondary_filter_policy = secondary_filter_.get();
      options.attribute_extractor = JsonAttributeExtractor::Instance();
    }
    return options;
  }

  // Build a table of `entries` (must be sorted) and open it.
  void Build(const std::map<std::string, std::string>& entries,
             bool with_secondary) {
    options_ = MakeOptions(with_secondary);
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env_->NewWritableFile("/table", &file).ok());
    TableBuilder builder(options_, file.get());
    for (const auto& [key, value] : entries) {
      builder.Add(key, value);
    }
    ASSERT_TRUE(builder.Finish().ok());
    file_size_ = builder.FileSize();
    ASSERT_TRUE(file->Close().ok());

    ASSERT_TRUE(env_->NewRandomAccessFile("/table", &raf_).ok());
    Table* table = nullptr;
    ASSERT_TRUE(Table::Open(options_, raf_.get(), file_size_, &table).ok());
    table_.reset(table);
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<const FilterPolicy> primary_filter_;
  std::unique_ptr<const FilterPolicy> secondary_filter_;
  Options options_;
  uint64_t file_size_ = 0;
  std::unique_ptr<RandomAccessFile> raf_;
  std::unique_ptr<Table> table_;
};

TEST_F(TableTest, IterateRoundTrip) {
  std::map<std::string, std::string> entries;
  Random64 rnd(5);
  for (int i = 0; i < 500; i++) {
    char key[32];
    std::snprintf(key, sizeof(key), "key%06d", i * 3);
    entries[key] = "value" + std::to_string(i) +
                   std::string(rnd.Uniform(100), 'x');
  }
  Build(entries, false);

  std::unique_ptr<Iterator> it(table_->NewIterator(ReadOptions()));
  auto mit = entries.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++mit) {
    ASSERT_TRUE(mit != entries.end());
    EXPECT_EQ(mit->first, it->key().ToString());
    EXPECT_EQ(mit->second, it->value().ToString());
  }
  EXPECT_TRUE(mit == entries.end());
  EXPECT_TRUE(it->status().ok());
}

TEST_F(TableTest, SeekLandsAtLowerBound) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 100; i++) {
    char key[32];
    std::snprintf(key, sizeof(key), "k%04d", i * 10);
    entries[key] = "v";
  }
  Build(entries, false);

  std::unique_ptr<Iterator> it(table_->NewIterator(ReadOptions()));
  it->Seek("k0005");  // Between k0000 and k0010
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("k0010", it->key().ToString());

  it->Seek("k0990");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("k0990", it->key().ToString());

  it->Seek("zzz");
  EXPECT_FALSE(it->Valid());
}

TEST_F(TableTest, InternalGetFindsEntries) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 200; i++) {
    entries["key" + std::to_string(1000 + i)] = "val" + std::to_string(i);
  }
  Build(entries, false);

  struct Result {
    bool found = false;
    std::string value;
  };
  auto handler = [](void* arg, const Slice& k, const Slice& v) {
    (void)k;
    Result* r = reinterpret_cast<Result*>(arg);
    r->found = true;
    r->value = v.ToString();
  };

  Result r;
  BlockMemo memo;
  ASSERT_TRUE(
      table_->InternalGet(ReadOptions(), "key1050", &memo, &r, handler).ok());
  ASSERT_TRUE(r.found);
  EXPECT_EQ("val50", r.value);
}

TEST_F(TableTest, KeyMayExistNoIOUsesBloom) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 300; i++) {
    entries["present" + std::to_string(i)] = "v";
  }
  Build(entries, false);

  EXPECT_TRUE(table_->KeyMayExistNoIO("present42"));
  // Absent keys within the table's key range must (almost always) be
  // filtered by the bloom; check a bunch and require most to be filtered.
  int filtered = 0;
  for (int i = 0; i < 100; i++) {
    if (!table_->KeyMayExistNoIO("present" + std::to_string(i) + "x")) {
      filtered++;
    }
  }
  EXPECT_GT(filtered, 90);
}

TEST_F(TableTest, EmbeddedSecondaryMeta) {
  // Documents for three users spread across many blocks.
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 600; i++) {
    const char* user = (i % 3 == 0) ? "alice" : (i % 3 == 1 ? "bob" : "carol");
    char key[32];
    std::snprintf(key, sizeof(key), "t%06d", i);
    entries[key] = std::string("{\"UserID\":\"") + user +
                   "\",\"Body\":\"" + std::string(50, 'b') + "\"}";
  }
  Build(entries, true);

  const size_t nblocks = table_->NumDataBlocks();
  ASSERT_GT(nblocks, 5u);

  // Every block contains all three users (round-robin layout), so blooms
  // must answer "maybe" for them and "no" for strangers.
  size_t alice_blocks = 0, stranger_blocks = 0;
  for (size_t b = 0; b < nblocks; b++) {
    if (table_->SecondaryBlockMayContain("UserID", "alice", b)) {
      alice_blocks++;
    }
    if (table_->SecondaryBlockMayContain("UserID", "mallory", b)) {
      stranger_blocks++;
    }
  }
  EXPECT_EQ(nblocks, alice_blocks);
  EXPECT_EQ(0u, stranger_blocks);

  // Zone maps: file range covers [alice, carol]; nothing beyond.
  EXPECT_TRUE(table_->SecondaryFileMayOverlap("UserID", "alice", "bob"));
  EXPECT_FALSE(table_->SecondaryFileMayOverlap("UserID", "dave", "zed"));
  EXPECT_FALSE(table_->SecondaryFileMayOverlap("UserID", "a", "al"));

  // Block iterator: data comes back intact.
  std::unique_ptr<Iterator> it(
      table_->NewDataBlockIterator(ReadOptions(), 0));
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("t000000", it->key().ToString());
}

TEST_F(TableTest, EmbeddedMetaAbsentForPlainTables) {
  std::map<std::string, std::string> entries{{"a", "1"}, {"b", "2"}};
  Build(entries, false);
  // Fail open: without zone maps everything may overlap.
  EXPECT_TRUE(table_->SecondaryFileMayOverlap("UserID", "x", "y"));
  EXPECT_TRUE(table_->SecondaryBlockMayContain("UserID", "x", 0));
}

TEST_F(TableTest, TombstoneValuesSkipSecondaryMeta) {
  // Empty values (tombstones) must not break attribute extraction.
  std::map<std::string, std::string> entries;
  entries["k1"] = "{\"UserID\":\"u\"}";
  entries["k2"] = "";  // Tombstone-like
  Build(entries, true);
  EXPECT_TRUE(table_->SecondaryFileMayOverlap("UserID", "u", "u"));
}

TEST_F(TableTest, CorruptFooterRejected) {
  std::map<std::string, std::string> entries{{"a", "1"}};
  Build(entries, false);
  // Open with a bogus (too small) size.
  Table* t = nullptr;
  Status s = Table::Open(options_, raf_.get(), 10, &t);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(nullptr, t);
}

}  // namespace leveldbpp
