#include "db/table_cache.h"

#include <gtest/gtest.h>

#include <memory>

#include "db/filename.h"
#include "env/env.h"
#include "table/table_builder.h"

namespace leveldbpp {
namespace {

class TableCacheTest : public testing::Test {
 protected:
  TableCacheTest() : env_(NewMemEnv()) {
    options_.env = env_.get();
    env_->CreateDir("/tc");
    cache_ = std::make_unique<TableCache>("/tc", options_, 4);
  }

  // Write a small table file with the given number holding key->value.
  uint64_t WriteTable(uint64_t number, const std::string& key,
                      const std::string& value) {
    std::unique_ptr<WritableFile> file;
    EXPECT_TRUE(
        env_->NewWritableFile(TableFileName("/tc", number), &file).ok());
    TableBuilder builder(options_, file.get());
    builder.Add(key, value);
    EXPECT_TRUE(builder.Finish().ok());
    uint64_t size = builder.FileSize();
    EXPECT_TRUE(file->Close().ok());
    return size;
  }

  Options options_;
  std::unique_ptr<Env> env_;
  std::unique_ptr<TableCache> cache_;
};

TEST_F(TableCacheTest, IterateAndGet) {
  uint64_t size = WriteTable(7, "hello", "world");

  std::unique_ptr<Iterator> it(
      cache_->NewIterator(ReadOptions(), 7, size));
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("hello", it->key().ToString());
  EXPECT_EQ("world", it->value().ToString());

  struct Result {
    bool found = false;
    std::string value;
  } result;
  TablePins pins(cache_.get());
  Table* table = nullptr;
  ASSERT_TRUE(pins.Find(7, size, &table).ok());
  ASSERT_TRUE(table
                  ->InternalGet(ReadOptions(), "hello", pins.memo(), &result,
                                [](void* arg, const Slice&, const Slice& v) {
                                  auto* r = reinterpret_cast<Result*>(arg);
                                  r->found = true;
                                  r->value = v.ToString();
                                })
                  .ok());
  EXPECT_TRUE(result.found);
  EXPECT_EQ("world", result.value);
}

TEST_F(TableCacheTest, MissingFileReportsError) {
  std::unique_ptr<Iterator> it(
      cache_->NewIterator(ReadOptions(), 999, 1234));
  EXPECT_FALSE(it->status().ok());
  EXPECT_FALSE(it->Valid());
}

// A pin set opens each file once and keeps its table alive until the set
// is destroyed, even after the cache entry is evicted and the file deleted.
TEST_F(TableCacheTest, TablePinsHoldUntilDestroyed) {
  uint64_t size = WriteTable(3, "a", "b");
  {
    TablePins pins(cache_.get());
    Table* missing = nullptr;
    EXPECT_FALSE(pins.Find(4, size, &missing).ok());  // Not remembered
    EXPECT_EQ(nullptr, missing);
    Table* first = nullptr;
    ASSERT_TRUE(pins.Find(3, size, &first).ok());
    cache_->Evict(3);
    ASSERT_TRUE(env_->RemoveFile(TableFileName("/tc", 3)).ok());
    Table* again = nullptr;
    ASSERT_TRUE(pins.Find(3, size, &again).ok());
    EXPECT_EQ(first, again);
    EXPECT_EQ(1u, again->NumDataBlocks());
    uint64_t size4 = WriteTable(4, "c", "d");
    EXPECT_TRUE(pins.Find(4, size4, &missing).ok());
  }
  TablePins fresh(cache_.get());
  Table* table = nullptr;
  EXPECT_FALSE(fresh.Find(3, size, &table).ok());
}

TEST_F(TableCacheTest, EvictDropsCachedTable) {
  uint64_t size = WriteTable(5, "k", "v");
  // Open once (caches it), evict, delete the file: a re-open must fail,
  // proving the cache entry is really gone.
  std::unique_ptr<Iterator> it(cache_->NewIterator(ReadOptions(), 5, size));
  ASSERT_TRUE(it->status().ok());
  it.reset();
  cache_->Evict(5);
  ASSERT_TRUE(env_->RemoveFile(TableFileName("/tc", 5)).ok());
  std::unique_ptr<Iterator> it2(cache_->NewIterator(ReadOptions(), 5, size));
  EXPECT_FALSE(it2->status().ok());
}

TEST_F(TableCacheTest, CapacityEvictionStillCorrect) {
  // More tables than cache capacity (4): every lookup still succeeds.
  std::vector<uint64_t> sizes(10);
  for (uint64_t i = 1; i <= 10; i++) {
    sizes[i - 1] = WriteTable(i, "key" + std::to_string(i), "v");
  }
  for (int round = 0; round < 3; round++) {
    for (uint64_t i = 1; i <= 10; i++) {
      std::unique_ptr<Iterator> it(
          cache_->NewIterator(ReadOptions(), i, sizes[i - 1]));
      it->SeekToFirst();
      ASSERT_TRUE(it->Valid());
      EXPECT_EQ("key" + std::to_string(i), it->key().ToString());
    }
  }
}

}  // namespace
}  // namespace leveldbpp
