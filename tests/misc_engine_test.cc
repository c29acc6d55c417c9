// Odds and ends: DB properties, statistics plumbing, options sanitization,
// iterator cleanups, merger interaction with tombstones in the memtable.

#include <gtest/gtest.h>

#include <memory>

#include "core/posting_list.h"
#include "db/builder.h"
#include "db/db_impl.h"
#include "db/write_batch.h"
#include "env/env.h"
#include "table/iterator.h"

namespace leveldbpp {
namespace {

class MiscEngineTest : public testing::Test {
 protected:
  MiscEngineTest() : env_(NewMemEnv()) {
    Options options;
    options.env = env_.get();
    options.write_buffer_size = 64 << 10;
    options.statistics = &stats_;
    DBImpl* raw = nullptr;
    EXPECT_TRUE(DBImpl::Open(options, "/miscdb", &raw).ok());
    db_.reset(raw);
  }

  Statistics stats_;
  std::unique_ptr<Env> env_;
  std::unique_ptr<DBImpl> db_;
};

TEST_F(MiscEngineTest, Properties) {
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "k" + std::to_string(i),
                         std::string(100, 'v'))
                    .ok());
  }
  std::string value;
  ASSERT_TRUE(db_->GetProperty("leveldbpp.num-files-at-level0", &value));
  ASSERT_TRUE(db_->GetProperty("leveldbpp.total-bytes", &value));
  const uint64_t total = std::stoull(value);
  EXPECT_GT(total, 10000u);  // Repetitive values compress well
  EXPECT_EQ(db_->TotalSizeBytes(), total);
  ASSERT_TRUE(db_->GetProperty("leveldbpp.approximate-memory-usage", &value));
  EXPECT_GT(std::stoull(value), 0u);
  EXPECT_LT(std::stoull(value), total);  // The memtables are part of it
  ASSERT_TRUE(db_->GetProperty("leveldbpp.sstables", &value));
  EXPECT_NE(std::string::npos, value.find("--- level 0 ---"));
  ASSERT_TRUE(db_->GetProperty("leveldbpp.levels", &value));
  EXPECT_EQ(0u, value.find("files["));

  EXPECT_FALSE(db_->GetProperty("leveldbpp.nope", &value));
  EXPECT_FALSE(db_->GetProperty("other.prefix", &value));
  EXPECT_FALSE(db_->GetProperty("leveldbpp.num-files-at-level99", &value));
  EXPECT_FALSE(db_->GetProperty("leveldbpp.num-files-at-level", &value));
  // 2^64: wraps to 0 in a 64-bit accumulator.
  EXPECT_FALSE(db_->GetProperty(
      "leveldbpp.num-files-at-level18446744073709551616", &value));
}

TEST_F(MiscEngineTest, StatisticsRecordEngineActivity) {
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "k" + std::to_string(i),
                         std::string(150, 'v'))
                    .ok());
  }
  EXPECT_GT(stats_.Get(kWalBytesWritten), 3000u * 150);
  EXPECT_GT(stats_.Get(kFlushCount), 0u);
  EXPECT_GT(stats_.Get(kCompactionBytesWritten), 0u);

  StatsSnapshot before = StatsSnapshot::Take(stats_);
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), "k10", &value).ok());
  StatsSnapshot after = StatsSnapshot::Take(stats_);
  EXPECT_GT(after.Delta(before, kBlockRead), 0u);

  std::string dump = stats_.ToString();
  EXPECT_NE(std::string::npos, dump.find("wal.bytes.written"));

  stats_.Reset();
  EXPECT_EQ(0u, stats_.Get(kBlockRead));
}

TEST_F(MiscEngineTest, IteratorCleanupsRunOnDestroy) {
  int cleanups = 0;
  {
    std::unique_ptr<Iterator> it(NewEmptyIterator());
    it->RegisterCleanup([&] { cleanups++; });
    it->RegisterCleanup([&] { cleanups += 10; });
    EXPECT_EQ(0, cleanups);
  }
  EXPECT_EQ(11, cleanups);
}

TEST(OptionsSanitization, SecondaryAttrsDroppedWithoutExtractor) {
  std::unique_ptr<Env> env(NewMemEnv());
  Options options;
  options.env = env.get();
  options.secondary_attributes = {"UserID"};  // But no extractor!
  DBImpl* raw = nullptr;
  ASSERT_TRUE(DBImpl::Open(options, "/sanedb", &raw).ok());
  std::unique_ptr<DBImpl> db(raw);
  // The engine dropped the attrs rather than building broken meta.
  EXPECT_TRUE(db->options().secondary_attributes.empty());
  ASSERT_TRUE(db->Put(WriteOptions(), "k", "{\"UserID\":\"u\"}").ok());
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), "k", &value).ok());
}

TEST(OptionsSanitization, ExtremeValuesClamped) {
  std::unique_ptr<Env> env(NewMemEnv());
  Options options;
  options.env = env.get();
  options.write_buffer_size = 1;    // Absurdly small
  options.max_file_size = 1;        // Absurdly small
  options.block_size = 1;           // Absurdly small
  DBImpl* raw = nullptr;
  ASSERT_TRUE(DBImpl::Open(options, "/clampdb", &raw).ok());
  std::unique_ptr<DBImpl> db(raw);
  EXPECT_GE(db->options().write_buffer_size, 64u << 10);
  EXPECT_GE(db->options().max_file_size, 16u << 10);
  EXPECT_GE(db->options().block_size, 1u << 10);
  // And it still works.
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), "k" + std::to_string(i), "v").ok());
  }
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), "k250", &value).ok());
}

TEST(MergerTombstone, PutAfterDeleteInMemtableDoesNotResurrect) {
  // A Put after a whole-key Delete must not merge with pre-tombstone
  // fragments: neither in a read of the memtable's versions nor in the
  // merge a flush writes.
  InternalKeyComparator icmp(BytewiseComparator());
  MemTable* mem = new MemTable(icmp);
  mem->Ref();

  std::string frag_a, frag_b;
  PostingList::Serialize({{"t1", 1, false}}, &frag_a);
  PostingList::Serialize({{"t2", 5, false}}, &frag_b);

  WriteBatch batch;
  batch.Put("u", frag_a);
  batch.Delete("u");
  batch.Put("u", frag_b);
  WriteBatchInternal::SetSequence(&batch, 1);
  ASSERT_TRUE(WriteBatchInternal::InsertInto(&batch, mem).ok());

  MemTable::Versions versions;
  ASSERT_TRUE(mem->GetVersions("u", kMaxSequenceNumber, &versions));
  ASSERT_EQ(1u, versions.values.size());
  EXPECT_EQ(frag_b, versions.values[0].ToString()) << "t1 must stay deleted";
  EXPECT_EQ(3u, versions.newest_seq);
  EXPECT_TRUE(versions.tombstone);
  EXPECT_EQ(2u, versions.tombstone_seq);

  std::vector<std::pair<std::string, std::string>> out;
  MergeRun run(PostingListMerger::Instance(), BytewiseComparator(), nullptr,
               [&](const Slice& ikey, const Slice& value) {
                 out.emplace_back(ikey.ToString(), value.ToString());
                 return Status::OK();
               });
  std::unique_ptr<Iterator> it(mem->NewIterator());
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    ParsedInternalKey ikey;
    ASSERT_TRUE(ParseInternalKey(it->key(), &ikey));
    ASSERT_TRUE(run.Add(ikey, it->value()).ok());
  }
  ASSERT_TRUE(run.Finish().ok());
  // The merged value at the newest sequence, then the tombstone that keeps
  // older residences shadowed.
  ASSERT_EQ(2u, out.size());
  ParsedInternalKey value_key, tombstone_key;
  ASSERT_TRUE(ParseInternalKey(out[0].first, &value_key));
  EXPECT_EQ(3u, value_key.sequence);
  EXPECT_EQ(kTypeValue, value_key.type);
  std::vector<PostingEntry> entries;
  ASSERT_TRUE(PostingList::Parse(Slice(out[0].second), &entries));
  ASSERT_EQ(1u, entries.size());
  EXPECT_EQ("t2", entries[0].primary_key) << "t1 must stay deleted";
  ASSERT_TRUE(ParseInternalKey(out[1].first, &tombstone_key));
  EXPECT_EQ(2u, tombstone_key.sequence);
  EXPECT_EQ(kTypeDeletion, tombstone_key.type);
  mem->Unref();
}

TEST(DestroyDBTest, MissingDirectoryIsOk) {
  std::unique_ptr<Env> env(NewMemEnv());
  Options options;
  options.env = env.get();
  EXPECT_TRUE(DestroyDB("/never-existed", options).ok());
}

}  // namespace
}  // namespace leveldbpp
