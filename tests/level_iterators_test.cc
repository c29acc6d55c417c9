// Level-by-level iteration and fragment access: the engine hooks the Lazy
// and Composite indexes depend on (NewLevelIterators, GetFragments,
// EmbeddedScanBuckets recency ordering).

#include <gtest/gtest.h>

#include <memory>

#include "core/document.h"
#include "db/db_impl.h"
#include "env/env.h"
#include "table/filter_policy.h"

namespace leveldbpp {
namespace {

class LevelIteratorsTest : public testing::Test {
 protected:
  LevelIteratorsTest() : env_(NewMemEnv()) {
    filter_.reset(NewBloomFilterPolicy(10));
    Options options;
    options.env = env_.get();
    options.write_buffer_size = 64 << 10;
    options.max_file_size = 32 << 10;
    options.max_bytes_for_level_base = 128 << 10;
    options.filter_policy = filter_.get();
    DBImpl* raw = nullptr;
    Status s = DBImpl::Open(options, "/lvldb", &raw);
    EXPECT_TRUE(s.ok()) << s.ToString();
    db_.reset(raw);
  }

  void FillAndSettle(int rounds) {
    for (int r = 0; r < rounds; r++) {
      for (int i = 0; i < 600; i++) {
        ASSERT_TRUE(db_->Put(WriteOptions(), "key" + std::to_string(i),
                             "round" + std::to_string(r) +
                                 std::string(150, 'x'))
                        .ok());
      }
    }
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<const FilterPolicy> filter_;
  std::unique_ptr<DBImpl> db_;
};

TEST_F(LevelIteratorsTest, BucketsOrderedByRecency) {
  FillAndSettle(4);
  DBImpl::LevelIterators levels;
  ASSERT_TRUE(db_->NewLevelIterators(ReadOptions(), &levels).ok());
  ASSERT_GE(levels.iters.size(), 2u);  // Memtable + at least one disk bucket
  ASSERT_GE(levels.first_disk, 1u);

  // For a heavily-overwritten key, each bucket's newest version must have a
  // strictly decreasing sequence as we descend buckets.
  SequenceNumber prev_best = kMaxSequenceNumber;
  int buckets_with_key = 0;
  for (Iterator* it : levels.iters) {
    LookupKey lk("key42", kMaxSequenceNumber);
    it->Seek(lk.internal_key());
    if (it->Valid()) {
      ParsedInternalKey ikey;
      ASSERT_TRUE(ParseInternalKey(it->key(), &ikey));
      if (ikey.user_key == Slice("key42")) {
        EXPECT_LT(ikey.sequence, prev_best);
        prev_best = ikey.sequence;
        buckets_with_key++;
      }
    }
  }
  EXPECT_GE(buckets_with_key, 1);
}

TEST_F(LevelIteratorsTest, GetFragmentsNewestFirstAndStoppable) {
  // Three generations of one key in different residences.
  ASSERT_TRUE(db_->Put(WriteOptions(), "frag", "gen1").ok());
  ASSERT_TRUE(db_->CompactAll().ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "frag", "gen2").ok());
  ASSERT_TRUE(db_->CompactAll().ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "frag", "gen3").ok());  // In memtable

  std::vector<SequenceNumber> seqs;
  ASSERT_TRUE(db_->GetFragments(ReadOptions(), "frag",
                                [&](int, SequenceNumber seq, bool,
                                    const std::vector<Slice>&) {
                                  seqs.push_back(seq);
                                  return true;
                                })
                  .ok());
  ASSERT_GE(seqs.size(), 2u);
  for (size_t i = 1; i < seqs.size(); i++) {
    EXPECT_GT(seqs[i - 1], seqs[i]);
  }

  // Early termination: returning false stops the walk.
  int calls = 0;
  ASSERT_TRUE(db_->GetFragments(ReadOptions(), "frag",
                                [&](int, SequenceNumber, bool,
                                    const std::vector<Slice>&) {
                                  calls++;
                                  return false;
                                })
                  .ok());
  EXPECT_EQ(1, calls);
}

TEST_F(LevelIteratorsTest, GetFragmentsReportsTombstones) {
  ASSERT_TRUE(db_->Put(WriteOptions(), "dead", "v1").ok());
  ASSERT_TRUE(db_->CompactAll().ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), "dead").ok());

  std::vector<bool> deletions;
  ASSERT_TRUE(db_->GetFragments(ReadOptions(), "dead",
                                [&](int, SequenceNumber, bool deleted,
                                    const std::vector<Slice>&) {
                                  deletions.push_back(deleted);
                                  return true;
                                })
                  .ok());
  ASSERT_GE(deletions.size(), 2u);
  EXPECT_TRUE(deletions[0]);   // Newest fragment: the tombstone
  EXPECT_FALSE(deletions[1]);  // Older value still on disk
}

TEST_F(LevelIteratorsTest, ScanAllSkipsDeletedAndOldVersions) {
  ASSERT_TRUE(db_->Put(WriteOptions(), "a", "a1").ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "a", "a2").ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "b", "b1").ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), "b").ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "c", "c1").ok());

  std::string dump;
  ASSERT_TRUE(db_->ScanAll(ReadOptions(),
                           [&](const Slice& key, SequenceNumber,
                               const Slice& value) {
                             dump += key.ToString() + "=" +
                                     value.ToString() + ";";
                             return true;
                           })
                  .ok());
  EXPECT_EQ("a=a2;c=c1;", dump);
}

TEST_F(LevelIteratorsTest, EmbeddedScanVisitsL0FilesNewestFirst) {
  // Build a DB with embedded meta and multiple L0 files.
  Options options;
  options.env = env_.get();
  options.write_buffer_size = 64 << 10;
  options.max_file_size = 32 << 10;
  // Raise the trigger so L0 files accumulate without compaction.
  options.l0_compaction_trigger = 100;
  options.secondary_attributes = {"UserID"};
  options.attribute_extractor = JsonAttributeExtractor::Instance();
  options.secondary_filter_policy = filter_.get();
  DBImpl* raw = nullptr;
  ASSERT_TRUE(DBImpl::Open(options, "/l0db", &raw).ok());
  std::unique_ptr<DBImpl> db(raw);

  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), "t" + std::to_string(i),
                        "{\"UserID\":\"u1\",\"pad\":\"" +
                            std::string(100, 'p') + "\"}")
                    .ok());
  }
  std::string num_l0;
  ASSERT_TRUE(db->GetProperty("leveldbpp.num-files-at-level0", &num_l0));
  ASSERT_GT(std::stoi(num_l0), 1);

  std::vector<uint64_t> file_order;
  uint64_t prev_file = 0;
  DBImpl::ReadView view(db.get(), ReadOptions());
  ASSERT_TRUE(db->EmbeddedScanBuckets(
                    view, "UserID", "u1", "u1",
                    [](const Slice&, SequenceNumber, const Slice&) {},
                    [&](const std::vector<DBImpl::BlockCandidate>& cands) {
                      for (const DBImpl::BlockCandidate& c : cands) {
                        ASSERT_EQ(0, c.level);
                        if (c.file != prev_file) {
                          file_order.push_back(c.file);
                          prev_file = c.file;
                        }
                      }
                    },
                    [](SequenceNumber) { return true; })
                  .ok());
  ASSERT_GT(file_order.size(), 1u);
  for (size_t i = 1; i < file_order.size(); i++) {
    EXPECT_GT(file_order[i - 1], file_order[i])
        << "L0 files must be visited newest-first";
  }
}

}  // namespace
}  // namespace leveldbpp
