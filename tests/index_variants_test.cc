// Variant-specific unit tests: behaviours unique to one index strategy
// (posting-list maintenance in Eager, fragment scattering in Lazy,
// composite-key encoding, embedded early termination).

#include <gtest/gtest.h>

#include <memory>

#include "core/composite_index.h"
#include "core/posting_list.h"
#include "core/secondary_db.h"
#include "core/standalone_index.h"
#include "db/db_impl.h"
#include "env/env.h"
#include "util/perf_context.h"

namespace leveldbpp {
namespace {

std::string Ctime(int ts) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%012d", ts);
  return buf;
}

std::string Doc(const std::string& user, int ts = 0) {
  return "{\"CreationTime\":\"" + Ctime(ts) + "\",\"UserID\":\"" + user +
         "\"}";
}

// Record i of the newest-first tests: CreationTime i, written in time
// order, keyed either in time order or against it.
std::string TimeKey(int i, bool keys_follow_time) {
  char key[16];
  std::snprintf(key, sizeof(key), "t%04d", keys_follow_time ? i : 399 - i);
  return key;
}

class VariantTest : public testing::Test {
 protected:
  VariantTest() : env_(NewMemEnv()) {}

  std::unique_ptr<SecondaryDB> Open(IndexType type,
                                    size_t block_size = Options().block_size) {
    SecondaryDBOptions options;
    options.base.env = env_.get();
    options.base.write_buffer_size = 64 << 10;
    options.base.block_size = block_size;
    options.index_type = type;
    options.indexed_attributes = {"UserID"};
    std::unique_ptr<SecondaryDB> db;
    Status s =
        SecondaryDB::Open(options, "/vt_" + std::to_string(n_++), &db);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return db;
  }

  // A store indexed on the time-correlated CreationTime only, with 1 KB
  // blocks so a range spans several candidate blocks.
  std::unique_ptr<SecondaryDB> OpenTimeIndexed(IndexType type,
                                               int read_parallelism) {
    SecondaryDBOptions options;
    options.base.env = env_.get();
    options.base.write_buffer_size = 64 << 10;
    options.base.block_size = 1024;
    options.base.read_parallelism = read_parallelism;
    options.index_type = type;
    options.indexed_attributes = {"CreationTime"};
    std::unique_ptr<SecondaryDB> db;
    Status s =
        SecondaryDB::Open(options, "/vt_" + std::to_string(n_++), &db);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return db;
  }

  // A top-K Embedded RANGELOOKUP admits a bucket's records newest-first, so
  // the heap fills from the K newest in-range records and the rest of the
  // bucket is never extracted or GetLite-checked. The order comes from the
  // sequence numbers, not the key order. The I/O is Algorithm 5's: every
  // candidate block of the bucket is still read, once.
  void CheckEmbeddedRangeAdmitsNewestFirst(bool keys_follow_time) {
    const size_t k = 5;
    for (int parallelism : {0, 4}) {
      SCOPED_TRACE("read_parallelism " + std::to_string(parallelism));
      auto db = OpenTimeIndexed(IndexType::kEmbedded, parallelism);
      for (int i = 0; i < 400; i++) {
        ASSERT_TRUE(
            db->Put(TimeKey(i, keys_follow_time), Doc("u1", i)).ok());
      }
      ASSERT_TRUE(db->CompactAll().ok());

      // Candidate blocks of [100, 299], from the metadata the scan consults
      // (this also opens every table, so the reads counted below are data
      // blocks only). One bucket, so the K=5 scan visits all of them.
      size_t candidates = 0, buckets = 0;
      DBImpl* primary = db->primary();
      {
        DBImpl::ReadView view(primary, ReadOptions());
        ASSERT_TRUE(primary
                        ->EmbeddedScanBuckets(
                            view, "CreationTime", Ctime(100), Ctime(299),
                            [](const Slice&, SequenceNumber, const Slice&) {},
                            [&](const std::vector<DBImpl::BlockCandidate>& c) {
                              candidates += c.size();
                              buckets++;
                            },
                            [](SequenceNumber) { return true; })
                        .ok());
      }
      ASSERT_EQ(1u, buckets);
      ASSERT_GT(candidates, 2u);

      Statistics* stats = db->primary_statistics();
      const uint64_t reads_before = stats->Get(kBlockRead);
      const uint64_t getlite_before = stats->Get(kGetLiteCalls);
      std::vector<QueryResult> results;
      ASSERT_TRUE(
          db->RangeLookup("CreationTime", Ctime(100), Ctime(299), k, &results)
              .ok());
      ASSERT_EQ(k, results.size());
      for (size_t j = 0; j < k; j++) {
        const int ts = 299 - static_cast<int>(j);
        EXPECT_EQ(TimeKey(ts, keys_follow_time), results[j].primary_key);
        EXPECT_EQ(Doc("u1", ts), results[j].value);
      }
      EXPECT_EQ(candidates, stats->Get(kBlockRead) - reads_before);
      // Only the results were GetLite-checked, at every read_parallelism:
      // records newer than the range fail the range check before GetLite,
      // and the sixth newest in-range record ends the scan. Admitting in key
      // order instead checks every in-range record of the bucket (200).
      EXPECT_EQ(k, stats->Get(kGetLiteCalls) - getlite_before);
    }
  }

  std::unique_ptr<Env> env_;
  int n_ = 0;
};

// ---- Composite key codec ----

TEST(CompositeKeyCodec, RoundTrip) {
  std::string key = CompositeIndex::MakeCompositeKey("alice", "tweet:17");
  Slice attr, pkey;
  ASSERT_TRUE(CompositeIndex::SplitCompositeKey(Slice(key), &attr, &pkey));
  EXPECT_EQ("alice", attr.ToString());
  EXPECT_EQ("tweet:17", pkey.ToString());
}

TEST(CompositeKeyCodec, OrderingGroupsByAttribute) {
  // All composite keys of one attribute value sort contiguously, and
  // different attribute values never interleave.
  std::string a1 = CompositeIndex::MakeCompositeKey("aa", "z");
  std::string a2 = CompositeIndex::MakeCompositeKey("ab", "a");
  EXPECT_LT(a1, a2);  // "aa" group entirely before "ab" group
  std::string b1 = CompositeIndex::MakeCompositeKey("u1", "t1");
  std::string b2 = CompositeIndex::MakeCompositeKey("u1", "t2");
  EXPECT_LT(b1, b2);  // Within a group: primary-key order
}

TEST(CompositeKeyCodec, RejectsKeyWithoutSeparator) {
  Slice attr, pkey;
  EXPECT_FALSE(CompositeIndex::SplitCompositeKey("no-separator", &attr,
                                                 &pkey));
}

TEST(CompositeKeyCodec, EmptyPrimaryKeyAndAttr) {
  std::string key = CompositeIndex::MakeCompositeKey("", "");
  Slice attr, pkey;
  ASSERT_TRUE(CompositeIndex::SplitCompositeKey(Slice(key), &attr, &pkey));
  EXPECT_TRUE(attr.empty());
  EXPECT_TRUE(pkey.empty());
}

// ---- Eager posting-list maintenance ----

TEST_F(VariantTest, EagerListStaysSortedAndDeduplicated) {
  auto db = Open(IndexType::kEager);
  ASSERT_TRUE(db->Put("t1", Doc("u1")).ok());
  ASSERT_TRUE(db->Put("t2", Doc("u1")).ok());
  ASSERT_TRUE(db->Put("t3", Doc("u1")).ok());
  // Re-put t1 under the same user: its entry must move to the front, not
  // duplicate.
  ASSERT_TRUE(db->Put("t1", Doc("u1")).ok());

  auto* eager = dynamic_cast<StandAloneIndex*>(db->index("UserID"));
  ASSERT_NE(nullptr, eager);
  std::string list;
  ASSERT_TRUE(eager->index_db()->Get(ReadOptions(), "u1", &list).ok());
  std::vector<PostingEntry> entries;
  ASSERT_TRUE(PostingList::Parse(Slice(list), &entries));
  ASSERT_EQ(3u, entries.size());
  EXPECT_EQ("t1", entries[0].primary_key);  // Newest
  EXPECT_EQ("t3", entries[1].primary_key);
  EXPECT_EQ("t2", entries[2].primary_key);
  for (size_t i = 1; i < entries.size(); i++) {
    EXPECT_GT(entries[i - 1].seq, entries[i].seq);
  }
}

TEST_F(VariantTest, EagerDeleteRemovesFromList) {
  auto db = Open(IndexType::kEager);
  ASSERT_TRUE(db->Put("t1", Doc("u1")).ok());
  ASSERT_TRUE(db->Put("t2", Doc("u1")).ok());
  ASSERT_TRUE(db->Delete("t1").ok());

  auto* eager = dynamic_cast<StandAloneIndex*>(db->index("UserID"));
  std::string list;
  ASSERT_TRUE(eager->index_db()->Get(ReadOptions(), "u1", &list).ok());
  std::vector<PostingEntry> entries;
  ASSERT_TRUE(PostingList::Parse(Slice(list), &entries));
  ASSERT_EQ(1u, entries.size());
  EXPECT_EQ("t2", entries[0].primary_key);

  // Deleting the last entry erases the list key entirely.
  ASSERT_TRUE(db->Delete("t2").ok());
  EXPECT_TRUE(
      eager->index_db()->Get(ReadOptions(), "u1", &list).IsNotFound());
}

// ---- Lazy fragment behaviour ----

TEST_F(VariantTest, LazyWritesAreFragmentsNotLists) {
  auto db = Open(IndexType::kLazy);
  // Lazy never reads the index table on writes: stats prove it.
  auto* lazy = dynamic_cast<StandAloneIndex*>(db->index("UserID"));
  ASSERT_NE(nullptr, lazy);
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db->Put("t" + std::to_string(i), Doc("u1")).ok());
  }
  // All fragments still fit in the memtable: zero index-table block reads.
  EXPECT_EQ(0u, lazy->index_statistics()->Get(kBlockRead));
  // The memtable keeps the 100 one-entry fragments as they were written,
  // and a fragment read shows them as one 100-entry fragment.
  int fragments = 0;
  std::vector<PostingEntry> entries;
  ASSERT_TRUE(lazy->index_db()
                  ->GetFragments(ReadOptions(), "u1",
                                 [&](int rank, SequenceNumber, bool deleted,
                                     const std::vector<Slice>& versions) {
                                   fragments++;
                                   EXPECT_EQ(0, rank);
                                   EXPECT_FALSE(deleted);
                                   EXPECT_EQ(100u, versions.size());
                                   for (const Slice& v : versions) {
                                     EXPECT_TRUE(
                                         PostingList::ParseAppend(v, &entries));
                                   }
                                   PostingList::MergeForRead(&entries);
                                   return true;
                                 })
                  .ok());
  EXPECT_EQ(1, fragments);
  ASSERT_EQ(100u, entries.size());
  for (size_t i = 1; i < entries.size(); i++) {
    EXPECT_GT(entries[i - 1].seq, entries[i].seq);  // Newest first
  }
}

TEST_F(VariantTest, LazyMemtableGrowsLinearlyWithPostings) {
  // A Lazy PUT appends one small version to the index memtable. Merging on
  // insert instead re-inserted the value's whole list per PUT, so a hot
  // value's memtable grew with the square of its postings.
  SecondaryDBOptions options;
  options.base.env = env_.get();
  options.base.write_buffer_size = 8 << 20;  // Nothing flushes
  options.index_type = IndexType::kLazy;
  options.indexed_attributes = {"UserID"};
  std::unique_ptr<SecondaryDB> db;
  ASSERT_TRUE(SecondaryDB::Open(options, "/vt_linear", &db).ok());
  auto* lazy = dynamic_cast<StandAloneIndex*>(db->index("UserID"));
  ASSERT_NE(nullptr, lazy);
  auto memtable_bytes = [&]() {
    std::string bytes;
    EXPECT_TRUE(lazy->index_db()->GetProperty(
        "leveldbpp.approximate-memory-usage", &bytes));
    return std::stoull(bytes);
  };

  const uint64_t empty = memtable_bytes();
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(db->Put("t" + std::to_string(i), Doc("hot")).ok());
  }
  const uint64_t first_half = memtable_bytes() - empty;
  for (int i = 1000; i < 2000; i++) {
    ASSERT_TRUE(db->Put("t" + std::to_string(i), Doc("hot")).ok());
  }
  const uint64_t second_half = memtable_bytes() - empty - first_half;

  EXPECT_EQ(0u, lazy->index_statistics()->Get(kFlushCount));
  // About 50 bytes per posting; the list re-inserted per PUT averaged
  // ~15 KB per posting here.
  EXPECT_LT(first_half + second_half, 2000u * 128);
  // The second thousand postings cost what the first did (arena blocks
  // round each half up by at most one block).
  EXPECT_LE(second_half, first_half + (8u << 10));
}

TEST_F(VariantTest, LazyFlushWritesOneFragmentPerKey) {
  // Flush (and recovery's WAL-to-table flush) merges each key's memtable
  // versions into one fragment per table, and LOOKUP / RANGELOOKUP answer
  // the same from the memtable, from the flushed table and after a reopen
  // that replays the WAL.
  SecondaryDBOptions options;
  options.base.env = env_.get();
  options.base.write_buffer_size = 8 << 20;  // Only forced flushes
  options.index_type = IndexType::kLazy;
  options.indexed_attributes = {"UserID", "CreationTime"};
  const std::string path = "/vt_flush";
  std::unique_ptr<SecondaryDB> db;
  ASSERT_TRUE(SecondaryDB::Open(options, path, &db).ok());

  // Three users; updates move records between users and times, and
  // deletes leave deletion markers.
  int ts = 0;
  auto write_round = [&](int round) {
    for (int i = 0; i < 60; i++) {
      const std::string key = "t" + std::to_string(i % 40);
      const std::string user = "u" + std::to_string((i + round) % 3);
      ASSERT_TRUE(db->Put(key, Doc(user, ++ts)).ok());
      if (i % 9 == 4) {
        ASSERT_TRUE(db->Delete("t" + std::to_string((i * 7) % 40)).ok());
      }
    }
  };
  auto answers = [&]() {
    std::string out;
    std::vector<QueryResult> results;
    auto append = [&](const std::vector<QueryResult>& rs) {
      for (const QueryResult& r : rs) {
        out += r.primary_key + "@" + std::to_string(r.seq) + "=" + r.value +
               ";";
      }
      out += "\n";
    };
    for (const char* user : {"u0", "u1", "u2"}) {
      for (size_t k : {size_t{0}, size_t{5}}) {
        EXPECT_TRUE(db->Lookup("UserID", user, k, &results).ok());
        append(results);
      }
    }
    for (size_t k : {size_t{0}, size_t{5}, size_t{50}}) {
      EXPECT_TRUE(db->RangeLookup("CreationTime", Ctime(20), Ctime(150), k,
                                  &results)
                      .ok());
      append(results);
    }
    return out;
  };
  // Every table of both index DBs holds each key once.
  auto expect_one_entry_per_key = [&]() {
    for (const char* attr : {"UserID", "CreationTime"}) {
      auto* lazy = dynamic_cast<StandAloneIndex*>(db->index(attr));
      ASSERT_NE(nullptr, lazy);
      DBImpl::LevelIterators levels;
      ASSERT_TRUE(lazy->index_db()->NewLevelIterators(ReadOptions(), &levels)
                      .ok());
      ASSERT_GT(levels.iters.size(), levels.first_disk) << attr;
      for (size_t i = levels.first_disk; i < levels.iters.size(); i++) {
        Iterator* it = levels.iters[i];
        std::string prev;
        int entries = 0;
        for (it->SeekToFirst(); it->Valid(); it->Next()) {
          const std::string user_key = ExtractUserKey(it->key()).ToString();
          EXPECT_NE(prev, user_key) << attr << " key repeats in a table";
          prev = user_key;
          entries++;
        }
        EXPECT_GT(entries, 0);
      }
    }
  };
  auto flush_indexes = [&]() {
    for (const char* attr : {"UserID", "CreationTime"}) {
      auto* lazy = dynamic_cast<StandAloneIndex*>(db->index(attr));
      ASSERT_TRUE(lazy->index_db()->Write(WriteOptions(), nullptr).ok());
    }
  };

  write_round(0);
  const std::string in_memtable = answers();
  flush_indexes();
  expect_one_entry_per_key();
  EXPECT_EQ(in_memtable, answers());

  // A second round lands in the memtable above the flushed tables; the
  // reopen replays it from the WAL into tables of its own.
  write_round(1);
  const std::string before_reopen = answers();
  EXPECT_NE(in_memtable, before_reopen);
  db.reset();
  ASSERT_TRUE(SecondaryDB::Open(options, path, &db).ok());
  expect_one_entry_per_key();
  EXPECT_EQ(before_reopen, answers());
}

TEST_F(VariantTest, EagerReadsOnEveryWrite) {
  auto db = Open(IndexType::kEager);
  auto* eager = dynamic_cast<StandAloneIndex*>(db->index("UserID"));
  // Force the index list to disk, then watch a write read it back.
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(db->Put("t" + std::to_string(i), Doc("u1")).ok());
  }
  ASSERT_TRUE(db->CompactAll().ok());
  uint64_t reads_before = eager->index_statistics()->Get(kBlockRead);
  ASSERT_TRUE(db->Put("t_new", Doc("u1")).ok());
  EXPECT_GT(eager->index_statistics()->Get(kBlockRead), reads_before)
      << "Eager OnPut must read the current posting list";
}

TEST_F(VariantTest, LazyDeletionMarkerShadowsAcrossLevels) {
  auto db = Open(IndexType::kLazy);
  ASSERT_TRUE(db->Put("t1", Doc("u1")).ok());
  ASSERT_TRUE(db->Put("t2", Doc("u1")).ok());
  ASSERT_TRUE(db->CompactAll().ok());  // Entries now on disk

  ASSERT_TRUE(db->Delete("t1").ok());  // Marker in the index memtable
  std::vector<QueryResult> results;
  ASSERT_TRUE(db->Lookup("UserID", "u1", 0, &results).ok());
  ASSERT_EQ(1u, results.size());
  EXPECT_EQ("t2", results[0].primary_key);

  // Compaction resolves marker + entry; the answer is unchanged.
  ASSERT_TRUE(db->CompactAll().ok());
  ASSERT_TRUE(db->Lookup("UserID", "u1", 0, &results).ok());
  ASSERT_EQ(1u, results.size());
  EXPECT_EQ("t2", results[0].primary_key);
}

// ---- Embedded early termination ----

TEST_F(VariantTest, EmbeddedLookupStopsAtMemtableWhenPossible) {
  auto db = Open(IndexType::kEmbedded);
  // Old data on disk...
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db->Put("old" + std::to_string(i), Doc("u1", i)).ok());
  }
  ASSERT_TRUE(db->CompactAll().ok());
  // ...fresh matches in the memtable.
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(db->Put("new" + std::to_string(i), Doc("u1", 9000 + i)).ok());
  }
  Statistics* stats = db->primary_statistics();
  uint64_t reads_before = stats->Get(kBlockRead);
  std::vector<QueryResult> results;
  ASSERT_TRUE(db->Lookup("UserID", "u1", 5, &results).ok());
  ASSERT_EQ(5u, results.size());
  for (const QueryResult& r : results) {
    EXPECT_EQ(0u, r.primary_key.find("new")) << r.primary_key;
  }
  // Heap filled from the memtable; the disk was never touched.
  EXPECT_EQ(reads_before, stats->Get(kBlockRead));
}

// A snapshot keeps two versions of one key in one table, and with
// one-record blocks they straddle a block boundary: the older version opens
// its block. Its UserID is stale and must not be returned.
TEST_F(VariantTest, EmbeddedVersionsStraddlingABlockBoundary) {
  auto db = Open(IndexType::kEmbedded, /*block_size=*/1024);
  const std::string pad(1100, 'x');  // Each record fills a block alone
  auto doc = [&](const std::string& user) {
    return "{\"Body\":\"" + pad + "\",\"UserID\":\"" + user + "\"}";
  };
  ASSERT_TRUE(db->Put("k0", doc("other")).ok());
  ASSERT_TRUE(db->Put("k1", doc("alice")).ok());
  const Snapshot* snapshot = db->GetSnapshot();
  ASSERT_TRUE(db->Put("k1", doc("bob")).ok());
  ASSERT_TRUE(db->Put("k2", doc("other")).ok());
  ASSERT_TRUE(db->CompactAll().ok());

  std::vector<QueryResult> results;
  ASSERT_TRUE(db->Lookup("UserID", "alice", 0, &results).ok());
  EXPECT_TRUE(results.empty());
  ASSERT_TRUE(db->Lookup("UserID", "bob", 0, &results).ok());
  ASSERT_EQ(1u, results.size());
  EXPECT_EQ("k1", results[0].primary_key);
  std::string value;
  ASSERT_TRUE(db->Get("k1", &value).ok());
  EXPECT_EQ(doc("bob"), value);
  db->ReleaseSnapshot(snapshot);
}

// Without straddling versions, an Embedded LOOKUP reads each candidate
// block exactly once: no same-table probe re-reads the block in hand.
TEST_F(VariantTest, EmbeddedLookupReadsEachCandidateBlockOnce) {
  auto db = Open(IndexType::kEmbedded, /*block_size=*/1024);
  for (int i = 0; i < 400; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "t%04d", i);
    ASSERT_TRUE(db->Put(key, Doc("u" + std::to_string(i / 40), i)).ok());
  }
  ASSERT_TRUE(db->CompactAll().ok());

  // The candidate blocks, from the same bloom and zone-map metadata the scan
  // consults (this also opens every table, so the reads counted below are
  // data blocks only).
  size_t candidates = 0;
  DBImpl* primary = db->primary();
  {
    DBImpl::ReadView view(primary, ReadOptions());
    ASSERT_TRUE(primary
                    ->EmbeddedScanBuckets(
                        view, "UserID", "u5", "u5",
                        [](const Slice&, SequenceNumber, const Slice&) {},
                        [&](const std::vector<DBImpl::BlockCandidate>& c) {
                          candidates += c.size();
                        },
                        [](SequenceNumber) { return true; })
                    .ok());
  }
  ASSERT_GT(candidates, 2u);

  Statistics* stats = db->primary_statistics();
  const uint64_t reads_before = stats->Get(kBlockRead);
  const uint64_t confirms_before = stats->Get(kGetLiteConfirmReads);
  std::vector<QueryResult> results;
  ASSERT_TRUE(db->Lookup("UserID", "u5", 0, &results).ok());
  EXPECT_EQ(40u, results.size());
  EXPECT_EQ(confirms_before, stats->Get(kGetLiteConfirmReads));
  EXPECT_EQ(candidates, stats->Get(kBlockRead) - reads_before);
}

TEST_F(VariantTest, EmbeddedRangeAdmitsNewestFirst) {
  CheckEmbeddedRangeAdmitsNewestFirst(/*keys_follow_time=*/true);
}

TEST_F(VariantTest, EmbeddedRangeAdmitsNewestFirstWithKeysAgainstTime) {
  CheckEmbeddedRangeAdmitsNewestFirst(/*keys_follow_time=*/false);
}

// A bucket with more candidate blocks than one admission batch holds is
// admitted in several newest-first batches (so a top-K scan's memory does not
// grow with the level); the heap still ends with the K newest matches.
TEST_F(VariantTest, EmbeddedRangeAdmitsNewestFirstAcrossHeldBatches) {
  const int n = 6000;  // ~330 one-KB blocks in one compacted level
  for (bool keys_follow_time : {true, false}) {
    for (int parallelism : {0, 4}) {
      SCOPED_TRACE(std::string(keys_follow_time ? "keys follow time"
                                                : "keys against time") +
                   ", read_parallelism " + std::to_string(parallelism));
      auto db = OpenTimeIndexed(IndexType::kEmbedded, parallelism);
      for (int i = 0; i < n; i++) {
        char key[16];
        std::snprintf(key, sizeof(key), "t%05d",
                      keys_follow_time ? i : n - 1 - i);
        ASSERT_TRUE(db->Put(key, Doc("u1", i)).ok());
      }
      ASSERT_TRUE(db->CompactAll().ok());
      // The largest bucket must exceed the scan's 128-block batch.
      size_t largest_bucket = 0;
      DBImpl* primary = db->primary();
      {
        DBImpl::ReadView view(primary, ReadOptions());
        ASSERT_TRUE(primary
                        ->EmbeddedScanBuckets(
                            view, "CreationTime", Ctime(0), Ctime(n),
                            [](const Slice&, SequenceNumber, const Slice&) {},
                            [&](const std::vector<DBImpl::BlockCandidate>& c) {
                              largest_bucket =
                                  std::max(largest_bucket, c.size());
                            },
                            [](SequenceNumber) { return true; })
                        .ok());
      }
      ASSERT_GT(largest_bucket, 2u * 128);
      Statistics* stats = db->primary_statistics();
      for (size_t k : {size_t{5}, size_t{50}}) {
        std::vector<QueryResult> results;
        ASSERT_TRUE(db->RangeLookup("CreationTime", Ctime(0), Ctime(n), k,
                                    &results)
                        .ok());
        ASSERT_EQ(k, results.size());
        for (size_t j = 0; j < k; j++) {
          EXPECT_EQ(Doc("u1", n - 1 - static_cast<int>(j)), results[j].value);
        }
      }
      // Keys against time put the newest records in the first batch, so the
      // later batches GetLite-check nothing more.
      const uint64_t getlite_before = stats->Get(kGetLiteCalls);
      std::vector<QueryResult> results;
      ASSERT_TRUE(
          db->RangeLookup("CreationTime", Ctime(0), Ctime(n), 5, &results)
              .ok());
      if (!keys_follow_time) {
        EXPECT_EQ(5u, stats->Get(kGetLiteCalls) - getlite_before);
      }
    }
  }
}

// Eager and Composite validate a range's postings as one newest-first
// batch: on an ascending-time store a K=5 range validates at most 5
// candidates, however many lists (Eager: one per timestamp) it spans.
TEST_F(VariantTest, PostingRangeValidatesNewestFirst) {
  const size_t k = 5;
  for (IndexType type : {IndexType::kEager, IndexType::kComposite}) {
    SCOPED_TRACE(IndexTypeName(type));
    auto db = OpenTimeIndexed(type, /*read_parallelism=*/0);
    for (int i = 0; i < 400; i++) {
      ASSERT_TRUE(db->Put(TimeKey(i, true), Doc("u1", i)).ok());
    }
    PerfContext* perf = GetPerfContext();
    EnablePerfContext();
    perf->Reset();
    std::vector<QueryResult> results;
    Status s =
        db->RangeLookup("CreationTime", Ctime(100), Ctime(299), k, &results);
    DisablePerfContext();
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_EQ(k, results.size());
    for (size_t j = 0; j < k; j++) {
      EXPECT_EQ(TimeKey(299 - static_cast<int>(j), true),
                results[j].primary_key);
    }
    EXPECT_EQ(200u, perf->posting_entries_scanned);
    EXPECT_LE(perf->candidates_validated, k);
  }
}

TEST_F(VariantTest, EmbeddedUnlimitedLookupMustScanAllLevels) {
  auto db = Open(IndexType::kEmbedded);
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db->Put("t" + std::to_string(i),
                        Doc("u" + std::to_string(i % 5), i))
                    .ok());
  }
  ASSERT_TRUE(db->CompactAll().ok());
  std::vector<QueryResult> results;
  ASSERT_TRUE(db->Lookup("UserID", "u2", 0, &results).ok());
  EXPECT_EQ(400u, results.size());
}

// ---- Cross-variant: result payload identity ----

TEST_F(VariantTest, AllVariantsReturnIdenticalPayloads) {
  std::vector<std::unique_ptr<SecondaryDB>> dbs;
  for (IndexType type :
       {IndexType::kNoIndex, IndexType::kEmbedded, IndexType::kLazy,
        IndexType::kEager, IndexType::kComposite}) {
    dbs.push_back(Open(type));
    for (int i = 0; i < 300; i++) {
      ASSERT_TRUE(dbs.back()
                      ->Put("t" + std::to_string(i),
                            Doc("u" + std::to_string(i % 7), i))
                      .ok());
    }
  }
  std::vector<QueryResult> reference;
  ASSERT_TRUE(dbs[0]->Lookup("UserID", "u3", 10, &reference).ok());
  ASSERT_EQ(10u, reference.size());
  for (size_t v = 1; v < dbs.size(); v++) {
    std::vector<QueryResult> results;
    ASSERT_TRUE(dbs[v]->Lookup("UserID", "u3", 10, &results).ok());
    ASSERT_EQ(reference.size(), results.size()) << v;
    for (size_t i = 0; i < results.size(); i++) {
      EXPECT_EQ(reference[i].primary_key, results[i].primary_key);
      EXPECT_EQ(reference[i].seq, results[i].seq);
      EXPECT_EQ(reference[i].value, results[i].value);
    }
  }
}

}  // namespace
}  // namespace leveldbpp
