// Concurrent write-path tests: group-commit writer queue, background
// flush/compaction, readers and secondary-index queries racing writers, and
// the determinism guarantee of the synchronous (paper) mode.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/document.h"
#include "core/secondary_db.h"
#include "core/standalone_index.h"
#include "db/db_impl.h"
#include "env/env.h"
#include "env/statistics.h"
#include "table/filter_policy.h"

namespace leveldbpp {

namespace {

std::string Key(int writer, int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "w%02d-k%06d", writer, i);
  return buf;
}

std::string Value(int writer, int i) {
  // A JSON doc so the secondary-index paths have something to extract.
  char num[16];
  std::snprintf(num, sizeof(num), "%06d", i);
  return "{\"Attr\":\"" + std::string(num) + "\",\"Owner\":\"w" +
         std::to_string(writer) + "\",\"pad\":\"" + std::string(64, 'p') +
         "\"}";
}

}  // namespace

class ConcurrencyTest : public testing::Test {
 protected:
  ConcurrencyTest() : env_(NewMemEnv()), dbname_("/conc_test") {
    filter_policy_.reset(NewBloomFilterPolicy(10));
  }

  ~ConcurrencyTest() override {
    db_.reset();
    Options options;
    options.env = env_.get();
    DestroyDB(dbname_, options);
  }

  Options BaseOptions() {
    Options options;
    options.env = env_.get();
    options.create_if_missing = true;
    options.write_buffer_size = 64 << 10;  // Small: force flushes mid-test
    options.max_file_size = 32 << 10;
    options.max_bytes_for_level_base = 128 << 10;
    options.filter_policy = filter_policy_.get();
    options.statistics = &stats_;
    return options;
  }

  void Open(const Options& options) {
    db_.reset();
    DBImpl* raw = nullptr;
    Status s = DBImpl::Open(options, dbname_, &raw);
    ASSERT_TRUE(s.ok()) << s.ToString();
    db_.reset(raw);
  }

  Statistics stats_;
  std::unique_ptr<Env> env_;
  std::string dbname_;
  std::unique_ptr<const FilterPolicy> filter_policy_;
  std::unique_ptr<DBImpl> db_;
};

// N writers with background compaction: every write must survive, and the
// published sequence number must advance by exactly one per Put.
TEST_F(ConcurrencyTest, ConcurrentWritersNoLostUpdates) {
  Options options = BaseOptions();
  options.background_compaction = true;
  Open(options);

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 1500;

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int w = 0; w < kWriters; w++) {
    threads.emplace_back([&, w]() {
      SequenceNumber prev = 0;
      for (int i = 0; i < kPerWriter; i++) {
        if (!db_->Put(WriteOptions(), Key(w, i), Value(w, i)).ok()) {
          failures.fetch_add(1);
          return;
        }
        // The global sequence must be monotone as observed by any thread.
        SequenceNumber seq = db_->LastSequence();
        if (seq < prev) {
          failures.fetch_add(1);
          return;
        }
        prev = seq;
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());

  // Exactly one sequence number per Put: none lost, none double-assigned.
  EXPECT_EQ(db_->LastSequence(),
            static_cast<SequenceNumber>(kWriters * kPerWriter));

  std::string value;
  for (int w = 0; w < kWriters; w++) {
    for (int i = 0; i < kPerWriter; i++) {
      ASSERT_TRUE(db_->Get(ReadOptions(), Key(w, i), &value).ok())
          << "lost write " << Key(w, i);
      ASSERT_EQ(value, Value(w, i));
    }
  }

  // The writer queue must account for every Write() call it absorbed.
  EXPECT_EQ(stats_.Get(kGroupCommitWrites),
            static_cast<uint64_t>(kWriters * kPerWriter));
  EXPECT_GE(stats_.Get(kGroupCommitWrites), stats_.Get(kGroupCommitBatches));
}

// Readers (point gets, iterators) and secondary-index queries race writers
// while background flushes/compactions churn the file layout underneath.
TEST_F(ConcurrencyTest, ReadersAndIndexQueriesDuringWrites) {
  Options options = BaseOptions();
  options.background_compaction = true;
  options.secondary_attributes = {"Attr"};
  options.attribute_extractor = JsonAttributeExtractor::Instance();
  options.secondary_filter_policy = filter_policy_.get();
  Open(options);

  constexpr int kWriters = 2;
  constexpr int kPerWriter = 1200;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; w++) {
    threads.emplace_back([&, w]() {
      for (int i = 0; i < kPerWriter; i++) {
        if (!db_->Put(WriteOptions(), Key(w, i), Value(w, i)).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }

  // Point readers: a key that has been written must stay visible with its
  // exact value (writers never overwrite).
  for (int r = 0; r < 2; r++) {
    threads.emplace_back([&, r]() {
      std::string value;
      while (!done.load(std::memory_order_acquire)) {
        for (int w = 0; w < kWriters; w++) {
          int i = r * 37 % kPerWriter;
          Status s = db_->Get(ReadOptions(), Key(w, i), &value);
          if (s.ok() && value != Value(w, i)) {
            failures.fetch_add(1);
            return;
          }
        }
      }
    });
  }

  // Iterator reader: full scans must always see well-formed records.
  threads.emplace_back([&]() {
    while (!done.load(std::memory_order_acquire)) {
      std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
      int n = 0;
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        if (it->key().size() < 3 || it->value().size() < 3) {
          failures.fetch_add(1);
          return;
        }
        n++;
      }
      if (!it->status().ok()) {
        failures.fetch_add(1);
        return;
      }
      (void)n;
    }
  });

  // Secondary-index reader: memtable lookup + embedded scan across the
  // moving file layout. Matches must decode to records that contain the
  // queried attribute range.
  threads.emplace_back([&]() {
    while (!done.load(std::memory_order_acquire)) {
      std::atomic<int> matches{0};
      DBImpl::ReadView view(db_.get(), ReadOptions());
      Status s = db_->EmbeddedScanBuckets(
          view, "Attr", "000100", "000200",
          [&](const Slice& key, SequenceNumber, const Slice&) {
            if (key.size() < 3) failures.fetch_add(1);
            matches.fetch_add(1);
          },
          [&](const std::vector<DBImpl::BlockCandidate>& cands) {
            for (const DBImpl::BlockCandidate& c : cands) {
              if (c.table == nullptr || c.block > (1u << 20)) {
                failures.fetch_add(1);
              }
            }
          },
          [](SequenceNumber) { return true; });
      if (!s.ok()) failures.fetch_add(1);
    }
  });

  for (int w = 0; w < kWriters; w++) threads[w].join();
  done.store(true, std::memory_order_release);
  for (size_t i = kWriters; i < threads.size(); i++) threads[i].join();

  ASSERT_EQ(failures.load(), 0);
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());

  std::string value;
  for (int w = 0; w < kWriters; w++) {
    for (int i = 0; i < kPerWriter; i++) {
      ASSERT_TRUE(db_->Get(ReadOptions(), Key(w, i), &value).ok());
      ASSERT_EQ(value, Value(w, i));
    }
  }
}

// Embedded LOOKUP racing writers that overwrite the same keys with the same
// attribute value (and, through inline compactions, move them between
// levels). The memtable scan may see a version whose sequence is not yet
// published next to the older one it replaces; every query must still
// return each key exactly once.
TEST(EmbeddedConcurrencyTest, LookupReturnsEachKeyOnceDuringOverwrites) {
  for (int parallelism : {0, 4}) {
    std::unique_ptr<Env> env(NewMemEnv());
    SecondaryDBOptions options;
    options.base.env = env.get();
    options.base.write_buffer_size = 64 << 10;
    options.base.max_file_size = 32 << 10;
    options.base.read_parallelism = parallelism;
    options.index_type = IndexType::kEmbedded;
    options.indexed_attributes = {"Attr"};
    std::unique_ptr<SecondaryDB> db;
    ASSERT_TRUE(SecondaryDB::Open(options, "/overwrite", &db).ok());

    constexpr int kWriters = 2;
    constexpr int kKeys = 16;
    constexpr int kPerWriter = 3000;
    // Every version of every key carries Attr "000001".
    for (int i = 0; i < kKeys; i++) {
      ASSERT_TRUE(db->Put(Key(0, i), Value(0, 1)).ok());
    }
    std::atomic<int> writers_left{kWriters};
    std::atomic<int> failures{0};
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; w++) {
      writers.emplace_back([&, w]() {
        for (int i = 0; i < kPerWriter; i++) {
          if (!db->Put(Key(0, (w + i) % kKeys), Value(w, 1)).ok()) {
            failures.fetch_add(1);
            break;
          }
        }
        writers_left.fetch_sub(1, std::memory_order_release);
      });
    }

    std::string repeated;
    size_t distinct = kKeys;
    Status s;
    while (s.ok() && repeated.empty() && distinct == kKeys &&
           writers_left.load(std::memory_order_acquire) > 0) {
      std::vector<QueryResult> results;
      s = db->Lookup("Attr", "000001", 0, &results);
      std::set<std::string> keys;
      for (const QueryResult& r : results) {
        if (!keys.insert(r.primary_key).second) repeated = r.primary_key;
      }
      distinct = keys.size();
    }
    for (auto& t : writers) t.join();
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ("", repeated) << "p=" << parallelism << ": returned twice";
    EXPECT_EQ(static_cast<size_t>(kKeys), distinct) << "p=" << parallelism;
    EXPECT_EQ(failures.load(), 0);
  }
}

// Lazy LOOKUP / RANGELOOKUP after 4 writers on one hot value, with
// background flushes and a deep immutable-memtable queue, match a twin
// built single-threaded from the same final records in primary-sequence
// order. Concurrent writers land index postings in an order that is not
// primary-sequence order, so a memtable's versions of the hot value must be
// merged and sorted at read time, and flush must merge them the same way.
TEST(LazyConcurrencyTest, HotValueMatchesSingleThreadedTwin) {
  std::unique_ptr<Env> env(NewMemEnv());
  auto open = [&](bool concurrent, const std::string& path,
                  std::unique_ptr<SecondaryDB>* db) {
    SecondaryDBOptions options;
    options.base.env = env.get();
    options.base.write_buffer_size = 64 << 10;
    options.base.max_file_size = 32 << 10;
    options.base.background_compaction = concurrent;
    options.base.max_immutable_memtables = concurrent ? 4 : 1;
    options.index_type = IndexType::kLazy;
    options.indexed_attributes = {"UserID", "CreationTime"};
    ASSERT_TRUE(SecondaryDB::Open(options, path, db).ok());
  };
  auto doc = [](const std::string& user, int time) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%06d", time);
    return "{\"CreationTime\":\"" + std::string(buf) + "\",\"UserID\":\"" +
           user + "\"}";
  };

  std::unique_ptr<SecondaryDB> db;
  open(true, "/lazy_conc", &db);
  constexpr int kWriters = 4;
  constexpr int kKeys = 150;  // Per writer
  constexpr int kOps = 1500;  // Per writer
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; w++) {
    writers.emplace_back([&, w]() {
      for (int i = 0; i < kOps; i++) {
        const std::string key = Key(w, i % kKeys);
        // Mostly the hot value; some records move to a cold one and back,
        // and some are deleted (Lazy deletion markers).
        Status s = i % 11 == 10
                       ? db->Delete(key)
                       : db->Put(key, doc(i % 5 == 0 ? "cold" : "hot",
                                          i * kWriters + w));
        if (!s.ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  ASSERT_EQ(0, failures.load());
  auto* hot_index = dynamic_cast<StandAloneIndex*>(db->index("UserID"));
  ASSERT_NE(nullptr, hot_index);
  ASSERT_TRUE(hot_index->index_db()->WaitForBackgroundWork().ok());
  ASSERT_GT(hot_index->index_statistics()->Get(kFlushCount), 1u);

  // The twin: every live record, written once in primary-sequence order.
  std::vector<std::pair<SequenceNumber, std::pair<std::string, std::string>>>
      records;
  {
    std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      std::string value;
      DBImpl::RecordLocation loc;
      ASSERT_TRUE(
          db->primary()->GetWithMeta(ReadOptions(), it->key(), &value, &loc)
              .ok());
      records.push_back({loc.seq, {it->key().ToString(), value}});
    }
    ASSERT_TRUE(it->status().ok());
  }
  std::sort(records.begin(), records.end());
  std::unique_ptr<SecondaryDB> twin;
  open(false, "/lazy_twin", &twin);
  for (const auto& [seq, kv] : records) {
    ASSERT_TRUE(twin->Put(kv.first, kv.second).ok());
  }

  // Sequence numbers differ between the two stores; keys, order and
  // records must not.
  auto rows = [](SecondaryDB* store, bool range, size_t k) {
    std::vector<QueryResult> results;
    Status s = range ? store->RangeLookup("CreationTime", "005500", "005900",
                                          k, &results)
                     : store->Lookup("UserID", "hot", k, &results);
    EXPECT_TRUE(s.ok()) << s.ToString();
    std::vector<std::string> out;
    for (const QueryResult& r : results) {
      out.push_back(r.primary_key + "=" + r.value);
    }
    return out;
  };
  for (bool range : {false, true}) {
    for (size_t k : {size_t{0}, range ? size_t{50} : size_t{5}}) {
      const std::vector<std::string> want = rows(twin.get(), range, k);
      EXPECT_FALSE(want.empty());
      EXPECT_EQ(want, rows(db.get(), range, k))
          << (range ? "RANGELOOKUP" : "LOOKUP") << " K=" << k;
    }
  }
}

// CompactAll (forced rotation through the writer queue) must be safe while
// other threads keep writing.
TEST_F(ConcurrencyTest, CompactAllRacesWriters) {
  Options options = BaseOptions();
  options.background_compaction = true;
  Open(options);

  constexpr int kPerWriter = 800;
  std::atomic<int> failures{0};
  std::thread writer([&]() {
    for (int i = 0; i < kPerWriter; i++) {
      if (!db_->Put(WriteOptions(), Key(0, i), Value(0, i)).ok()) {
        failures.fetch_add(1);
        return;
      }
    }
  });
  std::thread compactor([&]() {
    for (int i = 0; i < 3; i++) {
      if (!db_->CompactAll().ok()) {
        failures.fetch_add(1);
        return;
      }
    }
  });
  writer.join();
  compactor.join();
  ASSERT_EQ(failures.load(), 0);
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());

  std::string value;
  for (int i = 0; i < kPerWriter; i++) {
    ASSERT_TRUE(db_->Get(ReadOptions(), Key(0, i), &value).ok());
    ASSERT_EQ(value, Value(0, i));
  }
}

// Regression guard for the paper benchmarks: with background_compaction off
// (the default), the same workload must produce the identical file layout
// and identical I/O counters run after run.
TEST_F(ConcurrencyTest, SyncModeIsDeterministic) {
  auto run = [&](Statistics* stats, std::string* layout,
                 uint64_t counters[4]) {
    std::unique_ptr<Env> env(NewMemEnv());
    Options options = BaseOptions();
    options.env = env.get();
    options.statistics = stats;
    ASSERT_FALSE(options.background_compaction);  // Paper mode is default.
    DBImpl* raw = nullptr;
    ASSERT_TRUE(DBImpl::Open(options, "/det", &raw).ok());
    std::unique_ptr<DBImpl> db(raw);
    for (int i = 0; i < 3000; i++) {
      ASSERT_TRUE(db->Put(WriteOptions(), Key(0, i), Value(0, i)).ok());
    }
    ASSERT_TRUE(db->GetProperty("leveldbpp.sstables", layout));
    counters[0] = stats->Get(kFlushCount);
    counters[1] = stats->Get(kCompactionCount);
    counters[2] = stats->Get(kWalBytesWritten);
    counters[3] = stats->Get(kCompactionBytesWritten);
    // The write path must never have injected concurrency artifacts.
    EXPECT_EQ(stats->Get(kWriteStallMicros), 0u);
    EXPECT_EQ(stats->Get(kWriteSlowdownMicros), 0u);
  };

  Statistics stats_a, stats_b;
  std::string layout_a, layout_b;
  uint64_t counters_a[4], counters_b[4];
  run(&stats_a, &layout_a, counters_a);
  run(&stats_b, &layout_b, counters_b);

  EXPECT_EQ(layout_a, layout_b);
  for (int i = 0; i < 4; i++) {
    EXPECT_EQ(counters_a[i], counters_b[i]) << "counter " << i;
  }
}

// The stats property must expose the write-stall / group-commit tickers.
TEST_F(ConcurrencyTest, StatsProperty) {
  Options options = BaseOptions();
  Open(options);
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", "v").ok());
  std::string value;
  ASSERT_TRUE(db_->GetProperty("leveldbpp.stats", &value));
  EXPECT_NE(value.find("groupcommit.batches"), std::string::npos) << value;
}

}  // namespace leveldbpp
