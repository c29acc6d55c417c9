// PerfContext correctness: for every index variant, the per-query totals a
// thread-local PerfContext accumulates must equal the deltas of the global
// tickers (summed over the primary table and every stand-alone index
// table) around that query — at read_parallelism 0 AND 4, for every
// ticker. The named counters (posting entries / candidate records /
// validation attempts) are additionally placed so their per-query value is
// independent of read_parallelism, which the cross-parallelism test pins
// down with unlimited (k == 0) queries.

#include "util/perf_context.h"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/document.h"
#include "core/secondary_db.h"
#include "env/env.h"
#include "json/json.h"
#include "util/random.h"

namespace leveldbpp {
namespace {

std::string MakeDoc(const std::string& user, uint64_t ctime,
                    const std::string& body) {
  json::Object obj;
  obj["UserID"] = json::Value(user);
  char ts[32];
  std::snprintf(ts, sizeof(ts), "%012llu",
                static_cast<unsigned long long>(ctime));
  obj["CreationTime"] = json::Value(std::string(ts));
  obj["Body"] = json::Value(body);
  return json::Value(std::move(obj)).ToString();
}

std::string UserName(int u) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "user%03d", u);
  return buf;
}

std::string Ctime(uint64_t t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%012llu",
                static_cast<unsigned long long>(t));
  return buf;
}

// The named counters, snapshotted as one comparable unit.
struct CounterSnapshot {
  uint64_t posting_entries_scanned = 0;
  uint64_t candidate_records_scanned = 0;
  uint64_t candidates_validated = 0;
  uint64_t candidates_valid = 0;

  bool operator==(const CounterSnapshot& o) const {
    return posting_entries_scanned == o.posting_entries_scanned &&
           candidate_records_scanned == o.candidate_records_scanned &&
           candidates_validated == o.candidates_validated &&
           candidates_valid == o.candidates_valid;
  }
};

}  // namespace

class PerfContextTest : public testing::TestWithParam<IndexType> {
 protected:
  PerfContextTest() : env_(NewMemEnv()), path_("/perfdb") {}
  ~PerfContextTest() override { DisablePerfContext(); }

  void Open(int read_parallelism) {
    db_.reset();
    SecondaryDBOptions options;
    options.base.env = env_.get();
    options.base.write_buffer_size = 64 << 10;
    options.base.max_file_size = 32 << 10;
    options.base.max_bytes_for_level_base = 128 << 10;
    options.base.read_parallelism = read_parallelism;
    options.index_type = GetParam();
    options.indexed_attributes = {"UserID", "CreationTime"};
    Status s = SecondaryDB::Open(options, path_, &db_);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  // Same randomized history as parallel_query_test: inserts, moves between
  // users (creating stale index entries), deletes, periodic compaction so
  // candidates spread over memtable + many levels.
  void BuildWorkload() {
    Random rnd(301);
    uint64_t ctime = 1;
    for (int i = 0; i < 1500; i++) {
      const int key_id = rnd.Uniform(400);
      char key[16];
      std::snprintf(key, sizeof(key), "k%05d", key_id);
      const int op = rnd.Uniform(10);
      if (op == 0) {
        ASSERT_TRUE(db_->Delete(key).ok());
      } else {
        const int user = rnd.Uniform(25);
        ASSERT_TRUE(
            db_->Put(key, MakeDoc(UserName(user), ctime, "body")).ok());
      }
      ctime++;
      if (i == 700) {
        ASSERT_TRUE(db_->CompactAll().ok());
      } else if (i % 400 == 399) {
        ASSERT_TRUE(db_->MaybeCompact().ok());
      }
    }
  }

  std::array<uint64_t, kTickerCount> SnapshotTotals() {
    std::array<uint64_t, kTickerCount> snap{};
    for (uint32_t i = 0; i < kTickerCount; i++) {
      snap[i] = db_->TotalTicker(static_cast<Ticker>(i));
    }
    return snap;
  }

  // Run one operation with a freshly reset PerfContext and assert that, for
  // EVERY ticker, the per-query mirror equals the global delta (summed over
  // the primary table and all index tables).
  void CheckParity(const std::string& what,
                   const std::function<Status()>& op) {
    PerfContext* perf = GetPerfContext();
    const std::array<uint64_t, kTickerCount> before = SnapshotTotals();
    perf->Reset();
    Status s = op();
    EXPECT_TRUE(s.ok() || s.IsNotFound()) << what << ": " << s.ToString();
    for (uint32_t i = 0; i < kTickerCount; i++) {
      const Ticker t = static_cast<Ticker>(i);
      EXPECT_EQ(db_->TotalTicker(t) - before[i], perf->TickerValue(t))
          << what << " ticker " << TickerName(t);
    }
    observed_block_reads_ += perf->TickerValue(kBlockRead);
  }

  void CheckParityForAllQueries() {
    for (size_t k : {size_t{0}, size_t{1}, size_t{5}}) {
      for (int u = 0; u < 25; u += 5) {
        CheckParity(
            "lookup user " + std::to_string(u) + " k" + std::to_string(k),
            [&]() {
              std::vector<QueryResult> results;
              return db_->Lookup("UserID", UserName(u), k, &results);
            });
      }
      const std::pair<uint64_t, uint64_t> ranges[] = {
          {1, 1500}, {200, 400}, {1499, 1500}};
      for (const auto& [lo, hi] : ranges) {
        CheckParity("rangelookup " + std::to_string(lo) + ".." +
                        std::to_string(hi) + " k" + std::to_string(k),
                    [&]() {
                      std::vector<QueryResult> results;
                      return db_->RangeLookup("CreationTime", Ctime(lo),
                                              Ctime(hi), k, &results);
                    });
      }
    }
    for (int key_id = 0; key_id < 400; key_id += 40) {
      char key[16];
      std::snprintf(key, sizeof(key), "k%05d", key_id);
      CheckParity(std::string("get ") + key, [&]() {
        std::string value;
        return db_->Get(key, &value);
      });
    }
  }

  // Named-counter totals over the full unlimited (k == 0) query sweep.
  CounterSnapshot CollectCounters() {
    PerfContext* perf = GetPerfContext();
    EnablePerfContext();
    perf->Reset();
    for (int u = 0; u < 25; u += 3) {
      std::vector<QueryResult> results;
      EXPECT_TRUE(db_->Lookup("UserID", UserName(u), 0, &results).ok());
    }
    const std::pair<uint64_t, uint64_t> ranges[] = {
        {1, 1500}, {200, 400}, {1000, 1100}};
    for (const auto& [lo, hi] : ranges) {
      std::vector<QueryResult> results;
      EXPECT_TRUE(
          db_->RangeLookup("CreationTime", Ctime(lo), Ctime(hi), 0, &results)
              .ok());
    }
    CounterSnapshot snap;
    snap.posting_entries_scanned = perf->posting_entries_scanned;
    snap.candidate_records_scanned = perf->candidate_records_scanned;
    snap.candidates_validated = perf->candidates_validated;
    snap.candidates_valid = perf->candidates_valid;
    return snap;
  }

  std::unique_ptr<Env> env_;
  std::string path_;
  std::unique_ptr<SecondaryDB> db_;
  uint64_t observed_block_reads_ = 0;
};

TEST_P(PerfContextTest, PerQueryTotalsEqualTickerDeltas) {
  Open(/*read_parallelism=*/0);
  BuildWorkload();
  EnablePerfContext();
  CheckParityForAllQueries();

  Open(/*read_parallelism=*/4);  // Reopen over the same store
  CheckParityForAllQueries();

  // The sweep must have exercised real I/O, or the parity checks above
  // compared zeros against zeros.
  EXPECT_GT(observed_block_reads_, 0u);
}

TEST_P(PerfContextTest, NamedCountersIndependentOfParallelism) {
  Open(/*read_parallelism=*/0);
  BuildWorkload();
  // Reopen before the baseline so every run sees the identical all-on-disk
  // layout: recovery flushes the tail of the workload out of the memtable,
  // and the embedded memtable path enumerates only in-range records while
  // a flushed block is scanned wholesale — a layout difference, not a
  // parallelism difference.
  Open(/*read_parallelism=*/0);
  const CounterSnapshot sequential = CollectCounters();

  // The workload must feed each variant's counters: scan variants visit
  // candidate records, posting variants parse entries and validate them.
  const IndexType type = GetParam();
  if (type == IndexType::kNoIndex || type == IndexType::kEmbedded) {
    EXPECT_GT(sequential.candidate_records_scanned, 0u);
  } else {
    EXPECT_GT(sequential.posting_entries_scanned, 0u);
    EXPECT_GT(sequential.candidates_validated, 0u);
    EXPECT_GT(sequential.candidates_valid, 0u);
    EXPECT_LE(sequential.candidates_valid, sequential.candidates_validated);
  }

  for (int parallelism : {2, 4}) {
    Open(parallelism);
    const CounterSnapshot parallel = CollectCounters();
    EXPECT_EQ(sequential.posting_entries_scanned,
              parallel.posting_entries_scanned)
        << "p=" << parallelism;
    EXPECT_EQ(sequential.candidate_records_scanned,
              parallel.candidate_records_scanned)
        << "p=" << parallelism;
    EXPECT_EQ(sequential.candidates_validated, parallel.candidates_validated)
        << "p=" << parallelism;
    EXPECT_EQ(sequential.candidates_valid, parallel.candidates_valid)
        << "p=" << parallelism;
  }
}

TEST_P(PerfContextTest, DisabledContextRecordsNothing) {
  Open(/*read_parallelism=*/0);
  BuildWorkload();
  PerfContext* perf = GetPerfContext();
  DisablePerfContext();
  perf->Reset();
  std::vector<QueryResult> results;
  ASSERT_TRUE(db_->Lookup("UserID", UserName(3), 0, &results).ok());
  for (uint32_t i = 0; i < kTickerCount; i++) {
    EXPECT_EQ(0u, perf->TickerValue(static_cast<Ticker>(i)));
  }
  EXPECT_EQ(0u, perf->posting_entries_scanned);
  EXPECT_EQ(0u, perf->candidate_records_scanned);
  EXPECT_EQ(0u, perf->candidates_validated);
  EXPECT_EQ(0u, perf->lookup_micros);
}

TEST_P(PerfContextTest, LookupTimerAccumulates) {
  Open(/*read_parallelism=*/0);
  BuildWorkload();
  PerfContext* perf = GetPerfContext();
  EnablePerfContext();
  perf->Reset();
  // A large query sweep takes well over a microsecond in aggregate.
  for (int round = 0; round < 20; round++) {
    for (int u = 0; u < 25; u++) {
      std::vector<QueryResult> results;
      ASSERT_TRUE(db_->Lookup("UserID", UserName(u), 0, &results).ok());
    }
  }
  EXPECT_GT(perf->lookup_micros, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, PerfContextTest,
                         testing::Values(IndexType::kNoIndex,
                                         IndexType::kEmbedded,
                                         IndexType::kLazy, IndexType::kEager,
                                         IndexType::kComposite),
                         [](const testing::TestParamInfo<IndexType>& info) {
                           return IndexTypeName(info.param);
                         });

// ---- Plumbing unit tests (no database) ----

TEST(PerfContextUnitTest, StatisticsRecordMirrorsIntoActiveContext) {
  Statistics stats;
  PerfContext* perf = GetPerfContext();
  EnablePerfContext();
  perf->Reset();
  stats.Record(kBlockRead, 3);
  stats.Record(kBlockReadBytes, 4096);
  EXPECT_EQ(3u, perf->TickerValue(kBlockRead));
  EXPECT_EQ(4096u, perf->TickerValue(kBlockReadBytes));
  // Mirroring covers ANY Statistics object, not a specific one.
  Statistics other;
  other.Record(kBlockRead);
  EXPECT_EQ(4u, perf->TickerValue(kBlockRead));
  // The global counters are untouched by the mirror.
  EXPECT_EQ(3u, stats.Get(kBlockRead));

  DisablePerfContext();
  stats.Record(kBlockRead, 100);
  EXPECT_EQ(4u, perf->TickerValue(kBlockRead));
}

TEST(PerfContextUnitTest, SwapRedirectsAndRestores) {
  Statistics stats;
  PerfContext* perf = GetPerfContext();
  EnablePerfContext();
  perf->Reset();

  PerfContext task_local;
  PerfContext* prev = SwapThreadPerfContext(&task_local);
  EXPECT_EQ(perf, prev);
  stats.Record(kParallelTasks, 7);
  SwapThreadPerfContext(prev);

  EXPECT_EQ(7u, task_local.TickerValue(kParallelTasks));
  EXPECT_EQ(0u, perf->TickerValue(kParallelTasks));

  perf->MergeFrom(task_local);
  EXPECT_EQ(7u, perf->TickerValue(kParallelTasks));
  DisablePerfContext();
}

TEST(PerfContextUnitTest, MergeFromAddsEveryField) {
  PerfContext a, b;
  a.tickers[kBlockRead] = 2;
  b.tickers[kBlockRead] = 5;
  a.posting_entries_scanned = 10;
  b.posting_entries_scanned = 1;
  b.candidates_validated = 3;
  a.lookup_micros = 100;
  b.lookup_micros = 50;
  b.validate_micros = 25;
  a.MergeFrom(b);
  EXPECT_EQ(7u, a.TickerValue(kBlockRead));
  EXPECT_EQ(11u, a.posting_entries_scanned);
  EXPECT_EQ(3u, a.candidates_validated);
  EXPECT_EQ(150u, a.lookup_micros);
  EXPECT_EQ(25u, a.validate_micros);

  a.Reset();
  EXPECT_EQ(0u, a.TickerValue(kBlockRead));
  EXPECT_EQ(0u, a.posting_entries_scanned);
  EXPECT_EQ(0u, a.lookup_micros);
}

TEST(PerfContextUnitTest, ContextsAreThreadLocal) {
  PerfContext* main_ctx = GetPerfContext();
  EnablePerfContext();
  main_ctx->Reset();
  Statistics stats;
  std::thread other([&stats]() {
    // This thread never enabled recording: its Records are not mirrored,
    // and its context is a different instance from the main thread's.
    EXPECT_EQ(nullptr, CurrentThreadPerfContext());
    stats.Record(kBlockRead, 9);
    EXPECT_NE(nullptr, GetPerfContext());
  });
  other.join();
  EXPECT_EQ(0u, main_ctx->TickerValue(kBlockRead));
  EXPECT_EQ(9u, stats.Get(kBlockRead));
  DisablePerfContext();
}

TEST(PerfContextUnitTest, FieldRegistriesAndDumps) {
  const auto& counters = PerfContext::CounterFields();
  const auto& timers = PerfContext::TimerFields();
  EXPECT_EQ(4u, counters.size());
  EXPECT_EQ(4u, timers.size());
  for (const auto& f : counters) {
    EXPECT_EQ(0u, std::string(f.name).find("perf.")) << f.name;
  }
  for (const auto& f : timers) {
    EXPECT_EQ(0u, std::string(f.name).find("perf.")) << f.name;
  }

  PerfContext ctx;
  ctx.tickers[kBlockRead] = 12;
  ctx.posting_entries_scanned = 34;
  ctx.lookup_micros = 56;
  const std::string text = ctx.ToString();
  EXPECT_NE(std::string::npos, text.find(TickerName(kBlockRead)));
  EXPECT_NE(std::string::npos, text.find("perf.posting.entries.scanned"));
  EXPECT_NE(std::string::npos, text.find("perf.lookup.micros"));
  // Zero-valued entries are skipped by default.
  EXPECT_EQ(std::string::npos, text.find("perf.validate.micros"));
  EXPECT_NE(std::string::npos,
            ctx.ToString(/*include_zeros=*/true).find("perf.validate.micros"));

  json::Value parsed;
  ASSERT_TRUE(json::Parse(Slice(ctx.ToJson()), &parsed)) << ctx.ToJson();
  EXPECT_EQ(12, parsed["tickers"][TickerName(kBlockRead)].as_int());
  EXPECT_EQ(34, parsed["counters"]["perf.posting.entries.scanned"].as_int());
  EXPECT_EQ(56, parsed["timers"]["perf.lookup.micros"].as_int());
}

}  // namespace leveldbpp
