// Ingestion suite (ctest label: ingest):
//
//   1. DBImpl::IngestExternalFiles — placement, fresh sequences, atomic
//      MANIFEST splice, reopen durability, input validation.
//   2. Pipelined flush (max_immutable_memtables > 1) — multi-writer drain,
//      queue-depth histogram, recovery with several WALs in flight.
//   3. SecondaryDB::IngestWithIndexes — every variant's query results are
//      byte-identical to a store built by the equivalent Put sequence.
//   4. Crash and repair: multi-imm crash cycles, ingest-then-crash
//      atomicity, ingest-then-RepairDB across the variant matrix.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "crash_harness.h"
#include "core/secondary_db.h"
#include "env/fault_injection_env.h"
#include "env/scheduler_env.h"

namespace leveldbpp {
namespace {

using crash::Op;
using crash::PutOp;
using crash::UserDoc;

IngestFeed FeedFrom(const std::vector<std::pair<std::string, std::string>>* kv,
                    size_t* pos) {
  *pos = 0;
  return [kv, pos](std::string* key, std::string* value) {
    if (*pos >= kv->size()) return false;
    *key = (*kv)[*pos].first;
    *value = (*kv)[*pos].second;
    (*pos)++;
    return true;
  };
}

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key%06d", i);
  return buf;
}

// ---------------------------------------------------------------------------
// 1. DBImpl::IngestExternalFiles
// ---------------------------------------------------------------------------

class IngestDBTest : public testing::Test {
 protected:
  IngestDBTest() : env_(NewMemEnv()) {}

  Options MakeOptions() {
    Options options;
    options.env = env_.get();
    options.write_buffer_size = 64 << 10;
    options.max_file_size = 32 << 10;
    options.statistics = &stats_;
    return options;
  }

  DBImpl* OpenDB(const std::string& name) {
    DBImpl* db = nullptr;
    Status s = DBImpl::Open(MakeOptions(), name, &db);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return db;
  }

  static int FilesAtLevel(DBImpl* db, int level) {
    std::string v;
    EXPECT_TRUE(db->GetProperty(
        "leveldbpp.num-files-at-level" + std::to_string(level), &v));
    return std::stoi(v);
  }

  std::unique_ptr<Env> env_;
  Statistics stats_;
};

TEST_F(IngestDBTest, EmptyDBLandsAtBottomLevelAndSurvivesReopen) {
  const int n = 500;
  std::vector<std::pair<std::string, std::string>> kv;
  for (int i = 0; i < n; i++) kv.emplace_back(Key(i), "v" + std::to_string(i));

  std::unique_ptr<DBImpl> db(OpenDB("/ingest_bottom"));
  size_t pos;
  IngestStats st;
  ASSERT_TRUE(db->IngestExternalFiles(FeedFrom(&kv, &pos), &st).ok());
  EXPECT_GE(st.files, 1u);
  EXPECT_EQ(static_cast<uint64_t>(n), st.keys);
  EXPECT_GT(st.bytes, 0u);
  EXPECT_EQ(st.first_seq + n - 1, st.last_seq);

  // Nothing overlaps an empty tree: the files belong at the bottom level,
  // where they never cost a rewrite.
  EXPECT_EQ(0, FilesAtLevel(db.get(), 0));
  EXPECT_GE(FilesAtLevel(db.get(), 6), 1);

  std::string value;
  for (int i = 0; i < n; i++) {
    ASSERT_TRUE(db->Get(ReadOptions(), Key(i), &value).ok()) << Key(i);
    EXPECT_EQ("v" + std::to_string(i), value);
  }

  EXPECT_EQ(st.files, stats_.Get(kIngestFiles));
  EXPECT_EQ(st.keys, stats_.Get(kIngestKeys));
  EXPECT_EQ(st.bytes, stats_.Get(kIngestBytes));

  // The splice is a synced MANIFEST commit: a plain reopen (no WAL replay
  // involved — ingest bypasses the log) must see everything.
  db.reset();
  db.reset(OpenDB("/ingest_bottom"));
  for (int i = 0; i < n; i++) {
    ASSERT_TRUE(db->Get(ReadOptions(), Key(i), &value).ok()) << Key(i);
    EXPECT_EQ("v" + std::to_string(i), value);
  }
}

TEST_F(IngestDBTest, RejectsUnsortedAndDuplicateKeys) {
  std::unique_ptr<DBImpl> db(OpenDB("/ingest_unsorted"));
  std::vector<std::pair<std::string, std::string>> bad = {
      {"b", "1"}, {"a", "2"}};
  size_t pos;
  Status s = db->IngestExternalFiles(FeedFrom(&bad, &pos), nullptr);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();

  std::vector<std::pair<std::string, std::string>> dup = {
      {"a", "1"}, {"a", "2"}};
  s = db->IngestExternalFiles(FeedFrom(&dup, &pos), nullptr);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();

  // A rejected ingest must leave the DB fully writable and empty.
  ASSERT_TRUE(db->Put(WriteOptions(), "x", "y").ok());
  std::string value;
  EXPECT_TRUE(db->Get(ReadOptions(), "a", &value).IsNotFound());
}

TEST_F(IngestDBTest, FreshSequencesBeatExistingVersions) {
  std::unique_ptr<DBImpl> db(OpenDB("/ingest_overlap"));
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), "old").ok());
  }
  std::vector<std::pair<std::string, std::string>> kv;
  for (int i = 50; i < 150; i++) kv.emplace_back(Key(i), "new");
  size_t pos;
  ASSERT_TRUE(db->IngestExternalFiles(FeedFrom(&kv, &pos), nullptr).ok());

  std::string value;
  for (int i = 0; i < 150; i++) {
    ASSERT_TRUE(db->Get(ReadOptions(), Key(i), &value).ok()) << Key(i);
    EXPECT_EQ(i < 50 ? "old" : "new", value) << Key(i);
  }

  // And a later memtable write is newer still.
  ASSERT_TRUE(db->Put(WriteOptions(), Key(60), "newest").ok());
  ASSERT_TRUE(db->Get(ReadOptions(), Key(60), &value).ok());
  EXPECT_EQ("newest", value);
}

TEST_F(IngestDBTest, ParallelBuildMatchesSerialBuild) {
  // Chunks of a strictly-increasing feed are independent until the splice,
  // so the wave-parallel table builds must produce the same store as a
  // strictly serial ingest: same file count, same key->value map, same
  // sequence window.
  const int n = 4000;
  std::vector<std::pair<std::string, std::string>> kv;
  for (int i = 0; i < n; i++) {
    kv.emplace_back(Key(i), "v" + std::to_string(i) + std::string(40, 'p'));
  }

  IngestStats st[2];
  std::unique_ptr<DBImpl> dbs[2];
  for (int which = 0; which < 2; which++) {
    Options options = MakeOptions();
    options.ingest_parallelism = which == 0 ? 1 : 8;
    DBImpl* raw = nullptr;
    ASSERT_TRUE(DBImpl::Open(options,
                             which == 0 ? "/ingest_serial" : "/ingest_wave",
                             &raw)
                    .ok());
    dbs[which].reset(raw);
    size_t pos;
    ASSERT_TRUE(
        dbs[which]->IngestExternalFiles(FeedFrom(&kv, &pos), &st[which]).ok());
    ASSERT_GE(st[which].files, 4u) << "need a multi-wave ingest to test";
  }

  EXPECT_EQ(st[0].files, st[1].files);
  EXPECT_EQ(st[0].keys, st[1].keys);
  EXPECT_EQ(st[0].bytes, st[1].bytes);
  EXPECT_EQ(st[0].last_seq - st[0].first_seq, st[1].last_seq - st[1].first_seq);
  for (int level = 0; level < 7; level++) {
    EXPECT_EQ(FilesAtLevel(dbs[0].get(), level),
              FilesAtLevel(dbs[1].get(), level))
        << "level " << level;
  }
  std::string serial_value, wave_value;
  for (int i = 0; i < n; i++) {
    ASSERT_TRUE(dbs[0]->Get(ReadOptions(), Key(i), &serial_value).ok());
    ASSERT_TRUE(dbs[1]->Get(ReadOptions(), Key(i), &wave_value).ok());
    EXPECT_EQ(serial_value, wave_value) << Key(i);
  }
}

TEST_F(IngestDBTest, EmptyFeedIsANoop) {
  std::unique_ptr<DBImpl> db(OpenDB("/ingest_empty"));
  std::vector<std::pair<std::string, std::string>> kv;
  size_t pos;
  IngestStats st;
  ASSERT_TRUE(db->IngestExternalFiles(FeedFrom(&kv, &pos), &st).ok());
  EXPECT_EQ(0u, st.files);
  EXPECT_EQ(0u, st.keys);
  EXPECT_EQ(0u, stats_.Get(kIngestFiles));
}

// ---------------------------------------------------------------------------
// 2. Pipelined flush
// ---------------------------------------------------------------------------

TEST_F(IngestDBTest, PipelinedFlushDrainsMultiWriterLoad) {
  // One background lane, parked behind a gate until the writers have
  // queued memtables: on a loaded host the flush can otherwise keep pace
  // with the writers, and whether the queue ever deepens is left to luck.
  DedicatedSchedulerEnv lane(env_.get(), 1);
  Options options = MakeOptions();
  options.env = &lane;
  options.write_buffer_size = 16 << 10;
  options.background_compaction = true;
  options.max_immutable_memtables = 4;
  DBImpl* raw = nullptr;
  ASSERT_TRUE(DBImpl::Open(options, "/pipelined", &raw).ok());
  std::unique_ptr<DBImpl> db(raw);
  std::promise<void> gate;
  std::shared_future<void> gate_open = gate.get_future().share();
  lane.Schedule(
      [](void* arg) { static_cast<std::shared_future<void>*>(arg)->wait(); },
      &gate_open);

  const int kThreads = 4, kPerThread = 400;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t]() {
      std::string pad(120, 'p');
      for (int i = 0; i < kPerThread; i++) {
        const std::string key =
            "w" + std::to_string(t) + "-" + std::to_string(i);
        if (!db->Put(WriteOptions(), key, pad).ok()) failures++;
      }
    });
  }
  for (int waited_ms = 0;
       stats_.GetHistogram(kHistFlushQueueDepth).Max() <= 1.0 &&
       waited_ms < 10000;
       waited_ms++) {
    env_->SleepForMicroseconds(1000);
  }
  gate.set_value();
  for (auto& t : threads) t.join();
  ASSERT_EQ(0, failures.load());
  ASSERT_TRUE(db->WaitForBackgroundWork().ok());

  std::string value;
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < kPerThread; i++) {
      const std::string key = "w" + std::to_string(t) + "-" + std::to_string(i);
      ASSERT_TRUE(db->Get(ReadOptions(), key, &value).ok()) << key;
    }
  }

  // The workload (4 writers, 16KB buffers) must actually have pipelined:
  // at least one rotation happened while an earlier flush was still
  // pending, i.e. the queue got deeper than the classic single slot.
  Histogram depth = stats_.GetHistogram(kHistFlushQueueDepth);
  ASSERT_GT(depth.Count(), 0u);
  EXPECT_GT(depth.Max(), 1.0);
}

TEST_F(IngestDBTest, PipelinedFlushRecoversAllWals) {
  // Several immutable memtables in flight means several live WALs; closing
  // the DB mid-queue and reopening must replay every unflushed one (the
  // MANIFEST's log number may only advance past a WAL once its memtable
  // flushed).
  Options options = MakeOptions();
  options.write_buffer_size = 8 << 10;
  options.background_compaction = true;
  options.max_immutable_memtables = 6;
  DBImpl* raw = nullptr;
  ASSERT_TRUE(DBImpl::Open(options, "/pipelined_reopen", &raw).ok());
  std::unique_ptr<DBImpl> db(raw);

  std::string pad(200, 'q');
  for (int i = 0; i < 600; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), pad + std::to_string(i)).ok());
  }
  // Close WITHOUT waiting for background work: queued memtables die with
  // the process and only their WALs survive.
  db.reset();

  ASSERT_TRUE(DBImpl::Open(options, "/pipelined_reopen", &raw).ok());
  db.reset(raw);
  std::string value;
  for (int i = 0; i < 600; i++) {
    ASSERT_TRUE(db->Get(ReadOptions(), Key(i), &value).ok()) << Key(i);
    EXPECT_EQ(pad + std::to_string(i), value);
  }
}

// ---------------------------------------------------------------------------
// 3. SecondaryDB::IngestWithIndexes
// ---------------------------------------------------------------------------

std::vector<std::pair<std::string, std::string>> MakeDocs(int n,
                                                          int first = 0) {
  std::vector<std::pair<std::string, std::string>> kv;
  for (int i = first; i < first + n; i++) {
    kv.emplace_back(Key(i), UserDoc("u" + std::to_string(i % 7), 5000 + i,
                                    /*pad=*/64));
  }
  return kv;
}

SecondaryDBOptions MakeSecondaryOptions(Env* env, IndexType type) {
  SecondaryDBOptions options;
  options.base.env = env;
  options.base.write_buffer_size = 64 << 10;
  options.base.max_file_size = 32 << 10;
  options.index_type = type;
  options.indexed_attributes = {"UserID"};
  return options;
}

void ExpectSameResults(SecondaryDB* a, SecondaryDB* b,
                       const std::string& trace) {
  std::vector<QueryResult> ra, rb;
  for (int u = 0; u < 7; u++) {
    const std::string user = "u" + std::to_string(u);
    for (size_t k : {size_t(0), size_t(3)}) {
      ASSERT_TRUE(a->Lookup("UserID", user, k, &ra).ok()) << trace;
      ASSERT_TRUE(b->Lookup("UserID", user, k, &rb).ok()) << trace;
      ASSERT_EQ(ra.size(), rb.size()) << trace << " user=" << user;
      for (size_t i = 0; i < ra.size(); i++) {
        EXPECT_EQ(ra[i].primary_key, rb[i].primary_key) << trace;
        EXPECT_EQ(ra[i].seq, rb[i].seq) << trace;
        EXPECT_EQ(ra[i].value, rb[i].value) << trace;
      }
    }
  }
  for (size_t k : {size_t(0), size_t(5)}) {
    ASSERT_TRUE(a->RangeLookup("UserID", "u0", "u6", k, &ra).ok()) << trace;
    ASSERT_TRUE(b->RangeLookup("UserID", "u0", "u6", k, &rb).ok()) << trace;
    ASSERT_EQ(ra.size(), rb.size()) << trace;
    for (size_t i = 0; i < ra.size(); i++) {
      EXPECT_EQ(ra[i].primary_key, rb[i].primary_key) << trace;
      EXPECT_EQ(ra[i].seq, rb[i].seq) << trace;
      EXPECT_EQ(ra[i].value, rb[i].value) << trace;
    }
  }
}

class IngestVariantsTest : public testing::TestWithParam<IndexType> {};

TEST_P(IngestVariantsTest, MatchesThePutPathExactly) {
  const IndexType type = GetParam();
  std::unique_ptr<Env> env(NewMemEnv());
  const auto docs = MakeDocs(400);

  std::unique_ptr<SecondaryDB> put_db, ingest_db;
  ASSERT_TRUE(SecondaryDB::Open(MakeSecondaryOptions(env.get(), type),
                                "/put_twin", &put_db)
                  .ok());
  for (const auto& [key, doc] : docs) {
    ASSERT_TRUE(put_db->Put(key, doc).ok());
  }

  ASSERT_TRUE(SecondaryDB::Open(MakeSecondaryOptions(env.get(), type),
                                "/ingest_twin", &ingest_db)
                  .ok());
  size_t pos;
  IngestStats st;
  ASSERT_TRUE(ingest_db->IngestWithIndexes(FeedFrom(&docs, &pos), &st).ok());
  EXPECT_EQ(docs.size(), st.keys);
  EXPECT_GE(st.files, 1u);

  // Both stores started empty, so the sequence windows coincide and every
  // query answer — keys, sequence numbers, values — must be identical.
  ExpectSameResults(put_db.get(), ingest_db.get(),
                    std::string("fresh/") + IndexTypeName(type));
  ASSERT_TRUE(ingest_db->VerifyIndexConsistency().ok());
}

TEST_P(IngestVariantsTest, BackfillIntoNonEmptyStore) {
  const IndexType type = GetParam();
  std::unique_ptr<Env> env(NewMemEnv());
  const auto first = MakeDocs(120);
  const auto second = MakeDocs(200, /*first=*/200);

  std::unique_ptr<SecondaryDB> put_db, ingest_db;
  ASSERT_TRUE(SecondaryDB::Open(MakeSecondaryOptions(env.get(), type),
                                "/backfill_twin", &put_db)
                  .ok());
  ASSERT_TRUE(SecondaryDB::Open(MakeSecondaryOptions(env.get(), type),
                                "/backfill", &ingest_db)
                  .ok());
  for (const auto& [key, doc] : first) {
    ASSERT_TRUE(put_db->Put(key, doc).ok());
    ASSERT_TRUE(ingest_db->Put(key, doc).ok());
  }
  for (const auto& [key, doc] : second) {
    ASSERT_TRUE(put_db->Put(key, doc).ok());
  }
  size_t pos;
  ASSERT_TRUE(
      ingest_db->IngestWithIndexes(FeedFrom(&second, &pos), nullptr).ok());

  // The non-empty-index fallbacks (Lazy/Eager replay, Composite splice)
  // must still agree with the pure-Put twin answer for answer.
  ExpectSameResults(put_db.get(), ingest_db.get(),
                    std::string("backfill/") + IndexTypeName(type));
  ASSERT_TRUE(ingest_db->VerifyIndexConsistency().ok());
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, IngestVariantsTest,
    testing::Values(IndexType::kNoIndex, IndexType::kEmbedded,
                    IndexType::kLazy, IndexType::kEager,
                    IndexType::kComposite),
    [](const testing::TestParamInfo<IndexType>& info) {
      return IndexTypeName(info.param);
    });

// Regression for Lazy's non-empty BulkLoad: the ingested fragment is the
// MERGE of the new batch with every existing fragment of the attribute and
// is forced to level 0. Natural ingest placement would sink the merged
// fragment below the fragments it absorbed, and the level-by-level scan's
// early stop would then answer top-k queries from stale shadowed entries.
// Deletion markers must also survive the merge — they still shadow
// occurrences in fragments the walk hasn't reached.
TEST(LazyIngestMergeTest, BulkLoadMergesExistingFragmentsAndKeepsMarkers) {
  std::unique_ptr<Env> env(NewMemEnv());
  std::unique_ptr<SecondaryDB> put_db, ingest_db;
  ASSERT_TRUE(SecondaryDB::Open(
                  MakeSecondaryOptions(env.get(), IndexType::kLazy),
                  "/merge_twin", &put_db)
                  .ok());
  ASSERT_TRUE(SecondaryDB::Open(
                  MakeSecondaryOptions(env.get(), IndexType::kLazy),
                  "/merge", &ingest_db)
                  .ok());

  // Seed overlapping posting lists, with deletes so the index carries
  // deletion markers, then compact so the fragments live in SSTable levels
  // (the merge has to read them back, not just splice next to them).
  const auto first = MakeDocs(80);
  for (const auto& [key, doc] : first) {
    ASSERT_TRUE(put_db->Put(key, doc).ok());
    ASSERT_TRUE(ingest_db->Put(key, doc).ok());
  }
  for (int i = 3; i < 80; i += 16) {
    ASSERT_TRUE(put_db->Delete(Key(i)).ok());
    ASSERT_TRUE(ingest_db->Delete(Key(i)).ok());
  }
  ASSERT_TRUE(ingest_db->CompactAll().ok());

  // Backfill a second batch over the SAME users, so every touched posting
  // list must merge with the compacted fragments.
  const auto second = MakeDocs(60, /*first=*/200);
  for (const auto& [key, doc] : second) {
    ASSERT_TRUE(put_db->Put(key, doc).ok());
  }
  size_t pos;
  ASSERT_TRUE(
      ingest_db->IngestWithIndexes(FeedFrom(&second, &pos), nullptr).ok());

  // Small k engages the early-stop scan; k=0 checks the full lists. Both
  // run inside ExpectSameResults against the pure-Put twin.
  ExpectSameResults(put_db.get(), ingest_db.get(), "lazy-merge");

  // Deleted keys must stay shadowed after the merge rebuilt the fragment.
  std::vector<QueryResult> results;
  for (int u = 0; u < 7; u++) {
    ASSERT_TRUE(ingest_db->Lookup("UserID", "u" + std::to_string(u), 0,
                                  &results)
                    .ok());
    for (const QueryResult& r : results) {
      for (int i = 3; i < 80; i += 16) {
        EXPECT_NE(r.primary_key, Key(i)) << "deleted key resurfaced";
      }
    }
  }
  ASSERT_TRUE(ingest_db->VerifyIndexConsistency().ok());
}

// ---------------------------------------------------------------------------
// 4. Crash and repair
// ---------------------------------------------------------------------------

class IngestCrashTest : public testing::TestWithParam<IndexType> {};

TEST_P(IngestCrashTest, MultiImmCrashCycles) {
  const IndexType type = GetParam();
  // Several small immutable memtables in flight at the crash: background
  // flushing with a deep queue and a write buffer far below the workload
  // volume. Each queued memtable has its own WAL; recovery must replay
  // every unflushed one.
  crash::OptionsTweak tweak = [](SecondaryDBOptions* options) {
    options->base.write_buffer_size = 16 << 10;
    options->base.background_compaction = true;
    options->base.max_immutable_memtables = 4;
  };
  std::vector<Op> ops;
  uint64_t ts = 2000;
  for (int i = 0; i < 80; i++) {
    ops.push_back(PutOp(Key((i * 11) % 40), "u" + std::to_string(i % 5), ts++,
                        /*pad=*/600));
  }
  const uint64_t total = crash::CountEnvOps(type, ops, tweak);
  ASSERT_GT(total, 0u);
  // A handful of deterministic points spread across the run (the dense
  // sweep lives in crash_recovery_test; this matrix pins the pipelined
  // configuration).
  for (uint64_t at : {total / 5, total / 2, (total * 4) / 5, total + 50}) {
    crash::RunCrashCycle(type, ops, at,
                         FaultInjectionEnv::CrashMode::kDropUnsynced,
                         /*seed=*/123, "multi-imm crash_at=" +
                             std::to_string(at),
                         tweak);
  }
}

TEST_P(IngestCrashTest, IngestSurvivesCrashAfterReturn) {
  const IndexType type = GetParam();
  std::unique_ptr<Env> base(NewMemEnv());
  FaultInjectionEnv env(base.get());
  const auto docs = MakeDocs(150);
  {
    std::unique_ptr<SecondaryDB> db;
    ASSERT_TRUE(
        SecondaryDB::Open(MakeSecondaryOptions(&env, type), "/icrash", &db)
            .ok());
    size_t pos;
    ASSERT_TRUE(db->IngestWithIndexes(FeedFrom(&docs, &pos), nullptr).ok());
    // "Process exit" without further syncs.
  }
  ASSERT_TRUE(
      env.SimulateCrash(FaultInjectionEnv::CrashMode::kDropUnsynced).ok());

  // An acknowledged ingest is a synced MANIFEST commit on the PRIMARY
  // table, so every record must survive the crash. Index tables are derived
  // data with no such contract (their own ingests sync too, but index WAL
  // paths may not be); rebuild them and verify queryability.
  std::unique_ptr<SecondaryDB> db;
  ASSERT_TRUE(
      SecondaryDB::Open(MakeSecondaryOptions(&env, type), "/icrash", &db)
          .ok());
  std::string value;
  for (const auto& [key, doc] : docs) {
    ASSERT_TRUE(db->Get(key, &value).ok()) << key;
    EXPECT_EQ(doc, value);
  }
  ASSERT_TRUE(db->RebuildIndex().ok());
  ASSERT_TRUE(db->VerifyIndexConsistency().ok());
  std::vector<QueryResult> results;
  ASSERT_TRUE(db->Lookup("UserID", "u3", 0, &results).ok());
  EXPECT_FALSE(results.empty());
}

TEST_P(IngestCrashTest, IngestInterruptedIsAtomic) {
  const IndexType type = GetParam();
  const auto docs = MakeDocs(200);
  // Sweep fault points through the ingest's own I/O: whatever the point,
  // after the crash the primary holds either ALL the records or NONE —
  // never a partial splice.
  for (uint64_t fail_at : {2u, 8u, 20u, 60u}) {
    std::unique_ptr<Env> base(NewMemEnv());
    FaultInjectionEnv env(base.get());
    bool acked = false;
    {
      std::unique_ptr<SecondaryDB> db;
      ASSERT_TRUE(SecondaryDB::Open(MakeSecondaryOptions(&env, type),
                                    "/iatomic", &db)
                      .ok());
      env.ResetOpCount();
      env.FailAfter(fail_at, FaultInjectionEnv::kOpAllWrites);
      size_t pos;
      Status s = db->IngestWithIndexes(FeedFrom(&docs, &pos), nullptr);
      acked = s.ok();
    }
    ASSERT_TRUE(
        env.SimulateCrash(FaultInjectionEnv::CrashMode::kDropUnsynced).ok());
    env.ClearFaults();

    std::unique_ptr<SecondaryDB> db;
    ASSERT_TRUE(SecondaryDB::Open(MakeSecondaryOptions(&env, type),
                                  "/iatomic", &db)
                    .ok())
        << "fail_at=" << fail_at;
    size_t present = 0;
    std::string value;
    for (const auto& [key, doc] : docs) {
      if (db->Get(key, &value).ok()) present++;
    }
    if (acked) {
      EXPECT_EQ(docs.size(), present) << "fail_at=" << fail_at;
    } else {
      EXPECT_TRUE(present == 0 || present == docs.size())
          << "fail_at=" << fail_at << " present=" << present;
    }
  }
}

TEST_P(IngestCrashTest, IngestThenRepairRoundTrip) {
  const IndexType type = GetParam();
  std::unique_ptr<Env> env(NewMemEnv());
  SecondaryDBOptions options = MakeSecondaryOptions(env.get(), type);
  const auto docs = MakeDocs(150);
  {
    std::unique_ptr<SecondaryDB> db;
    ASSERT_TRUE(SecondaryDB::Open(options, "/irepair", &db).ok());
    size_t pos;
    ASSERT_TRUE(db->IngestWithIndexes(FeedFrom(&docs, &pos), nullptr).ok());
  }
  // RepairDB rebuilds the MANIFEST from a directory scan: ingested tables
  // must salvage exactly like flushed ones.
  ASSERT_TRUE(SecondaryDB::Repair(options, "/irepair").ok());
  std::unique_ptr<SecondaryDB> db;
  ASSERT_TRUE(SecondaryDB::Open(options, "/irepair", &db).ok());
  ASSERT_TRUE(db->RebuildIndex().ok());
  ASSERT_TRUE(db->VerifyIndexConsistency().ok());
  std::string value;
  for (const auto& [key, doc] : docs) {
    ASSERT_TRUE(db->Get(key, &value).ok()) << key;
    EXPECT_EQ(doc, value);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, IngestCrashTest,
    testing::Values(IndexType::kNoIndex, IndexType::kEmbedded,
                    IndexType::kLazy, IndexType::kEager,
                    IndexType::kComposite),
    [](const testing::TestParamInfo<IndexType>& info) {
      return IndexTypeName(info.param);
    });

}  // namespace
}  // namespace leveldbpp
