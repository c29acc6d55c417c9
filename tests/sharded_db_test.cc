// ShardedDB: cross-shard equivalence, reopen, crash recovery, and
// aggregated stats.
//
// The load-bearing property is the equivalence matrix: a ShardedDB at any
// shard count must return BYTE-IDENTICAL answers — same keys, same
// sequence numbers, same values, same order — as one unsharded SecondaryDB
// fed the same operation stream, for every index variant. Sharding is a
// serving-layer optimization; it must never be observable in results.

#include "serve/sharded_db.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "crash_harness.h"
#include "env/fault_injection_env.h"
#include "json/json.h"

namespace leveldbpp {
namespace {

std::vector<IndexType> AllTypes() {
  return {IndexType::kNoIndex, IndexType::kEmbedded, IndexType::kLazy,
          IndexType::kEager, IndexType::kComposite};
}

// Small buffers so the workload crosses flush boundaries on every shard
// count (at N=8 each shard sees ~1/8th of the data).
SecondaryDBOptions TestShardOptions(Env* env, IndexType type) {
  SecondaryDBOptions options;
  options.base.env = env;
  options.base.write_buffer_size = 16 << 10;
  options.base.max_file_size = 8 << 10;
  options.index_type = type;
  options.indexed_attributes = {"UserID"};
  return options;
}

// Deterministic mixed workload: overwrites (127 distinct keys under 400
// ops) and interleaved deletes, users recycled so LOOKUP hits multi-result
// posting lists with cross-shard recency interleaving.
std::vector<crash::Op> MakeWorkload(size_t n = 400) {
  std::vector<crash::Op> ops;
  for (size_t i = 0; i < n; i++) {
    const std::string key = "k" + std::to_string((i * 37) % 127);
    if (i % 11 == 7) {
      ops.push_back(crash::DeleteOp(key));
    } else {
      const std::string user = "user" + std::to_string(i % 13);
      ops.push_back(crash::PutOp(key, user, 1000 + i, /*pad=*/64));
    }
  }
  return ops;
}

void ApplySharded(ShardedDB* db, const std::vector<crash::Op>& ops) {
  for (const crash::Op& op : ops) {
    Status s = (op.kind == crash::Op::kPut) ? db->Put(op.key, op.doc)
                                            : db->Delete(op.key);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
}

void ApplyUnsharded(SecondaryDB* db, const std::vector<crash::Op>& ops) {
  for (const crash::Op& op : ops) {
    Status s = (op.kind == crash::Op::kPut) ? db->Put(op.key, op.doc)
                                            : db->Delete(op.key);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
}

void ExpectSameResults(const std::vector<QueryResult>& want,
                       const std::vector<QueryResult>& got,
                       const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); i++) {
    EXPECT_EQ(want[i].primary_key, got[i].primary_key)
        << what << " [" << i << "]";
    EXPECT_EQ(want[i].seq, got[i].seq) << what << " [" << i << "]";
    EXPECT_EQ(want[i].value, got[i].value) << what << " [" << i << "]";
  }
}

/// Every query both stores can answer, compared byte-for-byte.
void CompareStores(SecondaryDB* reference, ShardedDB* sharded,
                   const std::string& trace) {
  SCOPED_TRACE(trace);
  std::vector<QueryResult> want, got;
  for (int u = 0; u < 13; u++) {
    const std::string user = "user" + std::to_string(u);
    for (size_t k : {size_t{0}, size_t{3}}) {
      ASSERT_TRUE(reference->Lookup("UserID", user, k, &want).ok());
      ASSERT_TRUE(sharded->Lookup("UserID", user, k, &got).ok());
      ExpectSameResults(want, got,
                        "Lookup(" + user + ", k=" + std::to_string(k) + ")");
    }
  }
  for (size_t k : {size_t{0}, size_t{5}}) {
    ASSERT_TRUE(
        reference->RangeLookup("UserID", "user0", "user9", k, &want).ok());
    ASSERT_TRUE(sharded->RangeLookup("UserID", "user0", "user9", k, &got).ok());
    ExpectSameResults(want, got, "RangeLookup(k=" + std::to_string(k) + ")");
  }
  for (int i = 0; i < 127; i++) {
    const std::string key = "k" + std::to_string(i);
    std::string want_value, got_value;
    Status ws = reference->Get(key, &want_value);
    Status gs = sharded->Get(key, &got_value);
    ASSERT_EQ(ws.ok(), gs.ok()) << "Get(" << key << ")";
    ASSERT_EQ(ws.IsNotFound(), gs.IsNotFound()) << "Get(" << key << ")";
    if (ws.ok()) {
      EXPECT_EQ(want_value, got_value) << "Get(" << key << ")";
    }
  }
}

TEST(ShardedDBTest, EquivalenceMatrix) {
  const std::vector<crash::Op> ops = MakeWorkload();
  for (IndexType type : AllTypes()) {
    // One unsharded reference store per variant.
    std::unique_ptr<Env> ref_env(NewMemEnv());
    std::unique_ptr<SecondaryDB> reference;
    ASSERT_TRUE(SecondaryDB::Open(TestShardOptions(ref_env.get(), type),
                                  "/ref", &reference)
                    .ok());
    ApplyUnsharded(reference.get(), ops);

    for (int shards : {1, 2, 4, 8}) {
      const std::string trace = std::string(IndexTypeName(type)) + " N=" +
                                std::to_string(shards);
      std::unique_ptr<Env> env(NewMemEnv());
      ShardedDBOptions options;
      options.shard = TestShardOptions(env.get(), type);
      options.num_shards = shards;
      std::unique_ptr<ShardedDB> sharded;
      ASSERT_TRUE(ShardedDB::Open(options, "/sharded", &sharded).ok())
          << trace;
      ApplySharded(sharded.get(), ops);

      CompareStores(reference.get(), sharded.get(), trace);

      // And again after full compaction on both sides: results must not
      // depend on LSM shape either.
      ASSERT_TRUE(sharded->CompactAll().ok()) << trace;
      CompareStores(reference.get(), sharded.get(), trace + " compacted");
    }
    ASSERT_TRUE(reference->CompactAll().ok());
  }
}

// The served configuration: each shard validates candidates in parallel
// (read_parallelism > 1, batched through MultiGet) inside the parallel shard
// fan-out. The answers must still match one sequential unsharded store.
TEST(ShardedDBTest, ParallelReadsMatchUnsharded) {
  const std::vector<crash::Op> ops = MakeWorkload();
  for (IndexType type :
       {IndexType::kLazy, IndexType::kEager, IndexType::kComposite}) {
    std::unique_ptr<Env> ref_env(NewMemEnv());
    std::unique_ptr<SecondaryDB> reference;
    ASSERT_TRUE(SecondaryDB::Open(TestShardOptions(ref_env.get(), type),
                                  "/ref", &reference)
                    .ok());
    ApplyUnsharded(reference.get(), ops);

    const std::string trace =
        std::string(IndexTypeName(type)) + " N=2 read_parallelism=2";
    std::unique_ptr<Env> env(NewMemEnv());
    ShardedDBOptions options;
    options.shard = TestShardOptions(env.get(), type);
    options.shard.base.read_parallelism = 2;
    options.num_shards = 2;
    std::unique_ptr<ShardedDB> sharded;
    ASSERT_TRUE(ShardedDB::Open(options, "/sharded", &sharded).ok()) << trace;
    ApplySharded(sharded.get(), ops);
    CompareStores(reference.get(), sharded.get(), trace);
    ASSERT_TRUE(sharded->CompactAll().ok()) << trace;
    CompareStores(reference.get(), sharded.get(), trace + " compacted");
  }
}

// Like crash::PutOp but with incompressible padding: SimpleLZ squashes a
// constant-character pad to a few bytes, so docs padded with 'p' runs never
// grow the on-disk levels past max_bytes_for_level_base no matter how many
// are written.
crash::Op NoisyPutOp(std::string key, std::string user, uint64_t ts,
                     size_t pad) {
  std::string noise(pad, ' ');
  uint64_t x = ts * 6364136223846793005ull + 1442695040888963407ull;
  for (size_t i = 0; i < pad; i++) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    noise[i] = static_cast<char>('A' + ((x >> 33) % 26));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%012llu",
                static_cast<unsigned long long>(ts));
  std::string doc = "{\"CreationTime\":\"" + std::string(buf) +
                    "\",\"Pad\":\"" + noise + "\",\"UserID\":\"" + user +
                    "\"}";
  return crash::Op{crash::Op::kPut, std::move(key), std::move(doc),
                   std::move(user)};
}

// Number of non-empty levels below L0 in `db`'s primary table.
int PopulatedLevelsBelowL0(SecondaryDB* db) {
  int populated = 0;
  for (int level = 1;; level++) {
    std::string files;
    if (!db->primary()->GetProperty(
            "leveldbpp.num-files-at-level" + std::to_string(level), &files)) {
      return populated;
    }
    if (files != "0") populated++;
  }
}

// Every shard's RANGELOOKUP over a multi-level tree drives the merged
// iterator stack (Eager and Composite resolve ranges through the index
// table's merged iterator), and the answers must be byte-identical to an
// unsharded store. Docs are padded and the level budget shrunk so each
// shard's primary cascades into >= 2 levels below L0.
TEST(ShardedDBTest, MultiLevelRangeLookupMatchesUnsharded) {
  std::vector<crash::Op> ops;
  for (size_t i = 0; i < 1500; i++) {
    const std::string key = "k" + std::to_string((i * 37) % 127);
    if (i % 11 == 7) {
      ops.push_back(crash::DeleteOp(key));
    } else {
      ops.push_back(NoisyPutOp(key, "user" + std::to_string(i % 13),
                               1000 + i, /*pad=*/2000));
    }
  }

  for (IndexType type : {IndexType::kEager, IndexType::kComposite}) {
    // Reference: unsharded, with the default L1 budget.
    std::unique_ptr<Env> ref_env(NewMemEnv());
    std::unique_ptr<SecondaryDB> reference;
    ASSERT_TRUE(SecondaryDB::Open(TestShardOptions(ref_env.get(), type),
                                  "/ref", &reference)
                    .ok());
    ApplyUnsharded(reference.get(), ops);

    for (int shards : {1, 4}) {
      const std::string trace = std::string(IndexTypeName(type)) +
                                " multi-level N=" + std::to_string(shards);
      std::unique_ptr<Env> env(NewMemEnv());
      ShardedDBOptions options;
      options.shard = TestShardOptions(env.get(), type);
      // write_buffer_size/max_file_size sanitize to their 64K/16K floors;
      // 24K lets L1 retain a file at quiescence (16K file ~ score 0.67)
      // while the ~65K live set per shard overflows into L2.
      options.shard.base.max_bytes_for_level_base = 24 << 10;
      options.num_shards = shards;
      std::unique_ptr<ShardedDB> sharded;
      ASSERT_TRUE(ShardedDB::Open(options, "/sharded", &sharded).ok())
          << trace;
      ApplySharded(sharded.get(), ops);

      for (int i = 0; i < sharded->num_shards(); i++) {
        EXPECT_GE(PopulatedLevelsBelowL0(sharded->shard(i)), 2)
            << trace << " shard " << i;
      }
      CompareStores(reference.get(), sharded.get(), trace);

      // Results must not depend on LSM shape.
      ASSERT_TRUE(sharded->CompactAll().ok()) << trace;
      CompareStores(reference.get(), sharded.get(), trace + " compacted");
    }
  }
}

TEST(ShardedDBTest, ReopenKeepsSequencesGloballyComparable) {
  const std::vector<crash::Op> ops = MakeWorkload();
  const auto half = ops.begin() + ops.size() / 2;

  std::unique_ptr<Env> ref_env(NewMemEnv());
  std::unique_ptr<SecondaryDB> reference;
  ASSERT_TRUE(
      SecondaryDB::Open(TestShardOptions(ref_env.get(), IndexType::kComposite),
                        "/ref", &reference)
          .ok());
  ApplyUnsharded(reference.get(), {ops.begin(), ops.end()});

  std::unique_ptr<Env> env(NewMemEnv());
  ShardedDBOptions options;
  options.shard = TestShardOptions(env.get(), IndexType::kComposite);
  options.num_shards = 2;
  std::unique_ptr<ShardedDB> sharded;
  ASSERT_TRUE(ShardedDB::Open(options, "/sharded", &sharded).ok());
  ApplySharded(sharded.get(), {ops.begin(), half});

  // Close and reopen mid-stream: recovery must CAS-max the shared counter
  // back above every shard's recovered LastSequence, or the second half's
  // sequence numbers would collide / diverge from the reference.
  sharded.reset();
  ASSERT_TRUE(ShardedDB::Open(options, "/sharded", &sharded).ok());
  ApplySharded(sharded.get(), {half, ops.end()});

  CompareStores(reference.get(), sharded.get(), "reopened at half");
}

TEST(ShardedDBTest, ShardCountMismatchIsRejected) {
  std::unique_ptr<Env> env(NewMemEnv());
  ShardedDBOptions options;
  options.shard = TestShardOptions(env.get(), IndexType::kEmbedded);
  options.num_shards = 2;
  std::unique_ptr<ShardedDB> db;
  ASSERT_TRUE(ShardedDB::Open(options, "/s", &db).ok());
  ASSERT_TRUE(db->Put("k", "{\"UserID\":\"u\"}").ok());
  db.reset();

  options.num_shards = 4;
  Status s = ShardedDB::Open(options, "/s", &db);
  ASSERT_TRUE(s.IsInvalidArgument()) << s.ToString();

  options.num_shards = 2;
  ASSERT_TRUE(ShardedDB::Open(options, "/s", &db).ok());
  std::string value;
  ASSERT_TRUE(db->Get("k", &value).ok());
}

TEST(ShardedDBTest, ManagedFieldsAreRejected) {
  std::unique_ptr<Env> env(NewMemEnv());
  ShardedDBOptions options;
  options.shard = TestShardOptions(env.get(), IndexType::kEmbedded);

  Statistics stats;
  options.shard.base.statistics = &stats;
  std::unique_ptr<ShardedDB> db;
  ASSERT_TRUE(ShardedDB::Open(options, "/s", &db).IsInvalidArgument());
  options.shard.base.statistics = nullptr;

  std::atomic<uint64_t> seq{0};
  options.shard.base.shared_sequence = &seq;
  ASSERT_TRUE(ShardedDB::Open(options, "/s", &db).IsInvalidArgument());
  options.shard.base.shared_sequence = nullptr;

  options.num_shards = 0;
  ASSERT_TRUE(ShardedDB::Open(options, "/s", &db).IsInvalidArgument());
}

TEST(ShardedDBTest, StatsJsonAggregatesPerShard) {
  std::unique_ptr<Env> env(NewMemEnv());
  ShardedDBOptions options;
  options.shard = TestShardOptions(env.get(), IndexType::kLazy);
  options.num_shards = 3;
  std::unique_ptr<ShardedDB> db;
  ASSERT_TRUE(ShardedDB::Open(options, "/s", &db).ok());

  // Route every write to ONE shard so per-shard attribution is observable.
  const int target = db->ShardFor("pinned");
  int written = 0;
  for (int i = 0; i < 500 && written < 40; i++) {
    const std::string key = "p" + std::to_string(i);
    if (db->ShardFor(key) != target) continue;
    ASSERT_TRUE(db->Put(key, crash::UserDoc("u1", 2000 + i, 64)).ok());
    written++;
  }
  ASSERT_GT(written, 0);
  std::vector<QueryResult> results;
  ASSERT_TRUE(db->Lookup("UserID", "u1", 0, &results).ok());
  ASSERT_EQ(static_cast<size_t>(written), results.size());

  std::string prop;
  ASSERT_TRUE(db->GetProperty("leveldbpp.stats.json", &prop));
  json::Value root;
  ASSERT_TRUE(json::Parse(Slice(prop), &root)) << prop;
  ASSERT_EQ(3, root["num_shards"].as_int());
  const json::Array& shards = root["shards"].as_array();
  ASSERT_EQ(3u, shards.size());

  // WAL bytes land only on the shard the writes routed to.
  for (int i = 0; i < 3; i++) {
    const int64_t wal =
        shards[i]["tickers"]["wal.bytes.written"].as_int();
    if (i == target) {
      EXPECT_GT(wal, 0) << "shard " << i;
    } else {
      EXPECT_EQ(0, wal) << "shard " << i;
    }
  }

  // The serving layer's own counters fold into the aggregate.
  const json::Value& agg = root["aggregate"]["tickers"];
  EXPECT_EQ(written, agg["shard.writes.routed"].as_int());
  EXPECT_EQ(1, agg["shard.lookup.fanouts"].as_int());
  EXPECT_EQ(static_cast<int64_t>(db->TotalTicker(kWalBytesWritten)),
            agg["wal.bytes.written"].as_int());

  // Merge/fan-out tickers live on statistics() too.
  EXPECT_EQ(static_cast<uint64_t>(written),
            db->statistics()->Get(kShardWritesRouted));
}

TEST(ShardedDBTest, CrashAndReopenRecoversAcknowledgedOps) {
  // Sharded spin on the crash harness: base.sync_writes ShardedDB on a
  // FaultInjectionEnv, crash at a sweep of syscall counts, reopen, and
  // check every ACKNOWLEDGED op is visible (the one in-flight op may land
  // either way) and LOOKUP agrees with the recovered primary state.
  const std::vector<crash::Op> ops = MakeWorkload(120);
  for (uint64_t crash_at : {5, 23, 61, 140, 300}) {
    SCOPED_TRACE("crash_at=" + std::to_string(crash_at));
    std::unique_ptr<Env> base(NewMemEnv());
    FaultInjectionEnv env(base.get(), /*seed=*/1234 + crash_at);
    ShardedDBOptions options;
    options.shard = crash::MakeCrashOptions(&env, IndexType::kComposite);
    options.num_shards = 3;

    crash::Model model;
    const crash::Op* in_flight = nullptr;
    {
      std::unique_ptr<ShardedDB> db;
      ASSERT_TRUE(ShardedDB::Open(options, "/crash", &db).ok());
      env.ResetOpCount();
      env.FailAfter(crash_at, FaultInjectionEnv::kOpAllWrites);
      size_t acked = 0;
      bool hit_error = false;
      for (const crash::Op& op : ops) {
        Status s = (op.kind == crash::Op::kPut) ? db->Put(op.key, op.doc)
                                                : db->Delete(op.key);
        if (!s.ok()) {
          hit_error = true;
          break;
        }
        if (op.kind == crash::Op::kPut) {
          model[op.key] = op.doc;
        } else {
          model.erase(op.key);
        }
        acked++;
      }
      if (hit_error) in_flight = &ops[acked];
    }
    ASSERT_TRUE(env.SimulateCrash(FaultInjectionEnv::CrashMode::kDropUnsynced)
                    .ok());
    env.ClearFaults();

    std::unique_ptr<ShardedDB> db;
    ASSERT_TRUE(ShardedDB::Open(options, "/crash", &db).ok())
        << "reopen after crash failed";

    // 1. Every key: model state, except the in-flight op's two-valued key.
    std::set<std::string> keys;
    for (const crash::Op& op : ops) keys.insert(op.key);
    for (const std::string& key : keys) {
      std::string value;
      Status s = db->Get(key, &value);
      auto it = model.find(key);
      const bool matches_model = (it == model.end())
                                     ? s.IsNotFound()
                                     : (s.ok() && value == it->second);
      if (in_flight != nullptr && key == in_flight->key) {
        const bool matches_post = (in_flight->kind == crash::Op::kPut)
                                      ? (s.ok() && value == in_flight->doc)
                                      : s.IsNotFound();
        ASSERT_TRUE(matches_model || matches_post)
            << "in-flight key=" << key << " status=" << s.ToString();
      } else {
        ASSERT_TRUE(matches_model)
            << "key=" << key << " status=" << s.ToString();
      }
    }

    // 2. LOOKUP answers must be exactly the recovered primary's records:
    // for each user, the returned keys match the keys whose recovered doc
    // carries that user, values match Get, and order is newest-first.
    for (int u = 0; u < 13; u++) {
      const std::string user = "user" + std::to_string(u);
      std::set<std::string> expect_keys;
      for (const std::string& key : keys) {
        std::string value;
        if (db->Get(key, &value).ok() &&
            value.find("\"UserID\":\"" + user + "\"") != std::string::npos) {
          expect_keys.insert(key);
        }
      }
      std::vector<QueryResult> got;
      ASSERT_TRUE(db->Lookup("UserID", user, 0, &got).ok());
      std::set<std::string> got_keys;
      for (size_t i = 0; i < got.size(); i++) {
        got_keys.insert(got[i].primary_key);
        std::string value;
        ASSERT_TRUE(db->Get(got[i].primary_key, &value).ok());
        EXPECT_EQ(value, got[i].value);
        if (i > 0) {
          EXPECT_GT(got[i - 1].seq, got[i].seq) << "order";
        }
      }
      EXPECT_EQ(expect_keys, got_keys) << "user=" << user;
    }
  }
}

}  // namespace
}  // namespace leveldbpp
