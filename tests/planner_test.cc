// Differential coverage for the multi-attribute query engine (the planner
// label): LookupAnd must return BYTE-IDENTICAL results — same keys, same
// sequence numbers, same values, same order — no matter which physical plan
// executes them: forced intersect vs filter-fetch, either drive side,
// read_parallelism 0 vs 4, and sharded {1,4} vs unsharded. Every
// configuration is also checked against an in-memory brute-force
// reference, so the matrix can't agree on a mutually wrong answer.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/planner.h"
#include "core/secondary_db.h"
#include "crash_harness.h"
#include "env/env.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/sharded_db.h"
#include "serve/wire.h"
#include "util/random.h"

namespace leveldbpp {
namespace {

std::string CTime(uint64_t t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%012llu",
                static_cast<unsigned long long>(t));
  return std::string(buf);
}

std::string MakeDoc(const std::string& user, uint64_t ctime,
                    const std::string& body) {
  return "{\"Body\":\"" + body + "\",\"CreationTime\":\"" + CTime(ctime) +
         "\",\"UserID\":\"" + user + "\"}";
}

// Reference model: newest state per key plus a write counter mirroring the
// engine's recency order.
class Model {
 public:
  void Put(const std::string& key, const std::string& user, uint64_t ctime) {
    counter_++;
    records_[key] = {user, ctime, counter_};
  }

  void Delete(const std::string& key) {
    counter_++;
    records_.erase(key);
  }

  struct Rec {
    std::string user;
    uint64_t ctime;
    uint64_t written_at;
  };

  std::vector<std::string> LookupAnd(const std::string& user,
                                     const std::set<uint64_t>& ctimes,
                                     size_t k) const {
    std::vector<std::pair<uint64_t, std::string>> matches;
    for (const auto& [key, rec] : records_) {
      if (rec.user == user && ctimes.count(rec.ctime) != 0) {
        matches.emplace_back(rec.written_at, key);
      }
    }
    std::sort(matches.begin(), matches.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    if (k != 0 && matches.size() > k) matches.resize(k);
    std::vector<std::string> keys;
    for (auto& [seq, key] : matches) keys.push_back(std::move(key));
    return keys;
  }

 private:
  std::map<std::string, Rec> records_;
  uint64_t counter_ = 0;
};

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

struct PlanConfig {
  PlannerMode mode = PlannerMode::kAuto;
  PlannerDrive drive = PlannerDrive::kAuto;
  int read_parallelism = 0;
  const char* name = "auto";
};

class PlannerTest : public testing::TestWithParam<IndexType> {
 protected:
  PlannerTest() : env_(NewMemEnv()), path_("/pdb") {}

  void Open(const PlanConfig& cfg) {
    SecondaryDBOptions options;
    options.base.env = env_.get();
    options.base.write_buffer_size = 32 << 10;
    options.base.max_file_size = 16 << 10;
    options.base.read_parallelism = cfg.read_parallelism;
    options.index_type = GetParam();
    options.indexed_attributes = {"UserID", "CreationTime"};
    options.planner_mode = cfg.mode;
    options.planner_drive = cfg.drive;
    Status s = SecondaryDB::Open(options, path_, &db_);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  void Reopen(const PlanConfig& cfg) {
    db_.reset();
    Open(cfg);
  }

  // Users and creation times both recycle so the IN-sets intersect the
  // equality predicate on many rows, with overwrites and deletes moving
  // records between posting lists along the way.
  void BuildWorkload(Model* model) {
    Random64 rnd(0xBADD ^ static_cast<uint64_t>(GetParam()));
    for (int step = 0; step < 900; step++) {
      std::string key = "t" + std::to_string(rnd.Uniform(250));
      if (rnd.Uniform(10) < 1) {
        ASSERT_TRUE(db_->Delete(key).ok());
        model->Delete(key);
      } else {
        std::string user = "user" + std::to_string(rnd.Uniform(8));
        uint64_t ctime = 1000 + rnd.Uniform(40);
        ASSERT_TRUE(
            db_->Put(key, MakeDoc(user, ctime, std::string(40, 'b'))).ok());
        model->Put(key, user, ctime);
      }
    }
  }

  struct Query {
    std::string user;
    std::set<uint64_t> ctimes;
    size_t k;
  };

  static std::vector<Query> Queries() {
    return {
        {"user0", {1003, 1017, 1025}, 0},
        {"user0", {1003, 1017, 1025}, 1},
        {"user3", {1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007}, 5},
        {"user5", {1039}, 0},
        {"user7", {1010, 1011, 1012, 1013}, 3},
        {"nobody", {1003}, 0},
        {"user2", {9999}, 0},  // No CreationTime match
    };
  }

  std::vector<QueryResult> RunLookupAnd(const Query& q) {
    std::vector<std::string> in;
    for (uint64_t t : q.ctimes) in.push_back(CTime(t));
    std::vector<QueryResult> results;
    Status s =
        db_->LookupAnd("UserID", q.user, "CreationTime", in, q.k, &results);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return results;
  }

  std::unique_ptr<Env> env_;
  std::string path_;
  std::unique_ptr<SecondaryDB> db_;
};

TEST_P(PlannerTest, ConjunctiveMatchesModelUnderEveryPlan) {
  Model model;
  Open(PlanConfig{});
  BuildWorkload(&model);

  // Baseline: the auto plan must match the brute-force reference.
  const std::vector<Query> queries = Queries();
  std::vector<std::vector<QueryResult>> baseline;
  for (const Query& q : queries) {
    std::vector<QueryResult> results = RunLookupAnd(q);
    std::vector<std::string> keys;
    for (const QueryResult& r : results) keys.push_back(r.primary_key);
    EXPECT_EQ(model.LookupAnd(q.user, q.ctimes, q.k), keys)
        << "user=" << q.user << " k=" << q.k
        << " type=" << IndexTypeName(GetParam());
    baseline.push_back(std::move(results));
  }

  // Every other configuration must be byte-identical to the baseline, and
  // so must the default plan after a full compaction changes the LSM shape.
  const PlanConfig configs[] = {
      {PlannerMode::kForceIntersect, PlannerDrive::kFirst, 0,
       "intersect/drive-first"},
      {PlannerMode::kForceIntersect, PlannerDrive::kSecond, 0,
       "intersect/drive-second"},
      {PlannerMode::kForceFilterFetch, PlannerDrive::kFirst, 0,
       "filter-fetch/drive-first"},
      {PlannerMode::kForceFilterFetch, PlannerDrive::kSecond, 0,
       "filter-fetch/drive-second"},
      {PlannerMode::kAuto, PlannerDrive::kAuto, 4, "parallelism-4"},
  };
  auto expect_baseline = [&](const std::string& name) {
    for (size_t i = 0; i < queries.size(); i++) {
      ExpectSameResults(baseline[i], RunLookupAnd(queries[i]),
                        name + " query " + std::to_string(i) + " type " +
                            IndexTypeName(GetParam()));
    }
  };
  for (const PlanConfig& cfg : configs) {
    Reopen(cfg);
    expect_baseline(cfg.name);
  }
  Reopen(PlanConfig{});
  ASSERT_TRUE(db_->CompactAll().ok());
  expect_baseline("compacted");
  EXPECT_GE(db_->TotalTicker(kIntersectPostingsScanned), 0u);
}

TEST_P(PlannerTest, ConjunctiveSemanticsAndErrors) {
  Open(PlanConfig{});
  ASSERT_TRUE(db_->Put("t1", MakeDoc("u1", 100, "a")).ok());
  ASSERT_TRUE(db_->Put("t2", MakeDoc("u1", 200, "b")).ok());
  ASSERT_TRUE(db_->Put("t3", MakeDoc("u2", 100, "c")).ok());

  std::vector<QueryResult> results;
  // Both predicates apply.
  ASSERT_TRUE(db_->LookupAnd("UserID", "u1", "CreationTime", {CTime(100)}, 0,
                             &results)
                  .ok());
  ASSERT_EQ(1u, results.size());
  EXPECT_EQ("t1", results[0].primary_key);

  // An overwrite moves t1 to u2: stale postings must not resurface it.
  ASSERT_TRUE(db_->Put("t1", MakeDoc("u2", 100, "d")).ok());
  ASSERT_TRUE(db_->LookupAnd("UserID", "u1", "CreationTime", {CTime(100)}, 0,
                             &results)
                  .ok());
  EXPECT_TRUE(results.empty());
  ASSERT_TRUE(db_->LookupAnd("UserID", "u2", "CreationTime", {CTime(100)}, 0,
                             &results)
                  .ok());
  ASSERT_EQ(2u, results.size());  // t1 (newest) then t3
  EXPECT_EQ("t1", results[0].primary_key);
  EXPECT_EQ("t3", results[1].primary_key);

  // A delete hides the record from every plan.
  ASSERT_TRUE(db_->Delete("t3").ok());
  ASSERT_TRUE(db_->LookupAnd("UserID", "u2", "CreationTime", {CTime(100)}, 0,
                             &results)
                  .ok());
  ASSERT_EQ(1u, results.size());
  EXPECT_EQ("t1", results[0].primary_key);

  // Empty IN-set: trivially no rows.
  ASSERT_TRUE(db_->LookupAnd("UserID", "u1", "CreationTime", {}, 0, &results)
                  .ok());
  EXPECT_TRUE(results.empty());

  // Same attribute twice and unindexed attributes are caller errors.
  EXPECT_TRUE(db_->LookupAnd("UserID", "u1", "UserID", {"u2"}, 0, &results)
                  .IsInvalidArgument());
  EXPECT_TRUE(db_->LookupAnd("Body", "a", "CreationTime", {CTime(100)}, 0,
                             &results)
                  .IsInvalidArgument());
  EXPECT_TRUE(db_->LookupAnd("UserID", "u1", "Body", {"a"}, 0, &results)
                  .IsInvalidArgument());
}

INSTANTIATE_TEST_SUITE_P(
    AllIndexTypes, PlannerTest,
    testing::Values(IndexType::kNoIndex, IndexType::kEmbedded,
                    IndexType::kLazy, IndexType::kEager,
                    IndexType::kComposite),
    [](const testing::TestParamInfo<IndexType>& info) {
      return IndexTypeName(info.param);
    });

// ---- Planner unit behavior (cost model + overrides) ----

TEST(PlannerUnitTest, AutoDrivesOnSmallerPostingSet) {
  EXPECT_EQ(1, PlanConjunctive(IndexType::kEager, 100, 5).drive);
  EXPECT_EQ(0, PlanConjunctive(IndexType::kEager, 5, 100).drive);
  EXPECT_EQ(0, PlanConjunctive(IndexType::kEager, 7, 7).drive);  // tie: attr1
}

TEST(PlannerUnitTest, TinyDriveListPrefersFilterFetch) {
  // One candidate to fetch: scanning the huge probe side can't pay off.
  ConjunctivePlan p = PlanConjunctive(IndexType::kEager, 1000, 1);
  EXPECT_EQ(ConjunctivePlan::Strategy::kFilterFetch, p.strategy);
  EXPECT_EQ(1, p.drive);
}

TEST(PlannerUnitTest, ComparablePostingSetsPreferIntersection) {
  // Both sides large: intersection trades two cheap index scans for a much
  // smaller validated fetch set.
  ConjunctivePlan p = PlanConjunctive(IndexType::kEager, 1000, 900);
  EXPECT_EQ(ConjunctivePlan::Strategy::kIntersect, p.strategy);
  EXPECT_LT(p.cost_intersect, p.cost_filter_fetch);
}

TEST(PlannerUnitTest, OverridesForceBothDimensions) {
  ConjunctivePlan p =
      PlanConjunctive(IndexType::kLazy, 1000, 1, PlannerMode::kForceIntersect,
                      PlannerDrive::kFirst);
  EXPECT_EQ(ConjunctivePlan::Strategy::kIntersect, p.strategy);
  EXPECT_EQ(0, p.drive);
  p = PlanConjunctive(IndexType::kLazy, 2, 1000,
                      PlannerMode::kForceFilterFetch, PlannerDrive::kSecond);
  EXPECT_EQ(ConjunctivePlan::Strategy::kFilterFetch, p.strategy);
  EXPECT_EQ(1, p.drive);
  EXPECT_STREQ("intersect",
               StrategyName(ConjunctivePlan::Strategy::kIntersect));
  EXPECT_STREQ("filter-fetch",
               StrategyName(ConjunctivePlan::Strategy::kFilterFetch));
}

// ---- Sharded vs unsharded byte-identity for the new query surface ----

TEST(PlannerShardedTest, ShardedConjunctiveMatchesUnsharded) {
  std::vector<crash::Op> ops;
  for (size_t i = 0; i < 240; i++) {
    const std::string key = "k" + std::to_string((i * 37) % 90);
    if (i % 13 == 7) {
      ops.push_back(crash::DeleteOp(key));
    } else {
      ops.push_back(crash::PutOp(key, "user" + std::to_string(i % 7),
                                 1000 + (i % 29), /*pad=*/48));
    }
  }
  const std::vector<std::string> in_values = {CTime(1004), CTime(1011),
                                              CTime(1020), CTime(1027)};

  for (IndexType type :
       {IndexType::kNoIndex, IndexType::kEmbedded, IndexType::kLazy,
        IndexType::kEager, IndexType::kComposite}) {
    auto shard_options = [type](Env* e) {
      SecondaryDBOptions o;
      o.base.env = e;
      o.base.write_buffer_size = 16 << 10;
      o.index_type = type;
      o.indexed_attributes = {"UserID", "CreationTime"};
      return o;
    };

    std::unique_ptr<Env> ref_env(NewMemEnv());
    std::unique_ptr<SecondaryDB> reference;
    ASSERT_TRUE(
        SecondaryDB::Open(shard_options(ref_env.get()), "/ref", &reference)
            .ok());
    for (const crash::Op& op : ops) {
      Status s = (op.kind == crash::Op::kPut)
                     ? reference->Put(op.key, op.doc)
                     : reference->Delete(op.key);
      ASSERT_TRUE(s.ok()) << s.ToString();
    }

    for (int shards : {1, 4}) {
      const std::string trace = std::string(IndexTypeName(type)) +
                                " N=" + std::to_string(shards);
      std::unique_ptr<Env> env(NewMemEnv());
      ShardedDBOptions options;
      options.shard = shard_options(env.get());
      options.num_shards = shards;
      std::unique_ptr<ShardedDB> sharded;
      ASSERT_TRUE(ShardedDB::Open(options, "/sharded", &sharded).ok())
          << trace;
      for (const crash::Op& op : ops) {
        Status s = (op.kind == crash::Op::kPut)
                       ? sharded->Put(op.key, op.doc)
                       : sharded->Delete(op.key);
        ASSERT_TRUE(s.ok()) << s.ToString();
      }

      for (int u = 0; u < 7; u++) {
        const std::string user = "user" + std::to_string(u);
        for (size_t k : {size_t{0}, size_t{3}}) {
          std::vector<QueryResult> want, got;
          ASSERT_TRUE(reference
                          ->LookupAnd("UserID", user, "CreationTime",
                                      in_values, k, &want)
                          .ok());
          ASSERT_TRUE(
              sharded
                  ->LookupAnd("UserID", user, "CreationTime", in_values, k,
                              &got)
                  .ok());
          ExpectSameResults(want, got,
                            trace + " LookupAnd(" + user +
                                ", k=" + std::to_string(k) + ")");
        }
      }
    }
  }
}

// ---- Wire protocol: the new ops end to end and at the codec level ----

TEST(PlannerWireTest, LookupAndRequestRoundTrips) {
  wire::Request req;
  req.op = wire::kLookupAnd;
  req.deadline_micros = 12345;
  req.attribute = "UserID";
  req.value = "user3";
  req.attr2 = "CreationTime";
  req.in_values = {"000000001004", "000000001011"};
  req.k = 7;
  std::string frame;
  wire::EncodeRequest(req, &frame);
  wire::Request decoded;
  ASSERT_TRUE(wire::DecodeRequest(
                  Slice(frame.data() + wire::kHeaderBytes,
                        frame.size() - wire::kHeaderBytes),
                  &decoded)
                  .ok());
  EXPECT_EQ(wire::kLookupAnd, decoded.op);
  EXPECT_EQ(req.deadline_micros, decoded.deadline_micros);
  EXPECT_EQ(req.attribute, decoded.attribute);
  EXPECT_EQ(req.value, decoded.value);
  EXPECT_EQ(req.attr2, decoded.attr2);
  EXPECT_EQ(req.in_values, decoded.in_values);
  EXPECT_EQ(req.k, decoded.k);

  // Strict decode: a trailing byte is malformed, exactly like the old ops.
  frame.push_back('\0');
  EXPECT_TRUE(wire::DecodeRequest(
                  Slice(frame.data() + wire::kHeaderBytes,
                        frame.size() - wire::kHeaderBytes),
                  &decoded)
                  .IsCorruption());
}

TEST(PlannerWireTest, ServedLookupAndMatchesDirectCalls) {
  std::unique_ptr<Env> env(NewMemEnv());
  ShardedDBOptions options;
  options.shard.base.env = env.get();
  options.shard.base.write_buffer_size = 16 << 10;
  options.shard.index_type = IndexType::kLazy;
  options.shard.indexed_attributes = {"UserID", "CreationTime"};
  options.num_shards = 2;
  std::unique_ptr<ShardedDB> db;
  ASSERT_TRUE(ShardedDB::Open(options, "/serve", &db).ok());
  for (int i = 0; i < 120; i++) {
    ASSERT_TRUE(db->Put("k" + std::to_string(i % 40),
                        MakeDoc("user" + std::to_string(i % 5),
                                1000 + (i % 11), "w"))
                    .ok());
  }
  std::unique_ptr<Server> server;
  ASSERT_TRUE(Server::Start(db.get(), ServerOptions(), &server).ok());
  std::unique_ptr<Client> client;
  ASSERT_TRUE(Client::Connect("127.0.0.1", server->port(), &client).ok());

  const std::vector<std::string> in_values = {CTime(1002), CTime(1007)};
  std::vector<QueryResult> want, got;
  ASSERT_TRUE(
      db->LookupAnd("UserID", "user2", "CreationTime", in_values, 0, &want)
          .ok());
  ASSERT_TRUE(
      client->LookupAnd("UserID", "user2", "CreationTime", in_values, 0, &got)
          .ok());
  ExpectSameResults(want, got, "served LookupAnd");
  EXPECT_FALSE(want.empty());

  server->Stop();
}

}  // namespace
}  // namespace leveldbpp
