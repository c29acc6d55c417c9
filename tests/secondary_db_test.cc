// SecondaryDB facade tests: configuration errors, statistics plumbing,
// size accounting, and index-specific observable behaviours (zone-map
// pruning, GetLite usage, posting-list fragmentation).

#include "core/secondary_db.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/standalone_index.h"
#include "env/env.h"
#include "json/json.h"
#include "workload/tweet_generator.h"

namespace leveldbpp {
namespace {

class SecondaryDBTest : public testing::Test {
 protected:
  SecondaryDBTest() : env_(NewMemEnv()) {}

  std::unique_ptr<SecondaryDB> Open(IndexType type,
                                    std::vector<std::string> attrs = {
                                        "UserID", "CreationTime"}) {
    SecondaryDBOptions options;
    options.base.env = env_.get();
    options.base.write_buffer_size = 64 << 10;
    options.base.max_file_size = 32 << 10;
    options.index_type = type;
    options.indexed_attributes = std::move(attrs);
    std::unique_ptr<SecondaryDB> db;
    Status s = SecondaryDB::Open(options, "/sdb_" + std::to_string(seq_++),
                                 &db);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return db;
  }

  static std::string Doc(const std::string& user, uint64_t ts) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%012llu",
                  static_cast<unsigned long long>(ts));
    return "{\"CreationTime\":\"" + std::string(buf) + "\",\"UserID\":\"" +
           user + "\"}";
  }

  std::unique_ptr<Env> env_;
  int seq_ = 0;
};

TEST_F(SecondaryDBTest, UnindexedAttributeRejected) {
  auto db = Open(IndexType::kLazy, {"UserID"});
  std::vector<QueryResult> results;
  Status s = db->Lookup("Nope", "x", 0, &results);
  EXPECT_TRUE(s.IsInvalidArgument());
  s = db->RangeLookup("Nope", "a", "b", 0, &results);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(nullptr, db->index("Nope"));
  EXPECT_NE(nullptr, db->index("UserID"));
}

TEST_F(SecondaryDBTest, DocumentsWithoutAttributeAreUnindexedButStored) {
  auto db = Open(IndexType::kComposite, {"UserID"});
  ASSERT_TRUE(db->Put("k1", R"({"Other":"field"})").ok());
  ASSERT_TRUE(db->Put("k2", Doc("u1", 5)).ok());

  std::string value;
  ASSERT_TRUE(db->Get("k1", &value).ok());  // GET still works

  std::vector<QueryResult> results;
  ASSERT_TRUE(db->Lookup("UserID", "u1", 0, &results).ok());
  ASSERT_EQ(1u, results.size());
  EXPECT_EQ("k2", results[0].primary_key);
}

// A document nested a million deep is malformed: every path that extracts
// attributes (PUT, memtable, flush and compaction, LOOKUP) treats it as
// unindexable instead of recursing off the stack, and GET still returns it.
TEST_F(SecondaryDBTest, MillionDeepDocumentStoredButNotIndexed) {
  std::string deep = R"({"CreationTime":"000000000005","UserID":"u1","x":)";
  deep.append(1000000, '[');
  deep.append(1000000, ']');
  deep += "}";
  for (IndexType type : {IndexType::kNoIndex, IndexType::kEmbedded,
                         IndexType::kLazy, IndexType::kEager,
                         IndexType::kComposite}) {
    SCOPED_TRACE(IndexTypeName(type));
    auto db = Open(type);
    ASSERT_TRUE(db->Put("deep", deep).ok());
    ASSERT_TRUE(db->Put("flat", Doc("u1", 6)).ok());
    for (int pass = 0; pass < 2; pass++) {  // Memtable, then on disk
      std::string value;
      ASSERT_TRUE(db->Get("deep", &value).ok());
      EXPECT_EQ(deep, value);
      std::vector<QueryResult> results;
      ASSERT_TRUE(db->Lookup("UserID", "u1", 0, &results).ok());
      ASSERT_EQ(1u, results.size());
      EXPECT_EQ("flat", results[0].primary_key);
      ASSERT_TRUE(db->RangeLookup("CreationTime", "000000000000",
                                  "000000000009", 0, &results)
                      .ok());
      ASSERT_EQ(1u, results.size());
      EXPECT_EQ("flat", results[0].primary_key);
      ASSERT_TRUE(db->CompactAll().ok());
    }
  }
}

TEST_F(SecondaryDBTest, EmbeddedHasNoIndexTables) {
  auto embedded = Open(IndexType::kEmbedded);
  auto lazy = Open(IndexType::kLazy);
  for (int i = 0; i < 2000; i++) {
    std::string doc = Doc("user" + std::to_string(i % 50), 1000 + i);
    ASSERT_TRUE(embedded->Put("t" + std::to_string(i), doc).ok());
    ASSERT_TRUE(lazy->Put("t" + std::to_string(i), doc).ok());
  }
  EXPECT_EQ(0u, embedded->IndexSizeBytes());
  EXPECT_GT(lazy->IndexSizeBytes(), 0u);
  // The embedded variant's index objects expose no stand-alone stats.
  EXPECT_EQ(nullptr, embedded->index("UserID")->index_statistics());
  EXPECT_NE(nullptr, lazy->index("UserID")->index_statistics());
}

TEST_F(SecondaryDBTest, EmbeddedZoneMapsPruneTimeQueries) {
  auto db = Open(IndexType::kEmbedded);
  for (int i = 0; i < 4000; i++) {
    ASSERT_TRUE(
        db->Put("t" + std::to_string(i),
                Doc("user" + std::to_string(i % 100), 1000 + i))
            .ok());
  }
  ASSERT_TRUE(db->CompactAll().ok());

  Statistics* stats = db->primary_statistics();
  uint64_t pruned_before =
      stats->Get(kZoneMapBlockPruned) + stats->Get(kZoneMapFilePruned);
  uint64_t reads_before = stats->Get(kBlockRead);

  // A narrow window on the time-correlated attribute: zone maps must prune
  // nearly everything.
  std::vector<QueryResult> results;
  ASSERT_TRUE(db->RangeLookup("CreationTime", Doc("", 4900).substr(17, 12),
                              Doc("", 4999).substr(17, 12), 0, &results)
                  .ok());
  // (substr pulls the encoded timestamp out of the helper's document)
  uint64_t pruned =
      stats->Get(kZoneMapBlockPruned) + stats->Get(kZoneMapFilePruned) -
      pruned_before;
  uint64_t reads = stats->Get(kBlockRead) - reads_before;
  EXPECT_GT(pruned, 0u);
  EXPECT_LT(reads, 50u);  // Far fewer than a full scan
  EXPECT_FALSE(results.empty());
}

TEST_F(SecondaryDBTest, EmbeddedLookupRecordsGetLiteActivity) {
  auto db = Open(IndexType::kEmbedded);
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(
        db->Put("t" + std::to_string(i),
                Doc("user" + std::to_string(i % 20), 1000 + i))
            .ok());
  }
  ASSERT_TRUE(db->CompactAll().ok());
  Statistics* stats = db->primary_statistics();
  uint64_t calls_before = stats->Get(kGetLiteCalls);
  std::vector<QueryResult> results;
  ASSERT_TRUE(db->Lookup("UserID", "user7", 10, &results).ok());
  EXPECT_EQ(10u, results.size());
  EXPECT_GT(stats->Get(kGetLiteCalls), calls_before);
}

TEST_F(SecondaryDBTest, LazyFragmentsMergeDuringCompaction) {
  auto db = Open(IndexType::kLazy, {"UserID"});
  // Interleave many users so the same user's postings land in several
  // flush cycles -> fragments in several levels.
  for (int round = 0; round < 6; round++) {
    for (int i = 0; i < 400; i++) {
      ASSERT_TRUE(db->Put("t" + std::to_string(round * 400 + i),
                          Doc("user" + std::to_string(i % 10),
                              1000 + round * 400 + i))
                      .ok());
    }
  }
  // Queries work on fragmented postings...
  std::vector<QueryResult> results;
  ASSERT_TRUE(db->Lookup("UserID", "user3", 0, &results).ok());
  size_t before_compact = results.size();
  EXPECT_EQ(240u, before_compact);

  // ...and compaction merges the fragments without changing the answer.
  ASSERT_TRUE(db->CompactAll().ok());
  ASSERT_TRUE(db->Lookup("UserID", "user3", 0, &results).ok());
  EXPECT_EQ(before_compact, results.size());

  // After a full compaction the index table holds ONE merged list per user:
  // a point Get on the index DB returns the complete list.
  auto* lazy = dynamic_cast<StandAloneIndex*>(db->index("UserID"));
  ASSERT_NE(nullptr, lazy);
  std::string list;
  ASSERT_TRUE(lazy->index_db()->Get(ReadOptions(), "user3", &list).ok());
  // 240 entries in one JSON array.
  size_t entries = 0;
  for (char c : list) {
    if (c == '[') entries++;
  }
  EXPECT_EQ(240u + 1, entries);  // Outer array + one per entry
}

TEST_F(SecondaryDBTest, ResultsCarryFullDocuments) {
  auto db = Open(IndexType::kComposite);
  ASSERT_TRUE(db->Put("k", Doc("alice", 42)).ok());
  std::vector<QueryResult> results;
  ASSERT_TRUE(db->Lookup("UserID", "alice", 0, &results).ok());
  ASSERT_EQ(1u, results.size());
  json::Value doc;
  ASSERT_TRUE(json::Parse(Slice(results[0].value), &doc));
  EXPECT_EQ("alice", doc["UserID"].as_string());
  EXPECT_GT(results[0].seq, 0u);
}

TEST_F(SecondaryDBTest, TotalTickerAggregatesAllTables) {
  auto db = Open(IndexType::kLazy, {"UserID"});
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(db->Put("t" + std::to_string(i),
                        Doc("u" + std::to_string(i % 20), i))
                    .ok());
  }
  ASSERT_TRUE(db->CompactAll().ok());
  // Index-table compaction wrote bytes that the primary stats alone miss.
  uint64_t total = db->TotalTicker(kCompactionBytesWritten);
  uint64_t primary_only =
      db->primary_statistics()->Get(kCompactionBytesWritten);
  EXPECT_GT(total, primary_only);
}

TEST_F(SecondaryDBTest, RebuildIndexCountsOnePostingPerIndexedValue) {
  auto db = Open(IndexType::kLazy);
  const int kDocs = 25;
  for (int i = 0; i < kDocs; i++) {
    ASSERT_TRUE(db->Put("t" + std::to_string(i),
                        Doc("u" + std::to_string(i % 5), 1000 + i))
                    .ok());
  }
  // A superseded version gets no posting; a record without CreationTime
  // gets a UserID posting only.
  ASSERT_TRUE(db->Put("t0", Doc("u9", 2000)).ok());
  ASSERT_TRUE(db->Put("lone", "{\"UserID\":\"u1\"}").ok());
  ASSERT_TRUE(db->RebuildIndex().ok());
  EXPECT_EQ(static_cast<uint64_t>(2 * kDocs + 1),
            db->primary_statistics()->Get(kIndexRebuildEntries));
  ASSERT_TRUE(db->VerifyIndexConsistency().ok());
}

TEST_F(SecondaryDBTest, TweetGeneratorEndToEnd) {
  // The full pipeline used by the benches: generator -> store -> query.
  auto db = Open(IndexType::kLazy);
  TweetGenerator gen(TweetGeneratorOptions{});
  std::string some_user;
  for (int i = 0; i < 1500; i++) {
    Tweet t = gen.Next();
    if (i == 700) some_user = t.user_id;
    ASSERT_TRUE(db->Put(t.tweet_id, t.ToJson()).ok());
  }
  std::vector<QueryResult> results;
  ASSERT_TRUE(db->Lookup("UserID", some_user, 5, &results).ok());
  ASSERT_FALSE(results.empty());
  for (size_t i = 1; i < results.size(); i++) {
    EXPECT_GT(results[i - 1].seq, results[i].seq);  // Newest first
  }
}

}  // namespace
}  // namespace leveldbpp
