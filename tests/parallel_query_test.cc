// Parallel-vs-sequential equivalence: with Options::read_parallelism > 1
// every index variant's LOOKUP / RANGELOOKUP must return byte-identical
// results (primary keys, sequence numbers, values, order) to the strictly
// sequential read path, because the fan-out only reorders WHEN candidate
// work happens, never WHAT is admitted. Also races parallel queries against
// a live writer + background compaction for the sanitizer builds.

#include <gtest/gtest.h>

#include <atomic>
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

// Flatten a result list so a plain string compare checks keys, sequence
// numbers, values AND order at once.
std::string Flatten(const std::vector<QueryResult>& results) {
  std::string out;
  for (const QueryResult& r : results) {
    out.append(r.primary_key);
    out.push_back('@');
    out.append(std::to_string(r.seq));
    out.push_back('=');
    out.append(r.value);
    out.push_back(';');
  }
  return out;
}

}  // namespace

class ParallelQueryTest : public testing::TestWithParam<IndexType> {
 protected:
  ParallelQueryTest() : env_(NewMemEnv()), path_("/pqdb") {}

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

  // Randomized history: inserts, updates that move records between users
  // and timestamps (creating stale index entries), deletes, and periodic
  // compaction so candidates spread over memtable + many levels.
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

  // Every query shape the index surface offers, over several users, ranges
  // and K values (k == 0 exercises the unlimited path).
  std::vector<std::string> RunAllQueries() {
    std::vector<std::string> flat;
    for (size_t k : {size_t{0}, size_t{1}, size_t{5}, size_t{20}}) {
      for (int u = 0; u < 25; u += 3) {
        std::vector<QueryResult> results;
        Status s = db_->Lookup("UserID", UserName(u), k, &results);
        EXPECT_TRUE(s.ok()) << s.ToString();
        flat.push_back(Flatten(results));
      }
      const std::pair<uint64_t, uint64_t> ranges[] = {
          {1, 1500}, {200, 400}, {1000, 1100}, {1499, 1500}};
      for (const auto& [lo, hi] : ranges) {
        std::vector<QueryResult> results;
        Status s = db_->RangeLookup("CreationTime", Ctime(lo), Ctime(hi), k,
                                    &results);
        EXPECT_TRUE(s.ok()) << s.ToString();
        flat.push_back(Flatten(results));
      }
    }
    return flat;
  }

  std::unique_ptr<Env> env_;
  std::string path_;
  std::unique_ptr<SecondaryDB> db_;
};

TEST_P(ParallelQueryTest, ParallelResultsByteIdenticalToSequential) {
  Open(/*read_parallelism=*/0);
  BuildWorkload();
  std::vector<std::string> sequential = RunAllQueries();
  ASSERT_FALSE(sequential.empty());

  for (int parallelism : {2, 4, 8}) {
    Open(parallelism);  // Reopen over the same store
    std::vector<std::string> parallel = RunAllQueries();
    ASSERT_EQ(sequential.size(), parallel.size());
    for (size_t i = 0; i < sequential.size(); i++) {
      EXPECT_EQ(sequential[i], parallel[i])
          << IndexTypeName(GetParam()) << " query " << i << " parallelism "
          << parallelism;
    }
  }
}

// The paper's path (read_parallelism = 0) resolves candidates one
// GetWithMeta at a time, so no query shape may issue a batched primary read;
// the chunked path (read_parallelism > 1) must, or the check above is
// vacuous.
TEST_P(ParallelQueryTest, SequentialPathIssuesNoBatchedReads) {
  const bool posting_lists = GetParam() == IndexType::kLazy ||
                             GetParam() == IndexType::kEager ||
                             GetParam() == IndexType::kComposite;
  Open(/*read_parallelism=*/0);
  BuildWorkload();
  for (int parallelism : {0, 4}) {
    Open(parallelism);  // Reopen over the same store
    Statistics* stats = db_->primary_statistics();
    const uint64_t before = stats->Get(kMultiGetBatches);
    RunAllQueries();
    const uint64_t batches = stats->Get(kMultiGetBatches) - before;
    if (parallelism == 0) {
      EXPECT_EQ(0u, batches) << IndexTypeName(GetParam());
    } else if (posting_lists) {
      EXPECT_GT(batches, 0u) << IndexTypeName(GetParam());
    }
  }
}

// Sanitizer workout: parallel queries racing one writer and background
// compaction. Results need not be deterministic here; they must be valid
// (status ok, every returned record's attribute inside the query range).
TEST_P(ParallelQueryTest, ConcurrentWriterDuringParallelQueries) {
  db_.reset();
  SecondaryDBOptions options;
  options.base.env = env_.get();
  options.base.write_buffer_size = 32 << 10;
  options.base.max_file_size = 16 << 10;
  options.base.max_bytes_for_level_base = 64 << 10;
  options.base.read_parallelism = 4;
  options.base.background_compaction = true;
  options.index_type = GetParam();
  options.indexed_attributes = {"UserID", "CreationTime"};
  ASSERT_TRUE(SecondaryDB::Open(options, path_, &db_).ok());

  for (int i = 0; i < 300; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05d", i);
    ASSERT_TRUE(
        db_->Put(key, MakeDoc(UserName(i % 10), i + 1, "seed")).ok());
  }

  std::atomic<bool> stop{false};
  std::thread writer([&]() {
    Random rnd(17);
    uint64_t ctime = 1000;
    while (!stop.load(std::memory_order_acquire)) {
      char key[16];
      std::snprintf(key, sizeof(key), "k%05d",
                    static_cast<int>(rnd.Uniform(300)));
      db_->Put(key, MakeDoc(UserName(rnd.Uniform(10)), ctime++, "upd"));
    }
  });

  const JsonAttributeExtractor* extractor =
      JsonAttributeExtractor::Instance();
  for (int round = 0; round < 40; round++) {
    const std::string user = UserName(round % 10);
    std::vector<QueryResult> results;
    Status s = db_->Lookup("UserID", user, 10, &results);
    ASSERT_TRUE(s.ok()) << s.ToString();
    for (const QueryResult& r : results) {
      std::string attr;
      ASSERT_TRUE(extractor->Extract(Slice(r.value), "UserID", &attr));
      ASSERT_EQ(user, attr);
    }
    results.clear();
    s = db_->RangeLookup("CreationTime", Ctime(1), Ctime(100000), 10,
                         &results);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  stop.store(true, std::memory_order_release);
  writer.join();
}

INSTANTIATE_TEST_SUITE_P(AllVariants, ParallelQueryTest,
                         testing::Values(IndexType::kNoIndex,
                                         IndexType::kEmbedded,
                                         IndexType::kLazy, IndexType::kEager,
                                         IndexType::kComposite),
                         [](const testing::TestParamInfo<IndexType>& info) {
                           return IndexTypeName(info.param);
                         });

}  // namespace leveldbpp
