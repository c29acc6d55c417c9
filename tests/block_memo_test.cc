// The point read's block memo: a sweep of point lookups (one TablePins set:
// a query's candidate validation, a MultiGet run) reads a data block once
// when consecutive keys land in it, keyed by table and block offset, and
// never keeps a block that failed a check.
//
//   * BlockMemoQueryTest: Lazy and Composite LOOKUP K=0 and RANGELOOKUP
//     K=50 over records that share primary blocks read each distinct block
//     once at read_parallelism 0; at 4, each run of a batch holds its own
//     memo, so a block whose keys straddle two runs is read once per run.
//   * BlockMemoTest: the blocks at offset 0 of an L0 and a deeper table are
//     told apart, and a checksum-failed block met twice in one sweep is
//     read and detected twice, as without a memo.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/secondary_db.h"
#include "db/db_impl.h"
#include "db/filename.h"
#include "env/env.h"
#include "env/statistics.h"
#include "util/perf_context.h"

namespace leveldbpp {
namespace {

constexpr int kRecords = 1200;
constexpr int kPerUser = 150;  // Users own contiguous key runs

std::string RecordKey(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%05d", i);
  return buf;
}

std::string User(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "user%03d", i / kPerUser);
  return buf;
}

std::string Ctime(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%012d", i);
  return buf;
}

std::string Doc(int i) {
  return "{\"UserID\":\"" + User(i) + "\",\"CreationTime\":\"" + Ctime(i) +
         "\",\"Body\":\"tweet body number " + std::to_string(i) + "\"}";
}

// Distinct (table, data block) pairs holding `keys` in the primary table:
// each key's block in the first table whose range covers it. Opening the
// tables here also keeps their index and meta reads out of the measured
// queries.
size_t DistinctBlocks(DBImpl* db, const std::vector<std::string>& keys) {
  DBImpl::ReadView view(db, ReadOptions());
  TablePins pins(db->table_cache());
  std::set<std::pair<uint64_t, size_t>> blocks;
  for (const std::string& key : keys) {
    const LookupKey lkey(key, kMaxSequenceNumber);
    bool placed = false;
    for (int level = 0; level < view.current->NumLevels() && !placed;
         level++) {
      for (FileMetaData* f : view.current->files(level)) {
        if (Slice(key).compare(f->smallest.user_key()) < 0 ||
            Slice(key).compare(f->largest.user_key()) > 0) {
          continue;
        }
        Table* t = nullptr;
        EXPECT_TRUE(pins.Find(f->number, f->file_size, &t).ok());
        if (t == nullptr) continue;
        blocks.emplace(f->number, t->BlockIndexForKey(lkey.internal_key()));
        placed = true;
        break;
      }
    }
    EXPECT_TRUE(placed) << key;
  }
  return blocks.size();
}

class BlockMemoQueryTest : public testing::TestWithParam<IndexType> {
 protected:
  BlockMemoQueryTest() : env_(NewMemEnv()) {}

  ~BlockMemoQueryTest() override { DisablePerfContext(); }

  void Open(int read_parallelism) {
    db_.reset();
    SecondaryDBOptions options;
    options.base.env = env_.get();
    options.base.read_parallelism = read_parallelism;
    options.index_type = GetParam();
    options.indexed_attributes = {"UserID", "CreationTime"};
    Status s = SecondaryDB::Open(options, "/memodb", &db_);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  // Records go in key order with a user per contiguous key run and the
  // creation time rising with the key, then everything is compacted: each
  // record has one residence, and a query's candidates arrive in key order
  // (ascending or descending), so those sharing a block arrive together.
  void Load() {
    Open(0);
    for (int i = 0; i < kRecords; i++) {
      ASSERT_TRUE(db_->Put(RecordKey(i), Doc(i)).ok());
    }
    ASSERT_TRUE(db_->CompactAll().ok());
  }

  struct Measured {
    std::vector<QueryResult> results;
    uint64_t reads = 0;
    uint64_t reused = 0;
    uint64_t tasks = 0;
    uint64_t validated = 0;
  };

  Measured Run(const std::function<Status(std::vector<QueryResult>*)>& q) {
    Statistics* stats = db_->primary_statistics();
    Measured m;
    const uint64_t reads = stats->Get(kBlockRead);
    const uint64_t reused = stats->Get(kBlockReadReused);
    const uint64_t tasks = stats->Get(kParallelTasks);
    EnablePerfContext();
    GetPerfContext()->Reset();
    Status s = q(&m.results);
    EXPECT_TRUE(s.ok()) << s.ToString();
    m.validated = GetPerfContext()->candidates_validated;
    DisablePerfContext();
    m.reads = stats->Get(kBlockRead) - reads;
    m.reused = stats->Get(kBlockReadReused) - reused;
    m.tasks = stats->Get(kParallelTasks) - tasks;
    return m;
  }

  // Sequentially every distinct block is read once. In parallel each run
  // may read once more the block its neighbour run also needed. Either
  // way every validation needed one block: read, or reused from the memo.
  void CheckReads(const Measured& m, size_t distinct, int p) {
    SCOPED_TRACE("read_parallelism " + std::to_string(p));
    EXPECT_EQ(m.validated, m.reads + m.reused);
    if (p <= 1) {
      EXPECT_EQ(distinct, m.reads);
    } else {
      EXPECT_GE(m.reads, distinct);
      EXPECT_LE(m.reads, distinct + m.tasks);
    }
    EXPECT_LT(m.reads, m.validated);
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<SecondaryDB> db_;
};

TEST_P(BlockMemoQueryTest, LookupReadsEachDistinctBlockOnce) {
  Load();
  const int first = 2 * kPerUser;  // user002's records
  std::vector<std::string> keys;
  for (int i = first; i < first + kPerUser; i++) keys.push_back(RecordKey(i));
  std::vector<QueryResult> sequential;
  for (int p : {0, 4}) {
    Open(p);
    const size_t distinct = DistinctBlocks(db_->primary(), keys);
    ASSERT_GT(distinct, 1u);
    ASSERT_LT(distinct * 4, keys.size()) << "records must share blocks";
    Measured m = Run([&](std::vector<QueryResult>* r) {
      return db_->Lookup("UserID", User(first), 0, r);
    });
    ASSERT_EQ(keys.size(), m.results.size());
    EXPECT_EQ(keys.size(), m.validated);
    CheckReads(m, distinct, p);
    if (p == 0) {
      sequential = m.results;
    } else {
      ASSERT_EQ(sequential.size(), m.results.size());
      for (size_t i = 0; i < sequential.size(); i++) {
        EXPECT_EQ(sequential[i].primary_key, m.results[i].primary_key);
        EXPECT_EQ(sequential[i].seq, m.results[i].seq);
        EXPECT_EQ(sequential[i].value, m.results[i].value);
      }
    }
  }
}

TEST_P(BlockMemoQueryTest, RangeLookupReadsEachDistinctBlockOnce) {
  Load();
  const int lo = 300, hi = 699;
  std::vector<QueryResult> sequential;
  for (int p : {0, 4}) {
    Open(p);
    Measured m = Run([&](std::vector<QueryResult>* r) {
      return db_->RangeLookup("CreationTime", Ctime(lo), Ctime(hi), 50, r);
    });
    ASSERT_EQ(50u, m.results.size());
    EXPECT_EQ(RecordKey(hi), m.results.front().primary_key);
    // The validated candidates are the newest ones in the range: every
    // record in it when the variant validates a level whole (Lazy), the
    // top 50 when it validates newest-first (Composite).
    ASSERT_GE(m.validated, 50u);
    ASSERT_LE(m.validated, static_cast<uint64_t>(hi - lo + 1));
    std::vector<std::string> keys;
    for (int i = hi; i > hi - static_cast<int>(m.validated); i--) {
      keys.push_back(RecordKey(i));
    }
    // DistinctBlocks opened every table the query reads, so a second run
    // measures data blocks only.
    const size_t distinct = DistinctBlocks(db_->primary(), keys);
    ASSERT_LT(distinct * 4, keys.size()) << "records must share blocks";
    m = Run([&](std::vector<QueryResult>* r) {
      return db_->RangeLookup("CreationTime", Ctime(lo), Ctime(hi), 50, r);
    });
    CheckReads(m, distinct, p);
    if (p == 0) {
      sequential = m.results;
    } else {
      ASSERT_EQ(sequential.size(), m.results.size());
      for (size_t i = 0; i < sequential.size(); i++) {
        EXPECT_EQ(sequential[i].primary_key, m.results[i].primary_key);
        EXPECT_EQ(sequential[i].seq, m.results[i].seq);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PostingVariants, BlockMemoQueryTest,
                         testing::Values(IndexType::kLazy,
                                         IndexType::kComposite),
                         [](const testing::TestParamInfo<IndexType>& info) {
                           return std::string(IndexTypeName(info.param));
                         });

class BlockMemoTest : public testing::Test {
 protected:
  BlockMemoTest() : env_(NewMemEnv()) {}

  ~BlockMemoTest() override { Destroy(); }

  void Destroy() {
    db_.reset();
    Options options;
    options.env = env_.get();
    DestroyDB(dbname_, options);
  }

  void Open(int read_parallelism, bool paranoid) {
    db_.reset();
    Options options;
    options.env = env_.get();
    options.create_if_missing = true;
    options.read_parallelism = read_parallelism;
    options.paranoid_checks = paranoid;
    options.statistics = &stats_;
    DBImpl* raw = nullptr;
    Status s = DBImpl::Open(options, dbname_, &raw);
    ASSERT_TRUE(s.ok()) << s.ToString();
    db_.reset(raw);
  }

  std::string Level0Files() {
    std::string n;
    EXPECT_TRUE(db_->GetProperty("leveldbpp.num-files-at-level0", &n));
    return n;
  }

  // Every key of `keys` read in one sweep twice over: the sink's form (a
  // held view and pins, GetWithMeta per key) and a MultiGet batch.
  struct Swept {
    std::vector<Status> statuses;
    std::vector<std::string> values;
  };
  Swept SweepWithViewAndPins(const std::vector<std::string>& keys) {
    DBImpl::ReadView view(db_.get(), ReadOptions());
    TablePins pins(db_->table_cache());
    Swept out;
    for (const std::string& key : keys) {
      std::string value;
      DBImpl::RecordLocation loc;
      out.statuses.push_back(
          db_->GetWithMeta(view, &pins, ReadOptions(), key, &value, &loc));
      out.values.push_back(value);
    }
    return out;
  }
  Swept SweepWithMultiGet(const std::vector<std::string>& keys) {
    std::vector<Slice> slices(keys.begin(), keys.end());
    std::vector<DBImpl::RecordLocation> locs;
    Swept out;
    db_->MultiGetWithMeta(ReadOptions(), slices, &out.values, &locs,
                          &out.statuses);
    return out;
  }

  // Flip bytes inside the table's first data block (offset 0) so its
  // checksum fails; the footer, index and meta blocks stay sound.
  void CorruptFirstDataBlock() {
    std::vector<std::string> children;
    ASSERT_TRUE(env_->GetChildren(dbname_, &children).ok());
    int corrupted = 0;
    for (const std::string& f : children) {
      uint64_t number;
      FileType type;
      if (!ParseFileName(f, &number, &type) || type != kTableFile) continue;
      const std::string path = dbname_ + "/" + f;
      uint64_t size = 0;
      ASSERT_TRUE(env_->GetFileSize(path, &size).ok());
      std::unique_ptr<RandomAccessFile> in;
      ASSERT_TRUE(env_->NewRandomAccessFile(path, &in).ok());
      std::string contents(size, '\0');
      Slice read;
      ASSERT_TRUE(in->Read(0, size, &read, contents.data()).ok());
      contents.assign(read.data(), read.size());
      for (size_t i = 20; i < 28; i++) contents[i] ^= 0x5A;
      std::unique_ptr<WritableFile> out;
      ASSERT_TRUE(env_->NewWritableFile(path, &out).ok());
      ASSERT_TRUE(out->Append(contents).ok());
      ASSERT_TRUE(out->Close().ok());
      corrupted++;
    }
    ASSERT_EQ(1, corrupted);
  }

  Statistics stats_;
  std::unique_ptr<Env> env_;
  const std::string dbname_ = "/memo";
  std::unique_ptr<DBImpl> db_;
};

// Two tables each with one data block, at offset 0: a memo keyed by offset
// alone would serve one table's block for the other. Every key below is
// probed in the L0 table (its range covers them) and, unless found there,
// in the deeper one, so the sweep alternates between the two blocks.
TEST_F(BlockMemoTest, SameOffsetInTwoTablesReadsEach) {
  for (int p : {0, 4}) {
    SCOPED_TRACE("read_parallelism " + std::to_string(p));
    Destroy();
    Open(p, /*paranoid=*/false);
    for (int i = 0; i < 40; i++) {
      ASSERT_TRUE(
          db_->Put(WriteOptions(), RecordKey(i), "old" + std::to_string(i))
              .ok());
    }
    ASSERT_TRUE(db_->CompactAll().ok());
    ASSERT_EQ("0", Level0Files());
    for (int i = 5; i < 40; i += 10) {
      ASSERT_TRUE(
          db_->Put(WriteOptions(), RecordKey(i), "new" + std::to_string(i))
              .ok());
    }
    ASSERT_TRUE(db_->Write(WriteOptions(), nullptr).ok());  // Flush to L0
    ASSERT_EQ("1", Level0Files());

    std::vector<std::string> keys;
    for (int i = 0; i < 40; i++) keys.push_back(RecordKey(i));
    for (const Swept& swept :
         {SweepWithViewAndPins(keys), SweepWithMultiGet(keys)}) {
      for (int i = 0; i < 40; i++) {
        ASSERT_TRUE(swept.statuses[i].ok())
            << keys[i] << ": " << swept.statuses[i].ToString();
        EXPECT_EQ((i % 10 == 5 ? "new" : "old") + std::to_string(i),
                  swept.values[i]);
      }
    }
  }
}

// A block whose checksum fails is never kept: met twice in one sweep it is
// read and detected twice, and quarantined once. Non-paranoid, both keys
// fall through as absent; paranoid, both fail with Corruption.
TEST_F(BlockMemoTest, ChecksumFailedBlockIsNeverKept) {
  for (bool paranoid : {false, true}) {
    for (int p : {0, 4}) {
      SCOPED_TRACE(std::string(paranoid ? "paranoid" : "non-paranoid") +
                   ", read_parallelism " + std::to_string(p));
      Destroy();
      Open(p, paranoid);
      for (int i = 0; i < 40; i++) {
        ASSERT_TRUE(db_->Put(WriteOptions(), RecordKey(i), "v").ok());
      }
      ASSERT_TRUE(db_->CompactAll().ok());
      db_.reset();
      CorruptFirstDataBlock();
      Open(p, paranoid);

      const std::vector<std::string> keys = {RecordKey(1), RecordKey(2)};
      for (int form = 0; form < 2; form++) {
        const uint64_t detected = stats_.Get(kCorruptionBlocksDetected);
        const uint64_t quarantined = stats_.Get(kCorruptionBlocksQuarantined);
        const uint64_t reused = stats_.Get(kBlockReadReused);
        const Swept swept =
            form == 0 ? SweepWithViewAndPins(keys) : SweepWithMultiGet(keys);
        for (const Status& s : swept.statuses) {
          if (paranoid) {
            EXPECT_TRUE(s.IsCorruption()) << s.ToString();
          } else {
            EXPECT_TRUE(s.IsNotFound()) << s.ToString();
          }
        }
        EXPECT_EQ(2u, stats_.Get(kCorruptionBlocksDetected) - detected);
        EXPECT_EQ(0u, stats_.Get(kBlockReadReused) - reused);
        // Entered into the registry once per store, by the first sweep
        // that met it (in both modes; only non-paranoid reads fall through).
        EXPECT_EQ(form == 0 ? 1u : 0u,
                  stats_.Get(kCorruptionBlocksQuarantined) - quarantined);
      }
    }
  }
}

}  // namespace
}  // namespace leveldbpp
