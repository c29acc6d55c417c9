// DBImpl::MultiGet: batched point lookups must answer exactly like a loop
// of Get() calls — status, value, record location and blocks read, across
// memtable / immutable memtable / L0 / deeper levels, through deletes,
// overwrites, snapshots and corrupt keys, at every read_parallelism — and the
// TableCache open path must stay single-flight when concurrent readers
// miss on the same cold file. ImmQueueReadTest drives every read surface
// over a deep queue of immutable memtables.

#include <gtest/gtest.h>

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "db/db_impl.h"
#include "db/filename.h"
#include "env/env.h"
#include "env/scheduler_env.h"
#include "env/statistics.h"
#include "table/filter_policy.h"

namespace leveldbpp {

namespace {

std::string Key(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "key%06d", i);
  return buf;
}

std::string Value(int i, int version) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "{\"Attr\":\"%06d\",\"v\":\"%d\"}", i,
                version);
  return buf;
}

Status ReadFileToString(Env* env, const std::string& fname, std::string* out) {
  uint64_t size = 0;
  std::unique_ptr<RandomAccessFile> file;
  Status s = env->GetFileSize(fname, &size);
  if (s.ok()) s = env->NewRandomAccessFile(fname, &file);
  if (!s.ok()) return s;
  std::string scratch(size, '\0');
  Slice result;
  s = file->Read(0, size, &result, scratch.data());
  if (s.ok()) out->assign(result.data(), result.size());
  return s;
}

Status WriteStringToFile(Env* env, const std::string& data,
                         const std::string& fname) {
  std::unique_ptr<WritableFile> file;
  Status s = env->NewWritableFile(fname, &file);
  if (s.ok()) s = file->Append(data);
  if (s.ok()) s = file->Close();
  return s;
}

// Forwarding Env that counts NewRandomAccessFile calls per file name; the
// single-flight regression asserts each cold table file is opened once even
// under concurrent readers.
class CountingEnv : public Env {
 public:
  explicit CountingEnv(Env* base) : base_(base) {}

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    return base_->NewSequentialFile(fname, result);
  }
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    {
      std::lock_guard<std::mutex> l(mu_);
      opens_[fname]++;
    }
    return base_->NewRandomAccessFile(fname, result);
  }
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    return base_->NewWritableFile(fname, result);
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  Status CreateDir(const std::string& dirname) override {
    return base_->CreateDir(dirname);
  }
  Status RemoveDir(const std::string& dirname) override {
    return base_->RemoveDir(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    return base_->RenameFile(src, target);
  }
  uint64_t NowMicros() override { return base_->NowMicros(); }

  int MaxTableFileOpens() {
    std::lock_guard<std::mutex> l(mu_);
    int max_opens = 0;
    for (const auto& [fname, count] : opens_) {
      if (fname.size() > 4 &&
          fname.compare(fname.size() - 4, 4, ".ldb") == 0) {
        max_opens = std::max(max_opens, count);
      }
    }
    return max_opens;
  }

  void ResetCounts() {
    std::lock_guard<std::mutex> l(mu_);
    opens_.clear();
  }

 private:
  Env* base_;
  std::mutex mu_;
  std::map<std::string, int> opens_;
};

uint64_t BlockReads(DBImpl* db) {
  return db->statistics() != nullptr ? db->statistics()->Get(kBlockRead) : 0;
}

// Batched and single-key reads must agree per key on the status (errors
// included), the value and where the record was found. With statistics on,
// the batch must also read no more blocks than the Get loop: a run of
// sorted keys reads a block its neighbours share once (the run's
// BlockMemo), where each Get reads it again. The first batch opens every
// table either side probes, so the Get loop and the second batch both
// count block reads against warm tables.
void CheckMultiGetMatchesGet(DBImpl* db,
                             const std::vector<std::string>& key_strs,
                             const ReadOptions& read_options) {
  std::vector<Slice> keys(key_strs.begin(), key_strs.end());
  std::vector<std::string> values;
  std::vector<DBImpl::RecordLocation> locs;
  std::vector<Status> statuses;
  Status s =
      db->MultiGetWithMeta(read_options, keys, &values, &locs, &statuses);
  ASSERT_EQ(keys.size(), values.size());
  ASSERT_EQ(keys.size(), locs.size());
  ASSERT_EQ(keys.size(), statuses.size());
  bool any_error = false;
  const uint64_t get_reads_before = BlockReads(db);
  for (size_t i = 0; i < keys.size(); i++) {
    std::string expected;
    DBImpl::RecordLocation loc;
    Status gs = db->GetWithMeta(read_options, keys[i], &expected, &loc);
    ASSERT_EQ(gs.ToString(), statuses[i].ToString()) << "key " << key_strs[i];
    if (gs.ok()) {
      ASSERT_EQ(expected, values[i]) << "key " << key_strs[i];
    }
    EXPECT_EQ(loc.seq, locs[i].seq) << "key " << key_strs[i];
    EXPECT_EQ(loc.level, locs[i].level) << "key " << key_strs[i];
    any_error |= (!statuses[i].ok() && !statuses[i].IsNotFound());
  }
  ASSERT_EQ(any_error, !s.ok());
  const uint64_t get_reads = BlockReads(db) - get_reads_before;
  db->MultiGetWithMeta(read_options, keys, &values, &locs, &statuses);
  EXPECT_LE(BlockReads(db) - get_reads_before - get_reads, get_reads)
      << "block reads of the batch against the Get loop";
}

}  // namespace

class MultiGetTest : public testing::Test {
 protected:
  MultiGetTest() : env_(NewMemEnv()), dbname_("/multiget_test") {
    filter_policy_.reset(NewBloomFilterPolicy(10));
  }

  ~MultiGetTest() override {
    db_.reset();
    Options options;
    options.env = env_.get();
    DestroyDB(dbname_, options);
  }

  Options BaseOptions() {
    Options options;
    options.env = env_.get();
    options.create_if_missing = true;
    options.write_buffer_size = 64 << 10;  // Small: spread keys over levels
    options.max_file_size = 16 << 10;
    options.max_bytes_for_level_base = 64 << 10;
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

  // Layered fixture: old values compacted to deeper levels, overwrites and
  // deletes in L0, the freshest writes still in the memtable.
  void BuildLayeredDB(int n) {
    for (int i = 0; i < n; i++) {
      ASSERT_TRUE(
          db_->Put(WriteOptions(), Key(i), Value(i, 1)).ok());
    }
    ASSERT_TRUE(db_->CompactAll().ok());  // Everything at the bottom
    for (int i = 0; i < n; i += 3) {
      ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), Value(i, 2)).ok());
    }
    for (int i = 1; i < n; i += 7) {
      ASSERT_TRUE(db_->Delete(WriteOptions(), Key(i)).ok());
    }
    // Force a flush so the overwrites/deletes land in L0, then write a few
    // more that stay in the memtable.
    ASSERT_TRUE(db_->Write(WriteOptions(), nullptr).ok());
    for (int i = 2; i < n; i += 11) {
      ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), Value(i, 3)).ok());
    }
  }

  void CheckMultiGetMatchesGet(
      const std::vector<std::string>& key_strs,
      const ReadOptions& read_options = ReadOptions()) {
    leveldbpp::CheckMultiGetMatchesGet(db_.get(), key_strs, read_options);
  }

  Statistics stats_;
  std::unique_ptr<Env> env_;
  std::string dbname_;
  std::unique_ptr<const FilterPolicy> filter_policy_;
  std::unique_ptr<DBImpl> db_;
};

TEST_F(MultiGetTest, MatchesGetAcrossResidences) {
  const int n = 600;
  for (int parallelism : {0, 2, 4}) {
    Options options = BaseOptions();
    options.read_parallelism = parallelism;
    Open(options);
    BuildLayeredDB(n);

    // All present keys, plus misses, plus duplicates, in scrambled order.
    std::vector<std::string> batch;
    for (int i = n - 1; i >= 0; i--) batch.push_back(Key(i));
    batch.push_back("absent-low");
    batch.push_back("zzz-absent-high");
    batch.push_back(Key(0));   // Duplicate
    batch.push_back(Key(42));  // Duplicate
    CheckMultiGetMatchesGet(batch);

    // A snapshot hides everything written after it, on both paths.
    const Snapshot* snap = db_->GetSnapshot();
    for (int i = 0; i < n; i += 5) {
      ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), Value(i, 4)).ok());
    }
    ReadOptions at_snap;
    at_snap.snapshot = snap;
    CheckMultiGetMatchesGet(batch, at_snap);
    std::string value;
    ASSERT_TRUE(db_->Get(at_snap, Key(5), &value).ok());
    EXPECT_EQ(Value(5, 1), value);
    ASSERT_TRUE(db_->Get(ReadOptions(), Key(5), &value).ok());
    EXPECT_EQ(Value(5, 4), value);
    CheckMultiGetMatchesGet(batch);
    db_->ReleaseSnapshot(snap);

    db_.reset();
    Options destroy;
    destroy.env = env_.get();
    ASSERT_TRUE(DestroyDB(dbname_, destroy).ok());
  }
}

// A stored key whose type byte is not a valid ValueType is corruption on
// every path: Get answers Corruption without consulting older residences,
// and MultiGet must give the same answer at every read_parallelism.
TEST_F(MultiGetTest, UnparseableKeyMatchesGet) {
  for (int parallelism : {0, 2, 4}) {
    Options options = BaseOptions();
    options.read_parallelism = parallelism;
    options.compression = kNoCompression;  // Stored bytes stay findable
    Open(options);
    for (int i = 0; i < 50; i++) {
      ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), Value(i, 1)).ok());
    }
    ASSERT_TRUE(db_->CompactAll().ok());  // The old versions, below L0
    std::set<std::string> old_tables;
    std::vector<std::string> children;
    ASSERT_TRUE(env_->GetChildren(dbname_, &children).ok());
    for (const std::string& f : children) old_tables.insert(f);
    // A single-record L0 table: its key is stored whole, followed by the
    // 8-byte tag whose low byte is the value type.
    const std::string forged = Key(17);
    ASSERT_TRUE(db_->Put(WriteOptions(), forged, Value(17, 2)).ok());
    ASSERT_TRUE(db_->Write(WriteOptions(), nullptr).ok());
    db_.reset();

    ASSERT_TRUE(env_->GetChildren(dbname_, &children).ok());
    int forged_tables = 0;
    for (const std::string& f : children) {
      uint64_t number;
      FileType type;
      if (old_tables.count(f) != 0 || !ParseFileName(f, &number, &type) ||
          type != kTableFile) {
        continue;
      }
      const std::string path = dbname_ + "/" + f;
      std::string contents;
      ASSERT_TRUE(ReadFileToString(env_.get(), path, &contents).ok());
      const size_t pos = contents.find(forged);
      ASSERT_NE(std::string::npos, pos);
      const size_t type_byte = pos + forged.size();
      ASSERT_EQ(static_cast<char>(kTypeValue), contents[type_byte]);
      contents[type_byte] = static_cast<char>(kTypeValue + 5);
      ASSERT_TRUE(WriteStringToFile(env_.get(), contents, path).ok());
      forged_tables++;
    }
    ASSERT_EQ(1, forged_tables);

    Open(options);
    // A later write, so the forged tag (same sequence, larger type) still
    // sorts after the lookup key and the probe lands on it.
    ASSERT_TRUE(db_->Put(WriteOptions(), "later", "x").ok());
    ReadOptions no_checksums;
    no_checksums.verify_checksums = false;
    std::string value;
    EXPECT_TRUE(db_->Get(no_checksums, forged, &value).IsCorruption());
    std::vector<std::string> batch = {Key(3), forged, Key(40), "absent"};
    CheckMultiGetMatchesGet(batch, no_checksums);
    // Lazy's fragment walk settles the key by the same rule.
    EXPECT_TRUE(db_->GetFragments(no_checksums, forged,
                                  [](int, SequenceNumber, bool,
                                     const std::vector<Slice>&) {
                                    return true;
                                  })
                    .IsCorruption());

    db_.reset();
    Options destroy;
    destroy.env = env_.get();
    ASSERT_TRUE(DestroyDB(dbname_, destroy).ok());
  }
}

// A key written into two overlapping L0 files settles in the newer one: a
// one-key batch, like Get, must not read the older file's block too.
TEST_F(MultiGetTest, OneKeyBatchReadsLikeGet) {
  Options options = BaseOptions();
  options.read_parallelism = 0;
  Open(options);
  for (int version : {1, 2}) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(0), Value(0, version)).ok());
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(9), Value(9, version)).ok());
    ASSERT_TRUE(db_->Write(WriteOptions(), nullptr).ok());  // One L0 file
  }
  std::string l0;
  ASSERT_TRUE(db_->GetProperty("leveldbpp.num-files-at-level0", &l0));
  ASSERT_EQ("2", l0);

  std::string value;
  DBImpl::RecordLocation loc;
  ASSERT_TRUE(db_->GetWithMeta(ReadOptions(), Key(0), &value, &loc).ok());
  EXPECT_EQ(Value(0, 2), value);
  const uint64_t before = stats_.Get(kBlockRead);
  ASSERT_TRUE(db_->GetWithMeta(ReadOptions(), Key(0), &value, &loc).ok());
  EXPECT_EQ(1u, stats_.Get(kBlockRead) - before);
  CheckMultiGetMatchesGet({Key(0)});
}

TEST_F(MultiGetTest, RecordsTickers) {
  Options options = BaseOptions();
  options.read_parallelism = 2;
  // The tiny JSON values compress so well that a compacted level can fit in
  // ONE table file. Force several files so the batch really spans several
  // tables.
  options.compression = kNoCompression;
  options.max_file_size = 4 << 10;
  Open(options);
  BuildLayeredDB(600);
  ASSERT_TRUE(db_->CompactAll().ok());

  stats_.Reset();
  // Step across the whole key space so the batch spans several SSTables.
  std::vector<std::string> key_strs;
  for (int i = 0; i < 600; i += 12) key_strs.push_back(Key(i));
  std::vector<Slice> keys(key_strs.begin(), key_strs.end());
  std::vector<std::string> values;
  std::vector<Status> statuses;
  ASSERT_TRUE(db_->MultiGet(ReadOptions(), keys, &values, &statuses).ok());
  EXPECT_EQ(1u, stats_.Get(kMultiGetBatches));
  EXPECT_EQ(key_strs.size(), stats_.Get(kMultiGetKeys));
  // With parallelism 2 the sorted keys are cut into four runs, and at least
  // one of them should have run on a pool worker.
  EXPECT_GT(stats_.Get(kParallelTasks), 0u);
}

TEST_F(MultiGetTest, SequentialModeRunsNoPoolTasks) {
  Options options = BaseOptions();
  options.read_parallelism = 0;
  Open(options);
  BuildLayeredDB(100);

  stats_.Reset();
  std::vector<std::string> key_strs;
  for (int i = 0; i < 50; i++) key_strs.push_back(Key(i));
  std::vector<Slice> keys(key_strs.begin(), key_strs.end());
  std::vector<std::string> values;
  std::vector<Status> statuses;
  ASSERT_TRUE(db_->MultiGet(ReadOptions(), keys, &values, &statuses).ok());
  EXPECT_EQ(0u, stats_.Get(kParallelTasks));
  EXPECT_EQ(0u, stats_.Get(kParallelWaitMicros));
}

TEST_F(MultiGetTest, EmptyBatch) {
  Open(BaseOptions());
  std::vector<Slice> keys;
  std::vector<std::string> values;
  std::vector<Status> statuses;
  ASSERT_TRUE(db_->MultiGet(ReadOptions(), keys, &values, &statuses).ok());
  EXPECT_TRUE(values.empty());
  EXPECT_TRUE(statuses.empty());
}

TEST_F(MultiGetTest, AllMissing) {
  Options options = BaseOptions();
  options.read_parallelism = 4;
  Open(options);
  BuildLayeredDB(50);
  std::vector<std::string> key_strs = {"nope1", "nope2", "nope3"};
  std::vector<Slice> keys(key_strs.begin(), key_strs.end());
  std::vector<std::string> values;
  std::vector<Status> statuses;
  ASSERT_TRUE(db_->MultiGet(ReadOptions(), keys, &values, &statuses).ok());
  for (const Status& s : statuses) EXPECT_TRUE(s.IsNotFound());
}

// Every key of a batch is answered from ONE pinned version + memtable pair:
// a writer racing the batch may or may not be visible, but per key the
// answer must be one of that key's committed values, and keys written
// before the batch started must never regress.
TEST_F(MultiGetTest, ConcurrencyWithWriters) {
  Options options = BaseOptions();
  options.read_parallelism = 4;
  options.background_compaction = true;
  Open(options);

  const int n = 200;
  for (int i = 0; i < n; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), Value(i, 1)).ok());
  }

  std::atomic<bool> stop{false};
  std::thread writer([&]() {
    int version = 2;
    while (!stop.load(std::memory_order_acquire)) {
      for (int i = 0; i < n; i += 5) {
        db_->Put(WriteOptions(), Key(i), Value(i, version));
      }
      version++;
    }
  });

  std::vector<std::string> key_strs;
  for (int i = 0; i < n; i++) key_strs.push_back(Key(i));
  std::vector<Slice> keys(key_strs.begin(), key_strs.end());
  for (int round = 0; round < 50; round++) {
    std::vector<std::string> values;
    std::vector<Status> statuses;
    Status s = db_->MultiGet(ReadOptions(), keys, &values, &statuses);
    ASSERT_TRUE(s.ok()) << s.ToString();
    for (int i = 0; i < n; i++) {
      ASSERT_TRUE(statuses[i].ok()) << statuses[i].ToString();
      // Value must be a committed version of THIS key.
      ASSERT_EQ(0u, values[i].find("{\"Attr\":\""))
          << "key " << i << " value " << values[i];
      char attr[16];
      std::snprintf(attr, sizeof(attr), "%06d", i);
      ASSERT_NE(std::string::npos, values[i].find(attr));
    }
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
}

// Regression: concurrent readers missing on the same cold table file must
// open it exactly once (single-flight), not once per thread.
TEST_F(MultiGetTest, TableCacheSingleFlightOpens) {
  CountingEnv counting_env(env_.get());
  Options options = BaseOptions();
  options.env = &counting_env;
  options.read_parallelism = 0;
  Open(options);

  const int n = 400;
  for (int i = 0; i < n; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), Value(i, 1)).ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());

  // Reopen: fresh TableCache, every table file cold.
  Open(options);
  counting_env.ResetCounts();

  const int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < n; i++) {
        std::string value;
        Status s = db_->Get(ReadOptions(), Key(i), &value);
        if (!s.ok() || value != Value(i, 1)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(0, failures.load());
  EXPECT_EQ(1, counting_env.MaxTableFileOpens());
  db_.reset();  // Must not outlive the stack-scoped env
}

// Every read walks the immutable-memtable queue between the live memtable
// and L0. With the single background lane parked behind a gate, rotations
// queue up: the store below holds versions of the same keys in the live
// memtable, two queued memtables, L0 and a deeper level, and every read
// surface must see them newest first.
TEST(ImmQueueReadTest, ReadsWalkEveryQueuedMemTable) {
  for (int parallelism : {0, 4}) {
    SCOPED_TRACE("read_parallelism=" + std::to_string(parallelism));
    // The gate outlives the lane, whose thread waits on it.
    std::promise<void> gate;
    std::shared_future<void> gate_open = gate.get_future().share();
    std::unique_ptr<Env> base(NewMemEnv());
    DedicatedSchedulerEnv lane(base.get(), 1);
    std::unique_ptr<const FilterPolicy> bloom(NewBloomFilterPolicy(10));
    Options options;
    options.env = &lane;
    options.create_if_missing = true;
    options.write_buffer_size = 16 << 10;
    options.filter_policy = bloom.get();
    options.background_compaction = true;
    options.max_immutable_memtables = 4;
    options.read_parallelism = parallelism;
    DBImpl* raw = nullptr;
    ASSERT_TRUE(DBImpl::Open(options, "/immqueue", &raw).ok());
    std::unique_ptr<DBImpl> db(raw);
    const int n = 200;
    auto put_round = [&](int step, int version) {
      for (int i = 0; i < n; i += step) {
        ASSERT_TRUE(db->Put(WriteOptions(), Key(i), Value(i, version)).ok());
      }
      ASSERT_TRUE(
          db->Put(WriteOptions(), "frag", "v" + std::to_string(version)).ok());
    };

    put_round(1, 1);
    ASSERT_TRUE(db->CompactAll().ok());  // v1: below L0
    put_round(3, 2);
    for (int i = 1; i < n; i += 7) {
      ASSERT_TRUE(db->Delete(WriteOptions(), Key(i)).ok());
    }
    ASSERT_TRUE(db->Write(WriteOptions(), nullptr).ok());  // v2: one L0 file
    ASSERT_TRUE(db->WaitForBackgroundWork().ok());
    std::string l0;
    ASSERT_TRUE(db->GetProperty("leveldbpp.num-files-at-level0", &l0));
    ASSERT_EQ("1", l0);

    // Park the lane; the guard reopens it on every exit path, before the
    // DB (declared earlier) waits for its background work on destruction.
    lane.Schedule(
        [](void* arg) { static_cast<std::shared_future<void>*>(arg)->wait(); },
        &gate_open);
    struct GateGuard {
      std::promise<void>* gate;
      ~GateGuard() { gate->set_value(); }
    } guard{&gate};

    int pad = 0;
    auto fill_until_queued = [&](size_t depth) {
      while (db->GetWriteStallState().imm_queue_depth < depth) {
        ASSERT_LT(pad, 10000) << "memtable never rotated";
        ASSERT_TRUE(db->Put(WriteOptions(), "pad" + std::to_string(pad++),
                            std::string(200, 'p'))
                        .ok());
      }
    };
    put_round(5, 3);  // v3: the older queued memtable
    fill_until_queued(1);
    const Snapshot* snap = db->GetSnapshot();
    put_round(10, 4);  // v4: the newer queued memtable
    fill_until_queued(2);
    put_round(20, 5);  // v5: the live memtable
    ASSERT_EQ(2u, db->GetWriteStallState().imm_queue_depth);

    std::string value;
    DBImpl::RecordLocation loc;
    ASSERT_TRUE(db->GetWithMeta(ReadOptions(), Key(5), &value, &loc).ok());
    EXPECT_EQ(Value(5, 3), value);
    EXPECT_EQ(-2, loc.level);
    ASSERT_TRUE(db->GetWithMeta(ReadOptions(), Key(10), &value, &loc).ok());
    EXPECT_EQ(Value(10, 4), value);
    EXPECT_EQ(-2, loc.level);
    ASSERT_TRUE(db->GetWithMeta(ReadOptions(), Key(20), &value, &loc).ok());
    EXPECT_EQ(-1, loc.level);

    std::vector<std::string> batch;
    for (int i = n - 1; i >= 0; i--) batch.push_back(Key(i));
    batch.push_back("frag");
    batch.push_back("pad0");
    batch.push_back("absent");
    CheckMultiGetMatchesGet(db.get(), batch, ReadOptions());

    // GetFragments: one fragment per residence, ranks newest first (live
    // memtable 0, queued memtables 1 and 2, L0 3, then 3 + level).
    std::vector<int> ranks;
    std::vector<SequenceNumber> seqs;
    std::vector<std::string> frags;
    ASSERT_TRUE(db->GetFragments(ReadOptions(), "frag",
                                 [&](int rank, SequenceNumber seq, bool,
                                     const std::vector<Slice>& versions) {
                                   EXPECT_EQ(1u, versions.size());
                                   ranks.push_back(rank);
                                   seqs.push_back(seq);
                                   frags.push_back(versions[0].ToString());
                                   return true;
                                 })
                    .ok());
    ASSERT_EQ(5u, ranks.size());
    EXPECT_EQ((std::vector<std::string>{"v5", "v4", "v3", "v2", "v1"}), frags);
    EXPECT_EQ(0, ranks[0]);
    EXPECT_EQ(1, ranks[1]);
    EXPECT_EQ(2, ranks[2]);
    EXPECT_EQ(3, ranks[3]);
    EXPECT_GT(ranks[4], 3);
    for (size_t i = 1; i < seqs.size(); i++) EXPECT_GT(seqs[i - 1], seqs[i]);

    // GetLite: only the live memtable's version is the newest; a
    // disk-only key stays newest with the walk bounded by its level.
    ASSERT_TRUE(db->GetWithMeta(ReadOptions(), Key(2), &value, &loc).ok());
    ASSERT_GE(loc.level, 1);
    {
      DBImpl::ReadView view(db.get(), ReadOptions());
      bool newest = false;
      ASSERT_TRUE(db->IsNewestVersion(view, "frag", seqs[0], &newest).ok());
      EXPECT_TRUE(newest);
      for (size_t i = 1; i < seqs.size(); i++) {
        ASSERT_TRUE(db->IsNewestVersion(view, "frag", seqs[i], &newest).ok());
        EXPECT_FALSE(newest) << "fragment " << frags[i];
      }
      ASSERT_TRUE(
          db->IsNewestVersion(view, "frag", seqs[4], &newest, ranks[4] - 3)
              .ok());
      EXPECT_FALSE(newest);
      ASSERT_TRUE(
          db->IsNewestVersion(view, Key(2), loc.seq, &newest, loc.level).ok());
      EXPECT_TRUE(newest);
    }

    DBImpl::LevelIterators levels;
    ASSERT_TRUE(db->NewLevelIterators(ReadOptions(), &levels).ok());
    EXPECT_EQ(3u, levels.first_disk);
    EXPECT_EQ(5u, levels.iters.size());  // + the L0 file + one level

    // The snapshot predates the newer queued memtable and the live one.
    ReadOptions at_snap;
    at_snap.snapshot = snap;
    ASSERT_TRUE(db->Get(at_snap, Key(10), &value).ok());
    EXPECT_EQ(Value(10, 3), value);
    ASSERT_TRUE(db->Get(at_snap, "frag", &value).ok());
    EXPECT_EQ("v3", value);
    CheckMultiGetMatchesGet(db.get(), batch, at_snap);
    db->ReleaseSnapshot(snap);
  }
}

}  // namespace leveldbpp
