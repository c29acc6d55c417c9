// Corruption survival: seeded bit-flips against every file a store owns
// (data / filter / zone-map / index blocks, MANIFEST, CURRENT, WAL tail)
// must quarantine-and-degrade — never return garbage — and the
// RepairDB -> reopen -> RebuildIndex -> VerifyIndexConsistency drill must
// bring every index variant back to a state whose query answers are exactly
// derivable from the salvaged primary table. Also covers sticky background
// errors: a transient IOError clears with an explicit Resume(), corruption
// stays sticky.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "crash_harness.h"
#include "db/db_impl.h"
#include "db/filename.h"
#include "env/env.h"
#include "env/fault_injection_env.h"
#include "env/statistics.h"
#include "json/json.h"
#include "table/block.h"
#include "table/format.h"
#include "util/comparator.h"

namespace leveldbpp {
namespace {

std::string NumKey(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "key%06d", i);
  return buf;
}

std::vector<std::string> FilesOfType(Env* env, const std::string& dir,
                                     FileType want) {
  std::vector<std::string> out;
  std::vector<std::string> children;
  if (!env->GetChildren(dir, &children).ok()) return out;
  for (const std::string& f : children) {
    uint64_t number;
    FileType type;
    if (ParseFileName(f, &number, &type) && type == want) {
      out.push_back(dir + "/" + f);
    }
  }
  std::sort(out.begin(), out.end());  // Zero-padded names: numeric order
  return out;
}

void CorruptMiddle(FaultInjectionEnv* env, const std::string& path,
                   size_t nbytes = 16) {
  uint64_t size = 0;
  ASSERT_TRUE(env->GetFileSize(path, &size).ok()) << path;
  ASSERT_GT(size, 0u) << path;
  ASSERT_TRUE(env->CorruptFile(path, size / 2, nbytes).ok()) << path;
}

// Where each region of an SSTable lives, recovered from its own footer:
// lets a test flip bits in exactly the block kind it is targeting.
struct TableLayout {
  uint64_t file_size = 0;
  BlockHandle metaindex;
  BlockHandle index;
  std::map<std::string, BlockHandle> meta_blocks;  // metaindex name -> handle
};

Status ReadLayout(Env* env, const std::string& fname, TableLayout* out) {
  Status s = env->GetFileSize(fname, &out->file_size);
  std::unique_ptr<RandomAccessFile> file;
  if (s.ok()) s = env->NewRandomAccessFile(fname, &file);
  if (!s.ok()) return s;
  if (out->file_size < Footer::kEncodedLength) {
    return Status::Corruption(fname, "file too short for a footer");
  }
  char scratch[Footer::kEncodedLength];
  Slice footer_input;
  s = file->Read(out->file_size - Footer::kEncodedLength,
                 Footer::kEncodedLength, &footer_input, scratch);
  if (!s.ok()) return s;
  Footer footer;
  s = footer.DecodeFrom(&footer_input);
  if (!s.ok()) return s;
  out->metaindex = footer.metaindex_handle();
  out->index = footer.index_handle();
  BlockBuffer buf;
  BlockContents contents;
  s = ReadBlock(file.get(), /*verify_checksums=*/true,
                footer.metaindex_handle(), &buf, &contents, nullptr);
  if (!s.ok()) return s;
  Block block(contents);  // Over buf's contents, which outlive it
  std::unique_ptr<Iterator> it(block.NewIterator(BytewiseComparator()));
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    Slice v = it->value();
    BlockHandle h;
    if (h.DecodeFrom(&v).ok()) {
      out->meta_blocks[it->key().ToString()] = h;
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Engine-level (DBImpl): quarantine fallthrough, RepairDB, Resume, retries.
// ---------------------------------------------------------------------------

class RepairEngineTest : public testing::Test {
 protected:
  static constexpr const char* kName = "/repair-db";

  RepairEngineTest() : base_(NewMemEnv()), env_(base_.get()) {}

  Options MakeOptions(bool paranoid = false) {
    Options options;
    options.env = &env_;
    options.write_buffer_size = 64 << 10;
    options.paranoid_checks = paranoid;
    options.statistics = &stats_;
    return options;
  }

  void Open(bool paranoid = false) {
    DBImpl* raw = nullptr;
    ASSERT_TRUE(DBImpl::Open(MakeOptions(paranoid), kName, &raw).ok());
    db_.reset(raw);
  }
  void Close() { db_.reset(); }

  static std::string Value(int i, char tag) {
    return "value-" + std::string(1, tag) + "-" + std::to_string(i) +
           std::string(120, tag);
  }

  void Build(int n, char tag) {
    for (int i = 0; i < n; i++) {
      ASSERT_TRUE(db_->Put(WriteOptions(), NumKey(i), Value(i, tag)).ok());
    }
    ASSERT_TRUE(db_->CompactAll().ok());
  }

  std::unique_ptr<Env> base_;
  FaultInjectionEnv env_;
  Statistics stats_;
  std::unique_ptr<DBImpl> db_;
};

TEST_F(RepairEngineTest, QuarantinedBlockFallsThroughToOlderVersion) {
  const int kNum = 60;
  Open();
  Build(kNum, 'a');  // v1, fully compacted below L0
  Close();
  auto old_tables = FilesOfType(&env_, kName, kTableFile);
  ASSERT_FALSE(old_tables.empty());

  Open();
  for (int i = 0; i < kNum; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), NumKey(i), Value(i, 'b')).ok());
  }
  Close();  // v2 lives only in the WAL...
  Open();   // ...until replay flushes it into a fresh L0 table
  Close();

  // Corrupt every data (and filter) block of the new tables, leaving the
  // index block and footer intact so the tables still open.
  std::set<std::string> old_set(old_tables.begin(), old_tables.end());
  int corrupted = 0;
  for (const std::string& path : FilesOfType(&env_, kName, kTableFile)) {
    if (old_set.count(path)) continue;
    TableLayout layout;
    ASSERT_TRUE(ReadLayout(&env_, path, &layout).ok()) << path;
    ASSERT_GT(layout.metaindex.offset(), 0u);
    ASSERT_TRUE(env_.CorruptFile(path, 0, layout.metaindex.offset()).ok());
    corrupted++;
  }
  ASSERT_GT(corrupted, 0) << "the v2 flush never produced a table";

  Open();
  for (int i = 0; i < kNum; i++) {
    std::string value;
    Status s = db_->Get(ReadOptions(), NumKey(i), &value);
    ASSERT_TRUE(s.ok()) << NumKey(i) << ": " << s.ToString();
    EXPECT_EQ(Value(i, 'a'), value)
        << NumKey(i) << " did not fall through to the older version";
  }
  EXPECT_GT(stats_.Get(kCorruptionBlocksDetected), 0u);
  EXPECT_GT(stats_.Get(kCorruptionBlocksQuarantined), 0u);
  std::string prop;
  ASSERT_TRUE(db_->GetProperty("leveldbpp.quarantine", &prop));
  EXPECT_FALSE(prop.empty());
  ASSERT_TRUE(db_->GetProperty("leveldbpp.stats", &prop));
  EXPECT_NE(std::string::npos, prop.find("quarantined blocks"));
  Close();

  // Paranoid mode keeps fail-fast semantics: the same damage surfaces.
  Open(/*paranoid=*/true);
  std::string value;
  EXPECT_TRUE(db_->Get(ReadOptions(), NumKey(0), &value).IsCorruption());
}

TEST_F(RepairEngineTest, RepairDBRecoversAllDataAfterManifestCorruption) {
  const int kNum = 300;
  Open();
  Build(kNum, 'a');
  Close();

  auto manifests = FilesOfType(&env_, kName, kDescriptorFile);
  ASSERT_FALSE(manifests.empty());
  for (const std::string& m : manifests) CorruptMiddle(&env_, m);

  Options no_create = MakeOptions();
  no_create.create_if_missing = false;
  DBImpl* raw = nullptr;
  ASSERT_FALSE(DBImpl::Open(no_create, kName, &raw).ok());
  ASSERT_EQ(nullptr, raw);

  ASSERT_TRUE(RepairDB(kName, MakeOptions()).ok());
  EXPECT_GT(stats_.Get(kRepairTablesSalvaged), 0u);
  EXPECT_EQ(0u, stats_.Get(kRepairTablesDropped));

  // Only metadata was damaged: the rebuilt store must hold every record.
  Open();
  for (int i = 0; i < kNum; i++) {
    std::string value;
    ASSERT_TRUE(db_->Get(ReadOptions(), NumKey(i), &value).ok()) << NumKey(i);
    EXPECT_EQ(Value(i, 'a'), value);
  }
}

TEST_F(RepairEngineTest, RepairDBRebuildsCurrentPointer) {
  const int kNum = 100;
  Open();
  Build(kNum, 'a');
  Close();

  ASSERT_TRUE(env_.RemoveFile(std::string(kName) + "/CURRENT").ok());
  Options no_create = MakeOptions();
  no_create.create_if_missing = false;
  DBImpl* raw = nullptr;
  ASSERT_FALSE(DBImpl::Open(no_create, kName, &raw).ok());

  ASSERT_TRUE(RepairDB(kName, MakeOptions()).ok());
  Open();
  for (int i = 0; i < kNum; i++) {
    std::string value;
    ASSERT_TRUE(db_->Get(ReadOptions(), NumKey(i), &value).ok()) << NumKey(i);
    EXPECT_EQ(Value(i, 'a'), value);
  }
}

TEST_F(RepairEngineTest, RepairDBDropsCorruptBlocksWithoutGarbage) {
  const int kNum = 500;
  Open();
  Build(kNum, 'a');
  Close();

  auto tables = FilesOfType(&env_, kName, kTableFile);
  ASSERT_FALSE(tables.empty());
  for (const std::string& t : tables) CorruptMiddle(&env_, t);

  ASSERT_TRUE(RepairDB(kName, MakeOptions()).ok());
  EXPECT_GT(stats_.Get(kRepairTablesSalvaged), 0u);

  Open();
  int missing = 0;
  for (int i = 0; i < kNum; i++) {
    std::string value;
    Status s = db_->Get(ReadOptions(), NumKey(i), &value);
    if (s.IsNotFound()) {
      missing++;
      continue;
    }
    ASSERT_TRUE(s.ok()) << NumKey(i) << ": " << s.ToString();
    ASSERT_EQ(Value(i, 'a'), value)
        << "silent wrong answer for " << NumKey(i);
  }
  EXPECT_GT(missing, 0) << "the corrupt block's records cannot survive";
  EXPECT_LT(missing, kNum) << "intact blocks must survive the rewrite";

  // Damaged originals are archived under lost/, never silently binned.
  auto lost = FilesOfType(&env_, std::string(kName) + "/lost", kTableFile);
  EXPECT_FALSE(lost.empty());

  // Salvage counts surface through the standard stats property.
  std::string prop;
  ASSERT_TRUE(db_->GetProperty("leveldbpp.stats", &prop));
  EXPECT_NE(std::string::npos, prop.find("repair.tables.salvaged"));
}

TEST_F(RepairEngineTest, RepairDBSalvagesWalPrefixAfterTornTail) {
  const int kNum = 50;
  Open();
  for (int i = 0; i < kNum; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), NumKey(i), Value(i, 'w')).ok());
  }
  Close();  // Everything lives only in the WAL.

  auto logs = FilesOfType(&env_, kName, kLogFile);
  ASSERT_EQ(1u, logs.size());
  uint64_t size = 0;
  ASSERT_TRUE(env_.GetFileSize(logs[0], &size).ok());
  ASSERT_GT(size, 32u);
  ASSERT_TRUE(env_.CorruptFile(logs[0], size - 24, 24).ok());

  ASSERT_TRUE(RepairDB(kName, MakeOptions()).ok());
  EXPECT_GT(stats_.Get(kRepairTablesSalvaged), 0u);

  Open();
  // The flipped bytes land inside the final record only: every earlier
  // acknowledged write survives, the torn one is dropped, nothing is mixed.
  for (int i = 0; i < kNum - 1; i++) {
    std::string value;
    ASSERT_TRUE(db_->Get(ReadOptions(), NumKey(i), &value).ok()) << NumKey(i);
    EXPECT_EQ(Value(i, 'w'), value);
  }
  std::string value;
  EXPECT_TRUE(db_->Get(ReadOptions(), NumKey(kNum - 1), &value).IsNotFound());

  // A WAL that lost bytes is archived for forensics, not deleted.
  auto lost_logs = FilesOfType(&env_, std::string(kName) + "/lost", kLogFile);
  EXPECT_FALSE(lost_logs.empty());
}

TEST_F(RepairEngineTest, ResumeClearsTransientBackgroundError) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), NumKey(0), Value(0, 'a')).ok());

  // Allow one more file creation (the WAL rotation), then fail the flush's
  // table build with a sticky IOError.
  env_.FailAfter(1, FaultInjectionEnv::kOpNewWritable);
  Status s;
  int failed_at = 0;
  for (int i = 1; i < 2000 && s.ok(); i++) {
    s = db_->Put(WriteOptions(), NumKey(i), Value(i, 'a'));
    failed_at = i;
  }
  ASSERT_FALSE(s.ok()) << "the flush never failed";
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  // The error is sticky: nothing is accepted until recovery.
  EXPECT_FALSE(db_->Put(WriteOptions(), NumKey(0), Value(0, 'x')).ok());

  // With the fault still armed, Resume's own flush fails and re-records.
  EXPECT_FALSE(db_->Resume().ok());
  EXPECT_FALSE(db_->Put(WriteOptions(), NumKey(0), Value(0, 'x')).ok());

  env_.ClearFaults();
  ASSERT_TRUE(db_->Resume().ok());
  EXPECT_GT(stats_.Get(kBgErrorAutorecovered), 0u);

  // Every write acknowledged before the fault is still there, and the
  // store accepts new writes again.
  for (int i = 0; i < failed_at; i++) {
    std::string value;
    ASSERT_TRUE(db_->Get(ReadOptions(), NumKey(i), &value).ok()) << NumKey(i);
    EXPECT_EQ(Value(i, 'a'), value);
  }
  ASSERT_TRUE(db_->Put(WriteOptions(), NumKey(9999), Value(9999, 'z')).ok());
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), NumKey(9999), &value).ok());
  EXPECT_EQ(Value(9999, 'z'), value);
}

TEST_F(RepairEngineTest, ResumeRefusesPermanentCorruption) {
  const int kNum = 300;
  Open();
  Build(kNum, 'a');
  Close();
  for (const std::string& t : FilesOfType(&env_, kName, kTableFile)) {
    CorruptMiddle(&env_, t);
  }

  Open();
  // Overlap the damaged tables so the forced merge must read them.
  ASSERT_TRUE(
      db_->Put(WriteOptions(), NumKey(kNum / 2), Value(kNum / 2, 'b')).ok());
  Status s = db_->CompactAll();
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();

  // Permanent damage: Resume refuses and the error stays sticky — RepairDB
  // is the only way out.
  Status r = db_->Resume();
  EXPECT_TRUE(r.IsCorruption()) << r.ToString();
  EXPECT_FALSE(db_->Put(WriteOptions(), NumKey(0), Value(0, 'x')).ok());
  EXPECT_EQ(0u, stats_.Get(kBgErrorAutorecovered));
}

// Engine events that once went to registered listeners and are now read
// from the DB's own state and tickers: a background error is visible in
// GetWriteStallState() until Resume clears it, and a quarantined block is
// counted once however often it is re-read.
class EventListenerTest : public RepairEngineTest {};

TEST_F(EventListenerTest, BackgroundErrorEventFires) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), NumKey(0), Value(0, 'a')).ok());
  EXPECT_TRUE(db_->GetWriteStallState().bg_error.ok());

  // Allow the WAL rotation, then fail the flush's table build.
  env_.FailAfter(1, FaultInjectionEnv::kOpNewWritable);
  Status s;
  for (int i = 1; i < 2000 && s.ok(); i++) {
    s = db_->Put(WriteOptions(), NumKey(i), Value(i, 'a'));
  }
  ASSERT_FALSE(s.ok()) << "the flush never failed";
  Status bg = db_->GetWriteStallState().bg_error;
  EXPECT_TRUE(bg.IsIOError()) << bg.ToString();

  // After recovery the error is cleared and new writes record none.
  env_.ClearFaults();
  ASSERT_TRUE(db_->Resume().ok());
  EXPECT_EQ(1u, stats_.Get(kBgErrorAutorecovered));
  EXPECT_TRUE(db_->GetWriteStallState().bg_error.ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), NumKey(0), Value(0, 'z')).ok());
  EXPECT_TRUE(db_->GetWriteStallState().bg_error.ok());
}

TEST_F(EventListenerTest, BlockQuarantinedFiresOncePerDistinctBlock) {
  const int kNum = 60;
  Open();
  Build(kNum, 'a');  // v1, fully compacted below L0
  Close();
  auto old_tables = FilesOfType(&env_, kName, kTableFile);
  ASSERT_FALSE(old_tables.empty());

  Open();
  for (int i = 0; i < kNum; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), NumKey(i), Value(i, 'b')).ok());
  }
  Close();  // v2 lives only in the WAL...
  Open();   // ...until replay flushes it into a fresh L0 table
  Close();

  // Corrupt the data blocks of the new tables; index block + footer stay
  // intact so the tables still open and reads quarantine block by block.
  std::set<std::string> old_set(old_tables.begin(), old_tables.end());
  int corrupted = 0;
  for (const std::string& path : FilesOfType(&env_, kName, kTableFile)) {
    if (old_set.count(path)) continue;
    TableLayout layout;
    ASSERT_TRUE(ReadLayout(&env_, path, &layout).ok()) << path;
    ASSERT_GT(layout.metaindex.offset(), 0u);
    ASSERT_TRUE(env_.CorruptFile(path, 0, layout.metaindex.offset()).ok());
    corrupted++;
  }
  ASSERT_GT(corrupted, 0) << "the v2 flush never produced a table";

  const uint64_t quarantined_before = stats_.Get(kCorruptionBlocksQuarantined);
  Open();
  for (int i = 0; i < kNum; i++) {
    std::string value;
    ASSERT_TRUE(db_->Get(ReadOptions(), NumKey(i), &value).ok()) << NumKey(i);
    EXPECT_EQ(Value(i, 'a'), value);  // Fell through to the older version
  }
  const uint64_t newly_quarantined =
      stats_.Get(kCorruptionBlocksQuarantined) - quarantined_before;
  EXPECT_GT(newly_quarantined, 0u);

  // Re-reading the already-quarantined blocks counts nothing more, and the
  // ticker equals the registry's distinct-block count.
  for (int i = 0; i < kNum; i++) {
    std::string value;
    ASSERT_TRUE(db_->Get(ReadOptions(), NumKey(i), &value).ok()) << NumKey(i);
    EXPECT_EQ(Value(i, 'a'), value);
  }
  EXPECT_EQ(newly_quarantined,
            stats_.Get(kCorruptionBlocksQuarantined) - quarantined_before);
  std::string json;
  ASSERT_TRUE(db_->GetProperty("leveldbpp.stats.json", &json));
  json::Value stats_json;
  ASSERT_TRUE(json::Parse(Slice(json), &stats_json)) << json;
  EXPECT_EQ(static_cast<int64_t>(newly_quarantined),
            stats_json["quarantine"]["blocks"].as_int());
}

// ---------------------------------------------------------------------------
// SecondaryDB matrix: each corruption target x all five index variants, with
// the golden-model repair drill: corrupt -> Repair -> reopen -> RebuildIndex
// -> VerifyIndexConsistency -> answers derivable from the salvaged primary.
// ---------------------------------------------------------------------------

std::vector<crash::Op> MakeWorkload() {
  std::vector<crash::Op> ops;
  const int kUsers = 7;
  for (int i = 0; i < 140; i++) {
    ops.push_back(
        crash::PutOp(NumKey(i), "user" + std::to_string(i % kUsers), 1000 + i));
  }
  for (int i = 0; i < 140; i += 9) {  // Overwrites that move the record's user
    ops.push_back(crash::PutOp(
        NumKey(i), "user" + std::to_string((i + 1) % kUsers), 2000 + i));
  }
  for (int i = 3; i < 140; i += 17) {
    ops.push_back(crash::DeleteOp(NumKey(i)));
  }
  return ops;
}

void CollectKeysUsers(const std::vector<crash::Op>& ops,
                      std::set<std::string>* keys,
                      std::set<std::string>* users) {
  for (const crash::Op& op : ops) {
    keys->insert(op.key);
    if (op.kind == crash::Op::kPut) users->insert(op.user);
  }
}

// Every key must hold its golden value or nothing. Returns how many of the
// model's records are gone (dropped with a corrupt block) — wrong answers
// fail immediately.
size_t NoGarbageCount(SecondaryDB* db, const std::set<std::string>& keys,
                      const crash::Model& model) {
  size_t missing = 0;
  for (const std::string& key : keys) {
    std::string value;
    Status s = db->Get(key, &value);
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_TRUE(s.IsNotFound()) << key << ": " << s.ToString();
      continue;
    }
    if (s.IsNotFound()) {
      missing++;
      continue;
    }
    EXPECT_TRUE(s.ok()) << key << ": " << s.ToString();
    EXPECT_EQ(it->second, value) << "silent wrong answer for " << key;
  }
  return missing;
}

class SecondaryRepairTest : public testing::TestWithParam<IndexType> {
 protected:
  static constexpr const char* kPath = "/store";

  SecondaryRepairTest() : base_(NewMemEnv()), env_(base_.get()) {}

  std::string PrimaryDir() const { return std::string(kPath) + "/primary"; }

  SecondaryDBOptions MakeOptions() {
    SecondaryDBOptions options = crash::MakeCrashOptions(&env_, GetParam());
    options.base.statistics = &stats_;
    // The all-'p' padding compresses to nothing, which would collapse the
    // store into one tiny table; stored size must track record count so
    // compactions split at max_file_size and corruption stays partial.
    options.base.compression = kNoCompression;
    return options;
  }

  bool Standalone() const {
    return GetParam() == IndexType::kLazy || GetParam() == IndexType::kEager ||
           GetParam() == IndexType::kComposite;
  }

  // Build + compact the whole workload; `tail` (if any) is applied after the
  // compaction so it lives only in the primary WAL at close.
  void BuildStore(const std::vector<crash::Op>& ops, crash::Model* model,
                  const std::vector<crash::Op>& tail = {},
                  crash::Model* tail_model = nullptr) {
    std::unique_ptr<SecondaryDB> db;
    ASSERT_TRUE(SecondaryDB::Open(MakeOptions(), kPath, &db).ok());
    bool hit_error = false;
    // Two compacted batches: the second CompactAll is a real overlapping
    // merge whose output splits at max_file_size, so the store holds
    // several tables and single-table corruption is a partial loss.
    const size_t half = ops.size() / 2;
    std::vector<crash::Op> first(ops.begin(), ops.begin() + half);
    std::vector<crash::Op> second(ops.begin() + half, ops.end());
    crash::ApplyOps(db.get(), first, model, &hit_error);
    ASSERT_FALSE(hit_error);
    ASSERT_TRUE(db->CompactAll().ok());
    crash::ApplyOps(db.get(), second, model, &hit_error);
    ASSERT_FALSE(hit_error);
    ASSERT_TRUE(db->CompactAll().ok());
    if (!tail.empty()) {
      crash::ApplyOps(db.get(), tail, tail_model, &hit_error);
      ASSERT_FALSE(hit_error);
    }
  }

  // The Repair -> reopen -> RebuildIndex -> VerifyIndexConsistency drill.
  void RepairAndReopen(std::unique_ptr<SecondaryDB>* db) {
    ASSERT_TRUE(SecondaryDB::Repair(MakeOptions(), kPath).ok());
    ASSERT_TRUE(SecondaryDB::Open(MakeOptions(), kPath, db).ok());
    ASSERT_TRUE((*db)->RebuildIndex().ok());
    ASSERT_TRUE((*db)->VerifyIndexConsistency().ok());
    if (Standalone()) {
      EXPECT_GT(stats_.Get(kIndexRebuildEntries), 0u);
    }
  }

  std::unique_ptr<Env> base_;
  FaultInjectionEnv env_;
  Statistics stats_;
};

TEST_P(SecondaryRepairTest, DataBlockCorruptionQuarantinesThenRepairs) {
  auto ops = MakeWorkload();
  crash::Model model;
  BuildStore(ops, &model);

  auto tables = FilesOfType(&env_, PrimaryDir(), kTableFile);
  ASSERT_FALSE(tables.empty());
  CorruptMiddle(&env_, tables[0]);

  std::set<std::string> keys, users;
  CollectKeysUsers(ops, &keys, &users);

  {
    // Pre-repair: the store still opens; the damaged block quarantines and
    // queries degrade to missing data, never wrong data.
    std::unique_ptr<SecondaryDB> db;
    ASSERT_TRUE(SecondaryDB::Open(MakeOptions(), kPath, &db).ok());
    NoGarbageCount(db.get(), keys, model);
    EXPECT_GT(stats_.Get(kCorruptionBlocksDetected), 0u);
    EXPECT_GT(stats_.Get(kCorruptionBlocksQuarantined), 0u);
    std::string prop;
    ASSERT_TRUE(db->primary()->GetProperty("leveldbpp.quarantine", &prop));
    EXPECT_FALSE(prop.empty());
    // Secondary lookups may shrink but every result must match the model.
    std::vector<QueryResult> results;
    for (const std::string& u : users) {
      ASSERT_TRUE(db->Lookup("UserID", u, 0, &results).ok()) << u;
      for (const QueryResult& r : results) {
        auto it = model.find(r.primary_key);
        ASSERT_TRUE(it != model.end()) << r.primary_key;
        EXPECT_EQ(it->second, r.value) << r.primary_key;
      }
    }
  }

  std::unique_ptr<SecondaryDB> db;
  RepairAndReopen(&db);
  EXPECT_GT(stats_.Get(kRepairTablesSalvaged), 0u);

  size_t missing = NoGarbageCount(db.get(), keys, model);
  EXPECT_GT(missing, 0u) << "the corrupt block's records cannot survive";
  EXPECT_LT(missing, model.size()) << "intact blocks must survive";
  crash::VerifyIndexesMatchPrimary(db.get(), keys, users, "post-repair");

  std::string prop;
  ASSERT_TRUE(db->primary()->GetProperty("leveldbpp.stats", &prop));
  EXPECT_NE(std::string::npos, prop.find("repair.tables.salvaged"));
}

TEST_P(SecondaryRepairTest, ManifestCorruptionRepairsToFullGolden) {
  auto ops = MakeWorkload();
  crash::Model model;
  BuildStore(ops, &model);

  auto manifests = FilesOfType(&env_, PrimaryDir(), kDescriptorFile);
  ASSERT_FALSE(manifests.empty());
  // Stomp each manifest's HEAD: the log reader can resync past a damaged
  // middle record (losing one edit), but the opening snapshot record is
  // unskippable, so recovery deterministically fails for every variant.
  for (const std::string& m : manifests) {
    ASSERT_TRUE(env_.CorruptFile(m, 0, 512).ok()) << m;
  }

  {
    std::unique_ptr<SecondaryDB> db;
    ASSERT_FALSE(SecondaryDB::Open(MakeOptions(), kPath, &db).ok());
  }

  std::unique_ptr<SecondaryDB> db;
  RepairAndReopen(&db);
  EXPECT_GT(stats_.Get(kRepairTablesSalvaged), 0u);
  EXPECT_EQ(0u, stats_.Get(kRepairTablesDropped));
  // Only metadata was damaged: the drill must restore the exact model.
  crash::VerifyRecovered(db.get(), ops, model, nullptr, "manifest-repair");
}

TEST_P(SecondaryRepairTest, CurrentCorruptionRepairsToFullGolden) {
  auto ops = MakeWorkload();
  crash::Model model;
  BuildStore(ops, &model);

  const std::string current = PrimaryDir() + "/CURRENT";
  uint64_t size = 0;
  ASSERT_TRUE(env_.GetFileSize(current, &size).ok());
  ASSERT_TRUE(env_.CorruptFile(current, 0, size).ok());

  {
    std::unique_ptr<SecondaryDB> db;
    ASSERT_FALSE(SecondaryDB::Open(MakeOptions(), kPath, &db).ok());
  }

  std::unique_ptr<SecondaryDB> db;
  RepairAndReopen(&db);
  crash::VerifyRecovered(db.get(), ops, model, nullptr, "current-repair");
}

TEST_P(SecondaryRepairTest, WalTailCorruptionSalvagesThePrefix) {
  auto ops = MakeWorkload();
  std::vector<crash::Op> tail;
  for (int i = 0; i < 10; i++) {  // Fresh keys: their pre-state is "absent"
    tail.push_back(
        crash::PutOp(NumKey(9000 + i), "user" + std::to_string(i % 7),
                     5000 + i));
  }
  crash::Model model, tail_model;
  BuildStore(ops, &model, tail, &tail_model);

  auto logs = FilesOfType(&env_, PrimaryDir(), kLogFile);
  ASSERT_FALSE(logs.empty());
  const std::string& wal = logs.back();  // Highest number = live WAL
  uint64_t size = 0;
  ASSERT_TRUE(env_.GetFileSize(wal, &size).ok());
  ASSERT_GT(size, 32u);
  ASSERT_TRUE(env_.CorruptFile(wal, size - 24, 24).ok());

  std::unique_ptr<SecondaryDB> db;
  RepairAndReopen(&db);
  EXPECT_GT(stats_.Get(kRepairTablesSalvaged), 0u);

  // Pre-tail state is fully captured in tables: exact golden.
  std::set<std::string> keys, users;
  CollectKeysUsers(ops, &keys, &users);
  EXPECT_EQ(0u, NoGarbageCount(db.get(), keys, model));

  // Tail ops lived only in the WAL; the torn final record is dropped, every
  // earlier one survives, and none may come back mangled.
  size_t tail_missing = 0;
  for (const auto& [key, doc] : tail_model) {
    std::string value;
    Status s = db->Get(key, &value);
    if (s.IsNotFound()) {
      tail_missing++;
      continue;
    }
    ASSERT_TRUE(s.ok()) << key << ": " << s.ToString();
    EXPECT_EQ(doc, value) << key;
  }
  EXPECT_GT(tail_missing, 0u) << "the torn record cannot survive";
  EXPECT_LT(tail_missing, tail_model.size()) << "the prefix must survive";

  std::set<std::string> all_keys = keys, all_users = users;
  CollectKeysUsers(tail, &all_keys, &all_users);
  crash::VerifyIndexesMatchPrimary(db.get(), all_keys, all_users, "wal-tail");
}

TEST_P(SecondaryRepairTest, IndexBlockCorruptionDropsTheTable) {
  auto ops = MakeWorkload();
  crash::Model model;
  BuildStore(ops, &model);

  auto tables = FilesOfType(&env_, PrimaryDir(), kTableFile);
  // Dropping one whole table must be a PARTIAL loss for this test to mean
  // anything, so the store must span several tables.
  ASSERT_GE(tables.size(), 2u);
  TableLayout layout;
  ASSERT_TRUE(ReadLayout(&env_, tables[0], &layout).ok());
  ASSERT_TRUE(
      env_.CorruptFile(tables[0], layout.index.offset(),
                       std::min<uint64_t>(layout.index.size(), 32))
          .ok());

  std::set<std::string> keys, users;
  CollectKeysUsers(ops, &keys, &users);

  {
    // The table no longer opens at all; non-paranoid point reads route
    // around the whole file — degrading to missing, never to garbage.
    std::unique_ptr<SecondaryDB> db;
    ASSERT_TRUE(SecondaryDB::Open(MakeOptions(), kPath, &db).ok());
    size_t missing = NoGarbageCount(db.get(), keys, model);
    EXPECT_GT(missing, 0u);
  }

  std::unique_ptr<SecondaryDB> db;
  RepairAndReopen(&db);
  // An unopenable table cannot be block-salvaged: it is dropped whole (and
  // archived), while the other tables survive.
  EXPECT_GT(stats_.Get(kRepairTablesDropped), 0u);
  size_t missing = NoGarbageCount(db.get(), keys, model);
  EXPECT_GT(missing, 0u);
  EXPECT_LT(missing, model.size());
  crash::VerifyIndexesMatchPrimary(db.get(), keys, users, "index-block");

  auto lost = FilesOfType(&env_, PrimaryDir() + "/lost", kTableFile);
  EXPECT_FALSE(lost.empty());
}

TEST_P(SecondaryRepairTest, MetaBlockCorruptionFailsOpenNotWrong) {
  if (GetParam() != IndexType::kEmbedded) {
    GTEST_SKIP() << "zone maps / secondary filters are Embedded-only";
  }
  auto ops = MakeWorkload();
  crash::Model model;
  BuildStore(ops, &model);

  // Flip bits in every zone-map and secondary-filter meta block. Meta reads
  // verify their checksums and fail OPEN (no pruning, no filtering) rather
  // than trusting garbage that could wrongly rule blocks out.
  int corrupted = 0;
  for (const std::string& path : FilesOfType(&env_, PrimaryDir(), kTableFile)) {
    TableLayout layout;
    ASSERT_TRUE(ReadLayout(&env_, path, &layout).ok()) << path;
    for (const auto& [name, handle] : layout.meta_blocks) {
      if (name == "zonemaps" || name.rfind("secfilter.", 0) == 0) {
        ASSERT_TRUE(env_.CorruptFile(path, handle.offset(),
                                     std::min<uint64_t>(handle.size(), 16))
                        .ok());
        corrupted++;
      }
    }
  }
  ASSERT_GT(corrupted, 0) << "embedded tables must carry meta blocks";

  // No data block was touched: every query stays exactly correct, the
  // engine just loses its pruning accelerators for the damaged tables.
  std::unique_ptr<SecondaryDB> db;
  ASSERT_TRUE(SecondaryDB::Open(MakeOptions(), kPath, &db).ok());
  crash::VerifyRecovered(db.get(), ops, model, nullptr, "meta-fail-open");
}

TEST_P(SecondaryRepairTest, ParanoidLookupSurfacesPrimaryCorruption) {
  auto ops = MakeWorkload();
  crash::Model model;
  BuildStore(ops, &model);

  // Damage every data block of every primary table (footer, index and
  // metaindex stay intact, so the tables still open): whichever record a
  // lookup touches, its read fails the checksum.
  int corrupted = 0;
  for (const std::string& path : FilesOfType(&env_, PrimaryDir(), kTableFile)) {
    TableLayout layout;
    ASSERT_TRUE(ReadLayout(&env_, path, &layout).ok()) << path;
    ASSERT_TRUE(env_.CorruptFile(path, 0, layout.metaindex.offset()).ok());
    corrupted++;
  }
  ASSERT_GT(corrupted, 0);

  // Paranoid mode promises fail-fast: the damage must surface as an error
  // on the sequential and the chunked validation path alike, never as a
  // silently shorter result list.
  for (int parallelism : {0, 4}) {
    SecondaryDBOptions options = MakeOptions();
    options.base.paranoid_checks = true;
    options.base.read_parallelism = parallelism;
    std::unique_ptr<SecondaryDB> db;
    ASSERT_TRUE(SecondaryDB::Open(options, kPath, &db).ok());
    std::vector<QueryResult> results;
    Status s = db->Lookup("UserID", "user1", 0, &results);
    EXPECT_TRUE(s.IsCorruption())
        << "p=" << parallelism << ": " << s.ToString() << " with "
        << results.size() << " results";
  }
}

// GetLite under paranoid checks: a newer residence that cannot be read must
// fail the validity check, not pass the older record off as the newest.
class GetLiteRepairTest : public testing::Test {
 protected:
  static constexpr const char* kPath = "/getlite";

  GetLiteRepairTest() : base_(NewMemEnv()), env_(base_.get()) {}

  SecondaryDBOptions MakeOptions() {
    SecondaryDBOptions options =
        crash::MakeCrashOptions(&env_, IndexType::kEmbedded);
    options.base.compression = kNoCompression;
    return options;
  }

  std::unique_ptr<Env> base_;
  FaultInjectionEnv env_;
};

TEST_F(GetLiteRepairTest, ParanoidLookupSurfacesNewerResidenceCorruption) {
  const std::string primary = std::string(kPath) + "/primary";
  std::set<std::string> old_tables;
  {
    std::unique_ptr<SecondaryDB> db;
    ASSERT_TRUE(SecondaryDB::Open(MakeOptions(), kPath, &db).ok());
    // Every record starts as user "uA" and is compacted below L0.
    for (int i = 0; i < 100; i++) {
      const crash::Op op = crash::PutOp(NumKey(i), "uA", 1000 + i);
      ASSERT_TRUE(db->Put(op.key, op.doc).ok());
    }
    ASSERT_TRUE(db->CompactAll().ok());
    std::string l0;
    ASSERT_TRUE(db->primary()->GetProperty("leveldbpp.num-files-at-level0",
                                           &l0));
    ASSERT_EQ("0", l0);
    for (const std::string& t : FilesOfType(&env_, primary, kTableFile)) {
      old_tables.insert(t);
    }
    // One record moves to user "uB"; its new version is flushed to L0.
    const crash::Op op = crash::PutOp(NumKey(7), "uB", 5000);
    ASSERT_TRUE(db->Put(op.key, op.doc).ok());
    ASSERT_TRUE(db->primary()->Write(WriteOptions(), nullptr).ok());
    ASSERT_TRUE(db->primary()->GetProperty("leveldbpp.num-files-at-level0",
                                           &l0));
    ASSERT_EQ("1", l0);
  }

  // Damage only the data blocks of that L0 table: its filters, zone maps
  // and index stay readable, so the table opens, the scan prunes it (its
  // zone map holds only "uB"), and GetLite's bloom probe still says the
  // key may be there — only the confirming read fails.
  int corrupted = 0;
  for (const std::string& path : FilesOfType(&env_, primary, kTableFile)) {
    if (old_tables.count(path) != 0) continue;
    TableLayout layout;
    ASSERT_TRUE(ReadLayout(&env_, path, &layout).ok()) << path;
    uint64_t data_end = layout.metaindex.offset();
    for (const auto& meta : layout.meta_blocks) {
      data_end = std::min(data_end, meta.second.offset());
    }
    ASSERT_GT(data_end, 0u);
    ASSERT_TRUE(env_.CorruptFile(path, 0, data_end).ok());
    corrupted++;
  }
  ASSERT_EQ(1, corrupted);

  for (int parallelism : {0, 4}) {
    SecondaryDBOptions options = MakeOptions();
    options.base.paranoid_checks = true;
    options.base.read_parallelism = parallelism;
    std::unique_ptr<SecondaryDB> db;
    ASSERT_TRUE(SecondaryDB::Open(options, kPath, &db).ok());
    std::vector<QueryResult> results;
    Status s = db->Lookup("UserID", "uA", 0, &results);
    EXPECT_TRUE(s.IsCorruption())
        << "p=" << parallelism << ": " << s.ToString() << " with "
        << results.size() << " results";
  }
}

std::string IndexTypeName(const testing::TestParamInfo<IndexType>& info) {
  switch (info.param) {
    case IndexType::kNoIndex: return "NoIndex";
    case IndexType::kEmbedded: return "Embedded";
    case IndexType::kLazy: return "Lazy";
    case IndexType::kEager: return "Eager";
    case IndexType::kComposite: return "Composite";
  }
  return "Unknown";
}

INSTANTIATE_TEST_SUITE_P(AllVariants, SecondaryRepairTest,
                         testing::Values(IndexType::kNoIndex,
                                         IndexType::kEmbedded,
                                         IndexType::kLazy, IndexType::kEager,
                                         IndexType::kComposite),
                         IndexTypeName);

}  // namespace
}  // namespace leveldbpp
