// End-to-end engine tests: put/get/delete, WAL recovery, flush and
// compaction behaviour, iterators, and the extended hooks used by the
// secondary-index layer (GetWithMeta, IsNewestVersion, GetFragments).

#include "db/db_impl.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "db/filename.h"
#include "env/env.h"
#include "table/filter_policy.h"
#include "util/coding.h"
#include "util/random.h"
#include "wal/log_writer.h"

namespace leveldbpp {

class DBTest : public testing::Test {
 protected:
  DBTest() : env_(NewMemEnv()), dbname_("/db_test") {
    filter_policy_.reset(NewBloomFilterPolicy(10));
    ReopenWithDefaults();
  }

  ~DBTest() override {
    db_.reset();
    DestroyDB(dbname_, LastOptions());
  }

  Options DefaultOptions() {
    Options options;
    options.env = env_.get();
    options.create_if_missing = true;
    options.write_buffer_size = 64 << 10;  // Small: force flushes in tests
    options.max_file_size = 32 << 10;
    options.max_bytes_for_level_base = 128 << 10;
    options.filter_policy = filter_policy_.get();
    return options;
  }

  Options LastOptions() { return last_options_; }

  void ReopenWithDefaults() { Reopen(DefaultOptions()); }

  void Reopen(const Options& options) {
    db_.reset();
    last_options_ = options;
    DBImpl* raw = nullptr;
    Status s = DBImpl::Open(options, dbname_, &raw);
    ASSERT_TRUE(s.ok()) << s.ToString();
    db_.reset(raw);
  }

  Status Put(const std::string& k, const std::string& v) {
    return db_->Put(WriteOptions(), k, v);
  }

  Status Delete(const std::string& k) { return db_->Delete(WriteOptions(), k); }

  std::string Get(const std::string& k) {
    std::string result;
    Status s = db_->Get(ReadOptions(), k, &result);
    if (s.IsNotFound()) {
      return "NOT_FOUND";
    } else if (!s.ok()) {
      return s.ToString();
    }
    return result;
  }

  int NumTableFilesAtLevel(int level) {
    std::string value;
    EXPECT_TRUE(db_->GetProperty(
        "leveldbpp.num-files-at-level" + std::to_string(level), &value));
    return std::stoi(value);
  }

  int TotalTableFiles() {
    int result = 0;
    for (int level = 0; level < 7; level++) {
      result += NumTableFilesAtLevel(level);
    }
    return result;
  }

  std::unique_ptr<Env> env_;
  std::string dbname_;
  std::unique_ptr<const FilterPolicy> filter_policy_;
  std::unique_ptr<DBImpl> db_;
  Options last_options_;
};

TEST_F(DBTest, Empty) { ASSERT_EQ("NOT_FOUND", Get("foo")); }

TEST_F(DBTest, ReadWrite) {
  ASSERT_TRUE(Put("foo", "v1").ok());
  ASSERT_EQ("v1", Get("foo"));
  ASSERT_TRUE(Put("bar", "v2").ok());
  ASSERT_TRUE(Put("foo", "v3").ok());
  ASSERT_EQ("v3", Get("foo"));
  ASSERT_EQ("v2", Get("bar"));
}

TEST_F(DBTest, PutDeleteGet) {
  ASSERT_TRUE(Put("foo", "v1").ok());
  ASSERT_EQ("v1", Get("foo"));
  ASSERT_TRUE(Put("foo", "v2").ok());
  ASSERT_EQ("v2", Get("foo"));
  ASSERT_TRUE(Delete("foo").ok());
  ASSERT_EQ("NOT_FOUND", Get("foo"));
}

TEST_F(DBTest, GetFromImmutableLayers) {
  ASSERT_TRUE(Put("foo", "v1").ok());
  ASSERT_EQ("v1", Get("foo"));
  // Fill the memtable so "foo" is pushed into an SSTable.
  Random rnd(301);
  std::string filler(10000, 'x');
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(Put("key" + std::to_string(i), filler).ok());
  }
  ASSERT_GT(TotalTableFiles(), 0);
  ASSERT_EQ("v1", Get("foo"));
}

TEST_F(DBTest, Recovery) {
  ASSERT_TRUE(Put("foo", "v1").ok());
  ASSERT_TRUE(Put("baz", "v5").ok());

  Reopen(LastOptions());
  ASSERT_EQ("v1", Get("foo"));
  ASSERT_EQ("v5", Get("baz"));

  ASSERT_TRUE(Put("bar", "v2").ok());
  ASSERT_TRUE(Put("foo", "v3").ok());

  Reopen(LastOptions());
  ASSERT_EQ("v3", Get("foo"));
  ASSERT_TRUE(Put("foo", "v4").ok());
  ASSERT_EQ("v4", Get("foo"));
  ASSERT_EQ("v2", Get("bar"));
  ASSERT_EQ("v5", Get("baz"));
}

TEST_F(DBTest, RecoveryWithLargeLog) {
  ASSERT_TRUE(Put("big1", std::string(200000, '1')).ok());
  ASSERT_TRUE(Put("big2", std::string(200000, '2')).ok());
  ASSERT_TRUE(Put("small3", std::string(10, '3')).ok());
  ASSERT_TRUE(Put("small4", std::string(10, '4')).ok());

  Reopen(LastOptions());
  ASSERT_EQ(std::string(200000, '1'), Get("big1"));
  ASSERT_EQ(std::string(200000, '2'), Get("big2"));
  ASSERT_EQ(std::string(10, '3'), Get("small3"));
  ASSERT_EQ(std::string(10, '4'), Get("small4"));
}

TEST_F(DBTest, RecoveryFlushKeepsOneVersionPerKey) {
  // Recovery writes the replayed WAL to a table with no snapshot live, so
  // only each key's newest version may survive that flush.
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(Put("foo", "v" + std::to_string(i)).ok());
  }
  Reopen(LastOptions());
  ASSERT_EQ("v49", Get("foo"));
  DBImpl::LevelIterators levels;
  ASSERT_TRUE(db_->NewLevelIterators(ReadOptions(), &levels).ok());
  int versions = 0;
  for (size_t i = levels.first_disk; i < levels.iters.size(); i++) {
    Iterator* it = levels.iters[i];
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      if (ExtractUserKey(it->key()) == Slice("foo")) versions++;
    }
  }
  EXPECT_EQ(1, versions);
}

TEST_F(DBTest, ManyKeysWithCompactions) {
  // Enough data to trigger multiple flushes and compactions.
  std::map<std::string, std::string> model;
  Random64 rnd(17);
  for (int i = 0; i < 5000; i++) {
    std::string key = "key" + std::to_string(rnd.Uniform(2000));
    std::string value = "value" + std::to_string(i) +
                        std::string(rnd.Uniform(200), 'p');
    ASSERT_TRUE(Put(key, value).ok());
    model[key] = value;
  }
  for (const auto& [key, value] : model) {
    ASSERT_EQ(value, Get(key)) << "key=" << key;
  }
  // Should have spilled into multiple levels.
  ASSERT_GT(TotalTableFiles(), 1);

  // And survive recovery.
  Reopen(LastOptions());
  for (const auto& [key, value] : model) {
    ASSERT_EQ(value, Get(key));
  }
}

TEST_F(DBTest, IteratorBasic) {
  ASSERT_TRUE(Put("a", "va").ok());
  ASSERT_TRUE(Put("b", "vb").ok());
  ASSERT_TRUE(Put("c", "vc").ok());
  ASSERT_TRUE(Delete("b").ok());

  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  iter->SeekToFirst();
  ASSERT_TRUE(iter->Valid());
  ASSERT_EQ("a", iter->key().ToString());
  ASSERT_EQ("va", iter->value().ToString());
  iter->Next();
  ASSERT_TRUE(iter->Valid());
  ASSERT_EQ("c", iter->key().ToString());
  iter->Next();
  ASSERT_FALSE(iter->Valid());

  iter->Seek("b");
  ASSERT_TRUE(iter->Valid());
  ASSERT_EQ("c", iter->key().ToString());
}

TEST_F(DBTest, IteratorAcrossLevels) {
  std::map<std::string, std::string> model;
  Random64 rnd(3);
  for (int i = 0; i < 3000; i++) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "k%08llu",
                  static_cast<unsigned long long>(rnd.Uniform(1000)));
    std::string value = "v" + std::to_string(i) + std::string(100, 'f');
    ASSERT_TRUE(Put(buf, value).ok());
    model[buf] = value;
  }
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  auto mit = model.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++mit) {
    ASSERT_TRUE(mit != model.end());
    ASSERT_EQ(mit->first, iter->key().ToString());
    ASSERT_EQ(mit->second, iter->value().ToString());
  }
  ASSERT_TRUE(mit == model.end());
}

TEST_F(DBTest, CompactAllMovesEverythingDown) {
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(
        Put("key" + std::to_string(i), std::string(300, 'z')).ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  // After full compaction nothing remains in level 0.
  ASSERT_EQ(0, NumTableFilesAtLevel(0));
  ASSERT_GT(TotalTableFiles(), 0);
  ASSERT_EQ(std::string(300, 'z'), Get("key1234"));
}

TEST_F(DBTest, CloseDeletesFilesAReaderKeptPastCompaction) {
  auto table_files_on_disk = [&]() {
    std::vector<std::string> children;
    env_->GetChildren(dbname_, &children);
    int n = 0;
    uint64_t number;
    FileType type;
    for (const std::string& name : children) {
      if (ParseFileName(name, &number, &type) && type == kTableFile) n++;
    }
    return n;
  };
  std::map<std::string, std::string> model;
  Random64 rnd(7);
  for (int i = 0; i < 3000; i++) {
    const std::string key = "k" + std::to_string(rnd.Uniform(1000));
    const std::string value = "v" + std::to_string(i) + std::string(100, 'f');
    ASSERT_TRUE(Put(key, value).ok());
    model[key] = value;
  }
  // The open iterator pins the pre-compaction version, so the compaction
  // cannot delete its inputs, and releasing the iterator does not either.
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  ASSERT_TRUE(db_->CompactAll().ok());
  iter.reset();
  const int live = TotalTableFiles();
  ASSERT_GT(table_files_on_disk(), live);

  db_.reset();
  ASSERT_EQ(live, table_files_on_disk());
  Reopen(LastOptions());
  ASSERT_EQ(live, TotalTableFiles());
  for (const auto& [key, value] : model) ASSERT_EQ(value, Get(key)) << key;
}

TEST_F(DBTest, DeleteSurvivesCompaction) {
  ASSERT_TRUE(Put("doomed", "v").ok());
  ASSERT_TRUE(db_->CompactAll().ok());
  ASSERT_TRUE(Delete("doomed").ok());
  ASSERT_TRUE(db_->CompactAll().ok());
  ASSERT_EQ("NOT_FOUND", Get("doomed"));
  Reopen(LastOptions());
  ASSERT_EQ("NOT_FOUND", Get("doomed"));
}

TEST_F(DBTest, GetWithMetaReportsLocation) {
  ASSERT_TRUE(Put("foo", "v1").ok());
  std::string value;
  DBImpl::RecordLocation loc;
  ASSERT_TRUE(db_->GetWithMeta(ReadOptions(), "foo", &value, &loc).ok());
  ASSERT_EQ(-1, loc.level);  // Still in the memtable
  SequenceNumber first_seq = loc.seq;

  ASSERT_TRUE(db_->CompactAll().ok());
  ASSERT_TRUE(db_->GetWithMeta(ReadOptions(), "foo", &value, &loc).ok());
  ASSERT_GE(loc.level, 0);  // Now on disk
  ASSERT_EQ(first_seq, loc.seq);
}

TEST_F(DBTest, IsNewestVersion) {
  auto is_newest = [&](const std::string& key, SequenceNumber seq) {
    DBImpl::ReadView view(db_.get(), ReadOptions());
    bool newest = false;
    EXPECT_TRUE(db_->IsNewestVersion(view, key, seq, &newest).ok());
    return newest;
  };
  ASSERT_TRUE(Put("k", "v1").ok());
  std::string value;
  DBImpl::RecordLocation loc1;
  ASSERT_TRUE(db_->GetWithMeta(ReadOptions(), "k", &value, &loc1).ok());
  ASSERT_TRUE(is_newest("k", loc1.seq));

  ASSERT_TRUE(db_->CompactAll().ok());
  ASSERT_TRUE(is_newest("k", loc1.seq));

  // Overwrite: old sequence no longer newest.
  ASSERT_TRUE(Put("k", "v2").ok());
  ASSERT_FALSE(is_newest("k", loc1.seq));

  DBImpl::RecordLocation loc2;
  ASSERT_TRUE(db_->GetWithMeta(ReadOptions(), "k", &value, &loc2).ok());
  ASSERT_TRUE(is_newest("k", loc2.seq));

  // Push both versions to disk; newest must still win.
  ASSERT_TRUE(db_->CompactAll().ok());
  ASSERT_TRUE(is_newest("k", loc2.seq));
  ASSERT_FALSE(is_newest("k", loc1.seq));
}

TEST_F(DBTest, GetFragmentsSeesAllVersionsAcrossLevels) {
  Options options = DefaultOptions();
  options.write_buffer_size = 64 << 10;
  Reopen(options);

  // v1 flushed to disk; v2 in a later file; v3 in the memtable.
  ASSERT_TRUE(Put("frag", "v1").ok());
  ASSERT_TRUE(db_->CompactAll().ok());
  ASSERT_TRUE(Put("frag", "v2").ok());
  ASSERT_TRUE(db_->CompactAll().ok());
  ASSERT_TRUE(Put("frag", "v3").ok());

  std::vector<std::string> values;
  ASSERT_TRUE(db_->GetFragments(ReadOptions(), "frag",
                                [&](int, SequenceNumber, bool deleted,
                                    const std::vector<Slice>& versions) {
                                  if (!deleted) {
                                    values.push_back(versions[0].ToString());
                                  }
                                  return true;
                                })
                  .ok());
  // Compaction de-duplicates within one table, so we see the newest from
  // each distinct residence, newest first.
  ASSERT_GE(values.size(), 2u);
  ASSERT_EQ("v3", values[0]);
  ASSERT_EQ("v2", values[1]);
}

TEST_F(DBTest, OpensStoreWithRetiredSortedViewArtifacts) {
  ASSERT_TRUE(Put("a", "1").ok());
  ASSERT_TRUE(db_->CompactAll().ok());
  ASSERT_TRUE(Put("b", "2").ok());
  db_.reset();

  // Older versions kept REMIX sorted views in <number>.svw files and named
  // the current one in the MANIFEST with edit tag 8. Recreate both: a
  // leftover artifact, and a MANIFEST whose last record carries the tag.
  auto read_all = [&](const std::string& fname) {
    uint64_t size = 0;
    EXPECT_TRUE(env_->GetFileSize(fname, &size).ok()) << fname;
    std::unique_ptr<RandomAccessFile> file;
    EXPECT_TRUE(env_->NewRandomAccessFile(fname, &file).ok()) << fname;
    std::string scratch(size, '\0');
    Slice result;
    EXPECT_TRUE(file->Read(0, size, &result, scratch.data()).ok()) << fname;
    return result.ToString();
  };
  std::string current = read_all(CurrentFileName(dbname_));
  ASSERT_FALSE(current.empty());
  current.pop_back();  // Trailing newline
  const std::string manifest = dbname_ + "/" + current;
  const std::string old_manifest = read_all(manifest);
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env_->NewWritableFile(manifest, &file).ok());
    ASSERT_TRUE(file->Append(old_manifest).ok());
    log::Writer writer(file.get(), old_manifest.size());
    std::string record;
    PutVarint32(&record, 8);
    PutVarint64(&record, 123);
    ASSERT_TRUE(writer.AddRecord(record).ok());
    ASSERT_TRUE(file->Close().ok());
  }
  const std::string artifact = dbname_ + "/000123.svw";
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env_->NewWritableFile(artifact, &file).ok());
    ASSERT_TRUE(file->Append("view").ok());
    ASSERT_TRUE(file->Close().ok());
  }

  ReopenWithDefaults();
  EXPECT_EQ("1", Get("a"));
  EXPECT_EQ("2", Get("b"));
  EXPECT_FALSE(env_->FileExists(artifact));
}

TEST_F(DBTest, DestroyRemovesEverything) {
  ASSERT_TRUE(Put("a", "1").ok());
  db_.reset();
  ASSERT_TRUE(DestroyDB(dbname_, LastOptions()).ok());
  std::vector<std::string> children;
  env_->GetChildren(dbname_, &children);
  ASSERT_TRUE(children.empty());
}

TEST_F(DBTest, NoCompression) {
  Options options = DefaultOptions();
  options.compression = kNoCompression;
  Reopen(options);
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(Put("nk" + std::to_string(i), std::string(100, 'q')).ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  ASSERT_EQ(std::string(100, 'q'), Get("nk500"));
}

// Randomized differential test against std::map.
TEST_F(DBTest, RandomizedAgainstModel) {
  Random64 rnd(99);
  std::map<std::string, std::string> model;
  for (int step = 0; step < 8000; step++) {
    std::string key = "rk" + std::to_string(rnd.Uniform(500));
    int op = static_cast<int>(rnd.Uniform(10));
    if (op < 7) {
      std::string value =
          "val" + std::to_string(step) + std::string(rnd.Uniform(120), 'm');
      ASSERT_TRUE(Put(key, value).ok());
      model[key] = value;
    } else if (op < 9) {
      ASSERT_TRUE(Delete(key).ok());
      model.erase(key);
    } else {
      auto it = model.find(key);
      std::string expected =
          (it == model.end()) ? "NOT_FOUND" : it->second;
      ASSERT_EQ(expected, Get(key)) << "step " << step;
    }
  }
  // Full verification, then after reopen.
  for (const auto& [key, value] : model) {
    ASSERT_EQ(value, Get(key));
  }
  Reopen(LastOptions());
  for (const auto& [key, value] : model) {
    ASSERT_EQ(value, Get(key));
  }
}

}  // namespace leveldbpp
