// Snapshot-under-mutation: a snapshot taken mid-workload must see EXACTLY
// the prefix state — same keys, same values, both sweep directions, and
// point Gets — no matter what the engine does to the tree afterwards:
// memtable flush, size and manual compaction, an external-file ingest
// splice, or a crash. Snapshots are process-local (they die with the DB
// object); the crash suite proves that holding them never weakens the
// durability of acknowledged writes, and that the extra key versions a
// live snapshot pins into L0 files recover to plain newest-wins state.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "crash_harness.h"
#include "db/db_impl.h"
#include "env/env.h"

namespace leveldbpp {
namespace {

using crash::Op;

class SnapshotTest : public testing::Test {
 protected:
  // Small enough that a few dozen keys cross flush and level boundaries.
  Options SmallOptions(Env* env) {
    Options options;
    options.env = env;
    options.create_if_missing = true;
    options.write_buffer_size = 4 << 10;
    options.max_file_size = 2 << 10;
    options.max_bytes_for_level_base = 1 << 10;
    return options;
  }

  static std::string Key(int i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%04d", i);
    return buf;
  }

  // The full read surface of one snapshot against its expected state:
  // forward sweep, backward sweep, and a point Get per expected key plus
  // one guaranteed-absent probe.
  void ExpectSnapshotExact(DBImpl* db, const Snapshot* snap,
                           const std::map<std::string, std::string>& want,
                           const std::string& trace) {
    SCOPED_TRACE(trace);
    ReadOptions ro;
    ro.snapshot = snap;
    std::unique_ptr<Iterator> it(db->NewIterator(ro));
    auto fwd = want.begin();
    for (it->SeekToFirst(); it->Valid(); it->Next(), ++fwd) {
      ASSERT_TRUE(fwd != want.end()) << "extra key " << it->key().ToString();
      EXPECT_EQ(fwd->first, it->key().ToString());
      EXPECT_EQ(fwd->second, it->value().ToString());
    }
    EXPECT_TRUE(fwd == want.end()) << "missing keys from " << fwd->first;
    ASSERT_TRUE(it->status().ok()) << it->status().ToString();

    auto rev = want.rbegin();
    for (it->SeekToLast(); it->Valid(); it->Prev(), ++rev) {
      ASSERT_TRUE(rev != want.rend()) << "extra key " << it->key().ToString();
      EXPECT_EQ(rev->first, it->key().ToString());
      EXPECT_EQ(rev->second, it->value().ToString());
    }
    EXPECT_TRUE(rev == want.rend());
    ASSERT_TRUE(it->status().ok()) << it->status().ToString();

    std::string value;
    for (const auto& [key, doc] : want) {
      ASSERT_TRUE(db->Get(ro, key, &value).ok()) << key;
      EXPECT_EQ(doc, value) << key;
    }
    EXPECT_TRUE(db->Get(ro, "zzz-absent", &value).IsNotFound());
  }
};

TEST_F(SnapshotTest, ExactPrefixAcrossFlush) {
  std::unique_ptr<Env> env(NewMemEnv());
  DBImpl* raw = nullptr;
  ASSERT_TRUE(DBImpl::Open(SmallOptions(env.get()), "/snap", &raw).ok());
  std::unique_ptr<DBImpl> db(raw);

  std::map<std::string, std::string> model;
  for (int i = 0; i < 40; i++) {
    model[Key(i)] = "v1-" + Key(i);
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), model[Key(i)]).ok());
  }
  const Snapshot* snap = db->GetSnapshot();
  const std::map<std::string, std::string> frozen = model;

  // Overwrite, delete, and extend beneath the snapshot, then flush so the
  // pinned versions leave the memtable.
  for (int i = 0; i < 40; i += 2) {
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), "v2-" + Key(i)).ok());
    model[Key(i)] = "v2-" + Key(i);
  }
  for (int i = 1; i < 40; i += 4) {
    ASSERT_TRUE(db->Delete(WriteOptions(), Key(i)).ok());
    model.erase(Key(i));
  }
  for (int i = 100; i < 110; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), "new-" + Key(i)).ok());
    model[Key(i)] = "new-" + Key(i);
  }
  ASSERT_TRUE(db->Write(WriteOptions(), nullptr).ok());  // Forced flush

  ExpectSnapshotExact(db.get(), snap, frozen, "pinned, post-flush");
  ExpectSnapshotExact(db.get(), nullptr, model, "current, post-flush");
  db->ReleaseSnapshot(snap);
  ExpectSnapshotExact(db.get(), nullptr, model, "current, post-release");
}

TEST_F(SnapshotTest, ExactPrefixAcrossCompaction) {
  std::unique_ptr<Env> env(NewMemEnv());
  DBImpl* raw = nullptr;
  ASSERT_TRUE(DBImpl::Open(SmallOptions(env.get()), "/snap", &raw).ok());
  std::unique_ptr<DBImpl> db(raw);

  // Two snapshots at different depths of the same overwrite history: the
  // compactions in between must retain BOTH pinned versions of every key
  // while still collapsing everything older than the earlier snapshot.
  std::map<std::string, std::string> model;
  std::string pad(120, 'p');
  for (int i = 0; i < 60; i++) {
    model[Key(i)] = "gen1-" + Key(i) + pad;
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), model[Key(i)]).ok());
  }
  const Snapshot* snap1 = db->GetSnapshot();
  const std::map<std::string, std::string> frozen1 = model;

  for (int i = 0; i < 60; i += 3) {
    model[Key(i)] = "gen2-" + Key(i) + pad;
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), model[Key(i)]).ok());
  }
  for (int i = 1; i < 60; i += 5) {
    ASSERT_TRUE(db->Delete(WriteOptions(), Key(i)).ok());
    model.erase(Key(i));
  }
  ASSERT_TRUE(db->Write(WriteOptions(), nullptr).ok());
  const Snapshot* snap2 = db->GetSnapshot();
  const std::map<std::string, std::string> frozen2 = model;

  for (int i = 0; i < 60; i += 2) {
    model[Key(i)] = "gen3-" + Key(i) + pad;
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), model[Key(i)]).ok());
  }
  ASSERT_TRUE(db->Write(WriteOptions(), nullptr).ok());
  ASSERT_TRUE(db->MaybeCompact().ok());
  ASSERT_TRUE(db->CompactAll().ok());

  ExpectSnapshotExact(db.get(), snap1, frozen1, "snap1, post-compaction");
  ExpectSnapshotExact(db.get(), snap2, frozen2, "snap2, post-compaction");
  ExpectSnapshotExact(db.get(), nullptr, model, "current, post-compaction");

  // Releasing the older snapshot and compacting again must not disturb the
  // newer one (the retention bound moves from snap1 to snap2).
  db->ReleaseSnapshot(snap1);
  ASSERT_TRUE(db->CompactAll().ok());
  ExpectSnapshotExact(db.get(), snap2, frozen2, "snap2, snap1 released");
  db->ReleaseSnapshot(snap2);
  ASSERT_TRUE(db->CompactAll().ok());
  ExpectSnapshotExact(db.get(), nullptr, model, "current, all released");
}

TEST_F(SnapshotTest, ExactPrefixAcrossIngestSplice) {
  std::unique_ptr<Env> env(NewMemEnv());
  DBImpl* raw = nullptr;
  ASSERT_TRUE(DBImpl::Open(SmallOptions(env.get()), "/snap", &raw).ok());
  std::unique_ptr<DBImpl> db(raw);

  std::map<std::string, std::string> model;
  for (int i = 0; i < 30; i++) {
    model[Key(i)] = "resident-" + Key(i);
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), model[Key(i)]).ok());
  }
  ASSERT_TRUE(db->Write(WriteOptions(), nullptr).ok());
  const Snapshot* snap = db->GetSnapshot();
  const std::map<std::string, std::string> frozen = model;

  // Splice a batch that both overwrites residents and adds fresh keys. The
  // ingest's sequences are allocated after the snapshot, so the snapshot
  // must see none of it — while the current view sees all of it.
  std::map<std::string, std::string> batch;
  for (int i = 20; i < 50; i++) batch[Key(i)] = "ingested-" + Key(i);
  auto it = batch.begin();
  IngestFeed feed = [&](std::string* key, std::string* value) {
    if (it == batch.end()) return false;
    *key = it->first;
    *value = it->second;
    ++it;
    return true;
  };
  ASSERT_TRUE(db->IngestExternalFiles(feed, nullptr).ok());
  for (const auto& [key, value] : batch) model[key] = value;

  ExpectSnapshotExact(db.get(), snap, frozen, "pinned, post-ingest");
  ExpectSnapshotExact(db.get(), nullptr, model, "current, post-ingest");

  // And the splice's compaction/rebuild hooks must not unpin it either.
  ASSERT_TRUE(db->CompactAll().ok());
  ExpectSnapshotExact(db.get(), snap, frozen, "pinned, ingest compacted");
  db->ReleaseSnapshot(snap);
}

TEST_F(SnapshotTest, IteratorPinsCreationStateWithoutExplicitSnapshot) {
  std::unique_ptr<Env> env(NewMemEnv());
  DBImpl* raw = nullptr;
  ASSERT_TRUE(DBImpl::Open(SmallOptions(env.get()), "/snap", &raw).ok());
  std::unique_ptr<DBImpl> db(raw);

  std::map<std::string, std::string> model;
  for (int i = 0; i < 25; i++) {
    model[Key(i)] = "before-" + Key(i);
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), model[Key(i)]).ok());
  }
  std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
  const std::map<std::string, std::string> frozen = model;

  for (int i = 0; i < 25; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), "after-" + Key(i)).ok());
  }
  ASSERT_TRUE(db->Write(WriteOptions(), nullptr).ok());
  ASSERT_TRUE(db->MaybeCompact().ok());

  auto want = frozen.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++want) {
    ASSERT_TRUE(want != frozen.end());
    EXPECT_EQ(want->first, it->key().ToString());
    EXPECT_EQ(want->second, it->value().ToString());
  }
  EXPECT_TRUE(want == frozen.end());
  ASSERT_TRUE(it->status().ok()) << it->status().ToString();
}

// Crash with snapshots LIVE: the harness workload runs with a hook that
// periodically takes a snapshot, lets the op stream mutate beneath it,
// verifies the snapshot still reads its exact prefix, and releases it.
// Crash points sweep the whole run, so crashes land while a snapshot is
// held (before_close releases it — a real process crash would simply lose
// the handle). Recovery must yield exactly the acknowledged model: pinned
// older versions flushed into L0 resolve newest-wins on reopen, and every
// index variant's answers stay derivable from the recovered primary.
TEST_F(SnapshotTest, CrashWithLiveSnapshotsRecoversAcknowledgedState) {
  std::vector<Op> ops;
  uint64_t ts = 7000;
  for (int i = 0; i < 260; i++) {
    const std::string key = "k" + std::to_string((i * 29) % 83);
    if (i % 9 == 4) {
      ops.push_back(crash::DeleteOp(key));
    } else {
      ops.push_back(
          crash::PutOp(key, "u" + std::to_string(i % 7), ts++, /*pad=*/200));
    }
  }

  struct SnapState {
    const Snapshot* snap = nullptr;
    crash::Model frozen;
    size_t taken_at = 0;
  };
  SnapState st;
  crash::WorkloadHooks hooks;
  hooks.after_op = [&st](SecondaryDB* db, const crash::Model& model,
                         size_t acked) {
    if (st.snap == nullptr) {
      if (acked % 24 == 5) {
        st.snap = db->GetSnapshot();
        st.frozen = model;
        st.taken_at = acked;
      }
      return;
    }
    if (acked < st.taken_at + 16) return;
    ReadOptions ro;
    ro.snapshot = st.snap;
    std::unique_ptr<Iterator> it(db->NewIterator(ro));
    auto want = st.frozen.begin();
    for (it->SeekToFirst(); it->Valid(); it->Next(), ++want) {
      ASSERT_TRUE(want != st.frozen.end())
          << "snapshot@" << st.taken_at << " extra " << it->key().ToString();
      EXPECT_EQ(want->first, it->key().ToString());
      EXPECT_EQ(want->second, it->value().ToString());
    }
    EXPECT_TRUE(want == st.frozen.end()) << "snapshot@" << st.taken_at;
    ASSERT_TRUE(it->status().ok()) << it->status().ToString();
    it.reset();
    db->ReleaseSnapshot(st.snap);
    st.snap = nullptr;
  };
  hooks.before_close = [&st](SecondaryDB* db) {
    if (st.snap != nullptr) {
      db->ReleaseSnapshot(st.snap);
      st.snap = nullptr;
    }
  };

  for (IndexType type : {IndexType::kLazy, IndexType::kComposite}) {
    const uint64_t total_ops = crash::CountEnvOps(type, ops, {}, hooks);
    ASSERT_GT(total_ops, 0u);
    // Deterministic sweep: a dozen points spread across the run, both
    // crash modes alternating.
    for (int i = 0; i < 12; i++) {
      st = SnapState();
      const uint64_t crash_at = 1 + (total_ops - 2) * i / 11;
      const auto mode = (i % 2 == 0)
                            ? FaultInjectionEnv::CrashMode::kDropUnsynced
                            : FaultInjectionEnv::CrashMode::kTornTail;
      crash::RunCrashCycle(
          type, ops, crash_at, mode, /*seed=*/4201u + i,
          std::string("snapshot-crash variant=") + IndexTypeName(type) +
              " crash_at=" + std::to_string(crash_at) + "/" +
              std::to_string(total_ops) + " mode=" +
              crash::CrashModeName(mode),
          {}, hooks);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace leveldbpp
