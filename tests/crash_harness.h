// Shared crash-recovery harness for the fault-injection test suites
// (crash_recovery_test.cc, randomized_crash_test.cc).
//
// The cycle under test, for one crash point `crash_at`:
//
//   1. Open a SecondaryDB in crash-consistency mode (base.sync_writes) on a
//      FaultInjectionEnv over a fresh MemEnv.
//   2. Arm FailAfter(crash_at): the env fails every write-class operation
//      after the first `crash_at`, simulating the device vanishing at an
//      exact syscall count.
//   3. Apply a workload until the first failed operation, maintaining a
//      golden model of every ACKNOWLEDGED op. Failed ops must stay failed
//      (sticky error) and leave no acknowledged state behind.
//   4. Destroy the DB object (process "exit"), SimulateCrash (discard
//      unsynced file bytes — optionally keeping a seeded-random torn
//      prefix), clear the faults, and reopen.
//   5. Verify: (a) the primary table matches the model exactly for every
//      key except the single in-flight op's, which may hold either its
//      pre- or post-op state; (b) every index variant's Lookup/RangeLookup
//      returns EXACTLY the records derivable from the recovered primary
//      table — same keys, same sequence numbers, same values, newest
//      first — with no phantom and no missing postings.
//
// Everything is deterministic given (workload, crash_at, mode, seed), so a
// failing point reproduces from its printed parameters.

#ifndef LEVELDBPP_TESTS_CRASH_HARNESS_H_
#define LEVELDBPP_TESTS_CRASH_HARNESS_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/document.h"
#include "core/secondary_db.h"
#include "env/fault_injection_env.h"

namespace leveldbpp {
namespace crash {

struct Op {
  enum Kind { kPut, kDelete };
  Kind kind;
  std::string key;
  std::string doc;   // kPut only
  std::string user;  // The doc's UserID (kPut only)
};

inline std::string UserDoc(const std::string& user, uint64_t ts,
                           size_t pad = 256) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%012llu",
                static_cast<unsigned long long>(ts));
  return "{\"CreationTime\":\"" + std::string(buf) + "\",\"Pad\":\"" +
         std::string(pad, 'p') + "\",\"UserID\":\"" + user + "\"}";
}

inline Op PutOp(std::string key, std::string user, uint64_t ts,
                size_t pad = 256) {
  return Op{Op::kPut, std::move(key), UserDoc(user, ts, pad), std::move(user)};
}

inline Op DeleteOp(std::string key) {
  return Op{Op::kDelete, std::move(key), "", ""};
}

/// Golden model of acknowledged state: key -> document.
using Model = std::map<std::string, std::string>;

/// Optional adjustment applied to MakeCrashOptions' result before every
/// Open in a cycle (e.g. enabling the pipelined-flush configuration so
/// crash points land with several immutable memtables in flight).
using OptionsTweak = std::function<void(SecondaryDBOptions*)>;

/// Optional observer hooks threaded through a workload run. `after_op`
/// fires after every ACKNOWLEDGED op with the golden model of that prefix —
/// the place to take/verify snapshots mid-workload. `before_close` always
/// fires while the DB object is still alive (workload completed OR stopped
/// by a fault), so hook state holding DB-owned handles (snapshots,
/// iterators) can be released before the simulated process exit. Hooks must
/// only READ (env faults count write-class operations, and CountEnvOps and
/// the armed runs must count identically).
struct WorkloadHooks {
  std::function<void(SecondaryDB*, const Model&, size_t /*acked*/)> after_op;
  std::function<void(SecondaryDB*)> before_close;
};

inline SecondaryDBOptions MakeCrashOptions(Env* env, IndexType type) {
  SecondaryDBOptions options;
  options.base.env = env;
  // Small enough that the workload crosses flush (and WAL rotation)
  // boundaries, so crash points land inside them too.
  options.base.write_buffer_size = 64 << 10;
  options.base.max_file_size = 32 << 10;
  options.base.sync_writes = true;
  options.index_type = type;
  options.indexed_attributes = {"UserID"};
  return options;
}

/// Apply ops in order until the first failure, recording every acknowledged
/// op in *model. Returns the number of acknowledged ops; *hit_error tells
/// whether a failure stopped the run (vs. the workload completing).
inline size_t ApplyOps(SecondaryDB* db, const std::vector<Op>& ops,
                       Model* model, bool* hit_error,
                       const WorkloadHooks& hooks = {}) {
  *hit_error = false;
  size_t acked = 0;
  for (const Op& op : ops) {
    Status s = (op.kind == Op::kPut) ? db->Put(op.key, op.doc)
                                     : db->Delete(op.key);
    if (!s.ok()) {
      *hit_error = true;
      break;
    }
    if (op.kind == Op::kPut) {
      (*model)[op.key] = op.doc;
    } else {
      model->erase(op.key);
    }
    acked++;
    if (hooks.after_op) hooks.after_op(db, *model, acked);
  }
  return acked;
}

/// Probe run: apply the whole workload fault-free and return how many
/// interceptable env operations it issues. Crash points sweep [0, T).
inline uint64_t CountEnvOps(IndexType type, const std::vector<Op>& ops,
                            const OptionsTweak& tweak = {},
                            const WorkloadHooks& hooks = {}) {
  std::unique_ptr<Env> base(NewMemEnv());
  FaultInjectionEnv env(base.get());
  std::unique_ptr<SecondaryDB> db;
  SecondaryDBOptions options = MakeCrashOptions(&env, type);
  if (tweak) tweak(&options);
  EXPECT_TRUE(SecondaryDB::Open(options, "/crash", &db).ok());
  env.ResetOpCount();  // Exclude Open's own writes: faults arm post-Open.
  Model model;
  bool hit_error = false;
  size_t acked = ApplyOps(db.get(), ops, &model, &hit_error, hooks);
  if (hooks.before_close) hooks.before_close(db.get());
  EXPECT_FALSE(hit_error);
  EXPECT_EQ(ops.size(), acked);
  return env.op_count();
}

/// Index queries vs. the current primary state: whatever state the primary
/// table is in, every variant's answers must be EXACTLY derivable from it —
/// the live records carrying the queried attribute value, newest-first by
/// the primary's sequence numbers, with the primary's values. Shared by the
/// crash-recovery suites (post-reopen) and the corruption/repair suite
/// (post-RepairDB + RebuildIndex).
inline void VerifyIndexesMatchPrimary(SecondaryDB* db,
                                      const std::set<std::string>& keys,
                                      const std::set<std::string>& users,
                                      const std::string& trace) {
  struct Rec {
    SequenceNumber seq;
    std::string key;
    std::string value;
    std::string user;
  };
  std::vector<Rec> live;
  for (const std::string& key : keys) {
    std::string value;
    DBImpl::RecordLocation loc;
    if (!db->primary()->GetWithMeta(ReadOptions(), key, &value, &loc).ok()) {
      continue;
    }
    std::string user;
    if (!JsonAttributeExtractor::Instance()->Extract(Slice(value), "UserID",
                                                     &user)) {
      continue;
    }
    live.push_back(Rec{loc.seq, key, std::move(value), std::move(user)});
  }
  std::sort(live.begin(), live.end(),
            [](const Rec& a, const Rec& b) { return a.seq > b.seq; });

  auto expected_in = [&](const std::string& lo, const std::string& hi) {
    std::vector<const Rec*> out;
    for (const Rec& r : live) {
      if (r.user >= lo && r.user <= hi) out.push_back(&r);
    }
    return out;
  };
  auto check = [&](const std::vector<QueryResult>& got,
                   const std::vector<const Rec*>& want, size_t k,
                   const std::string& what) {
    const size_t n = (k == 0 || want.size() < k) ? want.size() : k;
    ASSERT_EQ(n, got.size()) << trace << " " << what;
    for (size_t i = 0; i < n; i++) {
      EXPECT_EQ(want[i]->key, got[i].primary_key)
          << trace << " " << what << " [" << i << "]";
      EXPECT_EQ(want[i]->seq, got[i].seq)
          << trace << " " << what << " [" << i << "]";
      EXPECT_EQ(want[i]->value, got[i].value)
          << trace << " " << what << " [" << i << "]";
    }
  };

  std::vector<QueryResult> got;
  for (const std::string& u : users) {
    ASSERT_TRUE(db->Lookup("UserID", u, 0, &got).ok()) << trace;
    check(got, expected_in(u, u), 0, "Lookup(" + u + ", all)");
    ASSERT_TRUE(db->Lookup("UserID", u, 3, &got).ok()) << trace;
    check(got, expected_in(u, u), 3, "Lookup(" + u + ", top3)");
  }
  if (!users.empty()) {
    const std::string lo = *users.begin();
    const std::string hi = *users.rbegin();
    ASSERT_TRUE(db->RangeLookup("UserID", lo, hi, 0, &got).ok()) << trace;
    check(got, expected_in(lo, hi), 0, "RangeLookup(all)");
    ASSERT_TRUE(db->RangeLookup("UserID", lo, hi, 5, &got).ok()) << trace;
    check(got, expected_in(lo, hi), 5, "RangeLookup(top5)");
  }
}

/// Post-recovery verification against the golden model. `in_flight` is the
/// op that was executing when the crash hit (nullptr if the workload
/// completed): the one op whose outcome is legitimately two-valued.
inline void VerifyRecovered(SecondaryDB* db, const std::vector<Op>& ops,
                            const Model& model, const Op* in_flight,
                            const std::string& trace) {
  // ---- 1. Primary table vs. the acknowledged model.
  std::set<std::string> keys;
  std::set<std::string> users;
  for (const Op& op : ops) {
    keys.insert(op.key);
    if (op.kind == Op::kPut) users.insert(op.user);
  }
  for (const std::string& key : keys) {
    std::string value;
    Status s = db->Get(key, &value);
    auto it = model.find(key);
    const bool matches_model = (it == model.end())
                                   ? s.IsNotFound()
                                   : (s.ok() && value == it->second);
    if (in_flight != nullptr && key == in_flight->key) {
      // The crash hit mid-op: pre-state (op never landed) and post-state
      // (its durable prefix happened to cover the decisive write) are both
      // legal. Anything else — a third value, an error — is not.
      const bool matches_post =
          (in_flight->kind == Op::kPut)
              ? (s.ok() && value == in_flight->doc)
              : s.IsNotFound();
      ASSERT_TRUE(matches_model || matches_post)
          << trace << " in-flight key=" << key << " status=" << s.ToString();
    } else {
      ASSERT_TRUE(matches_model)
          << trace << " key=" << key << " status=" << s.ToString()
          << (it == model.end() ? " (model: absent)" : " (model: present)");
    }
  }

  // ---- 2. Index queries vs. the recovered primary state (the in-flight
  // ambiguity included): see VerifyIndexesMatchPrimary.
  VerifyIndexesMatchPrimary(db, keys, users, trace);
}

/// One full write -> crash-at-op -> recover -> verify cycle.
inline void RunCrashCycle(IndexType type, const std::vector<Op>& ops,
                          uint64_t crash_at, FaultInjectionEnv::CrashMode mode,
                          uint32_t seed, const std::string& trace,
                          const OptionsTweak& tweak = {},
                          const WorkloadHooks& hooks = {}) {
  SCOPED_TRACE(trace);
  std::unique_ptr<Env> base(NewMemEnv());
  FaultInjectionEnv env(base.get(), seed);
  Model model;
  const Op* in_flight = nullptr;
  SecondaryDBOptions options = MakeCrashOptions(&env, type);
  if (tweak) tweak(&options);
  {
    std::unique_ptr<SecondaryDB> db;
    ASSERT_TRUE(SecondaryDB::Open(options, "/crash", &db).ok()) << trace;
    env.ResetOpCount();
    env.FailAfter(crash_at, FaultInjectionEnv::kOpAllWrites);

    bool hit_error = false;
    size_t acked = ApplyOps(db.get(), ops, &model, &hit_error, hooks);
    if (hooks.before_close) hooks.before_close(db.get());
    if (hit_error) {
      in_flight = &ops[acked];
      // Acknowledged-write semantics: once an op has failed, nothing may be
      // silently accepted afterwards — the engines reject with a non-OK
      // Status (env-level sticky fault here; DB-level stickiness is covered
      // by FaultInjectionTest.WalWriteErrorIsStickyInTheDB).
      Status s = db->Put("zzz-probe", UserDoc("u0", 999999));
      ASSERT_FALSE(s.ok()) << trace << " write accepted after a failed op";
    }
    // DB object destroyed here: the "process" exits without further syncs.
  }
  ASSERT_TRUE(env.SimulateCrash(mode).ok()) << trace;
  env.ClearFaults();

  std::unique_ptr<SecondaryDB> db;
  ASSERT_TRUE(SecondaryDB::Open(options, "/crash", &db).ok())
      << trace << " reopen after crash failed";
  VerifyRecovered(db.get(), ops, model, in_flight, trace);
}

inline const char* CrashModeName(FaultInjectionEnv::CrashMode mode) {
  return mode == FaultInjectionEnv::CrashMode::kDropUnsynced ? "drop" : "torn";
}

}  // namespace crash
}  // namespace leveldbpp

#endif  // LEVELDBPP_TESTS_CRASH_HARNESS_H_
