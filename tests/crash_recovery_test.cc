// Deterministic crash-point recovery matrix: every index variant is driven
// through write -> crash -> reopen cycles with the crash placed at exact
// env-operation counts swept across the whole workload, under both clean
// power loss (unsynced data dropped) and torn writes (a seeded-random
// prefix of the unsynced tail survives). After each recovery the engine is
// checked against a golden model: no acknowledged write lost, no write
// accepted after a failure, and every Lookup/RangeLookup answer exactly
// derivable from the recovered primary table. See crash_harness.h.

#include "crash_harness.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace leveldbpp {
namespace {

using crash::DeleteOp;
using crash::Op;
using crash::PutOp;

// Deterministic mixed workload: 140 ops over 45 keys and 6 users, with
// updates (same key, different user), deletes, and re-puts after delete.
// Document padding makes the volume cross several memtable flushes at the
// harness's 64KB write buffer, so crash points land inside flush and
// version-edit I/O, not just WAL appends.
std::vector<Op> MakeWorkload() {
  std::vector<Op> ops;
  uint64_t ts = 1000;
  char key[16], user[8];
  for (int i = 0; i < 140; i++) {
    if (i % 9 == 5) {
      std::snprintf(key, sizeof(key), "key%03d", (i * 7) % 45);
      ops.push_back(DeleteOp(key));
      continue;
    }
    std::snprintf(key, sizeof(key), "key%03d", (i * 13) % 45);
    std::snprintf(user, sizeof(user), "u%d", (i * 5) % 6);
    ops.push_back(PutOp(key, user, ts++, /*pad=*/700));
  }
  return ops;
}

class CrashRecoveryTest : public testing::TestWithParam<IndexType> {};

TEST_P(CrashRecoveryTest, CrashPointMatrix) {
  const IndexType type = GetParam();
  const std::vector<Op> ops = MakeWorkload();

  // Probe the fault-free run for its total env-operation count, then sweep
  // crash points across it (plus one past the end: a crash with everything
  // acknowledged must recover the full model).
  const uint64_t total_ops = crash::CountEnvOps(type, ops);
  ASSERT_GT(total_ops, 0u);
  const uint64_t stride = std::max<uint64_t>(1, total_ops / 9);

  std::vector<uint64_t> crash_points;
  for (uint64_t n = 0; n < total_ops; n += stride) crash_points.push_back(n);
  crash_points.push_back(total_ops + 10);

  int point_index = 0;
  for (uint64_t crash_at : crash_points) {
    // Alternate crash modes across the sweep; the seed derives from the
    // crash point so every torn-tail cut is reproducible in isolation.
    const auto mode = (point_index++ % 2 == 0)
                          ? FaultInjectionEnv::CrashMode::kDropUnsynced
                          : FaultInjectionEnv::CrashMode::kTornTail;
    const uint32_t seed = 1000 + static_cast<uint32_t>(crash_at);
    crash::RunCrashCycle(
        type, ops, crash_at, mode, seed,
        std::string(IndexTypeName(type)) + " crash_at=" +
            std::to_string(crash_at) + "/" + std::to_string(total_ops) +
            " mode=" + crash::CrashModeName(mode) +
            " seed=" + std::to_string(seed));
    if (testing::Test::HasFatalFailure()) return;
  }
}

// Both crash modes at every boundary of one mid-workload operation: the
// fine-grained version of the matrix around a single op, catching
// off-by-one durability bugs the strided sweep could step over.
TEST_P(CrashRecoveryTest, EveryBoundaryOfOneOp) {
  const IndexType type = GetParam();
  std::vector<Op> ops;
  for (int i = 0; i < 12; i++) {
    ops.push_back(PutOp("key" + std::to_string(i % 5),
                        "u" + std::to_string(i % 3), 2000 + i));
  }
  ops.push_back(DeleteOp("key2"));

  // Env ops consumed by everything up to and including the 6th op, probed
  // by running the 6-op prefix.
  const std::vector<Op> prefix(ops.begin(), ops.begin() + 6);
  const uint64_t before = crash::CountEnvOps(type, prefix);
  const uint64_t after =
      crash::CountEnvOps(type, std::vector<Op>(ops.begin(), ops.begin() + 7));

  for (uint64_t crash_at = before; crash_at <= after; crash_at++) {
    for (auto mode : {FaultInjectionEnv::CrashMode::kDropUnsynced,
                      FaultInjectionEnv::CrashMode::kTornTail}) {
      const uint32_t seed = 7000 + static_cast<uint32_t>(crash_at);
      crash::RunCrashCycle(
          type, ops, crash_at, mode, seed,
          std::string(IndexTypeName(type)) + " boundary crash_at=" +
              std::to_string(crash_at) + " mode=" +
              crash::CrashModeName(mode) + " seed=" + std::to_string(seed));
      if (testing::Test::HasFatalFailure()) return;
    }
  }
}

// `base.sync_writes` alone selects the crash ordering: with no other knob
// set, an env failure anywhere inside one Put (index WAL or primary WAL)
// leaves either nothing or a stale posting, never a primary record that
// LOOKUP cannot find.
TEST(CrashOrderingTest, BaseSyncWritesAloneWritesTheIndexFirst) {
  const Op first = PutOp("key0", "u0", 1000);
  const Op second = PutOp("key1", "u1", 1001);
  auto open = [](Env* env, std::unique_ptr<SecondaryDB>* db) {
    SecondaryDBOptions options;
    options.base.env = env;
    options.base.sync_writes = true;
    options.index_type = IndexType::kLazy;
    options.indexed_attributes = {"UserID"};
    ASSERT_TRUE(SecondaryDB::Open(options, "/order", db).ok());
  };

  // Probe the env operations of the second Put.
  uint64_t put_ops = 0;
  {
    std::unique_ptr<Env> base(NewMemEnv());
    FaultInjectionEnv env(base.get());
    std::unique_ptr<SecondaryDB> db;
    open(&env, &db);
    ASSERT_TRUE(db->Put(first.key, first.doc).ok());
    env.ResetOpCount();
    ASSERT_TRUE(db->Put(second.key, second.doc).ok());
    put_ops = env.op_count();
  }
  ASSERT_GE(put_ops, 2u) << "expected an index and a primary WAL write";

  for (uint64_t fail_at = 0; fail_at < put_ops; fail_at++) {
    const std::string trace = "fail_at=" + std::to_string(fail_at);
    std::unique_ptr<Env> base(NewMemEnv());
    FaultInjectionEnv env(base.get());
    std::unique_ptr<SecondaryDB> db;
    open(&env, &db);
    ASSERT_TRUE(db->Put(first.key, first.doc).ok()) << trace;
    env.ResetOpCount();
    env.FailAfter(fail_at);
    EXPECT_FALSE(db->Put(second.key, second.doc).ok()) << trace;
    env.ClearFaults();
    crash::VerifyIndexesMatchPrimary(db.get(), {first.key, second.key},
                                     {first.user, second.user}, trace);
    if (testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, CrashRecoveryTest,
                         testing::Values(IndexType::kNoIndex,
                                         IndexType::kEmbedded,
                                         IndexType::kLazy, IndexType::kEager,
                                         IndexType::kComposite),
                         [](const testing::TestParamInfo<IndexType>& info) {
                           return IndexTypeName(info.param);
                         });

}  // namespace
}  // namespace leveldbpp
