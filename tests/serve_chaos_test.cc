// Chaos harness for the serving stack: a LIVE server over per-shard fault
// envs, driven through real protocol clients while single shards are
// stalled, failed, delayed, or killed mid-connection.
//
// The invariants under attack (DESIGN.md "Serving robustness"):
//  * The server always answers PING and HEALTH, whatever the shards do.
//  * A sick shard never blocks traffic to healthy shards.
//  * Writes are shed with RETRY_LATER (nothing applied) — never silently
//    dropped: every ACKNOWLEDGED write must read back byte-identical after
//    recovery (golden-model check).
//  * Degraded query results are always flagged, and only ever happen when
//    the client opted in.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "env/fault_injection_env.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/sharded_db.h"

namespace leveldbpp {
namespace {

// ---------------------------------------------------------------------------
// ChaosEnv: the per-shard failure surface. Stacks on a FaultInjectionEnv
// (deterministic write-op faults) and adds what a *live* chaos schedule
// needs beyond it: injectable READ faults (sticky background errors leave
// reads working, so degrading a shard's queries needs its own lever), a
// read DELAY (deterministic deadline expiry), and a table-write GATE that
// parks the shard's flush thread exactly where real slow disks do — inside
// NewWritableFile with the DB mutex released, so reads and health checks
// stay live while the immutable-memtable queue fills behind it.
// ---------------------------------------------------------------------------

class ChaosEnv;

class ChaosRandomAccessFile : public RandomAccessFile {
 public:
  ChaosRandomAccessFile(ChaosEnv* owner,
                        std::unique_ptr<RandomAccessFile> inner)
      : owner_(owner), inner_(std::move(inner)) {}
  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override;

 private:
  ChaosEnv* const owner_;
  const std::unique_ptr<RandomAccessFile> inner_;
};

class ChaosEnv : public Env {
 public:
  explicit ChaosEnv(Env* base) : base_(base) {}

  ~ChaosEnv() override { BlockTableWrites(false); }

  // n > 0: fail the next n reads. n < 0: fail every read. 0: healthy.
  void SetReadFaults(int64_t n) { read_faults_.store(n); }

  // Every SSTable read sleeps this long first (0 = no delay).
  void SetReadDelayMicros(uint64_t micros) { read_delay_micros_.store(micros); }

  // Closed gate: creating a PRIMARY-table SSTable blocks until the gate
  // reopens. WAL and MANIFEST files pass through, so foreground writes
  // keep acknowledging until the stall ladder refuses them — and index
  // tables pass through too, because index writes deliberately keep the
  // blocking path (see SecondaryDB::WriteControl): gating them would park
  // the connection thread inside the index before the primary ladder ever
  // got the chance to shed.
  void BlockTableWrites(bool block) {
    std::lock_guard<std::mutex> l(gate_mu_);
    table_writes_blocked_ = block;
    if (!block) gate_cv_.notify_all();
  }

  Status MaybeReadChaos() {
    const uint64_t delay = read_delay_micros_.load(std::memory_order_relaxed);
    if (delay != 0) base_->SleepForMicroseconds(static_cast<int>(delay));
    int64_t cur = read_faults_.load(std::memory_order_relaxed);
    while (cur != 0) {
      if (cur < 0 || read_faults_.compare_exchange_weak(cur, cur - 1)) {
        return Status::IOError("injected read fault");
      }
    }
    return Status::OK();
  }

  // ---- Env interface ----
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    return base_->NewSequentialFile(fname, result);
  }
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    std::unique_ptr<RandomAccessFile> inner;
    Status s = base_->NewRandomAccessFile(fname, &inner);
    if (!s.ok()) return s;
    result->reset(new ChaosRandomAccessFile(this, std::move(inner)));
    return Status::OK();
  }
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    if (fname.size() > 4 &&
        fname.compare(fname.size() - 4, 4, ".ldb") == 0 &&
        fname.find("/primary/") != std::string::npos) {
      std::unique_lock<std::mutex> l(gate_mu_);
      gate_cv_.wait(l, [this]() { return !table_writes_blocked_; });
    }
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
  Status SyncDir(const std::string& dirname) override {
    return base_->SyncDir(dirname);
  }
  uint64_t NowMicros() override { return base_->NowMicros(); }
  void Schedule(void (*function)(void*), void* arg) override {
    base_->Schedule(function, arg);
  }
  void StartThread(void (*function)(void*), void* arg) override {
    base_->StartThread(function, arg);
  }
  void SleepForMicroseconds(int micros) override {
    base_->SleepForMicroseconds(micros);
  }

 private:
  Env* const base_;
  std::atomic<int64_t> read_faults_{0};
  std::atomic<uint64_t> read_delay_micros_{0};
  std::mutex gate_mu_;
  std::condition_variable gate_cv_;
  bool table_writes_blocked_ = false;  // guarded by gate_mu_
};

Status ChaosRandomAccessFile::Read(uint64_t offset, size_t n, Slice* result,
                                   char* scratch) const {
  Status s = owner_->MaybeReadChaos();
  if (!s.ok()) return s;
  return inner_->Read(offset, n, result, scratch);
}

// ---------------------------------------------------------------------------
// Fixture: ShardedDB with one FaultInjectionEnv + ChaosEnv per shard over a
// shared in-memory base, behind a live Server.
// ---------------------------------------------------------------------------

struct ChaosFixture {
  std::unique_ptr<Env> base_env;
  std::vector<std::unique_ptr<FaultInjectionEnv>> fault_envs;
  std::vector<std::unique_ptr<ChaosEnv>> chaos_envs;
  std::unique_ptr<ShardedDB> db;
  std::unique_ptr<Server> server;

  explicit ChaosFixture(int shards = 2,
                        ServerOptions server_options = ServerOptions()) {
    base_env.reset(NewMemEnv());
    for (int i = 0; i < shards; i++) {
      fault_envs.emplace_back(
          new FaultInjectionEnv(base_env.get(), /*seed=*/301 + i));
      chaos_envs.emplace_back(new ChaosEnv(fault_envs.back().get()));
    }
    ShardedDBOptions options;
    options.shard.base.env = base_env.get();  // SHARDS meta file only
    // Small memtables + background mode: a blocked flush engages the
    // stall ladder after a couple hundred small documents.
    options.shard.base.write_buffer_size = 4 << 10;
    options.shard.base.background_compaction = true;
    options.shard.base.max_immutable_memtables = 1;
    options.shard.index_type = IndexType::kLazy;
    options.shard.indexed_attributes = {"UserID"};
    options.num_shards = shards;
    options.env_factory = [this](int i) { return chaos_envs[i].get(); };
    EXPECT_TRUE(ShardedDB::Open(options, "/chaos", &db).ok());
    EXPECT_TRUE(Server::Start(db.get(), server_options, &server).ok());
  }

  ~ChaosFixture() {
    // Heal everything before teardown: a shard's background thread may be
    // parked inside a closed gate, and Stop()/close must not deadlock.
    for (auto& e : chaos_envs) {
      e->SetReadFaults(0);
      e->SetReadDelayMicros(0);
      e->BlockTableWrites(false);
    }
    for (auto& e : fault_envs) e->ClearFaults();
    if (server != nullptr) server->Stop();
  }

  std::unique_ptr<Client> Connect() {
    std::unique_ptr<Client> client;
    EXPECT_TRUE(Client::Connect("127.0.0.1", server->port(), &client).ok());
    return client;
  }

  // A key that routes to `shard`.
  std::string KeyFor(int shard, int i) {
    for (int salt = 0;; salt++) {
      std::string key = "s" + std::to_string(shard) + "-" +
                        std::to_string(i) + "-" + std::to_string(salt);
      if (db->ShardFor(key) == shard) return key;
    }
  }

  // Poll a predicate for up to ~5s (background threads need real time).
  template <typename Pred>
  bool WaitFor(Pred pred) {
    for (int i = 0; i < 500; i++) {
      if (pred()) return true;
      base_env->SleepForMicroseconds(10000);
    }
    return false;
  }
};

std::string Doc(const std::string& user, int i) {
  return "{\"UserID\":\"" + user + "\",\"Seq\":" + std::to_string(i) + "}";
}

RetryPolicy NoRetries() {
  RetryPolicy p;
  p.max_retries = 0;
  p.reconnect = false;
  return p;
}

// ---------------------------------------------------------------------------
// Stalled shard: flush blocked on a closed gate. Writes to that shard are
// shed with RETRY_LATER + the rung-2 hint, reads and health checks keep
// answering, the sibling shard is untouched, and once the gate reopens a
// retried write lands. Golden-model check: every acknowledged write reads
// back byte-identical.
// ---------------------------------------------------------------------------
TEST(ServeChaosTest, StalledShardShedsWritesAndStaysObservable) {
  ChaosFixture fx(/*shards=*/2);
  std::unique_ptr<Client> client = fx.Connect();
  client->set_retry_policy(NoRetries());  // surface every shed

  std::map<std::string, std::string> golden;  // acknowledged writes only
  fx.chaos_envs[0]->BlockTableWrites(true);

  // Hammer shard 0 until the ladder refuses a write: memtable fills,
  // rotates into the (blocked) flush queue, second memtable fills, and the
  // imm-queue-full rung sheds.
  std::string refused_key, refused_doc;
  bool shed = false;
  for (int i = 0; i < 2000 && !shed; i++) {
    const std::string key = fx.KeyFor(0, i);
    const std::string doc = Doc("stall", i);
    Status s = client->Put(key, doc);
    if (s.ok()) {
      golden[key] = doc;
    } else {
      ASSERT_TRUE(s.IsBusy()) << s.ToString();
      refused_key = key;
      refused_doc = doc;
      shed = true;
    }
  }
  ASSERT_TRUE(shed) << "stall ladder never engaged";
  EXPECT_EQ(10000u, client->last_retry_after_micros());  // rung-2 hint
  EXPECT_GE(fx.db->statistics()->Get(kServeRequestsShed), 1u);
  EXPECT_GE(fx.db->statistics()->Get(kServeRetriesSuggested), 1u);

  // The server still answers probes, and health tells the truth: shard 0
  // is at the imm-queue rung, shard 1 is clean.
  ASSERT_TRUE(client->Ping().ok());
  std::string health_json;
  ASSERT_TRUE(client->Health(&health_json).ok());
  EXPECT_NE(std::string::npos, health_json.find("stall_rung"));
  std::vector<ShardedDB::ShardHealthInfo> health = fx.db->ShardHealth();
  EXPECT_EQ(2, health[0].stall_rung);
  EXPECT_EQ(10000u, health[0].suggested_retry_micros);
  EXPECT_EQ(0, health[1].stall_rung);

  // The sick shard still reads; the healthy shard still writes.
  std::string value;
  ASSERT_FALSE(golden.empty());
  ASSERT_TRUE(client->Get(golden.begin()->first, &value).ok());
  EXPECT_EQ(golden.begin()->second, value);
  const std::string healthy_key = fx.KeyFor(1, 0);
  ASSERT_TRUE(client->Put(healthy_key, Doc("healthy", 0)).ok());
  golden[healthy_key] = Doc("healthy", 0);

  // Recovery: reopen the gate; the retrying client lands the shed write.
  fx.chaos_envs[0]->BlockTableWrites(false);
  client->set_retry_policy(RetryPolicy());
  ASSERT_TRUE(client->Put(refused_key, refused_doc).ok());
  golden[refused_key] = refused_doc;

  // Golden model: every acknowledged write is present, byte-identical.
  for (const auto& kv : golden) {
    ASSERT_TRUE(client->Get(kv.first, &value).ok()) << kv.first;
    EXPECT_EQ(kv.second, value) << kv.first;
  }
}

// ---------------------------------------------------------------------------
// Degraded reads: a shard whose queries fail is dropped from the fan-out
// ONLY when the client opted in, the response is flagged with the missing
// count, and all-shards-down returns the error instead of an empty
// "success".
// ---------------------------------------------------------------------------
TEST(ServeChaosTest, DegradedLookupsAreOptInAndFlagged) {
  ChaosFixture fx(/*shards=*/2);
  std::unique_ptr<Client> client = fx.Connect();

  // Data on both shards, compacted so queries must read SSTables (the
  // read-fault lever acts on file reads).
  int on_shard[2] = {0, 0};
  for (int i = 0; i < 40; i++) {
    const std::string key = "mix-" + std::to_string(i);
    ASSERT_TRUE(client->Put(key, Doc("deg", i)).ok());
    on_shard[fx.db->ShardFor(key)]++;
  }
  ASSERT_GT(on_shard[0], 0);
  ASSERT_GT(on_shard[1], 0);
  ASSERT_TRUE(fx.db->CompactAll().ok());

  std::vector<QueryResult> results;
  ASSERT_TRUE(client->Lookup("UserID", "deg", 0, &results).ok());
  ASSERT_EQ(40u, results.size());

  fx.chaos_envs[0]->SetReadFaults(-1);

  // Default: fail-closed. The query fails; nothing partial leaks out.
  Status s = client->Lookup("UserID", "deg", 0, &results);
  ASSERT_FALSE(s.ok());
  EXPECT_FALSE(client->last_degraded());

  // Opt in: partial results, flagged, with the missing-shard count.
  client->set_allow_degraded(true);
  ASSERT_TRUE(client->Lookup("UserID", "deg", 0, &results).ok());
  EXPECT_TRUE(client->last_degraded());
  EXPECT_EQ(1u, client->last_missing_shards());
  ASSERT_EQ(static_cast<size_t>(on_shard[1]), results.size());
  for (const QueryResult& r : results) {
    EXPECT_EQ(1, fx.db->ShardFor(r.primary_key));
  }
  EXPECT_GE(fx.db->statistics()->Get(kLookupDegraded), 1u);

  // Every shard down: error, not an empty degraded "success".
  fx.chaos_envs[1]->SetReadFaults(-1);
  EXPECT_FALSE(client->Lookup("UserID", "deg", 0, &results).ok());

  // Heal: full, unflagged results again.
  fx.chaos_envs[0]->SetReadFaults(0);
  fx.chaos_envs[1]->SetReadFaults(0);
  ASSERT_TRUE(client->Lookup("UserID", "deg", 0, &results).ok());
  EXPECT_FALSE(client->last_degraded());
  EXPECT_EQ(0u, client->last_missing_shards());
  EXPECT_EQ(40u, results.size());
}

// ---------------------------------------------------------------------------
// Sticky background error: a failed flush poisons the shard's writes (the
// error surfaces, nothing is silently buffered), health reports it, and
// the degraded fan-out's one auto-Resume() attempt heals the shard without
// any operator action once the underlying fault clears.
// ---------------------------------------------------------------------------
TEST(ServeChaosTest, AutoResumeHealsTransientBgError) {
  ChaosFixture fx(/*shards=*/2);
  std::unique_ptr<Client> client = fx.Connect();

  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(client->Put(fx.KeyFor(0, i), Doc("heal", i)).ok());
  }
  ASSERT_TRUE(fx.db->CompactAll().ok());

  // Fail every Sync on shard 0: foreground appends stay buffered (writes
  // keep acknowledging), but the next background flush dies at the table
  // Sync and records a sticky error. Write to shard 0 until one of its
  // memtables fills and that flush fails (bounded: a few thousand small
  // documents fill the smallest write buffer many times over).
  fx.fault_envs[0]->FailAfter(0, FaultInjectionEnv::kOpSync);
  for (int i = 100; i < 10000 && !fx.db->ShardHealth()[0].has_bg_error;
       i++) {
    Status s = client->Put(fx.KeyFor(0, i), Doc("heal", i));
    if (!s.ok()) break;  // ladder/bg-error reached; enough traffic sent
  }
  ASSERT_TRUE(fx.WaitFor([&]() {
    return fx.db->ShardHealth()[0].has_bg_error;
  })) << "background flush never failed";

  // Sick-shard writes fail loudly; the server still answers probes.
  EXPECT_FALSE(client->Put(fx.KeyFor(0, 9999), Doc("x", 0)).ok());
  ASSERT_TRUE(client->Ping().ok());
  std::string health_json;
  ASSERT_TRUE(client->Health(&health_json).ok());
  EXPECT_NE(std::string::npos, health_json.find("bg_error"));

  // The disk comes back, but the sticky error remains until a Resume. A
  // single transient read fault makes shard 0's next query fail once; with
  // degradation opted in, the fan-out gives the shard its one automatic
  // Resume — which clears the sticky error, drains the stuck flush (the
  // fault is already consumed, so the rebuilt table verifies clean), and
  // re-runs the shard query inline. The client gets a FULL answer, not a
  // degraded one, and the shard is healed without any operator action.
  fx.fault_envs[0]->ClearFaults();
  fx.chaos_envs[0]->SetReadFaults(1);
  client->set_allow_degraded(true);
  std::vector<QueryResult> results;
  ASSERT_TRUE(client->Lookup("UserID", "heal", 0, &results).ok());
  EXPECT_FALSE(client->last_degraded());

  ASSERT_TRUE(fx.WaitFor([&]() {
    return !fx.db->ShardHealth()[0].has_bg_error;
  })) << "auto-Resume did not clear the sticky error";

  // Healed without any explicit Resume call: writes and full lookups work.
  ASSERT_TRUE(client->Put(fx.KeyFor(0, 10000), Doc("heal", 10000)).ok());
  std::string value;
  ASSERT_TRUE(client->Get(fx.KeyFor(0, 10000), &value).ok());
  EXPECT_EQ(Doc("heal", 10000), value);
  ASSERT_TRUE(client->Lookup("UserID", "heal", 0, &results).ok());
  EXPECT_FALSE(client->last_degraded());
}

// ---------------------------------------------------------------------------
// Deadline storm: slow reads + tight budgets. Every storm request answers
// DEADLINE_EXCEEDED (not a hang, not a wedge), probes still answer, and
// normal service resumes the moment the slowness clears.
// ---------------------------------------------------------------------------
TEST(ServeChaosTest, DeadlineStormAnswersFastAndNeverWedges) {
  ChaosFixture fx(/*shards=*/2);
  std::unique_ptr<Client> client = fx.Connect();

  for (int i = 0; i < 30; i++) {
    ASSERT_TRUE(client->Put("storm-" + std::to_string(i), Doc("storm", i)).ok());
  }
  ASSERT_TRUE(fx.db->CompactAll().ok());

  // Every SSTable read on shard 0 now takes 5ms; a 2ms budget cannot
  // survive the fan-out's merge barrier.
  fx.chaos_envs[0]->SetReadDelayMicros(5000);
  client->set_default_deadline_micros(2000);

  std::vector<QueryResult> results;
  for (int i = 0; i < 20; i++) {
    Status s = client->Lookup("UserID", "storm", 0, &results);
    ASSERT_TRUE(s.IsDeadlineExceeded()) << "round " << i << ": "
                                        << s.ToString();
  }
  EXPECT_GE(fx.db->statistics()->Get(kServeDeadlineExceeded), 20u);

  // Probes are deadline-exempt and touch no files: always live.
  ASSERT_TRUE(client->Ping().ok());
  std::string health_json;
  ASSERT_TRUE(client->Health(&health_json).ok());

  // Storm over: same deadline now succeeds.
  fx.chaos_envs[0]->SetReadDelayMicros(0);
  client->set_default_deadline_micros(0);
  ASSERT_TRUE(client->Lookup("UserID", "storm", 0, &results).ok());
  EXPECT_EQ(30u, results.size());
}

// ---------------------------------------------------------------------------
// Connection kills: peers that send a request and vanish before reading
// the response force the server to write into dead sockets. MSG_NOSIGNAL
// hardening means no SIGPIPE can kill the process (satellite regression).
// ---------------------------------------------------------------------------
TEST(ServeChaosTest, KilledConnectionsNeverTakeTheServerDown) {
  ChaosFixture fx(/*shards=*/2);
  {
    std::unique_ptr<Client> seed = fx.Connect();
    // A fat result set so the response write is guaranteed to still be in
    // flight when the peer disappears.
    for (int i = 0; i < 50; i++) {
      ASSERT_TRUE(seed->Put("kill-" + std::to_string(i),
                            Doc("kill", i))
                      .ok());
    }
  }
  for (int round = 0; round < 20; round++) {
    std::unique_ptr<Client> victim = fx.Connect();
    ASSERT_TRUE(victim != nullptr);
    wire::Request req;
    req.op = wire::kLookup;
    req.attribute = "UserID";
    req.value = "kill";
    req.k = 0;
    std::string frame;
    wire::EncodeRequest(req, &frame);
    ASSERT_TRUE(victim->SendRaw(frame).ok());
    victim.reset();  // close without reading: server's write hits EPIPE
  }

  // The process survived (a raised SIGPIPE would have killed it) and the
  // server still does real work.
  std::unique_ptr<Client> client = fx.Connect();
  ASSERT_TRUE(client->Ping().ok());
  std::vector<QueryResult> results;
  ASSERT_TRUE(client->Lookup("UserID", "kill", 0, &results).ok());
  EXPECT_EQ(50u, results.size());
}

// ---------------------------------------------------------------------------
// Admission control: a parked request exhausts max_inflight_requests, so
// the next request is refused before touching the engine — but PING and
// HEALTH stay exempt. Excess connections get one RETRY_LATER frame.
// ---------------------------------------------------------------------------
TEST(ServeChaosTest, AdmissionControlShedsButProbesAlwaysAnswer) {
  ServerOptions sopts;
  sopts.shed_stalled_writes = false;  // let a write PARK inside the shard
  sopts.max_inflight_requests = 1;
  ChaosFixture fx(/*shards=*/2, sopts);

  // Drive shard 0 to the parking point directly (no server involved):
  // blocked flush + both memtables full means the next write waits.
  fx.chaos_envs[0]->BlockTableWrites(true);
  SecondaryDB::WriteControl probe;
  probe.no_stall = true;
  bool saturated = false;
  for (int i = 0; i < 2000 && !saturated; i++) {
    Status s = fx.db->Put(fx.KeyFor(0, i), Doc("adm", i), probe);
    if (s.IsBusy()) saturated = true;
  }
  ASSERT_TRUE(saturated);

  // This request parks inside MakeRoomForWrite, pinning inflight at 1.
  const uint64_t requests_before = fx.db->statistics()->Get(kServeRequests);
  std::unique_ptr<Client> parked = fx.Connect();
  std::thread parked_thread([&]() {
    EXPECT_TRUE(parked->Put(fx.KeyFor(0, 9999), Doc("adm", 9999)).ok());
  });
  ASSERT_TRUE(fx.WaitFor([&]() {
    return fx.db->statistics()->Get(kServeRequests) > requests_before;
  }));
  fx.base_env->SleepForMicroseconds(50000);  // let it reach the ladder

  // Engine work is refused at the door...
  std::unique_ptr<Client> second = fx.Connect();
  second->set_retry_policy(NoRetries());
  std::string value;
  Status s = second->Get(fx.KeyFor(1, 0), &value);
  ASSERT_TRUE(s.IsBusy()) << s.ToString();
  EXPECT_EQ(20000u, second->last_retry_after_micros());
  EXPECT_GE(fx.db->statistics()->Get(kServeRequestsShed), 1u);

  // ...but probes are not.
  ASSERT_TRUE(second->Ping().ok());
  std::string health_json;
  ASSERT_TRUE(second->Health(&health_json).ok());

  // Reopen the gate: the parked write completes and was never lost.
  fx.chaos_envs[0]->BlockTableWrites(false);
  parked_thread.join();
  ASSERT_TRUE(second->Get(fx.KeyFor(0, 9999), &value).ok());
  EXPECT_EQ(Doc("adm", 9999), value);
}

TEST(ServeChaosTest, ConnectionLimitAcceptSheds) {
  ServerOptions sopts;
  sopts.max_connections = 1;
  ChaosFixture fx(/*shards=*/2, sopts);

  std::unique_ptr<Client> first = fx.Connect();
  ASSERT_TRUE(first->Ping().ok());

  // The second connection gets exactly one RETRY_LATER frame, then EOF.
  std::unique_ptr<Client> second = fx.Connect();
  wire::Response resp;
  ASSERT_TRUE(second->ReadRawResponse(&resp, /*timeout=*/2000000).ok());
  EXPECT_EQ(wire::kRetryLater, resp.code);
  EXPECT_GT(resp.retry_after_micros, 0u);
  EXPECT_FALSE(second->ReadRawResponse(&resp, 2000000).ok());

  // Capacity freed: the next attempt is admitted. The retrying client
  // handles the whole dance transparently.
  first.reset();
  ASSERT_TRUE(fx.WaitFor([&]() {
    std::unique_ptr<Client> probe;
    if (!Client::Connect("127.0.0.1", fx.server->port(), &probe).ok()) {
      return false;
    }
    return probe->Ping().ok();
  }));
}

// ---------------------------------------------------------------------------
// Full chaos schedule: concurrent writers, shedding on, a mid-run stall of
// EVERY shard, and retrying clients. The golden-model invariant: every
// acknowledged write reads back byte-identical after the chaos ends.
// ---------------------------------------------------------------------------
TEST(ServeChaosTest, OverloadRecoveryLosesNoAcknowledgedWrite) {
  ChaosFixture fx(/*shards=*/2);
  constexpr int kThreads = 4;
  constexpr int kOps = 250;

  std::vector<std::map<std::string, std::string>> golden(kThreads);
  std::vector<std::thread> writers;
  std::atomic<int> started{0};
  for (int t = 0; t < kThreads; t++) {
    writers.emplace_back([&fx, &golden, &started, t]() {
      std::unique_ptr<Client> client;
      ASSERT_TRUE(
          Client::Connect("127.0.0.1", fx.server->port(), &client).ok());
      RetryPolicy patient;
      patient.max_retries = 100;  // outlast the 40ms stall window
      client->set_retry_policy(patient);
      started.fetch_add(1);
      for (int i = 0; i < kOps; i++) {
        const std::string key =
            "ch-" + std::to_string(t) + "-" + std::to_string(i);
        const std::string doc = Doc("u" + std::to_string(t), i);
        ASSERT_TRUE(client->Put(key, doc).ok()) << key;
        golden[t][key] = doc;
      }
    });
  }

  // Mid-run: stall every shard's flush for 40ms. Writers ride it out on
  // RETRY_LATER + backoff.
  while (started.load() < kThreads) {
    fx.base_env->SleepForMicroseconds(1000);
  }
  fx.base_env->SleepForMicroseconds(10000);
  for (auto& e : fx.chaos_envs) e->BlockTableWrites(true);
  fx.base_env->SleepForMicroseconds(40000);
  for (auto& e : fx.chaos_envs) e->BlockTableWrites(false);

  for (std::thread& w : writers) w.join();

  // Every acknowledged write survived, byte-identical.
  std::unique_ptr<Client> reader = fx.Connect();
  std::string value;
  size_t total = 0;
  for (const auto& m : golden) {
    for (const auto& kv : m) {
      ASSERT_TRUE(reader->Get(kv.first, &value).ok()) << kv.first;
      EXPECT_EQ(kv.second, value) << kv.first;
      total++;
    }
  }
  EXPECT_EQ(static_cast<size_t>(kThreads) * kOps, total);

  // And the index agrees with the golden model per user.
  std::vector<QueryResult> results;
  for (int t = 0; t < kThreads; t++) {
    ASSERT_TRUE(
        reader->Lookup("UserID", "u" + std::to_string(t), 0, &results).ok());
    EXPECT_EQ(static_cast<size_t>(kOps), results.size()) << "user " << t;
  }
}

}  // namespace
}  // namespace leveldbpp
