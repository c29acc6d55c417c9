#include "serve/sharded_db.h"

#include <cinttypes>
#include <cstdio>

#include "env/scheduler_env.h"
#include "env/thread_pool.h"
#include "json/json.h"
#include "util/hash.h"

namespace leveldbpp {

namespace {

// Routing seed: fixed forever — changing it would silently re-route every
// key of every existing sharded store.
constexpr uint32_t kShardHashSeed = 0x8b4de1c7;

std::string ShardsFileName(const std::string& path) {
  return path + "/SHARDS";
}

std::string ShardDirName(const std::string& path, int i) {
  return path + "/shard_" + std::to_string(i);
}

Status ReadShardCount(Env* env, const std::string& fname, int* count) {
  std::unique_ptr<SequentialFile> file;
  Status s = env->NewSequentialFile(fname, &file);
  if (!s.ok()) return s;
  char scratch[64];
  Slice data;
  s = file->Read(sizeof(scratch), &data, scratch);
  if (!s.ok()) return s;
  int parsed = 0;
  size_t i = 0;
  for (; i < data.size() && data[i] >= '0' && data[i] <= '9'; i++) {
    parsed = parsed * 10 + (data[i] - '0');
    if (parsed > 1 << 20) break;  // Absurd; fall through to the check below
  }
  if (i == 0 || parsed <= 0 ||
      (i < data.size() && data[i] != '\n')) {
    return Status::Corruption("malformed SHARDS file", fname);
  }
  *count = parsed;
  return Status::OK();
}

Status WriteShardCount(Env* env, const std::string& fname, int count) {
  std::unique_ptr<WritableFile> file;
  Status s = env->NewWritableFile(fname, &file);
  if (!s.ok()) return s;
  s = file->Append(std::to_string(count) + "\n");
  if (s.ok()) s = file->Sync();
  if (s.ok()) s = file->Close();
  return s;
}

json::Value HistogramJson(const Histogram& h) {
  json::Object hj;
  hj["count"] = json::Value(static_cast<int64_t>(h.Count()));
  hj["avg"] = json::Value(h.Average());
  hj["min"] = json::Value(h.Min());
  hj["max"] = json::Value(h.Max());
  hj["p50"] = json::Value(h.Median());
  hj["p99"] = json::Value(h.Percentile(99));
  return json::Value(std::move(hj));
}

}  // namespace

ShardedDB::ShardedDB(const ShardedDBOptions& options)
    : options_(options), frontend_stats_(new Statistics) {}

Status ShardedDB::Open(const ShardedDBOptions& options,
                       const std::string& path,
                       std::unique_ptr<ShardedDB>* dbptr) {
  dbptr->reset();
  if (options.num_shards < 1 || options.num_shards > 256) {
    return Status::InvalidArgument("num_shards must be in [1, 256]");
  }
  if (options.shard.base.statistics != nullptr) {
    return Status::InvalidArgument(
        "ShardedDB manages per-shard statistics; leave base.statistics null");
  }
  if (options.shard.base.shared_sequence != nullptr) {
    return Status::InvalidArgument(
        "ShardedDB manages the shared sequence counter itself");
  }

  Env* env =
      options.shard.base.env != nullptr ? options.shard.base.env : Env::Posix();
  env->CreateDir(path);  // Ignore "already exists"

  // Pin the shard count on first creation; reject mismatched reopens
  // (records would route to the wrong shard).
  const std::string shards_file = ShardsFileName(path);
  if (env->FileExists(shards_file)) {
    int on_disk = 0;
    Status s = ReadShardCount(env, shards_file, &on_disk);
    if (!s.ok()) return s;
    if (on_disk != options.num_shards) {
      char msg[96];
      std::snprintf(msg, sizeof(msg),
                    "store has %d shards, options ask for %d", on_disk,
                    options.num_shards);
      return Status::InvalidArgument(msg);
    }
  } else {
    Status s = WriteShardCount(env, shards_file, options.num_shards);
    if (!s.ok()) return s;
    env->SyncDir(path);
  }

  std::unique_ptr<ShardedDB> db(new ShardedDB(options));
  db->path_ = path;
  db->env_ = env;
  for (int i = 0; i < options.num_shards; i++) {
    SecondaryDBOptions shard_opts = options.shard;
    shard_opts.base.shared_sequence = &db->global_seq_;
    Env* shard_env = env;
    if (options.env_factory) {
      shard_env = options.env_factory(i);
    }
    auto shard = std::make_unique<Shard>();
    // Per-shard background isolation (see DedicatedSchedulerEnv): one
    // worker per table sharing the lane, so a parked primary flush can
    // never queue ahead of an index-table flush that writers block on.
    const int lane_threads =
        1 + static_cast<int>(options.shard.indexed_attributes.size());
    shard->scheduler_env.reset(new DedicatedSchedulerEnv(shard_env, lane_threads));
    shard_opts.base.env = shard->scheduler_env.get();
    Status s =
        SecondaryDB::Open(shard_opts, ShardDirName(path, i), &shard->db);
    if (!s.ok()) return s;
    db->shards_.push_back(std::move(shard));
  }
  *dbptr = std::move(db);
  return Status::OK();
}

ShardedDB::~ShardedDB() = default;

int ShardedDB::ShardFor(const Slice& key) const {
  return static_cast<int>(Hash(key.data(), key.size(), kShardHashSeed) %
                          static_cast<uint32_t>(shards_.size()));
}

Status ShardedDB::Put(const Slice& key, const Slice& json_value,
                      const SecondaryDB::WriteControl& ctl) {
  Shard* shard = shards_[ShardFor(key)].get();
  frontend_stats_->Record(kShardWritesRouted);
  std::lock_guard<std::mutex> lock(shard->write_mu);
  return shard->db->Put(key, json_value, ctl);
}

Status ShardedDB::Get(const Slice& key, std::string* value) {
  return shards_[ShardFor(key)]->db->Get(key, value);
}

Status ShardedDB::Delete(const Slice& key,
                         const SecondaryDB::WriteControl& ctl) {
  Shard* shard = shards_[ShardFor(key)].get();
  frontend_stats_->Record(kShardWritesRouted);
  std::lock_guard<std::mutex> lock(shard->write_mu);
  return shard->db->Delete(key, ctl);
}

void ShardedDB::MergeTopK(std::vector<std::vector<QueryResult>>* per_shard,
                          size_t k, std::vector<QueryResult>* out) {
  // Each shard's list is sorted newest-first and sequence numbers are
  // globally unique (one shared counter), so once WouldAdmit rejects a
  // candidate the rest of that shard's list is older still — cut it. The
  // global top-K is a subset of the union of per-shard top-Ks, so no match
  // is lost to the per-shard truncation.
  TopKCollector collector(k);
  for (auto& list : *per_shard) {
    for (auto& r : list) {
      frontend_stats_->Record(kShardMergeCandidates);
      if (!collector.WouldAdmit(r.seq)) {
        frontend_stats_->Record(kShardMergeEarlyStops);
        break;
      }
      collector.Add(std::move(r));
    }
  }
  *out = collector.TakeSortedNewestFirst();
}

Status ShardedDB::FanOutQuery(
    size_t k, const QueryOptions& qopts,
    const std::function<Status(int, std::vector<QueryResult>*)>& shard_query,
    std::vector<QueryResult>* results, QueryMeta* meta) {
  results->clear();
  if (meta != nullptr) *meta = QueryMeta();
  frontend_stats_->Record(kShardLookupFanouts);
  const auto deadline_hit = [&]() {
    return qopts.deadline_micros != 0 &&
           env_->NowMicros() >= qopts.deadline_micros;
  };
  if (deadline_hit()) {
    return Status::DeadlineExceeded("before shard fan-out");
  }
  const int n = num_shards();
  std::vector<std::vector<QueryResult>> per_shard(n);
  std::vector<Status> statuses(n);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(n);
  for (int i = 0; i < n; i++) {
    tasks.push_back([i, &shard_query, &per_shard, &statuses]() {
      statuses[i] = shard_query(i, &per_shard[i]);
    });
  }
  ParallelRun(&tasks, n, frontend_stats_.get());
  if (deadline_hit()) {
    return Status::DeadlineExceeded("after shard fan-out");
  }

  int missing = 0;
  for (int i = 0; i < n; i++) {
    if (statuses[i].ok()) continue;
    if (!qopts.allow_degraded) {
      return statuses[i];  // Fail-closed: the pre-existing default.
    }
    // Give a transiently-failed shard one chance to heal: Resume() clears
    // a transient sticky background error (it refuses permanent ones like
    // corruption), then the shard's query runs once more inline. Writers
    // may be racing on this shard, so take its write lock like any other
    // recovery path would.
    bool recovered = false;
    if (!deadline_hit()) {
      Status rs;
      {
        std::lock_guard<std::mutex> lock(shards_[i]->write_mu);
        rs = shards_[i]->db->Resume();
      }
      if (rs.ok()) {
        per_shard[i].clear();
        recovered = shard_query(i, &per_shard[i]).ok();
      }
    }
    if (!recovered) {
      per_shard[i].clear();
      missing++;
    }
  }
  if (missing == n) {
    // Nothing answered; an empty "degraded" result would be
    // indistinguishable from a true empty match set.
    for (int i = 0; i < n; i++) {
      if (!statuses[i].ok()) return statuses[i];
    }
  }
  if (missing > 0) {
    frontend_stats_->Record(kLookupDegraded);
    if (meta != nullptr) {
      meta->degraded = true;
      meta->missing_shards = missing;
    }
  }
  MergeTopK(&per_shard, k, results);
  return Status::OK();
}

Status ShardedDB::Lookup(const std::string& attribute, const Slice& value,
                         size_t k, std::vector<QueryResult>* results) {
  return Lookup(attribute, value, k, QueryOptions(), results, nullptr);
}

Status ShardedDB::Lookup(const std::string& attribute, const Slice& value,
                         size_t k, const QueryOptions& qopts,
                         std::vector<QueryResult>* results, QueryMeta* meta) {
  const std::string val = value.ToString();
  return FanOutQuery(
      k, qopts,
      [this, &attribute, &val, k](int i, std::vector<QueryResult>* out) {
        return shards_[i]->db->Lookup(attribute, val, k, out);
      },
      results, meta);
}

Status ShardedDB::RangeLookup(const std::string& attribute, const Slice& lo,
                              const Slice& hi, size_t k,
                              std::vector<QueryResult>* results) {
  return RangeLookup(attribute, lo, hi, k, QueryOptions(), results, nullptr);
}

Status ShardedDB::RangeLookup(const std::string& attribute, const Slice& lo,
                              const Slice& hi, size_t k,
                              const QueryOptions& qopts,
                              std::vector<QueryResult>* results,
                              QueryMeta* meta) {
  const std::string lo_s = lo.ToString();
  const std::string hi_s = hi.ToString();
  return FanOutQuery(
      k, qopts,
      [this, &attribute, &lo_s, &hi_s, k](int i,
                                          std::vector<QueryResult>* out) {
        return shards_[i]->db->RangeLookup(attribute, lo_s, hi_s, k, out);
      },
      results, meta);
}

Status ShardedDB::CompactAll() {
  for (auto& shard : shards_) {
    Status s = shard->db->CompactAll();
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status ShardedDB::Resume() {
  for (auto& shard : shards_) {
    Status s = shard->db->Resume();
    if (!s.ok()) return s;
  }
  return Status::OK();
}

ShardedDB::ShardHealthInfo ShardedDB::HealthOf(int i) {
  DBImpl::WriteStallState st = shards_[i]->db->GetWriteStallState();
  ShardHealthInfo h;
  h.shard = i;
  h.stall_rung = st.rung;
  h.l0_files = st.l0_files;
  h.imm_queue_depth = st.imm_queue_depth;
  h.imm_queue_capacity = st.imm_queue_capacity;
  h.has_bg_error = !st.bg_error.ok();
  if (h.has_bg_error) h.bg_error = st.bg_error.ToString();
  h.suggested_retry_micros = st.suggested_retry_micros;
  return h;
}

std::vector<ShardedDB::ShardHealthInfo> ShardedDB::ShardHealth() {
  frontend_stats_->Record(kShardHealthChecks);
  std::vector<ShardHealthInfo> out;
  out.reserve(shards_.size());
  for (int i = 0; i < num_shards(); i++) {
    out.push_back(HealthOf(i));
  }
  return out;
}

ShardedDB::ShardHealthInfo ShardedDB::ShardHealthFor(const Slice& key) {
  return HealthOf(ShardFor(key));
}

namespace {

json::Value HealthArray(
    const std::vector<ShardedDB::ShardHealthInfo>& health) {
  json::Array arr;
  for (const ShardedDB::ShardHealthInfo& h : health) {
    json::Object hj;
    hj["shard"] = json::Value(static_cast<int64_t>(h.shard));
    hj["stall_rung"] = json::Value(static_cast<int64_t>(h.stall_rung));
    hj["l0_files"] = json::Value(static_cast<int64_t>(h.l0_files));
    hj["imm_queue_depth"] =
        json::Value(static_cast<int64_t>(h.imm_queue_depth));
    hj["imm_queue_capacity"] =
        json::Value(static_cast<int64_t>(h.imm_queue_capacity));
    hj["bg_error"] = json::Value(h.bg_error);
    hj["suggested_retry_micros"] =
        json::Value(static_cast<int64_t>(h.suggested_retry_micros));
    arr.push_back(json::Value(std::move(hj)));
  }
  return json::Value(std::move(arr));
}

}  // namespace

std::string ShardedDB::HealthJson() {
  return HealthArray(ShardHealth()).ToString();
}

uint64_t ShardedDB::TotalTicker(Ticker t) {
  uint64_t total = frontend_stats_->Get(t);
  for (auto& shard : shards_) {
    total += shard->db->TotalTicker(t);
  }
  return total;
}

bool ShardedDB::GetProperty(const Slice& property, std::string* value) {
  if (property != Slice("leveldbpp.stats.json")) return false;

  json::Array shards_json;
  std::vector<uint64_t> agg_tickers(kTickerCount, 0);
  std::vector<Histogram> agg_hists(kHistogramCount);

  for (int i = 0; i < num_shards(); i++) {
    SecondaryDB* db = shards_[i]->db.get();
    json::Object tickers;
    for (uint32_t t = 0; t < kTickerCount; t++) {
      const uint64_t v = db->TotalTicker(static_cast<Ticker>(t));
      agg_tickers[t] += v;
      tickers[TickerName(static_cast<Ticker>(t))] =
          json::Value(static_cast<int64_t>(v));
    }
    json::Object hists;
    for (uint32_t h = 0; h < kHistogramCount; h++) {
      const Histogram hist =
          db->primary_statistics()->GetHistogram(static_cast<HistogramType>(h));
      agg_hists[h].Merge(hist);
      if (hist.Count() == 0) continue;
      hists[HistogramName(static_cast<HistogramType>(h))] =
          HistogramJson(hist);
    }
    json::Object sj;
    sj["shard"] = json::Value(static_cast<int64_t>(i));
    sj["tickers"] = json::Value(std::move(tickers));
    sj["histograms"] = json::Value(std::move(hists));
    shards_json.push_back(json::Value(std::move(sj)));
  }

  json::Object agg_tj;
  for (uint32_t t = 0; t < kTickerCount; t++) {
    agg_tj[TickerName(static_cast<Ticker>(t))] = json::Value(
        static_cast<int64_t>(agg_tickers[t] +
                             frontend_stats_->Get(static_cast<Ticker>(t))));
  }
  json::Object agg_hj;
  for (uint32_t h = 0; h < kHistogramCount; h++) {
    if (agg_hists[h].Count() == 0) continue;
    agg_hj[HistogramName(static_cast<HistogramType>(h))] =
        HistogramJson(agg_hists[h]);
  }
  json::Object aggregate;
  aggregate["tickers"] = json::Value(std::move(agg_tj));
  aggregate["histograms"] = json::Value(std::move(agg_hj));

  json::Object root;
  root["num_shards"] = json::Value(static_cast<int64_t>(num_shards()));
  root["shards"] = json::Value(std::move(shards_json));
  root["aggregate"] = json::Value(std::move(aggregate));
  root["health"] = HealthArray(ShardHealth());
  *value = json::Value(std::move(root)).ToString();
  return true;
}

}  // namespace leveldbpp
