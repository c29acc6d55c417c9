// ShardedDB: shard-per-core serving layer over SecondaryDB.
//
// N fully independent SecondaryDB instances (each with its own WAL,
// memtable, compaction pipeline, and stand-alone index tables) live under
// one directory:
//
//   <path>/SHARDS          shard count, checked on reopen
//   <path>/shard_<i>       one complete SecondaryDB store per shard
//
// PUT / GET / DELETE route by a stable hash of the primary key, so each
// shard's writer queue, stall ladder, and background compaction run
// independently — the whole point: on a multi-core host, PUT throughput
// scales with shards because the per-DB writer mutex and WAL append stop
// being the global bottleneck.
//
// LOOKUP / RANGELOOKUP fan out to every shard through the engine's shared
// ParallelRun pool and merge through the same TopKCollector the paper's
// Algorithm 1 uses. Results are byte-identical (values, sequence numbers,
// AND order) to an unsharded SecondaryDB given the same operation stream,
// because all shards draw sequence numbers from one shared atomic counter
// (Options::shared_sequence): seqs are globally unique and comparable, each
// logical op consumes exactly one, and the merge admits candidates in
// per-shard newest-first order with WouldAdmit cutting each shard's tail.

#ifndef LEVELDBPP_SERVE_SHARDED_DB_H_
#define LEVELDBPP_SERVE_SHARDED_DB_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/secondary_db.h"

namespace leveldbpp {
class DedicatedSchedulerEnv;
}

namespace leveldbpp {

struct ShardedDBOptions {
  /// Per-shard store configuration. Applied identically to every shard,
  /// except base.shared_sequence (managed by ShardedDB — supplying one is
  /// rejected) and base.statistics (must be null: each shard owns its
  /// Statistics so the serving layer can report per-shard breakdowns).
  SecondaryDBOptions shard;

  /// Number of shards. Fixed at creation and recorded in <path>/SHARDS;
  /// reopening with a different count is rejected (resharding would need
  /// to rehash every record).
  int num_shards = 4;

  /// Per-shard Env override: when set, shard i opens with env_factory(i)
  /// instead of shard.base.env. The returned Envs must outlive the store.
  /// This exists for the chaos harness — one FaultInjectionEnv per shard
  /// lets a test stall or fail a SINGLE shard behind a live server while
  /// its siblings stay healthy. Default null: every shard shares
  /// shard.base.env.
  std::function<Env*(int)> env_factory;
};

class ShardedDB {
 public:
  /// Open (creating if missing) a sharded store at `path`.
  static Status Open(const ShardedDBOptions& options, const std::string& path,
                     std::unique_ptr<ShardedDB>* dbptr);

  ShardedDB(const ShardedDB&) = delete;
  ShardedDB& operator=(const ShardedDB&) = delete;
  ~ShardedDB();

  // ---- Table 1 operations, same contracts as SecondaryDB ----

  /// WriteControl::no_stall sheds instead of parking when the target
  /// shard's ladder is engaged (see SecondaryDB::WriteControl); pair a
  /// Busy return with ShardHealthFor(key).suggested_retry_micros.
  Status Put(const Slice& key, const Slice& json_value,
             const SecondaryDB::WriteControl& ctl = {});
  Status Get(const Slice& key, std::string* value);
  Status Delete(const Slice& key,
                const SecondaryDB::WriteControl& ctl = {});

  /// Per-query controls for the cross-shard fan-out.
  struct QueryOptions {
    /// Absolute deadline on the serving Env's NowMicros clock (0 = none),
    /// checked before dispatching the fan-out and again at the merge
    /// barrier — a shard query already in flight is not interrupted.
    uint64_t deadline_micros = 0;
    /// Accept partial results when some shards fail: failed shards get one
    /// auto-Resume() attempt (transient sticky errors clear) and one
    /// retry; shards still failing are dropped from the merge and counted
    /// in QueryMeta. Default false: any shard failure fails the query
    /// (fail-closed, exactly the pre-existing behavior).
    bool allow_degraded = false;
  };

  /// What actually happened to a fan-out query.
  struct QueryMeta {
    bool degraded = false;   // results lack >= 1 shard's contribution
    int missing_shards = 0;  // how many shards are missing from the merge
  };

  /// Cross-shard LOOKUP: K most recent matches over all shards, newest
  /// first, byte-identical to an unsharded store (see file comment).
  Status Lookup(const std::string& attribute, const Slice& value, size_t k,
                std::vector<QueryResult>* results);
  Status Lookup(const std::string& attribute, const Slice& value, size_t k,
                const QueryOptions& qopts, std::vector<QueryResult>* results,
                QueryMeta* meta);
  Status RangeLookup(const std::string& attribute, const Slice& lo,
                     const Slice& hi, size_t k,
                     std::vector<QueryResult>* results);
  Status RangeLookup(const std::string& attribute, const Slice& lo,
                     const Slice& hi, size_t k, const QueryOptions& qopts,
                     std::vector<QueryResult>* results, QueryMeta* meta);

  /// Flush + fully compact every shard (primary and index tables).
  Status CompactAll();

  /// Clear transient sticky background errors on every shard.
  Status Resume();

  // ---- Introspection ----

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Which shard a primary key routes to (stable across restarts).
  int ShardFor(const Slice& key) const;

  /// One shard's backpressure/health snapshot: the stall-ladder rung a
  /// write arriving now would hit (0 healthy .. 3 L0-stop), the raw ladder
  /// inputs, the sticky background error if any, and the backoff a shed
  /// writer should apply. Derived from DBImpl::GetWriteStallState on the
  /// shard's primary table.
  struct ShardHealthInfo {
    int shard = 0;
    int stall_rung = 0;
    int l0_files = 0;
    size_t imm_queue_depth = 0;
    size_t imm_queue_capacity = 1;
    bool has_bg_error = false;
    std::string bg_error;
    uint64_t suggested_retry_micros = 0;
  };

  /// Health of every shard (the HEALTH wire op; counted as
  /// shard.health.checks).
  std::vector<ShardHealthInfo> ShardHealth();

  /// Health of the one shard `key` routes to — how the server derives the
  /// retry-after hint for a shed write. Not counted as a health check.
  ShardHealthInfo ShardHealthFor(const Slice& key);

  /// ShardHealth() as a JSON array (the HEALTH op's payload; also embedded
  /// in "leveldbpp.stats.json" under "health").
  std::string HealthJson();

  /// Direct access to one shard's store (tests, stats).
  SecondaryDB* shard(int i) { return shards_[i]->db.get(); }

  /// Serving-layer counters (shard.* routing/merge tickers, serve.*
  /// protocol tickers recorded by Server, ParallelRun fan-out tickers).
  Statistics* statistics() { return frontend_stats_.get(); }

  /// The Env whose NowMicros clock QueryOptions::deadline_micros is read
  /// against (the Env the store was opened with).
  Env* env() const { return env_; }

  /// Sum of a ticker over every shard (primary + index tables) plus the
  /// serving layer's own counters.
  uint64_t TotalTicker(Ticker t);

  /// "leveldbpp.stats.json": one JSON object aggregating every shard —
  ///   {"num_shards":N,
  ///    "shards":[{"shard":i,"tickers":{...},"histograms":{...}},...],
  ///    "aggregate":{"tickers":{...},"histograms":{...}}}
  /// Per-shard tickers sum the shard's primary and index tables; per-shard
  /// histograms come from the shard's primary Statistics and include p99.
  /// Aggregate tickers add the serving layer's own counters; aggregate
  /// histograms are the Histogram::Merge of all shards.
  bool GetProperty(const Slice& property, std::string* value);

 private:
  struct Shard {
    // Private background-work lane (declared before `db` so the shard's
    // tables close — waiting out their in-flight background work — before
    // the workers join). One stalled flush parks a thread only this shard
    // owns, instead of the process-wide compactor thread every other shard
    // depends on.
    std::unique_ptr<DedicatedSchedulerEnv> scheduler_env;
    std::unique_ptr<SecondaryDB> db;
    // SecondaryDB's index maintenance requires one writer at a time;
    // serializing writers per shard (instead of per store) IS the
    // shard-per-core scaling model.
    std::mutex write_mu;
  };

  explicit ShardedDB(const ShardedDBOptions& options);

  /// Merge per-shard newest-first result lists into the global top-K.
  void MergeTopK(std::vector<std::vector<QueryResult>>* per_shard, size_t k,
                 std::vector<QueryResult>* out);

  /// Shared fan-out driver for Lookup/RangeLookup: runs `shard_query(i,
  /// &per_shard[i])` on every shard via ParallelRun, applies the deadline
  /// and degradation policy, and merges survivors. See QueryOptions.
  Status FanOutQuery(
      size_t k, const QueryOptions& qopts,
      const std::function<Status(int, std::vector<QueryResult>*)>&
          shard_query,
      std::vector<QueryResult>* results, QueryMeta* meta);

  ShardHealthInfo HealthOf(int i);

  ShardedDBOptions options_;
  std::string path_;
  Env* env_ = nullptr;  // Clock for fan-out deadlines
  std::unique_ptr<Statistics> frontend_stats_;
  // Shared sequence counter: holds the LAST claimed sequence number. Every
  // shard's primary table claims from it (see Options::shared_sequence), so
  // sequence numbers are globally unique and recency-comparable across
  // shards. DBImpl::Open CAS-maxes recovered LastSequence into it, so after
  // reopen it again dominates every shard.
  std::atomic<uint64_t> global_seq_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace leveldbpp

#endif  // LEVELDBPP_SERVE_SHARDED_DB_H_
