// perfbench: the repository's load generator. One process runs one named
// workload against the engine's public API with a seed-derived input:
//
//   static-query  Paper Fig 10/11 Static: Put-load Embedded, Lazy and
//                 Composite stores, then one thread replays a fixed seeded
//                 list of GET / LOOKUP(UserID) K=5,50,all /
//                 RANGELOOKUP(CreationTime) K=5,50 on every store. No
//                 block cache, synchronous compaction.
//   mixed-update  Paper Fig 12c, Table 7b update-heavy mix on the same
//                 three variants from a preloaded store, one thread.
//   served-mixed  Lazy ShardedDB (2 shards, background compaction, block
//                 cache that holds the store) behind the protocol server;
//                 4 closed-loop client connections.
//
// Untraced runs (--trace 0) report the end-to-end metrics. Traced runs
// (--trace 1) add a deterministic count pass (PerfContext + per-table
// Statistics + a counting Env), an untraced half and a span-recording half,
// and report the per-layer metrics. Every answer is checked against the
// benchmark's own model outside the timed section.
//
// Usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --dir <scratch dir> [--spans <file>] [--scale <f>]
//                  [--corrupt 1] [--git-rev <rev>] [--source-hash <hash>]

#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache.h"
#include "compress/codec.h"
#include "core/document.h"
#include "core/secondary_db.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/sharded_db.h"
#include "support.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "workload/workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using leveldbpp::IndexType;
using leveldbpp::Operation;
using leveldbpp::OpType;
using leveldbpp::SecondaryDB;
using leveldbpp::SecondaryDBOptions;
using leveldbpp::ShardedDB;
using leveldbpp::Statistics;
using leveldbpp::Ticker;
using leveldbpp::Tweet;
using leveldbpp::TweetGenerator;
using leveldbpp::TweetGeneratorOptions;
using leveldbpp::WorkloadGenerator;

// ---- Arguments ----

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;  // Multiplies every data-set size (the self-test uses
                       // a small scale)
  bool corrupt = false;
  std::string dir;
  std::string spans;
  std::string git_rev = "unknown";
  std::string source_hash = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; i++) {
    std::string key = argv[i];
    std::string value;
    if (key.rfind("--", 0) != 0) return false;
    key = key.substr(2);
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    if (key == "workload") a->workload = value;
    else if (key == "seed") a->seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "seconds") a->seconds = std::atof(value.c_str());
    else if (key == "trace") a->trace = value != "0";
    else if (key == "scale") a->scale = std::atof(value.c_str());
    else if (key == "corrupt") a->corrupt = value != "0";
    else if (key == "dir") a->dir = value;
    else if (key == "spans") a->spans = value;
    else if (key == "git-rev") a->git_rev = value;
    else if (key == "source-hash") a->source_hash = value;
    else return false;
  }
  return !a->workload.empty() && !a->dir.empty() && a->seconds > 0 &&
         a->scale > 0;
}

/// Set-ups per run; setup_s is their median. A served-mixed set-up takes
/// under a second and varies with background compaction timing, so it
/// takes the median of more.
constexpr int kSetups = 3;
constexpr int kServedSetups = 7;

uint64_t Scaled(const Args& a, uint64_t n) {
  return std::max<uint64_t>(1, static_cast<uint64_t>(std::llround(n * a.scale)));
}

// ---- Shared state of one run ----

/// End-to-end latency samples and throughput of one measured phase.
struct Phase {
  Samples put, get, lookup, range;
  uint64_t ops = 0;
  double busy_s = 0;  // time inside the engine / Client calls only
  double wall_s = 0;  // the whole phase: generation and checking included

  void Merge(const Phase& o) {
    put.Merge(o.put);
    get.Merge(o.get);
    lookup.Merge(o.lookup);
    range.Merge(o.range);
    ops += o.ops;
    busy_s += o.busy_s;
  }
  /// One timed call: its latency sample and its share of busy_s.
  void Record(OpType t, uint64_t start_ns, uint64_t end_ns) {
    For(t)->Add(Micros(start_ns, end_ns));
    busy_s += static_cast<double>(end_ns - start_ns) / 1e9;
  }
  Samples* For(OpType t) {
    switch (t) {
      case OpType::kPut: return &put;
      case OpType::kGet: return &get;
      case OpType::kLookup: return &lookup;
      default: return &range;
    }
  }
  /// ops_per_s: the rate of the timed calls, so the benchmark's own input
  /// generation and answer checking do not count.
  double OpsPerSec() const { return busy_s > 0 ? ops / busy_s : 0; }
  double WallOpsPerSec() const { return wall_s > 0 ? ops / wall_s : 0; }
};

struct Checker {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<bool> corrupt_pending{false};
  std::mutex mu;

  void Fail(const std::string& why) {
    if (failed.fetch_add(1) < 5) {
      std::lock_guard<std::mutex> l(mu);
      std::fprintf(stderr, "WRONG: %s\n", why.c_str());
    }
  }
  /// --corrupt: damage the first non-empty answer so the test can prove the
  /// oracle catches it.
  void MaybeCorrupt(std::vector<QueryResult>* rows) {
    if (!rows->empty() && corrupt_pending.exchange(false)) {
      (*rows)[0].value += "x";
    }
  }
};

const char* ClassName(OpType t) {
  switch (t) {
    case OpType::kPut: return "put";
    case OpType::kGet: return "get";
    case OpType::kLookup: return "lookup";
    case OpType::kRangeLookup: return "range";
    default: return "other";
  }
}

/// Span names of the benchmark's calls into SecondaryDB / the Client.
const char* CoreSpan(OpType t) {
  switch (t) {
    case OpType::kPut: return "core.put";
    case OpType::kGet: return "core.get";
    case OpType::kLookup: return "core.lookup";
    default: return "core.rangelookup";
  }
}

const char* ClientSpan(OpType t) {
  switch (t) {
    case OpType::kPut: return "serve.client.put";
    case OpType::kGet: return "serve.client.get";
    case OpType::kLookup: return "serve.client.lookup";
    default: return "serve.client.rangelookup";
  }
}

std::string KTag(size_t k) { return k == 0 ? "kall" : "k" + std::to_string(k); }

template <typename DB>
Status Exec(DB* db, const Operation& op, std::string* value,
            std::vector<QueryResult>* rows) {
  switch (op.type) {
    case OpType::kPut: return db->Put(op.key, op.document);
    case OpType::kGet: return db->Get(op.key, value);
    case OpType::kLookup: return db->Lookup(op.attribute, op.lo, op.k, rows);
    case OpType::kRangeLookup:
      return db->RangeLookup(op.attribute, op.lo, op.hi, op.k, rows);
    default: return Status::NotSupported("op");
  }
}

/// Check one answer against the model (outside any timed section).
/// `want` may carry precomputed expected keys for LOOKUP/RANGELOOKUP.
bool CheckAnswer(const Model& model, const Operation& op, const Status& s,
                 const std::string& value,
                 const std::vector<QueryResult>& rows,
                 const std::vector<std::string>* want, std::string* why) {
  if (!s.ok()) {
    *why = std::string(ClassName(op.type)) + " " + op.key + op.lo + ": " +
           s.ToString();
    return false;
  }
  switch (op.type) {
    case OpType::kPut: return true;
    case OpType::kGet: {
      if (!model.Holds(op.key, value)) {
        *why = "GET " + op.key + " returned a wrong value";
        return false;
      }
      return true;
    }
    case OpType::kLookup:
    case OpType::kRangeLookup: {
      std::vector<std::string> computed;
      if (want == nullptr) {
        computed = op.type == OpType::kLookup
                       ? model.LookupUser(op.lo, op.k)
                       : model.RangeTime(op.lo, op.hi, op.k);
        want = &computed;
      }
      if (!SameRows(model, *want, rows, why)) {
        *why = std::string(ClassName(op.type)) + "(" + op.lo + ".." + op.hi +
               ", K=" + std::to_string(op.k) + "): " + *why;
        return false;
      }
      return true;
    }
    default: return false;
  }
}

struct Variant {
  IndexType type;
  const char* name;
};

const std::vector<Variant>& StudyVariants() {
  static const std::vector<Variant> v = {{IndexType::kEmbedded, "embedded"},
                                         {IndexType::kLazy, "lazy"},
                                         {IndexType::kComposite, "composite"}};
  return v;
}

/// The paper-exact engine: synchronous compaction, sequential reads, no
/// block cache, and the bench harness's scaled-down LSM geometry.
SecondaryDBOptions PaperOptions(IndexType type, Env* env) {
  SecondaryDBOptions o;
  o.base.env = env;
  o.base.write_buffer_size = 1 << 20;
  o.base.max_file_size = 512 << 10;
  o.base.max_bytes_for_level_base = 4 << 20;
  o.base.compression = leveldbpp::kSimpleLZCompression;
  o.base.read_parallelism = 0;
  o.index_type = type;
  o.indexed_attributes = {"UserID", "CreationTime"};
  o.embedded_bloom_bits_per_key = 20;
  return o;
}

std::unique_ptr<SecondaryDB> OpenStore(IndexType type, Env* env,
                                       const std::string& path) {
  std::unique_ptr<SecondaryDB> db;
  Status s = SecondaryDB::Open(PaperOptions(type, env), path, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "FATAL: open %s: %s\n", path.c_str(),
                 s.ToString().c_str());
    std::exit(2);
  }
  return db;
}

TweetGeneratorOptions TweetOptions(uint64_t seed) {
  TweetGeneratorOptions o;
  o.seed = seed * 0x9E3779B97F4A7C15ull + 20180610;
  return o;
}

/// RANGELOOKUP(CreationTime) over the kWindowSeconds ending at `hi_ct`. At
/// the generator's 35 tweets/s a window holds ~700 records; a window of
/// minutes holds thousands and costs 10-17 ms per query, too few samples
/// per run. Static-query spreads the window ends over all loaded tweets
/// rather than the most recent ones: recent windows would read only the
/// memtable and L0, and the paper's point is the cost across levels.
constexpr uint64_t kWindowSeconds = 20;

Operation TimeRange(const std::string& hi_ct, size_t k) {
  const uint64_t hi = std::strtoull(hi_ct.c_str(), nullptr, 10);
  Operation op;
  op.type = OpType::kRangeLookup;
  op.attribute = "CreationTime";
  op.lo = TweetGenerator::EncodeTime(hi - kWindowSeconds);
  op.hi = TweetGenerator::EncodeTime(hi);
  op.k = k;
  return op;
}

/// Positions in [0, n) from a golden-ratio sequence with a seeded start:
/// evenly spread over [0, n) in every prefix, unlike independent draws.
class GoldenSequence {
 public:
  explicit GoldenSequence(uint64_t seed) {
    leveldbpp::Random64 rnd(seed);
    x_ = static_cast<double>(rnd.Next() >> 11) * 0x1.0p-53;
  }
  size_t Next(size_t n) {
    x_ += 0.6180339887498949;
    x_ -= std::floor(x_);
    return std::min(n - 1, static_cast<size_t>(x_ * n));
  }

 private:
  double x_;
};

/// LOOKUP(UserID) conditions drawn tweet-weighted, as WorkloadGenerator
/// draws them, but through a GoldenSequence over the users sorted by weight
/// instead of independently: every run, and every prefix of a run, then
/// holds the same mix of hot and cold users. Independent draws let the few
/// very expensive conditions (one no-limit LOOKUP of the hottest user costs
/// ~80 ms) swing a run's figures from seed to seed.
class StratifiedUsers {
 public:
  StratifiedUsers(const std::vector<Operation>& load, uint64_t seed)
      : sequence_(seed) {
    std::unordered_map<std::string, uint64_t> counts;
    for (const Operation& op : load) counts[DocAttribute(op.document, "UserID")]++;
    std::vector<std::pair<uint64_t, std::string>> users;
    for (const auto& [user, count] : counts) users.push_back({count, user});
    std::sort(users.begin(), users.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    for (const auto& [count, user] : users) by_weight_.insert(by_weight_.end(), count, user);
  }

  Operation NextLookup(size_t k) {
    Operation op;
    op.type = OpType::kLookup;
    op.attribute = "UserID";
    op.lo = op.hi = by_weight_[sequence_.Next(by_weight_.size())];
    op.k = k;
    return op;
  }

 private:
  std::vector<std::string> by_weight_;  // one entry per tweet
  GoldenSequence sequence_;
};

uint64_t UserBytes(const Operation& op) {
  return op.key.size() + op.document.size();
}

/// Everything one workload hands to the metric derivation.
struct RunOutput {
  Phase phase;                  // end-to-end samples (untraced phase)
  std::vector<double> setup_s;  // one per set-up
  double rss_base_mb = 0;       // RSS once inputs and model are built
  double write_amp = 0;
  double space_amp = 0;
  // Traced runs only:
  Ledger ledger;
  Tracer tracer{false};
  double untraced_ops_per_s = 0;
  double traced_ops_per_s = 0;
  double gen_us_per_op = 0;
  std::vector<std::string> blocks;   // raw blocks read in the count pass
  std::vector<std::string> records;  // record values seen in the count pass
  Samples fanout_us;                 // served: ShardedDB - slowest shard
  std::map<std::string, std::string> meta;
};

/// Brackets a traced run's count pass: PerfContext recording, block capture
/// and the counting Env's deltas.
class CountPass {
 public:
  explicit CountPass(CountingEnv* env) : env_(env), before_(env->Snapshot()) {
    env_->set_capture_blocks(true);
    leveldbpp::EnablePerfContext();
    leveldbpp::GetPerfContext()->Reset();
  }

  /// Ends the pass; the env counts are charged to `ops` ops.
  void Finish(uint64_t ops, RunOutput* out) {
    leveldbpp::DisablePerfContext();
    env_->set_capture_blocks(false);
    out->blocks = env_->TakeCapturedBlocks();
    out->ledger.env_delta = env_->Since(before_);
    out->ledger.env_ops = ops;
  }

 private:
  CountingEnv* env_;
  CountingEnv::Counts before_;
};

/// Runs `body(deadline)` repeatedly until `seconds` have elapsed; `body`
/// returns the ops it completed. Fills wall_s and ops (the body fills
/// busy_s).
void RunTimed(double seconds, Phase* phase,
              const std::function<uint64_t(uint64_t)>& body) {
  const uint64_t start = NowNanos();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  while (NowNanos() < deadline) phase->ops += body(deadline);
  phase->wall_s = static_cast<double>(NowNanos() - start) / 1e9;
}

/// Adds this op's PerfContext to `cell` and resets the context.
void Charge(Cell* cell, size_t rows) {
  PerfContext* pc = leveldbpp::GetPerfContext();
  cell->ops++;
  cell->results += rows;
  cell->pc.MergeFrom(*pc);
  pc->Reset();
}

uint64_t PrimaryBlocks(SecondaryDB* db) {
  Statistics* st = db->primary_statistics();
  return st->Get(leveldbpp::kBlockRead) + st->Get(leveldbpp::kBlockCacheHit);
}

uint64_t WrittenBytes(SecondaryDB* db) {
  return db->TotalTicker(leveldbpp::kWalBytesWritten) +
         db->TotalTicker(leveldbpp::kCompactionBytesWritten);
}

/// Flush + compaction time (us) and counts recorded by every table of `db`.
double CompactionMicros(SecondaryDB* db) {
  double total = 0;
  std::vector<Statistics*> stats = {db->primary_statistics()};
  for (const char* attr : {"UserID", "CreationTime"}) {
    leveldbpp::SecondaryIndex* idx = db->index(attr);
    if (idx != nullptr && idx->index_statistics() != nullptr) {
      stats.push_back(idx->index_statistics());
    }
  }
  for (Statistics* st : stats) {
    total += st->GetHistogram(leveldbpp::kHistFlushMicros).Sum() +
             st->GetHistogram(leveldbpp::kHistCompactionMicros).Sum();
  }
  return total;
}

// ======================= static-query =======================

struct StaticQuery {
  Operation op;
  std::vector<std::string> want;  // expected keys (LOOKUP / RANGELOOKUP)
};

void RunStaticQuery(const Args& args, Env* env, CountingEnv* counting,
                    Checker* checker, RunOutput* out) {
  const uint64_t n = Scaled(args, 60000);
  const uint64_t groups = Scaled(args, 400);
  const uint64_t count_groups = Scaled(args, 20);
  const auto& variants = StudyVariants();

  // Inputs: the load and a fixed query list, both from the seed.
  uint64_t gen_start = NowNanos();
  WorkloadGenerator gen(TweetOptions(args.seed), args.seed);
  std::vector<Operation> load;
  load.reserve(n);
  for (uint64_t i = 0; i < n; i++) load.push_back(gen.NextPut());
  // Per group: 4 GET, LOOKUP(UserID) 2xK5 2xK50 1xKall,
  // RANGELOOKUP(CreationTime) 2xK5 2xK50. The measured phase walks the list
  // from the start (and wraps); the count pass is its first `count_groups`
  // groups.
  //
  // LOOKUP users (see StratifiedUsers) and window ends (uniform over the
  // loaded tweets) are stratified, one sequence per top-K cell.
  std::map<size_t, StratifiedUsers> users;
  std::map<size_t, GoldenSequence> windows;
  for (size_t k : {5, 50, 0}) users.emplace(k, StratifiedUsers(load, args.seed * 31 + k));
  for (size_t k : {5, 50}) windows.emplace(k, GoldenSequence(args.seed * 37 + k));
  std::vector<StaticQuery> list;
  for (uint64_t g = 0; g < groups; g++) {
    for (int i = 0; i < 4; i++) list.push_back({gen.NextGet(), {}});
    for (size_t k : {5, 5, 50, 50, 0}) list.push_back({users.at(k).NextLookup(k), {}});
    for (size_t k : {5, 5, 50, 50}) {
      const Operation& at = load[windows.at(k).Next(load.size())];
      list.push_back({TimeRange(DocAttribute(at.document, "CreationTime"), k), {}});
    }
  }
  const size_t count_len = std::min(list.size(), list.size() / groups * count_groups);
  const uint64_t gen_ns = NowNanos() - gen_start;
  out->gen_us_per_op =
      static_cast<double>(gen_ns) / 1000.0 / (load.size() + list.size());

  Model model;
  uint64_t user_bytes = 0;
  for (const Operation& op : load) {
    model.Put(op.key, op.document);
    user_bytes += UserBytes(op);
  }
  for (StaticQuery& q : list) {
    if (q.op.type == OpType::kLookup) q.want = model.LookupUser(q.op.lo, q.op.k);
    if (q.op.type == OpType::kRangeLookup) {
      q.want = model.RangeTime(q.op.lo, q.op.hi, q.op.k);
    }
  }

  uint64_t digest = 0;
  for (const Operation& op : load) digest = Digest(Digest(digest, op.key), op.document);
  for (const StaticQuery& q : list) digest = Digest(digest, q.op.key + q.op.lo + q.op.hi);
  out->meta["input_digest"] = std::to_string(digest);

  // Set-up: Put-load every store, kSetups times; the last one is queried.
  out->rss_base_mb = RssMb();
  std::vector<std::unique_ptr<SecondaryDB>> dbs;
  std::string root;
  for (int rep = 0; rep < kSetups; rep++) {
    dbs.clear();
    if (!root.empty()) std::filesystem::remove_all(root);
    root = args.dir + "/static-" + std::to_string(rep);
    std::filesystem::create_directories(root);
    const uint64_t t0 = NowNanos();
    for (const Variant& v : variants) {
      dbs.push_back(OpenStore(v.type, env, root + "/" + v.name));
      SecondaryDB* db = dbs.back().get();
      for (const Operation& op : load) {
        const uint64_t s = NowNanos();
        Status st = db->Put(op.key, op.document);
        out->phase.put.Add(Micros(s, NowNanos()));
        checker->attempted++;
        if (!st.ok()) checker->Fail("load put: " + st.ToString());
      }
    }
    out->setup_s.push_back(static_cast<double>(NowNanos() - t0) / 1e9);
  }
  uint64_t written = 0, disk = 0;
  for (size_t v = 0; v < variants.size(); v++) {
    written += WrittenBytes(dbs[v].get());
    disk += DirBytes(root + "/" + variants[v].name);
  }
  out->write_amp = static_cast<double>(written) / (variants.size() * user_bytes);
  out->space_amp =
      static_cast<double>(disk) / (variants.size() * model.live_bytes());
  out->meta["store_bytes_per_variant"] = std::to_string(disk / variants.size());
  out->meta["records"] = std::to_string(n);
  std::vector<Operation>().swap(load);  // Not needed past the set-up.
  out->meta["queries_in_list"] = std::to_string(list.size());
  out->meta["count_pass_queries"] = std::to_string(count_len);

  // Runs list[*cursor, end) on every store until the deadline (0 = none),
  // advancing *cursor. `count` charges PerfContext and per-table deltas to
  // the ledger.
  std::string value;
  std::vector<QueryResult> rows;
  auto pass = [&](Phase* phase, Tracer* tracer, bool count, uint64_t deadline,
                  size_t* cursor, size_t end, uint64_t* op_id) -> uint64_t {
    uint64_t done = 0;
    for (; *cursor < end; ++*cursor) {
      if (deadline != 0 && NowNanos() >= deadline) break;
      const StaticQuery& q = list[*cursor];
      const uint64_t id = (*op_id)++;
      const int64_t root =
          tracer != nullptr ? tracer->Begin("workload.query", "", id) : -1;
      for (size_t v = 0; v < variants.size(); v++) {
        SecondaryDB* db = dbs[v].get();
        std::string tag = variants[v].name;
        if (q.op.type != OpType::kGet) {
          tag += '.';
          tag += KTag(q.op.k);
        }
        const uint64_t primary_before = count ? PrimaryBlocks(db) : 0;
        value.clear();
        rows.clear();
        const uint64_t s = NowNanos();
        Status st = Exec(db, q.op, &value, &rows);
        const uint64_t e = NowNanos();
        if (tracer != nullptr) {
          tracer->Add(CoreSpan(q.op.type), tag, id, s, e, root);
        }
        if (phase != nullptr) phase->Record(q.op.type, s, e);
        if (count) {
          Cell& cell = out->ledger.At(ClassName(q.op.type), variants[v].name);
          cell.primary_blocks += PrimaryBlocks(db) - primary_before;
          Charge(&cell, rows.size());
          if (q.op.type == OpType::kGet && out->records.size() < 2000) {
            out->records.push_back(value);
          }
          if (q.op.type == OpType::kLookup && variants[v].type != IndexType::kEmbedded) {
            std::vector<leveldbpp::PostingCandidate> cands;
            const uint64_t es = NowNanos();
            db->index("UserID")->EnumeratePostings(q.op.lo, &cands);
            const uint64_t ee = NowNanos();
            leveldbpp::GetPerfContext()->Reset();
            cell.enumerate_us += Micros(es, ee);
            cell.enumerate_postings += cands.size();
            if (tracer != nullptr) {
              tracer->Add("core.enumerate", variants[v].name, id, es, ee, root);
            }
          }
        }
        checker->attempted++;
        checker->MaybeCorrupt(&rows);
        std::string why;
        if (!CheckAnswer(model, q.op, st, value, rows, &q.want, &why)) {
          checker->Fail(std::string(variants[v].name) + ": " + why);
        }
        done++;
      }
      if (tracer != nullptr) tracer->End(root);
    }
    return done;
  };

  uint64_t op_id = 0;
  if (args.trace) {
    // Count pass: deterministic counts for the per-layer metrics.
    Tracer count_tracer(true);
    CountPass count(counting);
    size_t cursor = 0;
    const uint64_t counted =
        pass(nullptr, &count_tracer, true, 0, &cursor, count_len, &op_id);
    count.Finish(counted, out);
    out->tracer.Absorb(&count_tracer);

    Phase untraced, traced;
    cursor = 0;
    RunTimed(args.seconds / 2, &untraced, [&](uint64_t deadline) {
      if (cursor == list.size()) cursor = 0;
      return pass(&untraced, nullptr, false, deadline, &cursor, list.size(), &op_id);
    });
    Tracer tracer(true);
    cursor = 0;
    RunTimed(args.seconds / 2, &traced, [&](uint64_t deadline) {
      if (cursor == list.size()) cursor = 0;
      return pass(&traced, &tracer, false, deadline, &cursor, list.size(), &op_id);
    });
    out->tracer.Absorb(&tracer);
    out->untraced_ops_per_s = untraced.WallOpsPerSec();
    out->traced_ops_per_s = traced.WallOpsPerSec();
    untraced.put = out->phase.put;
    out->phase = untraced;
  } else {
    Phase measured;
    measured.put = out->phase.put;
    size_t cursor = 0;
    RunTimed(args.seconds, &measured, [&](uint64_t deadline) {
      if (cursor == list.size()) cursor = 0;
      return pass(&measured, nullptr, false, deadline, &cursor, list.size(), &op_id);
    });
    out->phase = measured;
  }
  out->meta["case"] = "no-cache";
  out->meta["cache_bytes"] = "0";
}

// ======================= mixed-update =======================

constexpr size_t kWarmReads = 256;  // untimed GETs per store per round

void RunMixedUpdate(const Args& args, Env* env, CountingEnv* counting,
                    Checker* checker, RunOutput* out) {
  const uint64_t preload = Scaled(args, 30000);
  const uint64_t round_ops = Scaled(args, 4000);
  const auto& variants = StudyVariants();

  WorkloadGenerator preload_gen(TweetOptions(args.seed), args.seed);
  std::vector<Operation> load;
  for (uint64_t i = 0; i < preload; i++) load.push_back(preload_gen.NextPut());
  Model model;
  for (const Operation& op : load) model.Put(op.key, op.document);
  StratifiedUsers lookup_users(load, args.seed * 41);

  out->rss_base_mb = RssMb();
  std::vector<std::unique_ptr<SecondaryDB>> dbs;
  std::string root;
  for (int rep = 0; rep < kSetups; rep++) {
    dbs.clear();
    if (!root.empty()) std::filesystem::remove_all(root);
    root = args.dir + "/mixed-" + std::to_string(rep);
    std::filesystem::create_directories(root);
    const uint64_t t0 = NowNanos();
    for (const Variant& v : variants) {
      dbs.push_back(OpenStore(v.type, env, root + "/" + v.name));
      for (const Operation& op : load) {
        Status st = dbs.back()->Put(op.key, op.document);
        checker->attempted++;
        if (!st.ok()) checker->Fail("preload put: " + st.ToString());
      }
    }
    out->setup_s.push_back(static_cast<double>(NowNanos() - t0) / 1e9);
  }

  // Table 7b update-heavy (PUT 40, update 40, GET 15, LOOKUP(UserID) K=10
  // 5), plus one RANGELOOKUP(CreationTime) K=50 per 101 ops so every op
  // class the paper times is exercised. A RANGELOOKUP costs ~30 times a
  // LOOKUP here; at a larger share it would crowd out the LOOKUP samples.
  // Every round starts from a copy of the set-up stores and runs its own
  // `round_ops` fresh ops, so a run measures the same range of store states
  // however far it gets (a store growing all run would tie the figures to
  // speed), over many distinct ops.
  Samples gen_us;
  auto make_round = [&](int r) {
    // Replaying the preload primes the generator's condition sampler; the
    // tweets are the set-up's (they depend on the tweet seed only).
    WorkloadGenerator gen(TweetOptions(args.seed), args.seed + r);
    for (uint64_t i = 0; i < preload; i++) gen.NextPut();
    leveldbpp::Random64 chooser(args.seed * 31 + 7 + r);
    std::vector<Operation> ops;
    for (uint64_t i = 0; i < round_ops; i++) {
      const uint64_t s = NowNanos();
      const uint64_t u = chooser.Next() % 101;
      Operation op =
          u < 40    ? gen.NextPut()
          : u < 80  ? gen.NextUpdate()
          : u < 95  ? gen.NextGet()
          : u < 100 ? lookup_users.NextLookup(10)
                    : TimeRange(model.TimeOf(model.KeyAt(chooser.Next())), 50);
      gen_us.Add(Micros(s, NowNanos()));
      ops.push_back(std::move(op));
    }
    return ops;
  };

  dbs.clear();  // Close the set-up stores; every round starts from a copy.
  const std::string pristine = root;
  std::string work;
  int round = 0;
  Model live;
  std::vector<Operation> ops;
  auto next_round = [&]() {
    dbs.clear();
    if (!work.empty()) std::filesystem::remove_all(work);
    work = args.dir + "/mixed-round-" + std::to_string(round);
    std::filesystem::copy(pristine, work, std::filesystem::copy_options::recursive);
    for (const Variant& v : variants) dbs.push_back(OpenStore(v.type, env, work + "/" + v.name));
    // A reopened store's table cache is empty, so a round's first reads
    // would open table files; that made GET p99 mostly reopen cost. Untimed
    // GETs and LOOKUPs spread over the preloaded records open them first
    // (reads leave a store's state unchanged).
    std::string warm_value;
    std::vector<QueryResult> warm_rows;
    for (size_t i = 0; i < kWarmReads; i++) {
      const std::string& key = model.KeyAt(i * model.size() / kWarmReads);
      for (auto& db : dbs) {
        db->Get(key, &warm_value);
        if (i % 8 == 0) db->Lookup("UserID", model.UserOf(key), 10, &warm_rows);
      }
    }
    live = model;
    ops = make_round(round++);
  };

  std::string value;
  std::vector<QueryResult> rows;
  uint64_t op_id = 0;
  auto step = [&](const Operation& op, Phase* phase, Tracer* tracer, bool count) {
    const int64_t root_span =
        tracer != nullptr ? tracer->Begin("workload.op", "", op_id) : -1;
    for (size_t v = 0; v < variants.size(); v++) {
      SecondaryDB* db = dbs[v].get();
      const uint64_t primary_before = count ? PrimaryBlocks(db) : 0;
      value.clear();
      rows.clear();
      const uint64_t s = NowNanos();
      Status st = Exec(db, op, &value, &rows);
      const uint64_t e = NowNanos();
      if (phase != nullptr) {
        phase->Record(op.type, s, e);
        phase->ops++;
      }
      if (tracer != nullptr) {
        tracer->Add(CoreSpan(op.type), variants[v].name, op_id, s, e, root_span);
      }
      if (count) {
        Cell& cell = out->ledger.At(ClassName(op.type), variants[v].name);
        cell.primary_blocks += PrimaryBlocks(db) - primary_before;
        Charge(&cell, rows.size());
        if (op.type == OpType::kGet && out->records.size() < 2000) {
          out->records.push_back(value);
        }
      }
      checker->attempted++;
      checker->MaybeCorrupt(&rows);
      std::string why;
      if (!CheckAnswer(live, op, st, value, rows, nullptr, &why)) {
        checker->Fail(std::string(variants[v].name) + ": " + why);
      }
    }
    if (op.type == OpType::kPut) live.Put(op.key, op.document);
    if (tracer != nullptr) tracer->End(root_span);
    op_id++;
  };

  // The first round runs whole; its counts (traced runs charge it with
  // PerfContext and the counting Env) and write_amp / space_amp repeat
  // exactly for a seed.
  auto first_round = [&](Phase* phase) {
    next_round();
    uint64_t digest = 0;
    for (const Operation& op : load) digest = Digest(Digest(digest, op.key), op.document);
    for (const Operation& op : ops) digest = Digest(Digest(digest, op.key), op.document + op.lo);
    out->meta["input_digest"] = std::to_string(digest);
    auto ticker_sum = [&](Ticker t) {
      uint64_t total = 0;
      for (auto& db : dbs) total += db->TotalTicker(t);
      return total;
    };
    const uint64_t flushes_before = ticker_sum(leveldbpp::kFlushCount);
    const uint64_t cbytes_before = ticker_sum(leveldbpp::kCompactionBytesWritten);
    const uint64_t wal_before = ticker_sum(leveldbpp::kWalBytesWritten);
    double compaction_us = 0;
    for (auto& db : dbs) compaction_us -= CompactionMicros(db.get());
    std::optional<CountPass> count;
    if (args.trace) count.emplace(counting);
    const uint64_t start = NowNanos();
    uint64_t user_bytes = 0, puts = 0;
    for (const Operation& op : ops) {
      step(op, phase, nullptr, args.trace);
      if (op.type == OpType::kPut) {
        user_bytes += UserBytes(op);
        puts++;
      }
    }
    if (phase != nullptr) phase->wall_s += (NowNanos() - start) / 1e9;
    if (count) count->Finish(ops.size() * variants.size(), out);
    out->ledger.puts = puts * variants.size();
    uint64_t disk = 0;
    for (size_t v = 0; v < variants.size(); v++) {
      disk += DirBytes(work + "/" + variants[v].name);
      compaction_us += CompactionMicros(dbs[v].get());
    }
    const uint64_t wal = ticker_sum(leveldbpp::kWalBytesWritten) - wal_before;
    const uint64_t cbytes = ticker_sum(leveldbpp::kCompactionBytesWritten) - cbytes_before;
    out->write_amp = static_cast<double>(wal + cbytes) / (variants.size() * user_bytes);
    out->space_amp = static_cast<double>(disk) / (variants.size() * live.live_bytes());
    out->ledger.tickers["compaction_us"] = static_cast<uint64_t>(compaction_us);
    out->ledger.tickers["flushes"] = ticker_sum(leveldbpp::kFlushCount) - flushes_before;
    out->ledger.tickers["compaction_bytes"] = cbytes;
    out->ledger.tickers["wal_bytes"] = wal;
    out->meta["store_bytes_per_variant"] = std::to_string(disk / variants.size());
    out->meta["records"] = std::to_string(live.size());
  };

  // Rounds until `seconds` elapse; the last one stops at the deadline.
  auto run_rounds = [&](Phase* phase, Tracer* tracer, double seconds) {
    const uint64_t deadline = NowNanos() + static_cast<uint64_t>(seconds * 1e9);
    while (NowNanos() < deadline) {
      next_round();
      const uint64_t start = NowNanos();
      for (size_t i = 0; i < ops.size() && NowNanos() < deadline; i++) {
        step(ops[i], phase, tracer, false);
      }
      phase->wall_s += (NowNanos() - start) / 1e9;
    }
  };

  if (args.trace) {
    first_round(nullptr);
    Phase untraced, traced;
    run_rounds(&untraced, nullptr, args.seconds / 2);
    Tracer tracer(true);
    run_rounds(&traced, &tracer, args.seconds / 2);
    out->tracer.Absorb(&tracer);
    out->untraced_ops_per_s = untraced.WallOpsPerSec();
    out->traced_ops_per_s = traced.WallOpsPerSec();
    out->phase = untraced;
  } else {
    const uint64_t start = NowNanos();
    first_round(&out->phase);
    run_rounds(&out->phase, nullptr, args.seconds - (NowNanos() - start) / 1e9);
  }
  dbs.clear();
  out->gen_us_per_op = gen_us.Mean();
  out->meta["round_ops"] = std::to_string(round_ops);
  out->meta["rounds"] = std::to_string(round);
  out->meta["case"] = "no-cache";
  out->meta["cache_bytes"] = "0";
}

// ======================= served-mixed =======================

constexpr int kConnections = 4;
constexpr int kShards = 2;

/// One client connection's private slice of the key, user and time space,
/// so its model stays exact under concurrency.
struct Connection {
  int id = 0;
  std::unique_ptr<TweetGenerator> gen;
  leveldbpp::Random64 rnd{1};
  Model model;
  std::vector<std::pair<std::string, std::string>> preload;
  Phase phase;
  Tracer tracer;
  Samples fanout_us;

  std::pair<std::string, std::string> NextDoc() {
    Tweet t = gen->Next();
    const std::string prefix = "c" + std::to_string(id) + "-";
    t.tweet_id = prefix + t.tweet_id;
    t.user_id = prefix + t.user_id;
    return {t.tweet_id, t.ToJson()};
  }

  /// PUT 50%, GET 30%, LOOKUP(UserID, K=10) 15%, RANGELOOKUP(CreationTime,
  /// K=50) 5%; conditions sampled from this connection's
  /// own records (tweet-weighted, like the paper's generator).
  Operation NextOp() {
    Operation op;
    const uint64_t u = rnd.Next() % 100;
    if (u < 50) {
      op.type = OpType::kPut;
      std::tie(op.key, op.document) = NextDoc();
      return op;
    }
    const std::string& key = model.KeyAt(rnd.Next());
    if (u < 80) {
      op.type = OpType::kGet;
      op.key = key;
    } else if (u < 95) {
      op.type = OpType::kLookup;
      op.attribute = "UserID";
      op.lo = op.hi = model.UserOf(key);
      op.k = 10;
    } else {
      op = TimeRange(model.TimeOf(key), 50);
    }
    return op;
  }
};

leveldbpp::ShardedDBOptions ServedOptions(Env* env, leveldbpp::Cache* cache) {
  leveldbpp::ShardedDBOptions o;
  o.shard = PaperOptions(IndexType::kLazy, env);
  o.shard.base.background_compaction = true;
  o.shard.base.max_immutable_memtables = 4;
  o.shard.base.read_parallelism = 2;
  o.shard.base.block_cache = cache;
  o.num_shards = kShards;
  return o;
}

void RunServedMixed(const Args& args, Env* env, CountingEnv* counting,
                    Checker* checker, RunOutput* out) {
  const uint64_t preload_per_conn = Scaled(args, 5000);
  std::vector<Connection> conns(kConnections);
  uint64_t preload_bytes = 0;
  for (int c = 0; c < kConnections; c++) {
    Connection& conn = conns[c];
    conn.id = c;
    TweetGeneratorOptions to = TweetOptions(args.seed * 8 + c);
    to.start_time += static_cast<uint64_t>(c) * 10000000;
    to.num_users = 2500;
    conn.gen = std::make_unique<TweetGenerator>(to);
    conn.rnd = leveldbpp::Random64(args.seed * 1000003 + c + 1);
    for (uint64_t i = 0; i < preload_per_conn; i++) {
      conn.preload.push_back(conn.NextDoc());
      conn.model.Put(conn.preload.back().first, conn.preload.back().second);
      preload_bytes += conn.preload.back().first.size() +
                       conn.preload.back().second.size();
    }
  }
  // The cache-fits case: room for the preloaded store several times over,
  // so the run's own writes fit too.
  const size_t cache_bytes = std::max<size_t>(32u << 20, 4 * preload_bytes);
  std::unique_ptr<leveldbpp::Cache> cache(leveldbpp::NewLRUCache(cache_bytes));

  out->rss_base_mb = RssMb();
  std::unique_ptr<ShardedDB> db;
  std::string root;
  for (int rep = 0; rep < kServedSetups; rep++) {
    db.reset();
    if (!root.empty()) std::filesystem::remove_all(root);
    root = args.dir + "/served-" + std::to_string(rep);
    // A fresh cache per set-up, so every set-up does the same work.
    cache.reset(leveldbpp::NewLRUCache(cache_bytes));
    const uint64_t t0 = NowNanos();
    Status s = ShardedDB::Open(ServedOptions(env, cache.get()), root, &db);
    if (!s.ok()) {
      std::fprintf(stderr, "FATAL: open sharded: %s\n", s.ToString().c_str());
      std::exit(2);
    }
    for (Connection& conn : conns) {
      for (const auto& [key, doc] : conn.preload) {
        Status st = db->Put(key, doc);
        checker->attempted++;
        if (!st.ok()) checker->Fail("preload put: " + st.ToString());
      }
    }
    for (int i = 0; i < db->num_shards(); i++) {
      db->shard(i)->primary()->WaitForBackgroundWork();
    }
    // Warm the block cache with one GET of every preloaded record.
    std::string value;
    for (Connection& conn : conns) {
      for (const auto& kv : conn.preload) db->Get(kv.first, &value);
    }
    out->setup_s.push_back(static_cast<double>(NowNanos() - t0) / 1e9);
  }

  std::unique_ptr<leveldbpp::Server> server;
  Status s = leveldbpp::Server::Start(db.get(), leveldbpp::ServerOptions(), &server);
  if (!s.ok()) {
    std::fprintf(stderr, "FATAL: server: %s\n", s.ToString().c_str());
    std::exit(2);
  }
  const int port = server->port();

  // One closed-loop phase: every connection runs until the deadline.
  auto run_phase = [&](double seconds, bool traced) {
    const uint64_t start = NowNanos();
    const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (Connection& conn : conns) {
      conn.phase = Phase();
      conn.tracer.set_enabled(traced);
      threads.emplace_back([&, deadline, traced]() {
        std::unique_ptr<leveldbpp::Client> client;
        Status cs = leveldbpp::Client::Connect("127.0.0.1", port, &client);
        if (!cs.ok()) {
          checker->Fail("connect: " + cs.ToString());
          return;
        }
        std::string value;
        std::vector<QueryResult> rows;
        uint64_t op_id = static_cast<uint64_t>(conn.id) << 40;
        while (NowNanos() < deadline) {
          const int64_t root = conn.tracer.Begin("workload.op", "", op_id);
          const uint64_t gs = NowNanos();
          Operation op = conn.NextOp();
          conn.tracer.Add("workload.gen", "", op_id, gs, NowNanos(), root);
          value.clear();
          rows.clear();
          const uint64_t t0 = NowNanos();
          Status st = Exec(client.get(), op, &value, &rows);
          const uint64_t t1 = NowNanos();
          conn.phase.Record(op.type, t0, t1);
          conn.phase.ops++;
          conn.tracer.Add(ClientSpan(op.type), "lazy", op_id, t0, t1, root);
          checker->attempted++;
          checker->MaybeCorrupt(&rows);
          std::string why;
          if (!CheckAnswer(conn.model, op, st, value, rows, nullptr, &why)) {
            checker->Fail("c" + std::to_string(conn.id) + ": " + why);
          }
          if (op.type == OpType::kPut && st.ok()) conn.model.Put(op.key, op.document);
          if (traced && op.type == OpType::kPut) {
            // The same kind of op straight to ShardedDB, on a fresh key of
            // this connection's slice.
            auto [key, doc] = conn.NextDoc();
            const uint64_t d0 = NowNanos();
            Status ds = db->Put(key, doc);
            conn.tracer.Add("serve.direct.put", "lazy", op_id, d0, NowNanos(), root);
            checker->attempted++;
            if (!ds.ok()) checker->Fail("direct put: " + ds.ToString());
            conn.model.Put(key, doc);
          }
          if (traced && op.type == OpType::kLookup) {
            std::vector<QueryResult> direct;
            const uint64_t d0 = NowNanos();
            Status ds = db->Lookup(op.attribute, op.lo, op.k, &direct);
            const uint64_t d1 = NowNanos();
            conn.tracer.Add("serve.direct.lookup", "lazy", op_id, d0, d1, root);
            double slowest = 0;
            for (int i = 0; i < db->num_shards(); i++) {
              std::vector<QueryResult> part;
              const uint64_t p0 = NowNanos();
              db->shard(i)->Lookup(op.attribute, op.lo, op.k, &part);
              const uint64_t p1 = NowNanos();
              conn.tracer.Add("serve.shard.lookup", std::to_string(i), op_id, p0, p1, root);
              slowest = std::max(slowest, Micros(p0, p1));
            }
            conn.fanout_us.Add(Micros(d0, d1) - slowest);
            checker->attempted++;
            std::string dwhy;
            if (!CheckAnswer(conn.model, op, ds, value, direct, nullptr, &dwhy)) {
              checker->Fail("direct: " + dwhy);
            }
          }
          conn.tracer.End(root);
          op_id++;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    Phase total;
    for (Connection& conn : conns) {
      total.Merge(conn.phase);
      out->tracer.Absorb(&conn.tracer);
      out->fanout_us.Merge(conn.fanout_us);
      conn.fanout_us = Samples();
    }
    // The connections ran side by side: the phase's busy time is theirs on
    // average, so ops_per_s is about the sum of their rates.
    total.busy_s /= conns.size();
    total.wall_s = static_cast<double>(NowNanos() - start) / 1e9;
    return total;
  };

  auto tick = [&](Ticker t) { return db->TotalTicker(t); };
  const std::vector<std::pair<const char*, Ticker>> watched = {
      {"cache_hit", leveldbpp::kBlockCacheHit},
      {"cache_miss", leveldbpp::kBlockCacheMiss},
      {"stall_us", leveldbpp::kWriteStallMicros},
      {"slowdown_us", leveldbpp::kWriteSlowdownMicros},
      {"multiget_keys", leveldbpp::kMultiGetKeys},
      {"multiget_batches", leveldbpp::kMultiGetBatches},
      {"parallel_wait_us", leveldbpp::kParallelWaitMicros},
      {"serve_bytes_read", leveldbpp::kServeBytesRead},
      {"serve_bytes_written", leveldbpp::kServeBytesWritten},
      {"serve_requests", leveldbpp::kServeRequests},
      {"merge_candidates", leveldbpp::kShardMergeCandidates},
      {"merge_early_stops", leveldbpp::kShardMergeEarlyStops},
      {"fanouts", leveldbpp::kShardLookupFanouts},
      {"requests_shed", leveldbpp::kServeRequestsShed},
      {"wal_bytes", leveldbpp::kWalBytesWritten},
      {"compaction_bytes", leveldbpp::kCompactionBytesWritten},
      {"flushes", leveldbpp::kFlushCount},
  };
  std::map<std::string, uint64_t> before;
  if (args.trace) {
    Phase untraced = run_phase(args.seconds / 2, false);
    for (const auto& [name, t] : watched) before[name] = tick(t);
    Phase traced = run_phase(args.seconds / 2, true);
    for (const auto& [name, t] : watched) {
      out->ledger.tickers[name] = tick(t) - before[name];
    }
    // Per op the engine ran in the traced half, the direct comparison ops
    // included.
    out->ledger.tickers["phase_puts"] =
        traced.put.Count() + out->tracer.Durations("serve.direct.put").Count();
    out->ledger.tickers["phase_lookups"] =
        traced.lookup.Count() + traced.range.Count() +
        out->tracer.Durations("serve.direct.lookup").Count();
    out->untraced_ops_per_s = untraced.WallOpsPerSec();
    out->traced_ops_per_s = traced.WallOpsPerSec();
    out->phase = untraced;
  } else {
    out->phase = run_phase(args.seconds, false);
  }
  server->Stop();
  server.reset();
  for (int i = 0; i < db->num_shards(); i++) {
    db->shard(i)->primary()->WaitForBackgroundWork();
  }

  if (args.trace) {
    // Quiescent count pass: a fixed sample of direct ops per connection.
    CountPass count(counting);
    std::string value;
    std::vector<QueryResult> rows;
    uint64_t probe_ops = 0;
    for (Connection& conn : conns) {
      leveldbpp::Random64 saved = conn.rnd;
      for (int i = 0; i < 200; i++) {
        Operation op = conn.NextOp();
        if (op.type == OpType::kPut) continue;  // read-only pass
        uint64_t primary_before = 0;
        for (int sh = 0; sh < db->num_shards(); sh++) {
          primary_before += PrimaryBlocks(db->shard(sh));
        }
        value.clear();
        rows.clear();
        Status st = Exec(db.get(), op, &value, &rows);
        uint64_t primary_after = 0;
        for (int sh = 0; sh < db->num_shards(); sh++) {
          primary_after += PrimaryBlocks(db->shard(sh));
        }
        Cell& cell = out->ledger.At(ClassName(op.type), "lazy");
        cell.primary_blocks += primary_after - primary_before;
        Charge(&cell, rows.size());
        if (op.type == OpType::kGet && out->records.size() < 2000) {
          out->records.push_back(value);
        }
        probe_ops++;
        checker->attempted++;
        std::string why;
        if (!CheckAnswer(conn.model, op, st, value, rows, nullptr, &why)) {
          checker->Fail("probe: " + why);
        }
      }
      conn.rnd = saved;
    }
    count.Finish(probe_ops, out);
  }

  // Every record put (preload and run) has a fresh key: user bytes put are
  // the live bytes.
  uint64_t live = 0;
  for (Connection& conn : conns) live += conn.model.live_bytes();
  out->write_amp = static_cast<double>(tick(leveldbpp::kWalBytesWritten) +
                                       tick(leveldbpp::kCompactionBytesWritten)) /
                   live;
  db.reset();
  out->space_amp = static_cast<double>(DirBytes(root)) / live;
  out->meta["case"] = "cache-fits";
  out->meta["cache_bytes"] = std::to_string(cache_bytes);
  out->meta["store_bytes"] = std::to_string(DirBytes(root));
  out->meta["preload_bytes"] = std::to_string(preload_bytes);
  out->meta["connections"] = std::to_string(kConnections);
  uint64_t digest = 0;
  for (const Connection& conn : conns) {
    for (const auto& [key, doc] : conn.preload) digest = Digest(Digest(digest, key), doc);
  }
  out->meta["input_digest"] = std::to_string(digest);
  out->gen_us_per_op = out->tracer.Durations("workload.gen").Mean();
}

// ======================= metrics =======================

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void EndToEnd(const RunOutput& r, Report* rep) {
  const Phase& phase = r.phase;
  std::vector<double> setups = r.setup_s;
  std::sort(setups.begin(), setups.end());
  rep->Set("setup_s", setups[setups.size() / 2], "s");
  rep->Set("ops_per_s", phase.OpsPerSec(), "1/s");
  const std::pair<const char*, const Samples*> classes[] = {
      {"put", &phase.put},
      {"get", &phase.get},
      {"lookup", &phase.lookup},
      {"rangelookup", &phase.range}};
  for (const auto& [name, s] : classes) {
    rep->Set(std::string(name) + "_p50_us", s->Median(), "us");
    rep->Set(std::string(name) + "_p99_us", s->Percentile(99), "us");
  }
  rep->Set("write_amp", r.write_amp, "ratio");
  rep->Set("space_amp", r.space_amp, "ratio");
  // The process's peak above what it held before the stores were opened:
  // the engine's memory, not the benchmark's inputs and model.
  rep->Set("peak_rss_mb", PeakRssMb() - r.rss_base_mb, "MiB");
}

/// Times crc32c and decompression on the raw blocks the count pass read
/// (each is data + 1 type byte + 4 crc bytes, as ReadBlock sees it).
void BlockProbes(const std::vector<std::string>& blocks, Report* rep) {
  std::vector<const std::string*> valid;
  for (const std::string& b : blocks) {
    const size_t n = b.size() - 5;
    const uint32_t stored = leveldbpp::crc32c::Unmask(
        leveldbpp::DecodeFixed32(b.data() + n + 1));
    if (leveldbpp::crc32c::Value(b.data(), n + 1) == stored) valid.push_back(&b);
  }
  double crc_ns = 0, lz_ns = 0;
  uint64_t lz_blocks = 0, raw_bytes = 0, stored_bytes = 0;
  uint32_t sink = 0;
  std::string out;
  for (int round = 0; round < 3; round++) {
    for (const std::string* b : valid) {
      const size_t n = b->size() - 5;
      uint64_t s = NowNanos();
      sink ^= leveldbpp::crc32c::Value(b->data(), n + 1);
      crc_ns += NowNanos() - s;
      if ((*b)[n] == leveldbpp::kSimpleLZCompression) {
        uint32_t len = 0;
        leveldbpp::Slice data(b->data(), n);
        if (!leveldbpp::simplelz::GetUncompressedLength(data, &len)) continue;
        out.resize(len);
        s = NowNanos();
        leveldbpp::simplelz::Uncompress(data, out.data());
        lz_ns += NowNanos() - s;
        lz_blocks++;
        if (round == 0) {
          raw_bytes += len;
          stored_bytes += n;
        }
      } else if (round == 0) {
        raw_bytes += n;
        stored_bytes += n;
      }
    }
  }
  if (sink == 0xdeadbeef) std::fprintf(stderr, " ");
  rep->Set("util.crc32c_us_per_block", Ratio(crc_ns / 1000.0, 3.0 * valid.size()), "us");
  rep->Set("compress.decompress_us_per_block", Ratio(lz_ns / 1000.0, lz_blocks), "us");
  rep->Set("compress.ratio", Ratio(raw_bytes, stored_bytes), "ratio");
}

void JsonProbe(const std::vector<std::string>& records, Report* rep) {
  const auto* extractor = leveldbpp::JsonAttributeExtractor::Instance();
  std::string attr;
  uint64_t n = 0;
  const uint64_t s = NowNanos();
  for (int round = 0; round < 3; round++) {
    for (const std::string& r : records) {
      if (extractor->Extract(r, "UserID", &attr)) n++;
    }
  }
  rep->Set("json.extract_us_per_record", Ratio(Micros(s, NowNanos()), n), "us");
}

uint64_t T(const PerfContext& pc, Ticker t) { return pc.TickerValue(t); }

void PerLayer(const RunOutput& r, Report* rep) {
  const Ledger& L = r.ledger;
  const std::map<std::string, uint64_t>& tk = L.tickers;
  auto tick = [&](const char* name) -> double {
    auto it = tk.find(name);
    return it == tk.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto p50 = [&](const char* name, const std::string& tag) {
    return r.tracer.Durations(name, tag).Median();
  };

  // serve
  rep->Set("serve.put_overhead_us",
           p50("serve.client.put", "*") - p50("serve.direct.put", "*"), "us");
  rep->Set("serve.lookup_overhead_us",
           p50("serve.client.lookup", "*") - p50("serve.direct.lookup", "*"), "us");
  rep->Set("serve.fanout_us", r.fanout_us.Median(), "us");
  rep->Set("serve.bytes_per_request",
           Ratio(tick("serve_bytes_read") + tick("serve_bytes_written"),
                 tick("serve_requests")), "bytes");
  rep->Set("serve.merge_candidates_per_lookup",
           Ratio(tick("merge_candidates"), tick("fanouts")), "count");
  rep->Set("serve.merge_early_stop_ratio",
           Ratio(tick("merge_early_stops"), tick("fanouts") * kShards), "ratio");
  rep->Set("serve.requests_shed", tick("requests_shed"), "count");

  // core
  for (const Variant& v : StudyVariants()) {
    for (size_t k : {5, 50, 0}) {
      rep->Set(std::string("core.lookup_p50_us.") + v.name + "." + KTag(k),
               p50("core.lookup", std::string(v.name) + "." + KTag(k)), "us");
    }
  }
  for (const Variant& v : StudyVariants()) {
    Samples mine;
    for (size_t k : {5, 50}) {
      mine.Merge(r.tracer.Durations("core.rangelookup",
                                    std::string(v.name) + "." + KTag(k)));
    }
    rep->Set(std::string("core.rangelookup_p50_us.") + v.name, mine.Median(), "us");
  }
  for (const Variant& v : StudyVariants()) {
    rep->Set(std::string("core.put_p50_us.") + v.name, p50("core.put", v.name), "us");
  }
  Cell lookups = L.Sum("lookup");
  for (const Variant& v : StudyVariants()) {
    Cell c = L.Sum("lookup", v.name);
    rep->Set(std::string("core.validate_share.") + v.name,
             Ratio(c.pc.validate_micros, c.pc.lookup_micros), "ratio");
  }
  for (const char* v : {"lazy", "composite"}) {
    Cell c = L.Sum("lookup", v);
    rep->Set(std::string("core.postings_per_lookup.") + v,
             Ratio(c.pc.posting_entries_scanned, c.ops), "count");
    rep->Set(std::string("core.enumerate_us_per_posting.") + v,
             Ratio(c.enumerate_us, c.enumerate_postings), "us");
  }
  {
    Cell lazy = L.Sum("lookup", "lazy"), comp = L.Sum("lookup", "composite");
    rep->Set("core.candidates_per_result",
             Ratio(lazy.pc.candidates_validated + comp.pc.candidates_validated,
                   lazy.results + comp.results), "ratio");
  }
  rep->Set("core.valid_ratio",
           Ratio(lookups.pc.candidates_valid, lookups.pc.candidates_validated),
           "ratio");
  {
    Cell e = L.Sum("lookup", "embedded");
    rep->Set("core.records_scanned_per_lookup.embedded",
             Ratio(e.pc.candidate_records_scanned, e.ops), "count");
  }

  // db
  Cell gets = L.Sum("get");
  rep->Set("db.blocks_per_get", Ratio(T(gets.pc, leveldbpp::kBlockRead), gets.ops), "count");
  rep->Set("db.primary_bloom_useful_ratio",
           Ratio(T(gets.pc, leveldbpp::kBloomPrimaryUseful),
                 T(gets.pc, leveldbpp::kBloomPrimaryChecked)), "ratio");
  for (const Variant& v : StudyVariants()) {
    Cell c = L.Sum("lookup", v.name);
    rep->Set(std::string("db.blocks_per_lookup.") + v.name,
             Ratio(T(c.pc, leveldbpp::kBlockRead), c.ops), "count");
  }
  {
    Cell lazy = L.Sum("lookup", "lazy"), comp = L.Sum("lookup", "composite");
    rep->Set("db.blocks_per_validation",
             Ratio(lazy.primary_blocks + comp.primary_blocks,
                   lazy.pc.candidates_validated + comp.pc.candidates_validated),
             "count");
  }
  const double puts = L.puts > 0 ? L.puts : tick("phase_puts");
  rep->Set("db.compaction_us_per_put", Ratio(tick("compaction_us"), L.puts), "us");
  rep->Set("db.compaction_bytes_written", tick("compaction_bytes"), "bytes");
  rep->Set("db.flushes", tick("flushes"), "count");
  rep->Set("db.stall_us_per_put",
           Ratio(tick("stall_us") + tick("slowdown_us"), tick("phase_puts")), "us");
  rep->Set("db.multiget_keys_per_batch",
           Ratio(tick("multiget_keys"), tick("multiget_batches")), "count");
  rep->Set("db.parallel_wait_us_per_lookup",
           Ratio(tick("parallel_wait_us"), tick("phase_lookups")), "us");

  // table
  Cell ranges = L.Sum("range");
  rep->Set("table.zonemap_blocks_pruned_per_rangelookup",
           Ratio(T(ranges.pc, leveldbpp::kZoneMapBlockPruned), ranges.ops), "count");
  {
    Cell e = L.Sum("lookup", "embedded");
    rep->Set("table.secondary_bloom_useful_ratio",
             Ratio(T(e.pc, leveldbpp::kBloomSecondaryUseful),
                   T(e.pc, leveldbpp::kBloomSecondaryChecked)), "ratio");
  }
  rep->Set("table.bytes_per_block_read",
           Ratio(T(lookups.pc, leveldbpp::kBlockReadBytes),
                 T(lookups.pc, leveldbpp::kBlockRead)), "bytes");

  // cache
  rep->Set("cache.block_hit_ratio",
           Ratio(tick("cache_hit"), tick("cache_hit") + tick("cache_miss")), "ratio");

  // env
  rep->Set("env.reads_per_op", Ratio(L.env_delta.reads, L.env_ops), "count");
  rep->Set("env.read_us_per_op", Ratio(L.env_delta.read_ns / 1000.0, L.env_ops), "us");
  rep->Set("env.write_bytes_per_put", Ratio(L.env_delta.write_bytes, L.puts), "bytes");
  rep->Set("env.syncs", L.env_delta.syncs, "count");
  rep->Set("env.sync_us", L.env_delta.sync_ns / 1000.0, "us");

  // wal
  rep->Set("wal.bytes_per_put", Ratio(tick("wal_bytes"), puts), "bytes");

  // util / compress / json
  BlockProbes(r.blocks, rep);
  JsonProbe(r.records, rep);

  // workload / trace
  rep->Set("workload.gen_us_per_op", r.gen_us_per_op, "us");
  // Wall-clock rates: tracing costs fall outside the timed calls.
  rep->Set("trace.overhead_frac",
           1.0 - Ratio(r.traced_ops_per_s, r.untraced_ops_per_s), "ratio");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <static-query|mixed-update|"
                 "served-mixed> --seed N --seconds S --trace 0|1 --dir D\n");
    return 2;
  }
  std::filesystem::create_directories(args.dir);
  // The counting Env is installed only in traced runs.
  CountingEnv counting(Env::Posix());
  Env* env = args.trace ? static_cast<Env*>(&counting) : Env::Posix();
  Checker checker;
  checker.corrupt_pending = args.corrupt;
  RunOutput out;
  const uint64_t start = NowNanos();
  if (args.workload == "static-query") {
    RunStaticQuery(args, env, &counting, &checker, &out);
  } else if (args.workload == "mixed-update") {
    RunMixedUpdate(args, env, &counting, &checker, &out);
  } else if (args.workload == "served-mixed") {
    RunServedMixed(args, env, &counting, &checker, &out);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const double total_s = static_cast<double>(NowNanos() - start) / 1e9;
  std::filesystem::remove_all(args.dir);

  Report e2e, layers;
  EndToEnd(out, &e2e);
  const uint64_t attempted = checker.attempted.load();
  const uint64_t failed = checker.failed.load();
  std::printf("workload %s seed %" PRIu64 " trace %d: %.1f s\n",
              args.workload.c_str(), args.seed, args.trace ? 1 : 0, total_s);
  std::printf("samples put=%zu get=%zu lookup=%zu rangelookup=%zu ops=%" PRIu64
              "\n",
              out.phase.put.Count(), out.phase.get.Count(),
              out.phase.lookup.Count(), out.phase.range.Count(), out.phase.ops);
  std::printf("error_rate %.6f (%" PRIu64 " of %" PRIu64 ")\n",
              Ratio(failed, attempted), failed, attempted);
  e2e.Print("e2e");
  if (args.trace) {
    PerLayer(out, &layers);
    layers.Print("layer");
    if (!args.spans.empty()) {
      if (!out.tracer.WriteJsonl(args.spans)) {
        std::fprintf(stderr, "cannot write spans to %s\n", args.spans.c_str());
        return 2;
      }
      std::printf("spans %zu written to %s\n", out.tracer.spans().size(),
                  args.spans.c_str());
    }
  }
  std::string meta = "{\"workload\": \"" + args.workload + "\", \"seed\": " +
                     std::to_string(args.seed) +
                     ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
                     ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"" +
                     ", \"git_rev\": \"" + JsonEscape(args.git_rev) + "\"" +
                     ", \"source_hash\": \"" + JsonEscape(args.source_hash) + "\"" +
                     ", \"scale\": " + std::to_string(args.scale) +
                     ", \"setups\": " + std::to_string(out.setup_s.size()) +
                     ", \"rss_base_mb\": " + std::to_string(out.rss_base_mb);
  for (const auto& [k, v] : out.meta) {
    meta += ", \"" + k + "\": \"" + JsonEscape(v) + "\"";
  }
  meta += "}";
  std::printf("meta %s\n", meta.c_str());
  const bool correct = failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              args.trace ? layers.Json().c_str() : e2e.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
