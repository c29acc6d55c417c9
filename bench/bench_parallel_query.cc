// Parallel secondary-index query throughput: top-K LOOKUP and RANGELOOKUP
// across all five index variants at read_parallelism 0 / 2 / 4 / 8.
//
// This bench is NOT one of the paper's figures — the paper measures a
// strictly sequential read path (our read_parallelism = 0 mode, which stays
// the default and byte-for-byte identical to the paper's algorithms). It
// quantifies the opt-in fan-out: Lazy / Eager / Composite resolve their
// index candidates through batched MultiGet (sorted key runs on the read
// pool, each key by Get's residence walk), Embedded reads
// and pre-filters its candidate blocks concurrently. Every parallel run is
// checked against the sequential run's results (hash over primary keys,
// sequence numbers and values) — the speedup must come with byte-identical
// answers.
//
// Output: one JSON object per line, e.g.
//   {"bench":"parallel_query","variant":"Lazy","query":"lookup",
//    "parallelism":4,...,"speedup":2.31,"identical":true}

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

#include "env/statistics.h"

namespace leveldbpp {
namespace bench {
namespace {

// Forwarding Env that charges a fixed latency per random-access read,
// emulating the SSD/HDD random-read cost the paper's experiments pay and a
// page-cached tmpfs does not. The parallel read path exists to hide exactly
// this latency; --read_latency_us=0 benches the raw in-memory engine.
//
// The latency is a BLOCKING sleep, not a busy-wait: a real storage read
// leaves the thread parked in the kernel with the CPU free, which is what
// lets concurrent reads overlap (including on a single-CPU host). The
// kernel rounds short sleeps up by tens of microseconds; that inflation
// applies identically at every parallelism level, so speedups still
// compare like for like.
class LatencyEnv : public Env {
 public:
  LatencyEnv(Env* base, uint32_t read_latency_us)
      : base_(base), latency_us_(read_latency_us) {}

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    return base_->NewSequentialFile(fname, result);
  }
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    std::unique_ptr<RandomAccessFile> file;
    Status s = base_->NewRandomAccessFile(fname, &file);
    if (s.ok()) {
      result->reset(new LatencyFile(std::move(file), latency_us_));
    }
    return s;
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

 private:
  class LatencyFile : public RandomAccessFile {
   public:
    LatencyFile(std::unique_ptr<RandomAccessFile> base, uint32_t latency_us)
        : base_(std::move(base)), latency_us_(latency_us) {}
    Status Read(uint64_t offset, size_t n, Slice* result,
                char* scratch) const override {
      if (latency_us_ > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(latency_us_));
      }
      return base_->Read(offset, n, result, scratch);
    }

   private:
    std::unique_ptr<RandomAccessFile> base_;
    uint32_t latency_us_;
  };

  Env* base_;
  uint32_t latency_us_;
};

// Order- and content-sensitive digest of a query's result list.
uint64_t HashResults(const std::vector<QueryResult>& results) {
  std::hash<std::string> hasher;
  uint64_t h = 1469598103934665603ull;
  std::string flat;
  for (const QueryResult& r : results) {
    flat = r.primary_key + '@' + std::to_string(r.seq) + '=' + r.value;
    h = (h ^ hasher(flat)) * 1099511628211ull;
  }
  return h;
}

struct QueryRun {
  uint64_t micros = 0;
  uint64_t multiget_batches = 0;
  uint64_t multiget_keys = 0;
  uint64_t parallel_tasks = 0;
  uint64_t parallel_wait_micros = 0;
  std::vector<uint64_t> hashes;  // One digest per query, in order
};

QueryRun RunQueries(SecondaryDB* db, const std::vector<Operation>& ops) {
  Statistics* stats = db->primary_statistics();
  stats->Reset();
  QueryRun run;
  run.hashes.reserve(ops.size());
  std::vector<QueryResult> results;
  Timer timer;
  for (const Operation& op : ops) {
    CheckOk(Apply(db, op, &results), "query");
    run.hashes.push_back(HashResults(results));
  }
  run.micros = timer.ElapsedMicros();
  run.multiget_batches = stats->Get(kMultiGetBatches);
  run.multiget_keys = stats->Get(kMultiGetKeys);
  run.parallel_tasks = stats->Get(kParallelTasks);
  run.parallel_wait_micros = stats->Get(kParallelWaitMicros);
  return run;
}

}  // namespace
}  // namespace bench
}  // namespace leveldbpp

int main(int argc, char** argv) {
  using namespace leveldbpp;
  using namespace leveldbpp::bench;

  Flags flags(argc, argv);
  const uint64_t num_inserts = flags.GetInt("inserts", 40000);
  const uint64_t num_queries = flags.GetInt("queries", 120);
  const size_t k = flags.GetInt("k", 20);
  const uint64_t range_minutes = flags.GetInt("range_minutes", 2);
  const uint32_t read_latency_us =
      static_cast<uint32_t>(flags.GetInt("read_latency_us", 50));
  LatencyEnv latency_env(Env::Posix(), read_latency_us);

  std::vector<int> parallelisms;
  {
    std::string spec = flags.GetString("parallelism", "0,2,4,8");
    size_t pos = 0;
    while (pos < spec.size()) {
      size_t comma = spec.find(',', pos);
      if (comma == std::string::npos) comma = spec.size();
      parallelisms.push_back(std::atoi(spec.substr(pos, comma - pos).c_str()));
      pos = comma + 1;
    }
  }
  if (parallelisms.empty() || parallelisms.front() != 0) {
    // Parallelism 0 must run first: it is the equivalence baseline.
    parallelisms.insert(parallelisms.begin(), 0);
  }

  const std::string variant_filter = flags.GetString("variants", "");

  // The banner goes to stderr so stdout stays pure JSON lines.
  PrintHeader("Parallel query engine: top-K lookups vs read_parallelism",
              stderr);

  for (IndexType type : AllVariants()) {
    if (variant_filter.empty()) {
      // NoIndex answers every query with a full primary scan — there is no
      // candidate-resolution phase to fan out, so it is excluded by
      // default (pass --variants=NoIndex,... to include it).
      if (type == IndexType::kNoIndex) continue;
    } else if (variant_filter.find(Name(type)) == std::string::npos) {
      continue;
    }
    const std::string path =
        ScratchRoot() + "/parq_" + std::string(Name(type));
    DestroyTree(path);

    // Build phase (paper's Static shape): insert, 10% updates, then fully
    // compact so the query phase reads a settled multi-level tree.
    std::vector<Operation> lookups, ranges;
    const uint64_t num_users = num_inserts / 30;  // Seed's ~30 tweets/user
    {
      VariantConfig config;
      config.type = type;
      config.env = &latency_env;
      std::unique_ptr<SecondaryDB> db = OpenVariant(config, path);
      TweetGeneratorOptions tweet_options;
      tweet_options.num_users = num_users;
      WorkloadGenerator gen(tweet_options, /*seed=*/20180610);
      for (uint64_t i = 0; i < num_inserts; i++) {
        CheckOk(Apply(db.get(), gen.NextPut(), nullptr), "put");
        if (i % 10 == 9) {
          CheckOk(Apply(db.get(), gen.NextUpdate(), nullptr), "update");
        }
      }
      CheckOk(db->CompactAll(), "compact");
      // Sample the query mix once so every parallelism level replays the
      // identical operation list. Lookup users are sampled UNIFORMLY by
      // Zipf rank (not tweet-frequency-weighted): for the few hot users a
      // query's cost is the index scan over thousands of entries, which no
      // candidate fan-out can help; the typical user's lookup is dominated
      // by the ~K candidate record fetches being parallelized.
      for (uint64_t q = 0; q < num_queries; q++) {
        Operation op;
        op.type = OpType::kLookup;
        op.attribute = "UserID";
        op.lo = TweetGenerator::UserIdForRank(q * num_users / num_queries);
        op.k = k;
        lookups.push_back(std::move(op));
        ranges.push_back(gen.NextTimeRangeLookup(range_minutes, k));
      }
    }

    // Query phase: reopen per parallelism level (cold TableCache each time,
    // so levels compare fairly) and replay the same queries.
    QueryRun lookup_base, range_base;
    for (int parallelism : parallelisms) {
      VariantConfig config;
      config.type = type;
      config.read_parallelism = parallelism;
      config.env = &latency_env;
      std::unique_ptr<SecondaryDB> db = OpenVariant(config, path);

      struct {
        const char* name;
        const std::vector<Operation>* ops;
        QueryRun* base;
      } phases[] = {{"lookup", &lookups, &lookup_base},
                    {"rangelookup", &ranges, &range_base}};
      for (const auto& phase : phases) {
        QueryRun run = RunQueries(db.get(), *phase.ops);
        const bool is_base = (parallelism == 0);
        if (is_base) *phase.base = run;
        const double speedup =
            run.micros > 0
                ? static_cast<double>(phase.base->micros) / run.micros
                : 0.0;
        JsonLine("parallel_query")
            .Str("variant", Name(type))
            .Str("query", phase.name)
            .Int("parallelism", static_cast<uint64_t>(parallelism))
            .Int("inserts", num_inserts)
            .Int("queries", phase.ops->size())
            .Int("k", k)
            .Int("read_latency_us", read_latency_us)
            .Int("micros", run.micros)
            .Double("queries_per_sec",
                    run.micros > 0
                        ? phase.ops->size() * 1e6 / run.micros
                        : 0.0)
            .Double("speedup", speedup)
            .Bool("identical", run.hashes == phase.base->hashes)
            .Int("multiget_batches", run.multiget_batches)
            .Int("multiget_keys", run.multiget_keys)
            .Int("parallel_tasks", run.parallel_tasks)
            .Int("parallel_wait_micros", run.parallel_wait_micros)
            .Emit();
        if (run.hashes != phase.base->hashes) {
          fprintf(stderr,
                  "FATAL: %s %s parallelism=%d diverged from sequential\n",
                  Name(type), phase.name, parallelism);
          return 1;
        }
      }
    }
    DestroyTree(path);
  }
  return 0;
}
