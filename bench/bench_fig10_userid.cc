// Figure 10 — query latency on the non-time-correlated UserID index
// (Static workload, box-and-whisker quartiles like the paper):
//   10a: LOOKUP(UserID) for top-K in {5, 50, no-limit},
//   10b: RANGELOOKUP(UserID) at low selectivity (a few users) x top-K,
//   10c: RANGELOOKUP(UserID) at higher selectivity x top-K.
//
// Eager is included only with --include-eager (the paper drops it here
// after Figure 9 shows it is unusable to build at scale).
//
// Usage: bench_fig10_userid [--n=60000] [--queries=200] [--include-eager]
//                           [--json]
//   --json  one JSON line per (figure, K, variant) cell — p50 latency, and
//           per query the candidates validated against the primary table
//           and the GetLite checks — instead of the box-plot tables (for
//           scripts/bench_snapshot.sh).

#include <unistd.h>

#include <functional>

#include "harness.h"
#include "util/perf_context.h"

namespace leveldbpp {
namespace bench {
namespace {

void Run(const Flags& flags) {
  const uint64_t n = flags.GetInt("n", 60000);
  const uint64_t queries = flags.GetInt("queries", 200);
  const bool include_eager = flags.GetBool("include-eager", false);
  const bool json = flags.GetBool("json", false);
  const std::string root = ScratchRoot();
  // Progress lines go to stderr in JSON mode so stdout stays JSON lines.
  FILE* out = json ? stderr : stdout;

  if (!json) {
    PrintHeader("Figure 10 — UserID (non-time-correlated) query latency");
  }
  fprintf(out, "n=%" PRIu64 " tweets, %" PRIu64 " queries per cell\n", n,
          queries);

  std::vector<IndexType> variants = VariantsWithoutEager();
  if (include_eager) variants.push_back(IndexType::kEager);

  // Build each variant once (Static: all inserts, then query).
  std::vector<std::unique_ptr<SecondaryDB>> dbs;
  for (IndexType type : variants) {
    fprintf(out, "[build] %s...\n", Name(type));
    VariantConfig config;
    config.type = type;
    auto db = OpenVariant(config, root + "/" + Name(type));
    WorkloadGenerator gen(TweetGeneratorOptions{}, 11);
    std::vector<QueryResult> scratch;
    for (uint64_t i = 0; i < n; i++) {
      CheckOk(Apply(db.get(), gen.NextPut(), &scratch), "put");
    }
    // NOTE: no forced full compaction — the paper's Static workload inserts
    // and then queries the naturally-settled LSM, which is what leaves Lazy
    // posting fragments distributed across levels (the source of its
    // small-top-K advantage).
    dbs.push_back(std::move(db));
  }

  const std::vector<size_t> topks = {5, 50, 0};
  auto TopkName = [](size_t k) {
    return k == 0 ? std::string("NoLimit") : "K=" + std::to_string(k);
  };

  // One (figure, K, variant) cell: `nq` queries from a generator replayed
  // past the load, each timed and — in JSON mode only, so the box-plot
  // tables time the query without counters — costed with a fresh
  // PerfContext.
  if (json) EnablePerfContext();
  PerfContext* perf = GetPerfContext();
  auto run_cell = [&](const char* figure, size_t k, size_t v, uint64_t nq,
                      const std::function<Operation(WorkloadGenerator*)>&
                          next_op) {
    WorkloadGenerator qgen(TweetGeneratorOptions{}, 11);
    for (uint64_t i = 0; i < n; i++) qgen.NextPut();  // Prime sampler
    Histogram hist;
    uint64_t validated = 0, getlite = 0;
    std::vector<QueryResult> scratch;
    for (uint64_t q = 0; q < nq; q++) {
      Operation op = next_op(&qgen);
      perf->Reset();
      Timer t;
      CheckOk(Apply(dbs[v].get(), op, &scratch), "query");
      hist.Add(static_cast<double>(t.ElapsedMicros()));
      validated += perf->candidates_validated;
      getlite += perf->TickerValue(kGetLiteCalls);
    }
    if (!json) {
      PrintBoxPlotRow(Name(variants[v]), hist);
      return;
    }
    JsonLine("fig10")
        .Str("figure", figure)
        .Int("k", k)
        .Str("variant", Name(variants[v]))
        .Int("n", n)
        .Int("queries", nq)
        .Double("p50_us", hist.Median())
        .Double("candidates_validated", static_cast<double>(validated) / nq)
        .Double("getlite_calls", static_cast<double>(getlite) / nq)
        .Emit();
  };

  fprintf(out, "\nFig 10a — LOOKUP(UserID) latency\n");
  for (size_t k : topks) {
    fprintf(out, " top-%s\n", TopkName(k).c_str());
    for (size_t v = 0; v < variants.size(); v++) {
      run_cell("10a", k, v, queries, [k](WorkloadGenerator* g) {
        return g->NextUserLookup(k);
      });
    }
  }

  for (uint64_t selectivity : {10ull, 100ull}) {
    fprintf(out,
            "\nFig 10%c — RANGELOOKUP(UserID) latency, selectivity = %" PRIu64
            " users\n",
            selectivity == 10 ? 'b' : 'c', selectivity);
    for (size_t k : topks) {
      fprintf(out, " top-%s\n", TopkName(k).c_str());
      for (size_t v = 0; v < variants.size(); v++) {
        // Range scans cost more; cap the per-cell query count.
        run_cell(selectivity == 10 ? "10b" : "10c", k, v,
                 std::max<uint64_t>(queries / 4, 10),
                 [selectivity, k](WorkloadGenerator* g) {
                   return g->NextUserRangeLookup(selectivity, k);
                 });
      }
    }
  }
  if (json) {
    DisablePerfContext();
    return;
  }
  printf("\nExpected shapes (paper): Lazy best for small top-K; Composite "
         "best for\nno-limit; Embedded trails the stand-alone indexes on "
         "this non-time-correlated\nattribute (zone maps prune little; "
         "RANGELOOKUP ~= NoIndex).\n");
}

}  // namespace
}  // namespace bench
}  // namespace leveldbpp

int main(int argc, char** argv) {
  leveldbpp::bench::Flags flags(argc, argv);
  leveldbpp::bench::Run(flags);
  return 0;
}
