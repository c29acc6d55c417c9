// Index advisor: an executable version of the paper's Figure 2 decision
// procedure. Describe your workload with flags; the advisor recommends an
// index strategy and explains each branch it took, then (optionally)
// validates the recommendation with a micro-trial on synthetic data.
//
//   ./index_advisor --writes=0.8 --lookups=0.03 --topk=10
//                   --time-correlated=0 --space-constrained=0 [--trial]

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "core/secondary_db.h"
#include "env/env.h"
#include "workload/workload.h"

using namespace leveldbpp;

namespace {

double FlagDouble(int argc, char** argv, const char* name, double def) {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; i++) {
    if (strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return atof(argv[i] + prefix.size());
    }
  }
  return def;
}

bool FlagBool(int argc, char** argv, const char* name) {
  std::string want = std::string("--") + name;
  for (int i = 1; i < argc; i++) {
    if (want == argv[i] || want + "=1" == argv[i]) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  double writes = FlagDouble(argc, argv, "writes", 0.8);
  double lookups = FlagDouble(argc, argv, "lookups", 0.03);
  double topk = FlagDouble(argc, argv, "topk", 10);
  bool time_correlated = FlagBool(argc, argv, "time-correlated");
  bool space_constrained = FlagBool(argc, argv, "space-constrained");
  bool run_trial = FlagBool(argc, argv, "trial");

  printf("Workload profile:\n");
  printf("  write fraction:        %.0f%%\n", writes * 100);
  printf("  secondary-query ratio: %.0f%%\n", lookups * 100);
  printf("  typical top-K:         %s\n",
         topk <= 0 ? "unbounded" : std::to_string((int)topk).c_str());
  printf("  time-correlated attr:  %s\n", time_correlated ? "yes" : "no");
  printf("  space constrained:     %s\n", space_constrained ? "yes" : "no");

  // Figure 2's decision procedure.
  IndexType pick;
  printf("\nDecision trace (paper Figure 2):\n");
  if (time_correlated) {
    printf("  - attribute is time-correlated -> zone maps prune strongly\n");
    pick = IndexType::kEmbedded;
  } else if (space_constrained) {
    printf("  - space is a concern -> avoid separate index tables\n");
    pick = IndexType::kEmbedded;
  } else if (lookups < 0.05 && writes > 0.5) {
    printf("  - <5%% secondary queries and write-heavy (>50%%) -> index\n"
           "    maintenance cost dominates; keep writes cheap\n");
    pick = IndexType::kEmbedded;
  } else if (topk > 0) {
    printf("  - query-heavy with bounded top-K -> stand-alone index;\n"
           "    Lazy stops at the first level that fills the heap\n");
    pick = IndexType::kLazy;
  } else {
    printf("  - query-heavy with unbounded results -> stand-alone index;\n"
           "    Composite avoids posting-list CPU when returning everything\n");
    pick = IndexType::kComposite;
  }
  printf("  - Eager is never recommended: write amplification grows with\n"
         "    posting-list length (paper Section 5.2.1)\n");
  printf("\n>> Recommended index: %s\n", IndexTypeName(pick));

  if (!run_trial) {
    printf("\n(pass --trial to validate with a synthetic micro-benchmark)\n");
    return 0;
  }

  // Micro-trial: run the profiled mix against the recommendation and the
  // two alternatives; report mean op latency.
  printf("\nTrial: 20k ops of the profiled mix per variant...\n");
  MixedRatios ratios;
  ratios.put = writes;
  ratios.update = 0;
  ratios.lookup = lookups;
  ratios.get = std::max(0.0, 1.0 - writes - lookups);
  for (IndexType type :
       {IndexType::kEmbedded, IndexType::kLazy, IndexType::kComposite}) {
    SecondaryDBOptions options;
    options.index_type = type;
    options.indexed_attributes = {time_correlated ? "CreationTime"
                                                  : "UserID"};
    std::unique_ptr<SecondaryDB> db;
    std::string path = "./advisor_trial_" + std::string(IndexTypeName(type));
    Status s = SecondaryDB::Open(options, path, &db);
    if (!s.ok()) {
      fprintf(stderr, "open: %s\n", s.ToString().c_str());
      return 1;
    }
    WorkloadGenerator gen(TweetGeneratorOptions{}, 99);
    std::vector<QueryResult> scratch;
    uint64_t t0 = Env::Posix()->NowMicros();
    for (int i = 0; i < 20000; i++) {
      Operation op = gen.NextMixed(ratios, static_cast<size_t>(topk));
      if (op.type == OpType::kLookup && time_correlated) {
        op = gen.NextTimeRangeLookup(1, static_cast<size_t>(topk));
      }
      switch (op.type) {
        case OpType::kPut:
          s = db->Put(op.key, op.document);
          break;
        case OpType::kGet: {
          std::string v;
          s = db->Get(op.key, &v);
          if (s.IsNotFound()) s = Status::OK();
          break;
        }
        case OpType::kLookup:
          s = db->Lookup(op.attribute, op.lo, op.k, &scratch);
          break;
        case OpType::kRangeLookup:
          s = db->RangeLookup(op.attribute, op.lo, op.hi, op.k, &scratch);
          break;
        default:
          break;
      }
      if (!s.ok()) {
        fprintf(stderr, "op: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    double us = (Env::Posix()->NowMicros() - t0) / 20000.0;
    printf("  %-10s %8.2f us/op%s\n", IndexTypeName(type), us,
           type == pick ? "   <- recommended" : "");
  }
  return 0;
}
