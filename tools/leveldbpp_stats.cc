// leveldbpp_stats: offline inspection of a store's metrics.
//
// Opens an existing store (read path only; the store is never created or
// modified beyond normal open-time recovery) with a fresh Statistics
// object attached, then prints the level summary and the engine's stats
// property. Tickers and histograms reflect the activity performed by the
// open itself (recovery reads, etc.); long-running counters live in the
// owning process, not on disk — a running server serves them through its
// STATS op.
//
//     leveldbpp_stats --db=PATH [--json]
//     leveldbpp_stats --db=PATH --type=lazy --attrs=UserID [--json]
//
// With --type/--attrs the path is opened as a SecondaryDB store (directory
// containing `primary/`); otherwise as a bare engine directory. --json
// prints the machine-readable "leveldbpp.stats.json" property instead of
// the text form.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/secondary_db.h"
#include "db/db.h"
#include "env/env.h"
#include "env/statistics.h"

namespace {

using namespace leveldbpp;

void Usage() {
  std::fprintf(
      stderr,
      "usage: leveldbpp_stats --db=PATH [--type=noindex|embedded|lazy|eager|"
      "composite]\n"
      "                       [--attrs=A,B,...] [--json]\n"
      "  --db     open an existing store and print levels + stats\n"
      "  --json   machine-readable output\n");
}

bool ParseIndexType(const std::string& name, IndexType* type) {
  if (name == "noindex") *type = IndexType::kNoIndex;
  else if (name == "embedded") *type = IndexType::kEmbedded;
  else if (name == "lazy") *type = IndexType::kLazy;
  else if (name == "eager") *type = IndexType::kEager;
  else if (name == "composite") *type = IndexType::kComposite;
  else return false;
  return true;
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    if (comma > start) out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

void PrintProperties(DB* db, bool as_json) {
  std::string value;
  if (as_json) {
    if (db->GetProperty("leveldbpp.stats.json", &value)) {
      std::printf("%s\n", value.c_str());
    }
    return;
  }
  if (db->GetProperty("leveldbpp.levels", &value)) {
    std::printf("levels: %s\n", value.c_str());
  }
  if (db->GetProperty("leveldbpp.total-bytes", &value)) {
    std::printf("total bytes: %s\n", value.c_str());
  }
  if (db->GetProperty("leveldbpp.sstables", &value)) {
    std::printf("sstables:\n%s", value.c_str());
  }
  if (db->GetProperty("leveldbpp.stats", &value)) {
    std::printf("stats (activity since open):\n%s", value.c_str());
  }
}

int StatsBare(const std::string& path, bool as_json) {
  Statistics stats;
  Options options;
  options.statistics = &stats;
  options.create_if_missing = false;
  DB* db = nullptr;
  Status s = DB::Open(options, path, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }
  PrintProperties(db, as_json);
  delete db;
  return 0;
}

int StatsSecondary(const std::string& path, IndexType type,
                   const std::vector<std::string>& attrs, bool as_json) {
  Statistics stats;
  SecondaryDBOptions options;
  options.base.statistics = &stats;
  options.base.create_if_missing = false;
  options.index_type = type;
  options.indexed_attributes = attrs;
  std::unique_ptr<SecondaryDB> db;
  Status s = SecondaryDB::Open(options, path, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }
  // The primary's property strings; stand-alone index tables keep their own
  // Statistics, already folded into TotalTicker-based reporting elsewhere.
  PrintProperties(db->primary(), as_json);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string db_path, type_name;
  std::vector<std::string> attrs;
  bool as_json = false;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg.rfind("--db=", 0) == 0) {
      db_path = arg.substr(strlen("--db="));
    } else if (arg.rfind("--type=", 0) == 0) {
      type_name = arg.substr(strlen("--type="));
    } else if (arg.rfind("--attrs=", 0) == 0) {
      attrs = SplitCommas(arg.substr(strlen("--attrs=")));
    } else if (arg == "--json") {
      as_json = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      Usage();
      return 2;
    }
  }
  if (db_path.empty()) {
    Usage();
    return 2;
  }
  if (type_name.empty() && attrs.empty()) {
    return StatsBare(db_path, as_json);
  }
  IndexType type = IndexType::kEmbedded;
  if (!type_name.empty() && !ParseIndexType(type_name, &type)) {
    std::fprintf(stderr, "unknown index type: %s\n", type_name.c_str());
    return 2;
  }
  return StatsSecondary(db_path, type, attrs, as_json);
}
