// Bulk-load bench: DB::IngestExternalFiles / SecondaryDB::IngestWithIndexes
// vs. the memtable backfill path (Put every document), per index variant.
//
// Not one of the paper's figures — the paper's Static workloads build their
// stores through the write path. This bench quantifies the opt-in ingest
// leg: a pre-sorted load skips the WAL, the memtable, and the whole
// flush-then-recompact cascade, writing each record to disk exactly once at
// the deepest non-overlapping level.
//
// --phase=load (default)    put-backfill vs. ingest wall time per variant
//
// Output: one JSON object per line ("bench":"ingest").

#include <memory>
#include <string>
#include <vector>

#include "harness.h"

#include "db/db_impl.h"
#include "env/statistics.h"

namespace leveldbpp {
namespace bench {
namespace {

std::string DocKey(uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "key%012llu",
                static_cast<unsigned long long>(i));
  return buf;
}

std::string Doc(uint64_t i, size_t pad) {
  char ts[32];
  std::snprintf(ts, sizeof(ts), "%012llu",
                static_cast<unsigned long long>(1000000 + i));
  return "{\"CreationTime\":\"" + std::string(ts) + "\",\"Pad\":\"" +
         std::string(pad, 'p') + "\",\"UserID\":\"u" +
         std::to_string(i % 1000) + "\"}";
}

SecondaryDBOptions MakeOptions(IndexType type, Statistics* stats,
                               size_t write_buffer) {
  SecondaryDBOptions options;
  options.base.env = Env::Posix();
  options.base.write_buffer_size = write_buffer;
  options.base.max_file_size = 2 << 20;
  options.base.max_bytes_for_level_base = 10 << 20;
  options.base.statistics = stats;
  options.index_type = type;
  options.indexed_attributes = {"UserID"};
  return options;
}

void EmitLoad(IndexType type, const char* path_kind, uint64_t docs,
              size_t pad, uint64_t micros, Statistics* stats,
              const IngestStats* ingest) {
  JsonLine line("ingest");
  line.Str("variant", Name(type))
      .Str("path", path_kind)
      .Int("docs", docs)
      .Int("doc_pad", pad)
      .Int("micros", micros)
      .Double("kdocs_per_sec", micros > 0 ? (docs / 1000.0) / (micros / 1e6)
                                          : 0)
      .Int("flushes", stats->Get(kFlushCount))
      .Int("compactions", stats->Get(kCompactionCount))
      .Int("compaction_bytes_written", stats->Get(kCompactionBytesWritten))
      .Int("wal_bytes", stats->Get(kWalBytesWritten));
  if (ingest != nullptr) {
    line.Int("ingest_files", ingest->files).Int("ingest_bytes", ingest->bytes);
  }
  line.Emit();
}

void RunLoad(IndexType type, uint64_t docs, size_t pad,
             size_t put_write_buffer) {
  // ---- Memtable backfill: Put every (already sorted) document.
  {
    Statistics stats;
    std::string path = ScratchRoot() + "/ingest_put_" + Name(type);
    DestroyTree(path);
    std::unique_ptr<SecondaryDB> db;
    CheckOk(SecondaryDB::Open(MakeOptions(type, &stats, put_write_buffer),
                              path, &db),
            "open put");
    Timer timer;
    for (uint64_t i = 0; i < docs; i++) {
      CheckOk(db->Put(DocKey(i), Doc(i, pad)), "put");
    }
    CheckOk(db->primary()->WaitForBackgroundWork(), "drain");
    EmitLoad(type, "put", docs, pad, timer.ElapsedMicros(), &stats, nullptr);
    db.reset();
    DestroyTree(path);
  }

  // ---- Bulk load: stream the same feed through IngestWithIndexes.
  {
    Statistics stats;
    std::string path = ScratchRoot() + "/ingest_bulk_" + Name(type);
    DestroyTree(path);
    std::unique_ptr<SecondaryDB> db;
    CheckOk(SecondaryDB::Open(MakeOptions(type, &stats, put_write_buffer),
                              path, &db),
            "open ingest");
    Timer timer;
    uint64_t next = 0;
    IngestStats ingest;
    IngestFeed feed = [&](std::string* key, std::string* value) {
      if (next >= docs) return false;
      *key = DocKey(next);
      *value = Doc(next, pad);
      next++;
      return true;
    };
    CheckOk(db->IngestWithIndexes(feed, &ingest), "ingest");
    EmitLoad(type, "ingest", docs, pad, timer.ElapsedMicros(), &stats,
             &ingest);
    db.reset();
    DestroyTree(path);
  }
}

std::vector<IndexType> ParseTypes(const std::string& spec) {
  std::vector<IndexType> out;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::string name = spec.substr(pos, comma - pos);
    for (IndexType t : AllVariants()) {
      std::string n = Name(t);
      for (char& c : n) c = static_cast<char>(tolower(c));
      if (n == name) out.push_back(t);
    }
    pos = comma + 1;
  }
  return out;
}

}  // namespace
}  // namespace bench
}  // namespace leveldbpp

int main(int argc, char** argv) {
  using namespace leveldbpp;
  using namespace leveldbpp::bench;

  Flags flags(argc, argv);
  const std::string phase = flags.GetString("phase", "load");
  const uint64_t docs = flags.GetInt("docs", 1000000);
  const size_t pad = flags.GetInt("doc_pad", 64);
  const std::vector<IndexType> types = ParseTypes(
      flags.GetString("types", "noindex,embedded,lazy,eager,composite"));
  if (types.empty()) {
    std::fprintf(stderr,
                 "bad --types spec (want e.g. noindex,embedded,lazy)\n");
    return 1;
  }

  if (phase == "load") {
    // 4MB memtables for the Put baseline: a generous buffer is the best
    // case for backfill (fewer flushes), so the reported ingest speedup is
    // a floor, not an artifact of a starved memtable.
    const size_t put_write_buffer = flags.GetInt("write_buffer", 4 << 20);
    for (IndexType t : types) RunLoad(t, docs, pad, put_write_buffer);
  } else {
    std::fprintf(stderr, "unknown --phase=%s (load)\n",
                 phase.c_str());
    return 1;
  }
  return 0;
}
