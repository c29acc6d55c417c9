// Shared bench harness: variant construction, scratch directories, timing,
// table printing, and tiny CLI-flag parsing. Each bench_*.cc binary
// regenerates one of the paper's tables/figures (see DESIGN.md).
//
// Absolute numbers differ from the paper (different hardware, scaled-down
// dataset); the harness therefore reports BOTH wall time and counted disk
// I/O so the hardware-independent shapes can be compared directly.

#ifndef LEVELDBPP_BENCH_HARNESS_H_
#define LEVELDBPP_BENCH_HARNESS_H_

#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/secondary_db.h"
#include "env/env.h"
#include "util/histogram.h"
#include "workload/workload.h"

namespace leveldbpp {
namespace bench {

// ---- CLI flags: --name=value ----

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; i++) {
      const char* arg = argv[i];
      if (strncmp(arg, "--", 2) != 0) continue;
      const char* eq = strchr(arg, '=');
      if (eq != nullptr) {
        values_[std::string(arg + 2, eq - arg - 2)] = eq + 1;
      } else {
        values_[arg + 2] = "1";
      }
    }
  }

  uint64_t GetInt(const std::string& name, uint64_t def) const {
    auto it = values_.find(name);
    return it == values_.end() ? def : strtoull(it->second.c_str(), nullptr, 10);
  }

  std::string GetString(const std::string& name,
                        const std::string& def) const {
    auto it = values_.find(name);
    return it == values_.end() ? def : it->second;
  }

  bool GetBool(const std::string& name, bool def) const {
    auto it = values_.find(name);
    if (it == values_.end()) return def;
    return it->second != "0" && it->second != "false";
  }

 private:
  std::map<std::string, std::string> values_;
};

// ---- Scratch directories ----

/// Recursively destroy a directory tree (bounded depth; bench scratch trees
/// are root/<variant>/<table>/<files>).
inline void DestroyTree(const std::string& path, int depth = 0) {
  Env* env = Env::Posix();
  if (depth > 6) return;  // Safety bound
  std::vector<std::string> children;
  if (env->GetChildren(path, &children).ok()) {
    for (const std::string& child : children) {
      std::string full = path + "/" + child;
      if (!env->RemoveFile(full).ok()) {
        DestroyTree(full, depth + 1);
      }
    }
  }
  env->RemoveDir(path);
}

namespace internal {
inline std::string& ScratchRootStorage() {
  static std::string root;
  return root;
}
inline void CleanupScratch() {
  if (!internal::ScratchRootStorage().empty()) {
    DestroyTree(internal::ScratchRootStorage());
  }
}
}  // namespace internal

/// Per-process scratch directory, removed automatically at process exit.
inline std::string ScratchRoot() {
  std::string& root = internal::ScratchRootStorage();
  if (root.empty()) {
    const char* tmp = getenv("TMPDIR");
    root = (tmp != nullptr && tmp[0] != '\0') ? tmp : "/tmp";
    root += "/leveldbpp_bench_" + std::to_string(getpid());
    Env::Posix()->CreateDir(root);
    atexit(&internal::CleanupScratch);
  }
  return root;
}

// ---- Variants ----

inline std::vector<IndexType> AllVariants() {
  return {IndexType::kNoIndex, IndexType::kEmbedded, IndexType::kLazy,
          IndexType::kEager, IndexType::kComposite};
}

inline std::vector<IndexType> VariantsWithoutEager() {
  // The paper drops Eager from later experiments after showing it is
  // "unusable for high write amplification".
  return {IndexType::kNoIndex, IndexType::kEmbedded, IndexType::kLazy,
          IndexType::kComposite};
}

struct VariantConfig {
  IndexType type;
  std::vector<std::string> attributes = {"UserID", "CreationTime"};
  // Scaled-down engine geometry: small buffers develop 4+ levels on
  // laptop-size datasets, preserving the paper's LSM shape.
  size_t write_buffer_size = 1 << 20;
  size_t max_file_size = 512 << 10;
  uint64_t max_bytes_for_level_base = 4 << 20;
  int embedded_bits_per_key = 20;
  CompressionType compression = kSimpleLZCompression;
  // 0 = the paper's sequential read path; > 1 fans candidate resolution
  // out over the shared pool.
  int read_parallelism = 0;
  // Override the Env (nullptr = Env::Posix()); benches use this to inject
  // storage latency.
  Env* env = nullptr;
};

inline std::unique_ptr<SecondaryDB> OpenVariant(const VariantConfig& config,
                                                const std::string& path) {
  SecondaryDBOptions options;
  options.base.env = config.env != nullptr ? config.env : Env::Posix();
  options.base.write_buffer_size = config.write_buffer_size;
  options.base.max_file_size = config.max_file_size;
  options.base.max_bytes_for_level_base = config.max_bytes_for_level_base;
  options.base.compression = config.compression;
  options.base.read_parallelism = config.read_parallelism;
  options.index_type = config.type;
  options.indexed_attributes = config.attributes;
  options.embedded_bloom_bits_per_key = config.embedded_bits_per_key;
  std::unique_ptr<SecondaryDB> db;
  Status s = SecondaryDB::Open(options, path, &db);
  if (!s.ok()) {
    fprintf(stderr, "FATAL: open %s: %s\n", path.c_str(),
            s.ToString().c_str());
    exit(1);
  }
  return db;
}

// ---- Operation application ----

inline Status Apply(SecondaryDB* db, const Operation& op,
                    std::vector<QueryResult>* scratch) {
  switch (op.type) {
    case OpType::kPut:
      return db->Put(op.key, op.document);
    case OpType::kDelete:
      return db->Delete(op.key);
    case OpType::kGet: {
      std::string value;
      Status s = db->Get(op.key, &value);
      return s.IsNotFound() ? Status::OK() : s;
    }
    case OpType::kLookup:
      return db->Lookup(op.attribute, op.lo, op.k, scratch);
    case OpType::kRangeLookup:
      return db->RangeLookup(op.attribute, op.lo, op.hi, op.k, scratch);
  }
  return Status::OK();
}

inline void CheckOk(const Status& s, const char* what) {
  if (!s.ok()) {
    fprintf(stderr, "FATAL: %s: %s\n", what, s.ToString().c_str());
    exit(1);
  }
}

// ---- Simulated-device Env ----

/// Injects a blocking sleep into Sync() of table (.ldb) files only — the
/// device-commit latency a flush or compaction output pays on real storage.
/// WAL (.log) appends/syncs are untouched, so the foreground group-commit
/// path is unaffected; what changes is how long the background thread is
/// *occupied* per flush — exactly the latency the immutable-memtable queue
/// hides (bench_concurrent_put) and the overload sweep saturates against
/// (bench_serve --mode=overload). On a page-cached scratch directory a
/// table sync is ~free, so with latency 0 this wrapper is a pass-through.
class TableLatencyEnv : public Env {
 public:
  TableLatencyEnv(Env* base, uint32_t sync_latency_us)
      : base_(base), latency_us_(sync_latency_us) {}

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    return base_->NewSequentialFile(fname, result);
  }
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    return base_->NewRandomAccessFile(fname, result);
  }
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    std::unique_ptr<WritableFile> file;
    Status s = base_->NewWritableFile(fname, &file);
    if (s.ok() && latency_us_ > 0 && IsTable(fname)) {
      result->reset(new SlowSyncFile(std::move(file), latency_us_));
    } else if (s.ok()) {
      *result = std::move(file);
    }
    return s;
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
  static bool IsTable(const std::string& fname) {
    return fname.size() > 4 &&
           fname.compare(fname.size() - 4, 4, ".ldb") == 0;
  }

  class SlowSyncFile : public WritableFile {
   public:
    SlowSyncFile(std::unique_ptr<WritableFile> base, uint32_t latency_us)
        : base_(std::move(base)), latency_us_(latency_us) {}
    Status Append(const Slice& data) override { return base_->Append(data); }
    Status Close() override { return base_->Close(); }
    Status Flush() override { return base_->Flush(); }
    Status Sync() override {
      Env::Posix()->SleepForMicroseconds(static_cast<int>(latency_us_));
      return base_->Sync();
    }

   private:
    std::unique_ptr<WritableFile> base_;
    uint32_t latency_us_;
  };

  Env* base_;
  uint32_t latency_us_;
};

// ---- Timing ----

class Timer {
 public:
  Timer() : start_(Env::Posix()->NowMicros()) {}
  uint64_t ElapsedMicros() const { return Env::Posix()->NowMicros() - start_; }
  void Reset() { start_ = Env::Posix()->NowMicros(); }

 private:
  uint64_t start_;
};

// ---- Printing ----

inline void PrintHeader(const char* title, FILE* out = stdout) {
  const char* rule =
      "================================================================";
  fprintf(out, "\n%s\n%s\n%s\n", rule, title, rule);
}

inline void PrintBoxPlotRow(const char* variant, const Histogram& h) {
  Histogram::BoxPlot bp = h.GetBoxPlot();
  printf("  %-10s  n=%-6llu  whiskers=[%10.1f .. %10.1f]  "
         "box=[%10.1f  %10.1f  %10.1f]  (us)\n",
         variant, static_cast<unsigned long long>(h.Count()), bp.lo_whisker,
         bp.hi_whisker, bp.q1, bp.median, bp.q3);
}

inline const char* Name(IndexType t) { return IndexTypeName(t); }

// ---- JSON emission ----

/// Builds one machine-readable JSON object and prints it as a single line;
/// benches emit one per measurement so results pipe straight into jq.
class JsonLine {
 public:
  explicit JsonLine(const std::string& bench) { Str("bench", bench); }

  JsonLine& Str(const std::string& key, const std::string& value) {
    Key(key);
    out_.push_back('"');
    for (char c : value) {
      if (c == '"' || c == '\\') out_.push_back('\\');
      out_.push_back(c);
    }
    out_.push_back('"');
    return *this;
  }

  JsonLine& Int(const std::string& key, uint64_t value) {
    Key(key);
    out_ += std::to_string(value);
    return *this;
  }

  JsonLine& Double(const std::string& key, double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", value);
    Key(key);
    out_ += buf;
    return *this;
  }

  JsonLine& Bool(const std::string& key, bool value) {
    Key(key);
    out_ += value ? "true" : "false";
    return *this;
  }

  void Emit() {
    printf("{%s}\n", out_.c_str());
    fflush(stdout);
  }

 private:
  void Key(const std::string& key) {
    if (!out_.empty()) out_.push_back(',');
    out_.push_back('"');
    out_ += key;
    out_ += "\":";
  }

  std::string out_;
};

}  // namespace bench
}  // namespace leveldbpp

#endif  // LEVELDBPP_BENCH_HARNESS_H_
