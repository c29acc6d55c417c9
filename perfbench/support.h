// Support code for the perfbench load generator: latency samples, the
// in-memory span recorder, the counting Env installed in traced runs, the
// per-op cost ledger, the correctness model, and metric output.
//
// Everything here sits outside the engine: spans wrap the benchmark's own
// calls into the engine's public API, and counters are read from what the
// engine already exposes (PerfContext, Statistics).

#ifndef PERFBENCH_SUPPORT_H_
#define PERFBENCH_SUPPORT_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/topk.h"
#include "env/env.h"
#include "util/perf_context.h"

namespace perfbench {

using leveldbpp::Env;
using leveldbpp::PerfContext;
using leveldbpp::QueryResult;
using leveldbpp::Slice;
using leveldbpp::Status;

inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double Micros(uint64_t start_ns, uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1000.0;
}

// ---- Latency samples ----

/// Raw latency samples in microseconds; percentiles are exact
/// (nearest-rank over the sorted samples), not bucketed.
class Samples {
 public:
  void Add(double us) { values_.push_back(us); }
  void Merge(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t Count() const { return values_.size(); }
  double Sum() const {
    double s = 0;
    for (double v : values_) s += v;
    return s;
  }
  double Mean() const { return values_.empty() ? 0 : Sum() / Count(); }
  /// p in [0, 100]; 0 when empty.
  double Percentile(double p) const {
    if (values_.empty()) return 0;
    std::vector<double> sorted = values_;
    size_t rank = static_cast<size_t>(p / 100.0 * sorted.size());
    if (rank >= sorted.size()) rank = sorted.size() - 1;
    std::nth_element(sorted.begin(), sorted.begin() + rank, sorted.end());
    return sorted[rank];
  }
  double Median() const { return Percentile(50); }

 private:
  std::vector<double> values_;
};

// ---- Spans ----

/// One timed call of the benchmark into a layer. `parent` indexes the
/// enclosing span in the same recorder (-1 for a root); spans of one
/// operation share `op`.
struct Span {
  const char* name;
  std::string tag;  // variant / top-K cell, e.g. "lazy.k50"
  uint64_t start_ns;
  uint64_t end_ns;
  int64_t parent;
  uint64_t op;
};

/// Per-thread in-memory span recorder. Disabled recorders cost one branch
/// per call and record nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled = false) : enabled_(enabled) {}
  void set_enabled(bool on) { enabled_ = on; }

  int64_t Begin(const char* name, std::string tag, uint64_t op,
                int64_t parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back({name, std::move(tag), NowNanos(), 0, parent, op});
    return static_cast<int64_t>(spans_.size() - 1);
  }
  void End(int64_t id) {
    if (id >= 0) spans_[id].end_ns = NowNanos();
  }
  /// Record an already-timed interval.
  void Add(const char* name, std::string tag, uint64_t op, uint64_t start_ns,
           uint64_t end_ns, int64_t parent = -1) {
    if (!enabled_) return;
    spans_.push_back({name, std::move(tag), start_ns, end_ns, parent, op});
  }

  const std::vector<Span>& spans() const { return spans_; }
  void Absorb(Tracer* other) {
    // Re-base parent indexes of the absorbed spans.
    const int64_t base = static_cast<int64_t>(spans_.size());
    for (Span& s : other->spans_) {
      if (s.parent >= 0) s.parent += base;
      spans_.push_back(std::move(s));
    }
    other->spans_.clear();
  }

  /// Durations (us) of every span with this name (and tag, when given).
  Samples Durations(const std::string& name, const std::string& tag = "*")
      const {
    Samples out;
    for (const Span& s : spans_) {
      if (name != s.name) continue;
      if (tag != "*" && tag != s.tag) continue;
      out.Add(Micros(s.start_ns, s.end_ns));
    }
    return out;
  }

  /// Write every span as one JSON object per line.
  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// ---- Counting Env (traced runs only) ----

/// Wraps the POSIX Env and counts random-access reads (and the time they
/// take), appended bytes, and syncs. While `capture_blocks` is set, the raw
/// bytes of block-sized reads are kept (up to a cap) so the util/compress
/// probes can time checksum and decompression on this run's own blocks.
class CountingEnv : public Env {
 public:
  explicit CountingEnv(Env* base) : base_(base) {}

  struct Counts {
    uint64_t reads = 0;
    uint64_t read_ns = 0;
    uint64_t write_bytes = 0;
    uint64_t syncs = 0;
    uint64_t sync_ns = 0;
  };
  Counts Snapshot() const {
    Counts c;
    c.reads = reads_.load();
    c.read_ns = read_ns_.load();
    c.write_bytes = write_bytes_.load();
    c.syncs = syncs_.load();
    c.sync_ns = sync_ns_.load();
    return c;
  }

  /// Counts since `before` (an earlier Snapshot()).
  Counts Since(const Counts& before) const {
    const Counts now = Snapshot();
    return {now.reads - before.reads, now.read_ns - before.read_ns,
            now.write_bytes - before.write_bytes, now.syncs - before.syncs,
            now.sync_ns - before.sync_ns};
  }

  void set_capture_blocks(bool on) { capture_ = on; }
  std::vector<std::string> TakeCapturedBlocks() {
    std::lock_guard<std::mutex> l(mu_);
    return std::move(blocks_);
  }

  Status NewSequentialFile(
      const std::string& f,
      std::unique_ptr<leveldbpp::SequentialFile>* r) override {
    return base_->NewSequentialFile(f, r);
  }
  Status NewRandomAccessFile(
      const std::string& f,
      std::unique_ptr<leveldbpp::RandomAccessFile>* r) override;
  Status NewWritableFile(
      const std::string& f,
      std::unique_ptr<leveldbpp::WritableFile>* r) override;
  bool FileExists(const std::string& f) override {
    return base_->FileExists(f);
  }
  Status GetChildren(const std::string& d,
                     std::vector<std::string>* r) override {
    return base_->GetChildren(d, r);
  }
  Status RemoveFile(const std::string& f) override {
    return base_->RemoveFile(f);
  }
  Status CreateDir(const std::string& d) override {
    return base_->CreateDir(d);
  }
  Status RemoveDir(const std::string& d) override {
    return base_->RemoveDir(d);
  }
  Status GetFileSize(const std::string& f, uint64_t* s) override {
    return base_->GetFileSize(f, s);
  }
  Status RenameFile(const std::string& s, const std::string& t) override {
    return base_->RenameFile(s, t);
  }
  Status SyncDir(const std::string& d) override { return base_->SyncDir(d); }
  uint64_t NowMicros() override { return base_->NowMicros(); }
  void Schedule(void (*f)(void*), void* a) override { base_->Schedule(f, a); }
  void StartThread(void (*f)(void*), void* a) override {
    base_->StartThread(f, a);
  }
  void SleepForMicroseconds(int m) override {
    base_->SleepForMicroseconds(m);
  }

  // Called by the file wrappers.
  void CountRead(uint64_t ns, const Slice& data);
  void CountWrite(uint64_t bytes) { write_bytes_ += bytes; }
  void CountSync(uint64_t ns) {
    syncs_++;
    sync_ns_ += ns;
  }

 private:
  static constexpr size_t kMaxCaptured = 2000;

  Env* base_;
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> read_ns_{0};
  std::atomic<uint64_t> write_bytes_{0};
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> sync_ns_{0};
  std::atomic<bool> capture_{false};
  std::mutex mu_;
  std::vector<std::string> blocks_;  // guarded by mu_
};

// ---- Per-op cost ledger ----

/// Counters of one cell (op class x variant) of a count pass: the merged
/// PerfContext of every op in the cell plus what the benchmark measured
/// around it.
struct Cell {
  uint64_t ops = 0;
  uint64_t results = 0;           // rows returned
  uint64_t primary_blocks = 0;    // primary-table block reads + cache hits
  uint64_t enumerate_postings = 0;
  double enumerate_us = 0;
  PerfContext pc;
};

/// What one workload's count pass (fixed, deterministic ops) measured.
struct Ledger {
  std::map<std::string, Cell> cells;  // key "<class>.<variant>"
  CountingEnv::Counts env_delta;
  uint64_t env_ops = 0;               // ops the env delta covers
  uint64_t puts = 0;                  // PUTs in the count window
  std::map<std::string, uint64_t> tickers;  // whole-window ticker deltas

  Cell& At(const std::string& cls, const std::string& variant) {
    return cells[cls + "." + variant];
  }
  /// Sum of every cell whose class matches (variant "*" = all).
  Cell Sum(const std::string& cls, const std::string& variant = "*") const;
};

// ---- Correctness model ----

/// Top-level string attribute of one of the generator's JSON documents
/// (the benchmark's own parser, independent of the engine's).
std::string DocAttribute(const std::string& doc, const std::string& attr);

/// FNV-1a digest of `s`, chained from `h` (0 starts a new digest).
inline uint64_t Digest(uint64_t h, const std::string& s) {
  if (h == 0) h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
  return h;
}

/// What the benchmark wrote, with recency = op order. Answers the expected
/// GET / LOOKUP / RANGELOOKUP results the engine must return. Documents are
/// kept as digests, so the model's own memory stays small beside the
/// engine's.
class Model {
 public:
  void Put(const std::string& key, const std::string& doc);
  /// True when `key` is live and `value` is its latest document.
  bool Holds(const std::string& key, const std::string& value) const;
  /// UserID / CreationTime of a live key.
  const std::string& UserOf(const std::string& key) const;
  const std::string& TimeOf(const std::string& key) const;
  /// Keys of the K most recent live records with UserID == user
  /// (k == 0: all), newest first.
  std::vector<std::string> LookupUser(const std::string& user, size_t k) const;
  /// Keys of the K most recent live records with lo <= CreationTime <= hi.
  std::vector<std::string> RangeTime(const std::string& lo,
                                     const std::string& hi, size_t k) const;
  uint64_t live_bytes() const { return live_bytes_; }
  size_t size() const { return by_key_.size(); }
  /// A live key chosen by `r` (uniform over insertion slots).
  const std::string& KeyAt(uint64_t r) const { return keys_[r % keys_.size()]; }

 private:
  struct Rec {
    uint64_t digest;
    uint64_t size;
    std::string user;
    std::string ct;
    uint64_t recency;
  };
  using Entries = std::set<std::pair<uint64_t, std::string>>;
  std::unordered_map<std::string, Rec> by_key_;
  std::unordered_map<std::string, Entries> by_user_;
  std::map<std::string, Entries> by_ct_;
  std::vector<std::string> keys_;  // every key, once, in first-put order
  uint64_t next_recency_ = 0;
  uint64_t live_bytes_ = 0;
};

/// True when `got` is exactly the expected rows: same keys in the same
/// order, and each value equal to the model's document.
bool SameRows(const Model& model, const std::vector<std::string>& want,
              const std::vector<QueryResult>& got, std::string* why);

// ---- Metric output ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Ordered metric set; prints one "name value unit" line each and renders
/// the final JSON object.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics_.push_back({name, value, unit});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }
  void Print(const char* prefix) const;
  std::string Json() const;

 private:
  std::vector<Metric> metrics_;
};

/// Bytes of every regular file under `dir`.
uint64_t DirBytes(const std::string& dir);

/// Resident set size of this process now, MiB (0 if unknown).
double RssMb();

/// Peak resident set size of this process, MiB.
double PeakRssMb();

std::string JsonEscape(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_SUPPORT_H_
