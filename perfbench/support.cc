#include "support.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cstring>

namespace perfbench {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); i++) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"tag\":\"%s\",\"op\":%" PRIu64
                 ",\"parent\":%" PRId64 ",\"start_ns\":%" PRIu64
                 ",\"end_ns\":%" PRIu64 "}\n",
                 i, s.name, JsonEscape(s.tag).c_str(), s.op, s.parent,
                 s.start_ns, s.end_ns);
  }
  return std::fclose(f) == 0;
}

// ---- CountingEnv ----

namespace {

class CountingRandomFile : public leveldbpp::RandomAccessFile {
 public:
  CountingRandomFile(std::unique_ptr<leveldbpp::RandomAccessFile> base,
                     CountingEnv* env)
      : base_(std::move(base)), env_(env) {}
  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    const uint64_t start = NowNanos();
    Status s = base_->Read(offset, n, result, scratch);
    env_->CountRead(NowNanos() - start, s.ok() ? *result : Slice());
    return s;
  }

 private:
  std::unique_ptr<leveldbpp::RandomAccessFile> base_;
  CountingEnv* env_;
};

class CountingWritableFile : public leveldbpp::WritableFile {
 public:
  CountingWritableFile(std::unique_ptr<leveldbpp::WritableFile> base,
                       CountingEnv* env)
      : base_(std::move(base)), env_(env) {}
  Status Append(const Slice& data) override {
    env_->CountWrite(data.size());
    return base_->Append(data);
  }
  Status Close() override { return base_->Close(); }
  Status Flush() override { return base_->Flush(); }
  Status Sync() override {
    const uint64_t start = NowNanos();
    Status s = base_->Sync();
    env_->CountSync(NowNanos() - start);
    return s;
  }

 private:
  std::unique_ptr<leveldbpp::WritableFile> base_;
  CountingEnv* env_;
};

}  // namespace

Status CountingEnv::NewRandomAccessFile(
    const std::string& f, std::unique_ptr<leveldbpp::RandomAccessFile>* r) {
  std::unique_ptr<leveldbpp::RandomAccessFile> file;
  Status s = base_->NewRandomAccessFile(f, &file);
  if (s.ok()) r->reset(new CountingRandomFile(std::move(file), this));
  return s;
}

Status CountingEnv::NewWritableFile(
    const std::string& f, std::unique_ptr<leveldbpp::WritableFile>* r) {
  std::unique_ptr<leveldbpp::WritableFile> file;
  Status s = base_->NewWritableFile(f, &file);
  if (s.ok()) r->reset(new CountingWritableFile(std::move(file), this));
  return s;
}

void CountingEnv::CountRead(uint64_t ns, const Slice& data) {
  reads_++;
  read_ns_ += ns;
  if (capture_.load(std::memory_order_relaxed) && data.size() > 5) {
    std::lock_guard<std::mutex> l(mu_);
    if (blocks_.size() < kMaxCaptured) blocks_.emplace_back(data.ToString());
  }
}

// ---- Ledger ----

Cell Ledger::Sum(const std::string& cls, const std::string& variant) const {
  Cell total;
  for (const auto& [key, cell] : cells) {
    const size_t dot = key.find('.');
    if (key.substr(0, dot) != cls) continue;
    if (variant != "*" && key.substr(dot + 1) != variant) continue;
    total.ops += cell.ops;
    total.results += cell.results;
    total.primary_blocks += cell.primary_blocks;
    total.enumerate_postings += cell.enumerate_postings;
    total.enumerate_us += cell.enumerate_us;
    total.pc.MergeFrom(cell.pc);
  }
  return total;
}

// ---- Model ----

std::string DocAttribute(const std::string& doc, const std::string& attr) {
  const std::string needle = "\"" + attr + "\":\"";
  const size_t pos = doc.find(needle);
  if (pos == std::string::npos) return std::string();
  const size_t start = pos + needle.size();
  const size_t end = doc.find('"', start);
  return doc.substr(start, end - start);
}

void Model::Put(const std::string& key, const std::string& doc) {
  auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    Rec& old = it->second;
    by_user_[old.user].erase({old.recency, key});
    by_ct_[old.ct].erase({old.recency, key});
    live_bytes_ -= key.size() + old.size;
  } else {
    keys_.push_back(key);
  }
  Rec rec{Digest(0, doc), doc.size(), DocAttribute(doc, "UserID"),
          DocAttribute(doc, "CreationTime"), next_recency_++};
  by_user_[rec.user].insert({rec.recency, key});
  by_ct_[rec.ct].insert({rec.recency, key});
  live_bytes_ += key.size() + doc.size();
  by_key_[key] = std::move(rec);
}

bool Model::Holds(const std::string& key, const std::string& value) const {
  auto it = by_key_.find(key);
  return it != by_key_.end() && it->second.size == value.size() &&
         it->second.digest == Digest(0, value);
}

const std::string& Model::UserOf(const std::string& key) const {
  return by_key_.at(key).user;
}

const std::string& Model::TimeOf(const std::string& key) const {
  return by_key_.at(key).ct;
}

std::vector<std::string> Model::LookupUser(const std::string& user,
                                           size_t k) const {
  std::vector<std::string> out;
  auto it = by_user_.find(user);
  if (it == by_user_.end()) return out;
  for (auto e = it->second.rbegin(); e != it->second.rend(); ++e) {
    if (k != 0 && out.size() >= k) break;
    out.push_back(e->second);
  }
  return out;
}

std::vector<std::string> Model::RangeTime(const std::string& lo,
                                          const std::string& hi,
                                          size_t k) const {
  std::vector<std::pair<uint64_t, std::string>> all;
  for (auto it = by_ct_.lower_bound(lo); it != by_ct_.end() && it->first <= hi;
       ++it) {
    all.insert(all.end(), it->second.begin(), it->second.end());
  }
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  if (k != 0 && all.size() > k) all.resize(k);
  std::vector<std::string> out;
  out.reserve(all.size());
  for (auto& e : all) out.push_back(std::move(e.second));
  return out;
}

bool SameRows(const Model& model, const std::vector<std::string>& want,
              const std::vector<QueryResult>& got, std::string* why) {
  if (want.size() != got.size()) {
    *why = "expected " + std::to_string(want.size()) + " rows, got " +
           std::to_string(got.size());
    return false;
  }
  for (size_t i = 0; i < want.size(); i++) {
    if (got[i].primary_key != want[i]) {
      *why = "row " + std::to_string(i) + ": expected key " + want[i] +
             ", got " + got[i].primary_key;
      return false;
    }
    if (!model.Holds(want[i], got[i].value)) {
      *why = "row " + std::to_string(i) + ": wrong value for " + want[i];
      return false;
    }
  }
  return true;
}

// ---- Output ----

void Report::Print(const char* prefix) const {
  for (const Metric& m : metrics_) {
    std::printf("%s %-52s %16.6f %s\n", prefix, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string Report::Json() const {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); i++) {
    if (i > 0) out += ", ";
    std::snprintf(buf, sizeof(buf), "%.12g", metrics_[i].value);
    out += "\"" + metrics_[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  return out + "}";
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

double RssMb() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<double>(resident) * sysconf(_SC_PAGESIZE) / (1024.0 * 1024.0);
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
