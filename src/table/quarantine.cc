#include "table/quarantine.h"

#include <cstdio>

namespace leveldbpp {

bool BlockQuarantine::Add(uint64_t file_number, uint64_t block_offset) {
  std::lock_guard<std::mutex> lock(mu_);
  return blocks_.emplace(file_number, block_offset).second;
}

bool BlockQuarantine::Contains(uint64_t file_number,
                               uint64_t block_offset) const {
  std::lock_guard<std::mutex> lock(mu_);
  return blocks_.count(std::make_pair(file_number, block_offset)) != 0;
}

size_t BlockQuarantine::Count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return blocks_.size();
}

size_t BlockQuarantine::FileCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t files = 0;
  uint64_t prev = 0;
  bool has_prev = false;
  for (const auto& [file, offset] : blocks_) {
    (void)offset;
    if (!has_prev || file != prev) {
      files++;
      prev = file;
      has_prev = true;
    }
  }
  return files;
}

std::string BlockQuarantine::Summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  char buf[64];
  uint64_t prev = 0;
  size_t count = 0;
  bool has_prev = false;
  auto emit = [&]() {
    std::snprintf(buf, sizeof(buf), "file %llu: %zu block(s)",
                  static_cast<unsigned long long>(prev), count);
    if (!out.empty()) out.append("; ");
    out.append(buf);
  };
  for (const auto& [file, offset] : blocks_) {
    (void)offset;
    if (has_prev && file != prev) {
      emit();
      count = 0;
    }
    prev = file;
    has_prev = true;
    count++;
  }
  if (has_prev) emit();
  return out;
}

}  // namespace leveldbpp
