// BlockQuarantine: a DB-wide registry of SSTable blocks that failed their
// checksum. In non-paranoid mode the read path records the damaged block
// here and treats it as containing nothing, so point lookups fall through
// to older levels instead of erroring the whole query; the registry is what
// RepairDB and operators inspect to decide whether a salvage pass is due.
//
// Keyed by (table file number, block offset) — stable across Table cache
// evictions and reopen. Thread-safe.

#ifndef LEVELDBPP_TABLE_QUARANTINE_H_
#define LEVELDBPP_TABLE_QUARANTINE_H_

#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <utility>

namespace leveldbpp {

class BlockQuarantine {
 public:
  BlockQuarantine() = default;
  BlockQuarantine(const BlockQuarantine&) = delete;
  BlockQuarantine& operator=(const BlockQuarantine&) = delete;

  /// Record a damaged block. Returns true iff it was not already known
  /// (callers use this to count distinct quarantined blocks).
  bool Add(uint64_t file_number, uint64_t block_offset);

  bool Contains(uint64_t file_number, uint64_t block_offset) const;

  /// Number of distinct quarantined blocks.
  size_t Count() const;

  /// Number of distinct files with at least one quarantined block.
  size_t FileCount() const;

  /// "file 7: 2 block(s); file 12: 1 block(s)" — for logs and stats dumps.
  std::string Summary() const;

 private:
  mutable std::mutex mu_;
  std::set<std::pair<uint64_t, uint64_t>> blocks_;  // Guarded by mu_
};

}  // namespace leveldbpp

#endif  // LEVELDBPP_TABLE_QUARANTINE_H_
