// KeySet: the set of byte strings one query has already seen — the
// dedupe and shadowing sets of the candidate-validation loop.
//
// Open addressing with linear probing over a power-of-two table of 8-byte
// slots that starts at 16 slots and doubles at half load, so a K=5 query's
// set takes a few hundred bytes, not a table sized for its worst case.
// Keys are copied into one contiguous byte arena, and a slot holds the
// key's hash and its index: an insert never allocates a node, and growth
// moves slots, never keys. A set holds fewer than 2^32 keys (a set that
// large would not fit in memory anyway).
//
// Keys are hashed with SipHash-1-3 under the process's random key
// (ProcessHashKey): primary keys arrive from clients over the wire, and
// under a fixed, public hash crafted keys could force every insert down
// one long probe chain.

#ifndef LEVELDBPP_UTIL_KEY_SET_H_
#define LEVELDBPP_UTIL_KEY_SET_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/coding.h"
#include "util/hash.h"
#include "util/slice.h"

namespace leveldbpp {

/// SipHash-1-3 under the process's random key.
class SeededHash {
 public:
  SeededHash() { ProcessHashKey(&k0_, &k1_); }

  uint64_t operator()(const Slice& key) const {
    return SipHash13(k0_, k1_, key.data(), key.size());
  }

 private:
  uint64_t k0_ = 0;
  uint64_t k1_ = 0;
};

/// `Hasher` maps a Slice to a uint64_t; tests substitute a degenerate one.
template <typename Hasher>
class BasicKeySet {
 public:
  /// Adds a copy of `key`. Returns false (and adds nothing) if an equal
  /// key is already present.
  bool Insert(const Slice& key) {
    if (2 * (ends_.size() + 1) > slots_.size()) Grow();
    const uint32_t h = static_cast<uint32_t>(hasher_(key));
    Slot& slot = slots_[Find(h, key)];
    if (slot.entry != 0) return false;
    arena_.append(key.data(), key.size());
    ends_.push_back(arena_.size());
    slot = Slot{h, static_cast<uint32_t>(ends_.size())};
    return true;
  }

  bool Contains(const Slice& key) const {
    return !ends_.empty() &&
           slots_[Find(static_cast<uint32_t>(hasher_(key)), key)].entry != 0;
  }

  size_t size() const { return ends_.size(); }

 private:
  static constexpr size_t kInitialSlots = 16;

  // All zeros is an empty slot, so a new table is one memset.
  struct Slot {
    uint32_t hash = 0;   // The key's hash, truncated: its probe start
    uint32_t entry = 0;  // 1 + the key's index in ends_; 0 when empty
  };

  Slice KeyAt(size_t index) const {
    const size_t begin = index == 0 ? 0 : ends_[index - 1];
    return Slice(arena_.data() + begin, ends_[index] - begin);
  }

  // The index of the slot holding `key`, or of the empty slot where it
  // belongs. The table is never full (load <= 1/2), so the probe ends.
  size_t Find(uint32_t h, const Slice& key) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = h & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.entry == 0 || (s.hash == h && KeyAt(s.entry - 1) == key)) {
        return i;
      }
    }
  }

  void Grow() {
    if (slots_.empty()) {
      // Room for the keys the first table holds, so a small query's set
      // makes three allocations in all.
      ends_.reserve(kInitialSlots / 2);
      arena_.reserve(kInitialSlots / 2 * 16);
    }
    std::vector<Slot> old(slots_.empty() ? kInitialSlots : 2 * slots_.size());
    old.swap(slots_);
    const size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.entry == 0) continue;
      size_t i = s.hash & mask;
      while (slots_[i].entry != 0) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  Hasher hasher_;
  std::vector<Slot> slots_;
  std::string arena_;         // Every key's bytes, back to back
  std::vector<size_t> ends_;  // Where each key ends in arena_
};

using KeySet = BasicKeySet<SeededHash>;

/// Encodes the pair (first, second) as one KeySet key: first's length as a
/// varint, then first, then second. The length prefix keeps the encoding
/// unambiguous: ("a", "bc") and ("ab", "c") encode differently.
inline void EncodeKeyPair(const Slice& first, const Slice& second,
                          std::string* out) {
  out->clear();
  PutVarint64(out, first.size());
  out->append(first.data(), first.size());
  out->append(second.data(), second.size());
}

}  // namespace leveldbpp

#endif  // LEVELDBPP_UTIL_KEY_SET_H_
