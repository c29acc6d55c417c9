// Internal key format: user_key · (sequence << 8 | type), exactly as in
// LevelDB. Sequence numbers give the paper's "insertion time" total order
// used by top-K; the type distinguishes values from deletion tombstones.

#ifndef LEVELDBPP_DB_DBFORMAT_H_
#define LEVELDBPP_DB_DBFORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "table/filter_policy.h"
#include "util/coding.h"
#include "util/comparator.h"
#include "util/slice.h"

namespace leveldbpp {

typedef uint64_t SequenceNumber;

/// LSM geometry, fixed as in LevelDB (and the paper): levels L0..L6, each
/// level >= 1 holding kLevelSizeMultiplier times the bytes of the one
/// above. A MANIFEST that names a level at or past kNumLevels is corrupt.
constexpr int kNumLevels = 7;
constexpr int kLevelSizeMultiplier = 10;

// Leave eight bits empty at the bottom so a type and sequence# can be packed
// together into 64-bits.
static const SequenceNumber kMaxSequenceNumber = ((0x1ull << 56) - 1);

enum ValueType {
  kTypeDeletion = 0x0,
  kTypeValue = 0x1,
};
// kValueTypeForSeek defines the ValueType that should be passed when
// constructing a ParsedInternalKey object for seeking to a particular
// sequence number (since we sort sequence numbers in decreasing order and
// the value type is embedded as the low 8 bits in the sequence number in
// internal keys, we need to use the highest-numbered ValueType).
static const ValueType kValueTypeForSeek = kTypeValue;

struct ParsedInternalKey {
  Slice user_key;
  SequenceNumber sequence;
  ValueType type;

  ParsedInternalKey() {}
  ParsedInternalKey(const Slice& u, const SequenceNumber& seq, ValueType t)
      : user_key(u), sequence(seq), type(t) {}
};

inline uint64_t PackSequenceAndType(uint64_t seq, ValueType t) {
  assert(seq <= kMaxSequenceNumber);
  return (seq << 8) | t;
}

/// Append the serialization of `key` to *result.
void AppendInternalKey(std::string* result, const ParsedInternalKey& key);

/// Decode an internal key; returns false on malformed input.
bool ParseInternalKey(const Slice& internal_key, ParsedInternalKey* result);

/// Returns the user key portion of an internal key.
inline Slice ExtractUserKey(const Slice& internal_key) {
  assert(internal_key.size() >= 8);
  return Slice(internal_key.data(), internal_key.size() - 8);
}

inline SequenceNumber ExtractSequence(const Slice& internal_key) {
  assert(internal_key.size() >= 8);
  return DecodeFixed64(internal_key.data() + internal_key.size() - 8) >> 8;
}

inline ValueType ExtractValueType(const Slice& internal_key) {
  assert(internal_key.size() >= 8);
  return static_cast<ValueType>(
      DecodeFixed64(internal_key.data() + internal_key.size() - 8) & 0xff);
}

/// Orders internal keys by (user key asc, sequence desc, type desc): newer
/// versions of a user key sort FIRST.
class InternalKeyComparator : public Comparator {
 public:
  explicit InternalKeyComparator(const Comparator* c) : user_comparator_(c) {}
  const char* Name() const override;
  int Compare(const Slice& a, const Slice& b) const override;
  void FindShortestSeparator(std::string* start,
                             const Slice& limit) const override;
  void FindShortSuccessor(std::string* key) const override;

  const Comparator* user_comparator() const { return user_comparator_; }

 private:
  const Comparator* user_comparator_;
};

/// Filter policy wrapper that converts internal keys into user keys before
/// delegating to a user-key policy.
class InternalFilterPolicy : public FilterPolicy {
 public:
  explicit InternalFilterPolicy(const FilterPolicy* p) : user_policy_(p) {}
  const char* Name() const override;
  void CreateFilter(const Slice* keys, int n, std::string* dst) const override;
  bool KeyMayMatch(const Slice& key, const Slice& filter) const override;

 private:
  const FilterPolicy* const user_policy_;
};

/// InternalKey: owning wrapper to avoid mixing internal/user key Slices.
class InternalKey {
 public:
  InternalKey() {}  // Leave rep_ as empty to indicate it is invalid
  InternalKey(const Slice& user_key, SequenceNumber s, ValueType t) {
    AppendInternalKey(&rep_, ParsedInternalKey(user_key, s, t));
  }

  bool DecodeFrom(const Slice& s) {
    rep_.assign(s.data(), s.size());
    return !rep_.empty();
  }

  Slice Encode() const {
    assert(!rep_.empty());
    return rep_;
  }

  Slice user_key() const { return ExtractUserKey(rep_); }

  void SetFrom(const ParsedInternalKey& p) {
    rep_.clear();
    AppendInternalKey(&rep_, p);
  }

  void Clear() { rep_.clear(); }

 private:
  std::string rep_;
};

inline int InternalKeyComparator::Compare(const Slice& akey,
                                          const Slice& bkey) const {
  // Order by:
  //    increasing user key (according to user-supplied comparator)
  //    decreasing sequence number
  //    decreasing type (though sequence# should be enough to disambiguate)
  int r = user_comparator_->Compare(ExtractUserKey(akey), ExtractUserKey(bkey));
  if (r == 0) {
    const uint64_t anum = DecodeFixed64(akey.data() + akey.size() - 8);
    const uint64_t bnum = DecodeFixed64(bkey.data() + bkey.size() - 8);
    if (anum > bnum) {
      r = -1;
    } else if (anum < bnum) {
      r = +1;
    }
  }
  return r;
}

/// LookupKey: bundles the memtable key / internal key encodings for a point
/// lookup at a given snapshot sequence.
class LookupKey {
 public:
  LookupKey(const Slice& user_key, SequenceNumber sequence);
  LookupKey(const LookupKey&) = delete;
  LookupKey& operator=(const LookupKey&) = delete;
  ~LookupKey();

  /// Key for a MemTable lookup (length-prefixed internal key).
  Slice memtable_key() const { return Slice(start_, end_ - start_); }

  /// Internal key (user key + packed seq/type).
  Slice internal_key() const { return Slice(kstart_, end_ - kstart_); }

  /// The user key.
  Slice user_key() const { return Slice(kstart_, end_ - kstart_ - 8); }

 private:
  // We construct a char array of the form:
  //    klength  varint32               <-- start_
  //    userkey  char[klength]          <-- kstart_
  //    tag      uint64
  //                                    <-- end_
  const char* start_;
  const char* kstart_;
  const char* end_;
  char space_[200];  // Avoid allocation for short keys
};

}  // namespace leveldbpp

#endif  // LEVELDBPP_DB_DBFORMAT_H_
