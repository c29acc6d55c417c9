#include "db/memtable.h"

#include <mutex>

#include "util/coding.h"

namespace leveldbpp {

static Slice GetLengthPrefixedSliceAt(const char* data) {
  uint32_t len;
  const char* p = data;
  p = GetVarint32Ptr(p, p + 5, &len);  // +5: we assume "p" is not corrupted
  return Slice(p, len);
}

MemTable::MemTable(const InternalKeyComparator& comparator,
                   std::vector<std::string> attributes,
                   const AttributeExtractor* extractor)
    : comparator_(comparator),
      refs_(0),
      table_(comparator_, &arena_),
      num_entries_(0),
      attributes_(std::move(attributes)),
      extractor_(extractor),
      secondary_(attributes_.size()) {}

MemTable::~MemTable() { assert(refs_ == 0); }

size_t MemTable::ApproximateMemoryUsage() { return arena_.MemoryUsage(); }

int MemTable::KeyComparator::operator()(const char* aptr,
                                        const char* bptr) const {
  // Internal keys are encoded as length-prefixed strings.
  Slice a = GetLengthPrefixedSliceAt(aptr);
  Slice b = GetLengthPrefixedSliceAt(bptr);
  return comparator.Compare(a, b);
}

// Encode a suitable internal key target for the skiplist from a target
// internal key: length-prefix it.
static const char* EncodeKey(std::string* scratch, const Slice& target) {
  scratch->clear();
  PutVarint32(scratch, static_cast<uint32_t>(target.size()));
  scratch->append(target.data(), target.size());
  return scratch->data();
}

class MemTableIterator : public Iterator {
 public:
  explicit MemTableIterator(MemTable::Table* table) : iter_(table) {}

  MemTableIterator(const MemTableIterator&) = delete;
  MemTableIterator& operator=(const MemTableIterator&) = delete;

  ~MemTableIterator() override = default;

  bool Valid() const override { return iter_.Valid(); }
  void Seek(const Slice& k) override { iter_.Seek(EncodeKey(&tmp_, k)); }
  void SeekToFirst() override { iter_.SeekToFirst(); }
  void SeekToLast() override { iter_.SeekToLast(); }
  void Next() override { iter_.Next(); }
  void Prev() override { iter_.Prev(); }
  Slice key() const override { return GetLengthPrefixedSliceAt(iter_.key()); }
  Slice value() const override {
    Slice key_slice = GetLengthPrefixedSliceAt(iter_.key());
    return GetLengthPrefixedSliceAt(key_slice.data() + key_slice.size());
  }

  Status status() const override { return Status::OK(); }

 private:
  MemTable::Table::Iterator iter_;
  std::string tmp_;  // For passing to EncodeKey
};

Iterator* MemTable::NewIterator() { return new MemTableIterator(&table_); }

void MemTable::Add(SequenceNumber s, ValueType type, const Slice& key,
                   const Slice& value) {
  // Format of an entry is concatenation of:
  //  key_size     : varint32 of internal_key.size()
  //  key bytes    : char[internal_key.size()]
  //  tag          : uint64((sequence << 8) | type)
  //  value_size   : varint32 of value.size()
  //  value bytes  : char[value.size()]
  size_t key_size = key.size();
  size_t val_size = value.size();
  size_t internal_key_size = key_size + 8;
  const size_t encoded_len = VarintLength(internal_key_size) +
                             internal_key_size + VarintLength(val_size) +
                             val_size;
  char* buf = arena_.Allocate(encoded_len);
  char* p = EncodeVarint32(buf, static_cast<uint32_t>(internal_key_size));
  std::memcpy(p, key.data(), key_size);
  p += key_size;
  EncodeFixed64(p, (s << 8) | type);
  p += 8;
  p = EncodeVarint32(p, static_cast<uint32_t>(val_size));
  std::memcpy(p, value.data(), val_size);
  assert(p + val_size == buf + encoded_len);
  table_.Insert(buf);
  num_entries_++;

  // Maintain the in-memory secondary index over unflushed records.
  if (type == kTypeValue && extractor_ != nullptr) {
    std::string attr_value;
    std::unique_lock<std::shared_mutex> lock(secondary_mutex_);
    for (size_t i = 0; i < attributes_.size(); i++) {
      if (extractor_->Extract(value, attributes_[i], &attr_value)) {
        secondary_[i].emplace(attr_value, buf);
      }
    }
  }
}

bool MemTable::Get(const LookupKey& key, std::string* value, Status* s) {
  Slice memkey = key.memtable_key();
  Table::Iterator iter(&table_);
  iter.Seek(memkey.data());
  if (iter.Valid()) {
    // entry format is:
    //    klength  varint32
    //    userkey  char[klength-8]
    //    tag      uint64
    //    vlength  varint32
    //    value    char[vlength]
    // Check that it belongs to same user key. We do not check the sequence
    // number since the Seek() call above should have skipped all entries
    // with overly large sequence numbers.
    const char* entry = iter.key();
    uint32_t key_length;
    const char* key_ptr = GetVarint32Ptr(entry, entry + 5, &key_length);
    if (comparator_.comparator.user_comparator()->Compare(
            Slice(key_ptr, key_length - 8), key.user_key()) == 0) {
      // Correct user key
      const uint64_t tag = DecodeFixed64(key_ptr + key_length - 8);
      switch (static_cast<ValueType>(tag & 0xff)) {
        case kTypeValue: {
          Slice v = GetLengthPrefixedSliceAt(key_ptr + key_length);
          value->assign(v.data(), v.size());
          return true;
        }
        case kTypeDeletion:
          *s = Status::NotFound(Slice());
          return true;
      }
    }
  }
  return false;
}

bool MemTable::GetNewest(const Slice& user_key, std::string* value,
                         SequenceNumber* seq, bool* is_deletion,
                         SequenceNumber max_seq) {
  LookupKey lkey(user_key, max_seq);
  Table::Iterator iter(&table_);
  iter.Seek(lkey.memtable_key().data());
  if (!iter.Valid()) return false;
  const char* entry = iter.key();
  uint32_t key_length;
  const char* key_ptr = GetVarint32Ptr(entry, entry + 5, &key_length);
  if (comparator_.comparator.user_comparator()->Compare(
          Slice(key_ptr, key_length - 8), user_key) != 0) {
    return false;
  }
  const uint64_t tag = DecodeFixed64(key_ptr + key_length - 8);
  *seq = tag >> 8;
  *is_deletion = (static_cast<ValueType>(tag & 0xff) == kTypeDeletion);
  if (!*is_deletion) {
    Slice v = GetLengthPrefixedSliceAt(key_ptr + key_length);
    value->assign(v.data(), v.size());
  } else {
    value->clear();
  }
  return true;
}

bool MemTable::GetVersions(const Slice& user_key, SequenceNumber max_seq,
                           Versions* out) {
  out->values.clear();
  out->tombstone = false;
  LookupKey lkey(user_key, max_seq);
  Table::Iterator iter(&table_);
  for (iter.Seek(lkey.memtable_key().data()); iter.Valid(); iter.Next()) {
    const char* entry = iter.key();
    uint32_t key_length;
    const char* key_ptr = GetVarint32Ptr(entry, entry + 5, &key_length);
    if (comparator_.comparator.user_comparator()->Compare(
            Slice(key_ptr, key_length - 8), user_key) != 0) {
      break;
    }
    const uint64_t tag = DecodeFixed64(key_ptr + key_length - 8);
    if (static_cast<ValueType>(tag & 0xff) == kTypeDeletion) {
      out->tombstone = true;
      out->tombstone_seq = tag >> 8;
      break;
    }
    if (out->values.empty()) out->newest_seq = tag >> 8;
    out->values.push_back(GetLengthPrefixedSliceAt(key_ptr + key_length));
  }
  return !out->values.empty() || out->tombstone;
}

void MemTable::SecondaryLookup(const std::string& attr, const Slice& lo,
                               const Slice& hi,
                               const SecondaryMatchFn& fn) const {
  std::shared_lock<std::shared_mutex> lock(secondary_mutex_);
  for (size_t i = 0; i < attributes_.size(); i++) {
    if (attributes_[i] != attr) continue;
    const auto& index = secondary_[i];
    auto it = index.lower_bound(lo.ToString());
    const std::string hi_str = hi.ToString();
    for (; it != index.end() && it->first <= hi_str; ++it) {
      const char* entry = it->second;
      uint32_t key_length;
      const char* key_ptr = GetVarint32Ptr(entry, entry + 5, &key_length);
      const uint64_t tag = DecodeFixed64(key_ptr + key_length - 8);
      Slice user_key(key_ptr, key_length - 8);
      Slice value = GetLengthPrefixedSliceAt(key_ptr + key_length);
      fn(user_key, tag >> 8, value);
    }
    return;
  }
}

}  // namespace leveldbpp
