#include "core/posting_list.h"

#include <algorithm>

#include "json/json.h"

namespace leveldbpp {

void PostingList::Serialize(const std::vector<PostingEntry>& entries,
                            std::string* out) {
  out->clear();
  out->push_back('[');
  bool first = true;
  for (const PostingEntry& e : entries) {
    if (!first) out->push_back(',');
    first = false;
    out->push_back('[');
    json::AppendQuoted(out, Slice(e.primary_key));
    out->push_back(',');
    out->append(std::to_string(e.seq));
    if (e.deleted) {
      out->append(",1");
    }
    out->push_back(']');
  }
  out->push_back(']');
}

bool PostingList::Parse(const Slice& data, std::vector<PostingEntry>* out) {
  out->clear();
  return ParseAppend(data, out);
}

namespace {

// The one-entry fragment a Lazy PUT or DELETE writes, [["k",seq]] or
// [["k",seq,1]], read without the scanner when its key has no escape and
// its seq is 1 to 15 digits with no leading zero (so the scanner's double
// holds it exactly). Returns false, appending nothing, on any other bytes:
// the scanner then reads or rejects them.
bool ParseOneEntry(const Slice& data, std::vector<PostingEntry>* out) {
  const char* p = data.data();
  const char* const end = p + data.size();
  if (end - p < 8 || p[0] != '[' || p[1] != '[' || p[2] != '"') return false;
  p += 3;
  const char* const key = p;
  while (p != end && *p != '"' && *p != '\\') p++;
  if (p == end || *p != '"') return false;
  const char* const key_end = p++;
  if (p == end || *p++ != ',') return false;
  const char* const digits = p;
  SequenceNumber seq = 0;
  while (p != end && *p >= '0' && *p <= '9' && p - digits < 16) {
    seq = seq * 10 + static_cast<SequenceNumber>(*p++ - '0');
  }
  const ptrdiff_t n = p - digits;
  if (n == 0 || n > 15 || (n > 1 && *digits == '0')) return false;
  const Slice rest(p, static_cast<size_t>(end - p));
  const bool deleted = rest == Slice(",1]]");
  if (!deleted && rest != Slice("]]")) return false;
  out->emplace_back(std::string(key, key_end), seq, deleted);
  return true;
}

}  // namespace

bool PostingList::ParseAppend(const Slice& data,
                              std::vector<PostingEntry>* out) {
  if (ParseOneEntry(data, out)) return true;
  using Type = json::Value::Type;
  const size_t old_size = out->size();
  // Each tuple decodes straight into its entry: the key string, the seq
  // number, an optional numeric deletion flag; further elements are
  // validated and ignored.
  json::Scanner scanner(data);
  auto parse_entry = [&](size_t) {
    PostingEntry e;
    size_t fields = 0;
    double number = 0;
    if (scanner.PeekType() != Type::kArray ||
        !scanner.ParseArray([&](size_t i) {
          fields = i + 1;
          if (i == 0) {
            return scanner.PeekType() == Type::kString &&
                   scanner.ParseString(&e.primary_key);
          }
          if (i > 2 || scanner.PeekType() != Type::kNumber) {
            return i != 1 && scanner.ParseValue(nullptr);
          }
          if (!scanner.ParseNumber(&number)) return false;
          if (i == 1) {
            e.seq = static_cast<SequenceNumber>(json::TruncateToInt64(number));
          } else {
            e.deleted = json::TruncateToInt64(number) != 0;
          }
          return true;
        }) ||
        fields < 2) {
      return false;
    }
    out->push_back(std::move(e));
    return true;
  };
  if (scanner.PeekType() != Type::kArray ||
      !scanner.ParseArray(parse_entry) || !scanner.AtEnd()) {
    out->resize(old_size);
    return false;
  }
  return true;
}

namespace {

// Merge order: seq descending, ties by primary key.
bool NewerFirst(const PostingEntry& a, const PostingEntry& b) {
  if (a.seq != b.seq) return a.seq > b.seq;
  return a.primary_key < b.primary_key;
}

}  // namespace

void PostingList::Merge(
    const std::vector<std::vector<PostingEntry>>& fragments,
    bool drop_deletions, std::vector<PostingEntry>* out) {
  out->clear();
  for (const auto& fragment : fragments) {
    out->insert(out->end(), fragment.begin(), fragment.end());
  }
  MergeInPlace(out, drop_deletions);
}

void PostingList::MergeInPlace(std::vector<PostingEntry>* entries,
                               bool drop_deletions) {
  // The FIRST occurrence of a primary key in the concatenation is its
  // newest state. A stable sort by key keeps each key's occurrences in
  // fragment order, so unique() keeps exactly that one. (With concurrent
  // writers a later fragment may hold higher seqs than an earlier one, so
  // the output order comes from a full sort, not from the fragments.)
  std::stable_sort(entries->begin(), entries->end(),
                   [](const PostingEntry& a, const PostingEntry& b) {
                     return a.primary_key < b.primary_key;
                   });
  entries->erase(std::unique(entries->begin(), entries->end(),
                             [](const PostingEntry& a, const PostingEntry& b) {
                               return a.primary_key == b.primary_key;
                             }),
                 entries->end());
  if (drop_deletions) {
    entries->erase(std::remove_if(
                       entries->begin(), entries->end(),
                       [](const PostingEntry& e) { return e.deleted; }),
                   entries->end());
  }
  std::sort(entries->begin(), entries->end(), NewerFirst);
}

void PostingList::MergeForRead(std::vector<PostingEntry>* entries) {
  if (!std::is_sorted(entries->begin(), entries->end(), NewerFirst)) {
    MergeInPlace(entries, /*drop_deletions=*/false);
  }
}

bool PostingListMerger::Merge(const Slice& key,
                              const std::vector<Slice>& values_newest_first,
                              bool at_bottom, std::string* result) const {
  (void)key;
  std::vector<PostingEntry> merged;
  for (const Slice& v : values_newest_first) {
    if (!PostingList::ParseAppend(v, &merged)) {
      // Never drop data on a parse failure: keep the raw newest value.
      *result = values_newest_first[0].ToString();
      return true;
    }
  }
  PostingList::MergeInPlace(&merged, /*drop_deletions=*/at_bottom);
  if (merged.empty() && at_bottom) {
    return false;  // List fully deleted; drop the key.
  }
  PostingList::Serialize(merged, result);
  return true;
}

const PostingListMerger* PostingListMerger::Instance() {
  static PostingListMerger singleton;
  return &singleton;
}

}  // namespace leveldbpp
