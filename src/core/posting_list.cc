#include "core/posting_list.h"

#include <algorithm>
#include <set>

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
  using Type = json::Value::Type;
  out->clear();
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
    out->clear();
    return false;
  }
  return true;
}

void PostingList::Merge(
    const std::vector<std::vector<PostingEntry>>& fragments,
    bool drop_deletions, std::vector<PostingEntry>* out) {
  out->clear();
  // Newest fragment first; within a fragment entries are seq-descending, so
  // the FIRST occurrence of a primary key across the concatenation is its
  // newest state... except entries within later fragments can interleave in
  // seq with earlier fragments only if writes raced — with the engine's
  // single-writer design fragment recency order is strict. We still do a
  // full sort afterwards to keep the output canonical.
  std::set<std::string> seen;
  for (const auto& fragment : fragments) {
    for (const PostingEntry& e : fragment) {
      if (seen.insert(e.primary_key).second) {
        out->push_back(e);
      }
    }
  }
  std::sort(out->begin(), out->end(),
            [](const PostingEntry& a, const PostingEntry& b) {
              if (a.seq != b.seq) return a.seq > b.seq;
              return a.primary_key < b.primary_key;
            });
  if (drop_deletions) {
    out->erase(std::remove_if(
                   out->begin(), out->end(),
                   [](const PostingEntry& e) { return e.deleted; }),
               out->end());
  }
}

bool PostingListMerger::Merge(const Slice& key,
                              const std::vector<Slice>& values_newest_first,
                              bool at_bottom, std::string* result) const {
  (void)key;
  std::vector<std::vector<PostingEntry>> fragments;
  fragments.reserve(values_newest_first.size());
  for (const Slice& v : values_newest_first) {
    std::vector<PostingEntry> entries;
    if (!PostingList::Parse(v, &entries)) {
      // Never drop data on a parse failure: keep the raw newest value.
      *result = values_newest_first[0].ToString();
      return true;
    }
    fragments.push_back(std::move(entries));
  }
  std::vector<PostingEntry> merged;
  PostingList::Merge(fragments, /*drop_deletions=*/at_bottom, &merged);
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
