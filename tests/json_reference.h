// DOM-based references for the JSON scanner's differential tests
// (json_test.cc, document_test.cc, posting_list_test.cc).
//
// `RefParse` is a plain recursive-descent parser that builds the whole
// json::Value DOM, written independently of json::Scanner: the grammar the
// engine accepts, spelled out the long way. `RefAttribute` and
// `RefPostingParse` read an attribute and a posting list out of that DOM.
// The tests hold the engine's scanner-based readers to these answers on a
// fixed-seed stream of mutated documents (`Mutate`).

#ifndef LEVELDBPP_TESTS_JSON_REFERENCE_H_
#define LEVELDBPP_TESTS_JSON_REFERENCE_H_

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/posting_list.h"
#include "json/json.h"
#include "util/random.h"

namespace leveldbpp {
namespace json_reference {

using json::Array;
using json::Object;
using json::Value;

class RefParser {
 public:
  RefParser(const char* p, const char* end) : p_(p), end_(end) {}

  bool ParseValue(Value* out) {
    SkipWs();
    if (p_ >= end_) return false;
    switch (*p_) {
      case '{':
        return Nested(&RefParser::ParseObject, out);
      case '[':
        return Nested(&RefParser::ParseArray, out);
      case '"': {
        std::string s;
        if (!ParseString(&s)) return false;
        *out = Value(std::move(s));
        return true;
      }
      case 't':
        if (!Match("true")) return false;
        *out = Value(true);
        return true;
      case 'f':
        if (!Match("false")) return false;
        *out = Value(false);
        return true;
      case 'n':
        if (!Match("null")) return false;
        *out = Value();
        return true;
      default:
        return ParseNumber(out);
    }
  }

  bool AtEnd() {
    SkipWs();
    return p_ >= end_;
  }

 private:
  bool Nested(bool (RefParser::*parse)(Value*), Value* out) {
    if (depth_ == json::kMaxDepth) return false;
    depth_++;
    const bool ok = (this->*parse)(out);
    depth_--;
    return ok;
  }

  void SkipWs() {
    while (p_ < end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      p_++;
    }
  }

  bool Match(const char* lit) {
    size_t n = std::strlen(lit);
    if (static_cast<size_t>(end_ - p_) < n) return false;
    if (std::memcmp(p_, lit, n) != 0) return false;
    p_ += n;
    return true;
  }

  bool ParseString(std::string* out) {
    if (p_ >= end_ || *p_ != '"') return false;
    p_++;
    out->clear();
    while (p_ < end_) {
      char c = *p_++;
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (p_ >= end_) return false;
      char e = *p_++;
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (end_ - p_ < 4) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; i++) {
            char h = *p_++;
            code <<= 4;
            if (h >= '0' && h <= '9') code |= (h - '0');
            else if (h >= 'a' && h <= 'f') code |= (h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= (h - 'A' + 10);
            else return false;
          }
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return false;
      }
    }
    return false;  // Unterminated
  }

  // A sign, then the maximal run of [0-9.eE+-], which strtod must consume
  // whole.
  bool ParseNumber(Value* out) {
    const char* start = p_;
    if (p_ < end_ && (*p_ == '-' || *p_ == '+')) p_++;
    bool digits = false;
    while (p_ < end_ && (std::isdigit(static_cast<unsigned char>(*p_)) ||
                         *p_ == '.' || *p_ == 'e' || *p_ == 'E' ||
                         *p_ == '-' || *p_ == '+')) {
      if (std::isdigit(static_cast<unsigned char>(*p_))) digits = true;
      p_++;
    }
    if (!digits) return false;
    std::string num(start, p_ - start);
    char* endp = nullptr;
    double d = std::strtod(num.c_str(), &endp);
    if (endp != num.c_str() + num.size()) return false;
    *out = Value(d);
    return true;
  }

  bool ParseArray(Value* out) {
    p_++;  // '['
    Array arr;
    SkipWs();
    if (p_ < end_ && *p_ == ']') {
      p_++;
      *out = Value(std::move(arr));
      return true;
    }
    while (true) {
      Value v;
      if (!ParseValue(&v)) return false;
      arr.push_back(std::move(v));
      SkipWs();
      if (p_ >= end_) return false;
      if (*p_ == ',') {
        p_++;
        continue;
      }
      if (*p_ != ']') return false;
      p_++;
      *out = Value(std::move(arr));
      return true;
    }
  }

  bool ParseObject(Value* out) {
    p_++;  // '{'
    Object obj;
    SkipWs();
    if (p_ < end_ && *p_ == '}') {
      p_++;
      *out = Value(std::move(obj));
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (p_ >= end_ || *p_ != ':') return false;
      p_++;
      Value v;
      if (!ParseValue(&v)) return false;
      obj[std::move(key)] = std::move(v);
      SkipWs();
      if (p_ >= end_) return false;
      if (*p_ == ',') {
        p_++;
        continue;
      }
      if (*p_ != '}') return false;
      p_++;
      *out = Value(std::move(obj));
      return true;
    }
  }

  const char* p_;
  const char* end_;
  int depth_ = 0;
};

inline bool RefParse(const Slice& text, Value* out) {
  RefParser parser(text.data(), text.data() + text.size());
  Value v;
  if (!parser.ParseValue(&v) || !parser.AtEnd()) {
    *out = Value();
    return false;
  }
  *out = std::move(v);
  return true;
}

// The attribute `attr` of a parsed document, as JsonAttributeExtractor
// reports it: strings raw, numbers and bools serialized, anything else (or
// a non-object document) not indexable.
inline bool RefAttribute(const Value& doc, const std::string& attr,
                         std::string* out) {
  if (!doc.is_object()) return false;
  const Value& v = doc[attr];
  switch (v.type()) {
    case Value::Type::kString:
      *out = v.as_string();
      return true;
    case Value::Type::kNumber:
    case Value::Type::kBool:
      out->clear();
      v.Serialize(out);
      return true;
    default:
      return false;
  }
}

inline bool RefPostingParse(const Slice& data,
                            std::vector<PostingEntry>* out) {
  out->clear();
  Value v;
  if (!RefParse(data, &v) || !v.is_array()) return false;
  for (const Value& item : v.as_array()) {
    if (!item.is_array()) return false;
    const Array& tuple = item.as_array();
    if (tuple.size() < 2 || !tuple[0].is_string() || !tuple[1].is_number()) {
      return false;
    }
    PostingEntry e;
    e.primary_key = tuple[0].as_string();
    e.seq = static_cast<SequenceNumber>(tuple[1].as_int());
    e.deleted = (tuple.size() >= 3 && tuple[2].is_number() &&
                 tuple[2].as_int() != 0);
    out->push_back(std::move(e));
  }
  return true;
}

// Cases per differential fuzz test: a million in optimized builds, fewer
// under the (much slower) sanitizer and debug builds.
#ifdef NDEBUG
constexpr int kFuzzCases = 1000000;
#else
constexpr int kFuzzCases = 200000;
#endif

// One to three random edits of `seed`: a byte replaced, inserted or removed
// (biased towards JSON's structural bytes), a truncation, trailing bytes,
// or a span duplicated in place.
inline std::string Mutate(const std::string& seed, Random64* rnd) {
  static const char kBytes[] = "{}[]\",:\\ \t0123456789.eE+-tfnulrsaU/";
  auto pick_byte = [&]() -> char {
    if (rnd->Uniform(8) == 0) return static_cast<char>(rnd->Uniform(256));
    return kBytes[rnd->Uniform(sizeof(kBytes) - 1)];
  };
  std::string s = seed;
  const int edits = 1 + static_cast<int>(rnd->Uniform(3));
  for (int i = 0; i < edits; i++) {
    const size_t pos = s.empty() ? 0 : rnd->Uniform(s.size() + 1);
    switch (rnd->Uniform(7)) {
      case 0:
        if (pos < s.size()) s[pos] = pick_byte();
        break;
      case 1:
        s.insert(s.begin() + pos, pick_byte());
        break;
      case 2:
        if (pos < s.size()) s.erase(pos, 1);
        break;
      case 3:
        s.resize(pos);
        break;
      case 4:
        s.push_back(pick_byte());
        break;
      case 5:
        s += rnd->Uniform(2) == 0 ? " " : "}";
        break;
      default: {
        const size_t len = 1 + rnd->Uniform(8);
        if (pos + len <= s.size()) s.insert(pos, s.substr(pos, len));
        break;
      }
    }
  }
  return s;
}

}  // namespace json_reference
}  // namespace leveldbpp

#endif  // LEVELDBPP_TESTS_JSON_REFERENCE_H_
