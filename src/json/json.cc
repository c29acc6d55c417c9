#include "json/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace leveldbpp {
namespace json {

namespace {
const Value kNullValue;
}  // namespace

const Value& Value::operator[](const std::string& key) const {
  if (type_ == Type::kObject) {
    auto it = obj_->find(key);
    if (it != obj_->end()) return it->second;
  }
  return kNullValue;
}

void AppendQuoted(std::string* out, const Slice& s) {
  out->push_back('"');
  for (size_t i = 0; i < s.size(); i++) {
    unsigned char c = static_cast<unsigned char>(s[i]);
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
  out->push_back('"');
}

void Value::Serialize(std::string* out) const {
  switch (type_) {
    case Type::kNull:
      out->append("null");
      break;
    case Type::kBool:
      out->append(bool_ ? "true" : "false");
      break;
    case Type::kNumber: {
      // Integers serialize without a decimal point so round trips are exact
      // for sequence numbers.
      if (num_ == std::floor(num_) && std::abs(num_) < 9.0e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(num_));
        out->append(buf);
      } else {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", num_);
        out->append(buf);
      }
      break;
    }
    case Type::kString:
      AppendQuoted(out, Slice(str_));
      break;
    case Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const Value& v : *arr_) {
        if (!first) out->push_back(',');
        first = false;
        v.Serialize(out);
      }
      out->push_back(']');
      break;
    }
    case Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, v] : *obj_) {
        if (!first) out->push_back(',');
        first = false;
        AppendQuoted(out, Slice(key));
        out->push_back(':');
        v.Serialize(out);
      }
      out->push_back('}');
      break;
    }
  }
}

namespace {

// First '"' or '\\' in [p, end), or end.
const char* FindQuoteOrBackslash(const char* p, const char* end) {
#if defined(__SSE2__)
  const __m128i quote = _mm_set1_epi8('"');
  const __m128i backslash = _mm_set1_epi8('\\');
  while (end - p >= 16) {
    const __m128i chunk =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    const int mask = _mm_movemask_epi8(_mm_or_si128(
        _mm_cmpeq_epi8(chunk, quote), _mm_cmpeq_epi8(chunk, backslash)));
    if (mask != 0) return p + __builtin_ctz(mask);
    p += 16;
  }
#endif
  while (p < end && *p != '"' && *p != '\\') p++;
  return p;
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

// Bytes a number token runs over; the token ends at the first other byte.
bool IsNumberByte(char c) {
  return IsDigit(c) || c == '.' || c == 'e' || c == 'E' || c == '-' ||
         c == '+';
}

}  // namespace

Value::Type Scanner::PeekType() {
  SkipWs();
  if (p_ == end_) return Value::Type::kNumber;
  switch (*p_) {
    case '{': return Value::Type::kObject;
    case '[': return Value::Type::kArray;
    case '"': return Value::Type::kString;
    case 't':
    case 'f': return Value::Type::kBool;
    case 'n': return Value::Type::kNull;
    default: return Value::Type::kNumber;
  }
}

bool Scanner::ParseValue(Value* out) {
  switch (PeekType()) {
    case Value::Type::kObject: {
      if (out == nullptr) {
        return ParseObject(
            [this](const Slice&) { return ParseValue(nullptr); });
      }
      Object obj;
      if (!ParseObject([&](const Slice& key) {
            Value v;
            if (!ParseValue(&v)) return false;
            obj[key.ToString()] = std::move(v);  // A repeated key: last wins
            return true;
          })) {
        return false;
      }
      *out = Value(std::move(obj));
      return true;
    }
    case Value::Type::kArray: {
      if (out == nullptr) {
        return ParseArray([this](size_t) { return ParseValue(nullptr); });
      }
      Array arr;
      if (!ParseArray([&](size_t) {
            arr.emplace_back();
            return ParseValue(&arr.back());
          })) {
        return false;
      }
      *out = Value(std::move(arr));
      return true;
    }
    case Value::Type::kString: {
      if (out == nullptr) return ParseString(nullptr);
      std::string s;
      if (!ParseString(&s)) return false;
      *out = Value(std::move(s));
      return true;
    }
    case Value::Type::kBool: {
      const bool b = *p_ == 't';
      if (!(b ? Match("true", 4) : Match("false", 5))) return false;
      if (out != nullptr) *out = Value(b);
      return true;
    }
    case Value::Type::kNull:
      if (!Match("null", 4)) return false;
      if (out != nullptr) *out = Value();
      return true;
    case Value::Type::kNumber: {
      double d;
      if (!ParseNumber(out == nullptr ? nullptr : &d)) return false;
      if (out != nullptr) *out = Value(d);
      return true;
    }
  }
  return false;
}

bool Scanner::Match(const char* lit, size_t n) {
  if (static_cast<size_t>(end_ - p_) < n) return false;
  if (std::memcmp(p_, lit, n) != 0) return false;
  p_ += n;
  return true;
}

bool Scanner::Open(char bracket) {
  SkipWs();
  if (p_ == end_ || *p_ != bracket || depth_ == kMaxDepth) return false;
  p_++;
  depth_++;
  return true;
}

bool Scanner::Close(char bracket) {
  SkipWs();
  if (p_ == end_ || *p_ != bracket) return false;
  p_++;
  depth_--;
  return true;
}

bool Scanner::ParseKey(Slice* key, std::string* unescaped) {
  if (p_ == end_ || *p_ != '"') return false;
  const char* start = p_ + 1;
  const char* stop = FindQuoteOrBackslash(start, end_);
  if (stop != end_ && *stop == '"') {
    *key = Slice(start, static_cast<size_t>(stop - start));
    p_ = stop + 1;
    return true;
  }
  if (!ParseString(unescaped)) return false;
  *key = Slice(*unescaped);
  return true;
}

bool Scanner::ParseString(std::string* out) {
  SkipWs();
  if (p_ == end_ || *p_ != '"') return false;
  p_++;
  if (out != nullptr) out->clear();
  while (true) {
    const char* run = p_;
    p_ = FindQuoteOrBackslash(p_, end_);
    if (out != nullptr) out->append(run, static_cast<size_t>(p_ - run));
    if (p_ == end_) return false;  // Unterminated
    if (*p_++ == '"') return true;
    if (p_ == end_) return false;
    char decoded = 0;
    switch (*p_++) {
      case '"': decoded = '"'; break;
      case '\\': decoded = '\\'; break;
      case '/': decoded = '/'; break;
      case 'b': decoded = '\b'; break;
      case 'f': decoded = '\f'; break;
      case 'n': decoded = '\n'; break;
      case 'r': decoded = '\r'; break;
      case 't': decoded = '\t'; break;
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
        if (out == nullptr) continue;
        // Encode as UTF-8 (surrogate pairs unsupported; BMP only).
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
        continue;
      }
      default:
        return false;
    }
    if (out != nullptr) out->push_back(decoded);
  }
}

bool Scanner::ParseNumber(double* out) {
  SkipWs();
  // A number token is a sign and then every following byte from [0-9.eE+-];
  // it is well-formed iff strtod would consume all of it, i.e. it reads
  // [sign] (digits [. digits*] | . digits) [(e|E) [sign] digits].
  const char* start = p_;
  const char* p = p_;
  bool negative = false;
  if (p < end_ && (*p == '-' || *p == '+')) negative = *p++ == '-';
  const char* int_begin = p;
  while (p < end_ && IsDigit(*p)) p++;
  const char* int_end = p;
  bool digits = int_end != int_begin;
  const bool integral = p == end_ || !IsNumberByte(*p);
  if (!integral && *p == '.') {
    p++;
    while (p < end_ && IsDigit(*p)) {
      p++;
      digits = true;
    }
  }
  if (!digits) return false;
  if (p < end_ && (*p == 'e' || *p == 'E')) {
    p++;
    if (p < end_ && (*p == '-' || *p == '+')) p++;
    if (p == end_ || !IsDigit(*p)) return false;
    while (p < end_ && IsDigit(*p)) p++;
  }
  if (p < end_ && IsNumberByte(*p)) return false;  // strtod would stop short
  p_ = p;
  if (out == nullptr) return true;
  // Up to 15 digits are exact in a double, so strtod's correctly rounded
  // result is the integer itself.
  if (integral && int_end - int_begin <= 15) {
    int64_t n = 0;
    for (const char* d = int_begin; d < int_end; d++) n = n * 10 + (*d - '0');
    *out = negative ? -static_cast<double>(n) : static_cast<double>(n);
    return true;
  }
  const std::string token(start, static_cast<size_t>(p - start));
  *out = std::strtod(token.c_str(), nullptr);
  return true;
}

bool Parse(const Slice& text, Value* out) {
  Scanner scanner(text);
  Value v;
  if (!scanner.ParseValue(&v) || !scanner.AtEnd()) {
    *out = Value();
    return false;
  }
  *out = std::move(v);
  return true;
}

}  // namespace json
}  // namespace leveldbpp
