// Minimal JSON parser/serializer.
//
// Used for (a) record values — tweets are stored as JSON documents, with the
// default AttributeExtractor pulling indexed attributes out of the top-level
// object — and (b) Stand-Alone Lazy/Eager posting lists, which the paper
// serializes as "a single JSON array" (its Lazy-index CPU overhead comes
// precisely from parsing and merging these JSON lists during compaction).
//
// One grammar serves every reader: `Scanner` validates the whole text and
// builds only the values a caller asks for. `Parse` builds a DOM through it;
// the attribute extractor and the posting-list decoder walk the same grammar
// without one. Nesting deeper than kMaxDepth makes a text malformed, so no
// input can run the recursive descent off the stack.

#ifndef LEVELDBPP_JSON_JSON_H_
#define LEVELDBPP_JSON_JSON_H_

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/slice.h"

namespace leveldbpp {
namespace json {

/// Deepest nesting of arrays and objects any scan accepts; deeper text is
/// malformed.
constexpr int kMaxDepth = 512;

/// Converts a number to int64 the way Value::as_int does: truncating toward
/// zero, with NaN and values outside int64's range mapped to INT64_MIN —
/// what x86-64's conversion instruction yields for them, without the plain
/// cast's undefined behaviour.
inline int64_t TruncateToInt64(double d) {
  constexpr double kTwoPow63 = 9223372036854775808.0;
  if (d >= -kTwoPow63 && d < kTwoPow63) return static_cast<int64_t>(d);
  return std::numeric_limits<int64_t>::min();
}

class Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() : type_(Type::kNull) {}
  explicit Value(bool b) : type_(Type::kBool), bool_(b) {}
  explicit Value(double d) : type_(Type::kNumber), num_(d) {}
  explicit Value(int64_t i)
      : type_(Type::kNumber), num_(static_cast<double>(i)) {}
  explicit Value(std::string s) : type_(Type::kString), str_(std::move(s)) {}
  explicit Value(Array a)
      : type_(Type::kArray), arr_(std::make_shared<Array>(std::move(a))) {}
  explicit Value(Object o)
      : type_(Type::kObject), obj_(std::make_shared<Object>(std::move(o))) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return num_; }
  int64_t as_int() const { return TruncateToInt64(num_); }
  const std::string& as_string() const { return str_; }
  const Array& as_array() const { return *arr_; }
  Array& as_array() { return *arr_; }
  const Object& as_object() const { return *obj_; }
  Object& as_object() { return *obj_; }

  /// Object member access; returns a null Value for missing keys or
  /// non-objects.
  const Value& operator[](const std::string& key) const;

  /// Serialize to compact JSON text (no whitespace).
  void Serialize(std::string* out) const;
  std::string ToString() const {
    std::string s;
    Serialize(&s);
    return s;
  }

 private:
  Type type_;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::shared_ptr<Array> arr_;
  std::shared_ptr<Object> obj_;
};

/// Parse JSON text. Returns false on malformed input (leaving *out null).
bool Parse(const Slice& text, Value* out);

/// A validating scanner over JSON text whose value outputs are optional:
/// every Parse* method checks the bytes of one value against the grammar
/// and materializes it only when given somewhere to put it. The text must
/// outlive the scanner. After a failed call the scanner is spent.
class Scanner {
 public:
  explicit Scanner(const Slice& text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  /// Type of the next value, judged by its first non-whitespace byte:
  /// anything that does not open a string, literal, array or object
  /// (including the end of the text) is a number, and fails as one.
  Value::Type PeekType();

  /// Scans one value, building it into *out unless out is null.
  bool ParseValue(Value* out);

  /// Scans a string, unescaped into *out unless out is null.
  bool ParseString(std::string* out);

  /// Scans a number; *out (unless null) gets strtod's value of it.
  bool ParseNumber(double* out);

  /// Scans an object. For each member, on_member(key) is called with the
  /// unescaped key and the scanner positioned at the member's value, which
  /// the callback must scan; returning false fails the scan.
  template <typename OnMember>
  bool ParseObject(OnMember&& on_member);

  /// Scans an array, calling on_element(index) to scan each element.
  template <typename OnElement>
  bool ParseArray(OnElement&& on_element);

  /// Skips whitespace; true iff no bytes are left.
  bool AtEnd() {
    SkipWs();
    return p_ == end_;
  }

  /// The text not scanned yet.
  Slice Rest() const { return Slice(p_, static_cast<size_t>(end_ - p_)); }

 private:
  void SkipWs() {
    while (p_ < end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      p_++;
    }
  }
  bool Match(const char* lit, size_t n);
  bool Open(char bracket);
  bool Close(char bracket);
  bool ParseKey(Slice* key, std::string* unescaped);

  const char* p_;
  const char* end_;
  int depth_ = 0;
};

template <typename OnMember>
bool Scanner::ParseObject(OnMember&& on_member) {
  if (!Open('{')) return false;
  if (Close('}')) return true;
  std::string unescaped;  // Holds the key only when it carries escapes
  while (true) {
    SkipWs();
    Slice key;
    if (!ParseKey(&key, &unescaped)) return false;
    SkipWs();
    if (p_ == end_ || *p_ != ':') return false;
    p_++;
    if (!on_member(key)) return false;
    SkipWs();
    if (p_ == end_) return false;
    if (*p_ == ',') {
      p_++;
      continue;
    }
    return Close('}');
  }
}

template <typename OnElement>
bool Scanner::ParseArray(OnElement&& on_element) {
  if (!Open('[')) return false;
  if (Close(']')) return true;
  for (size_t i = 0;; i++) {
    if (!on_element(i)) return false;
    SkipWs();
    if (p_ == end_) return false;
    if (*p_ == ',') {
      p_++;
      continue;
    }
    return Close(']');
  }
}

/// Escape + quote a string per JSON rules, appended to *out.
void AppendQuoted(std::string* out, const Slice& s);

}  // namespace json
}  // namespace leveldbpp

#endif  // LEVELDBPP_JSON_JSON_H_
