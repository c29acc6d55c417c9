#include "core/document.h"

namespace leveldbpp {

bool JsonAttributeExtractor::Extract(const Slice& record_value,
                                     const std::string& attr,
                                     std::string* out) const {
  using Type = json::Value::Type;
  // Validate the whole record, noting where the last member named `attr`
  // starts (a repeated key: last wins); only that value is materialized.
  json::Scanner scanner(record_value);
  const Slice name(attr);
  bool found = false;
  Slice value;
  if (scanner.PeekType() != Type::kObject ||
      !scanner.ParseObject([&](const Slice& key) {
        if (key == name) {
          found = true;
          value = scanner.Rest();
        }
        return scanner.ParseValue(nullptr);
      }) ||
      !scanner.AtEnd() || !found) {
    return false;
  }
  json::Scanner member(value);
  switch (member.PeekType()) {
    case Type::kString:
      return member.ParseString(out);
    case Type::kNumber:
    case Type::kBool: {
      json::Value v;
      if (!member.ParseValue(&v)) return false;
      out->clear();
      v.Serialize(out);
      return true;
    }
    default:
      return false;  // null / array / object values are not indexable
  }
}

const JsonAttributeExtractor* JsonAttributeExtractor::Instance() {
  static JsonAttributeExtractor singleton;
  return &singleton;
}

}  // namespace leveldbpp
