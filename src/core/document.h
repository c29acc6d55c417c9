// JSON document helpers: the default AttributeExtractor over JSON record
// values (tweets are stored as JSON objects, per the paper's data model
// v = {A1: val(A1), ..., Al: val(Al)}).

#ifndef LEVELDBPP_CORE_DOCUMENT_H_
#define LEVELDBPP_CORE_DOCUMENT_H_

#include <string>

#include "json/json.h"
#include "table/attribute_extractor.h"

namespace leveldbpp {

/// Extracts top-level attributes from JSON-object record values. String
/// attribute values extract as their raw bytes; numbers as their compact
/// serialization. Attribute encodings must be order-preserving under
/// bytewise comparison for zone maps / range queries to prune correctly
/// (e.g. use fixed-width decimal timestamps).
///
/// The record is checked against json::Parse's grammar (json::Scanner) in
/// full, but only the last top-level member named `attr` is materialized. A
/// malformed record — including one nested deeper than json::kMaxDepth —
/// extracts nothing, so it is stored but not indexed.
class JsonAttributeExtractor : public AttributeExtractor {
 public:
  bool Extract(const Slice& record_value, const std::string& attr,
               std::string* out) const override;

  /// Process-wide instance.
  static const JsonAttributeExtractor* Instance();
};

}  // namespace leveldbpp

#endif  // LEVELDBPP_CORE_DOCUMENT_H_
