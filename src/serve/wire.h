// Wire protocol for the LevelDB++ server: length-prefixed binary frames.
//
// Every message on the socket is one frame:
//
//   [4-byte LE payload length][payload]
//
// Request payload:   [op:1] fixed64(deadline_micros) [flags:1]
//                    [per-op fields, length-prefixed varint strings]
//   kPut          lp(key) lp(value)
//   kGet          lp(key)
//   kDelete       lp(key)
//   kLookup       lp(attribute) lp(value) fixed32(k)
//   kRangeLookup  lp(attribute) lp(lo) lp(hi) fixed32(k)
//   kStats        (no fields)
//   kPing         (no fields)
//   kHealth       (no fields)
//   `deadline_micros` is the caller's REMAINING time budget when the frame
//   was sent (relative, so no cross-host clock agreement is needed; 0 = no
//   deadline). The server anchors it to its own clock on arrival and checks
//   it before executing and at shard-fan-out boundaries. `flags` bit 0 =
//   allow degraded (partial) results on LOOKUP / RANGELOOKUP; unknown bits
//   are malformed.
//
// Response payload:  [code:1] fixed64(retry_after_micros) [flags:1]
//                    fixed32(missing_shards) lp(payload) fixed32(nresults)
//                    nresults * [lp(primary_key) fixed64(seq) lp(value)]
//   The result list is non-empty only for LOOKUP / RANGELOOKUP;
//   `payload` carries GET values, STATS / HEALTH JSON, PING's
//   "pong", or the error message. `retry_after_micros` is the server's
//   suggested backoff (only with kRetryLater). Response `flags` bit 0 =
//   degraded: the result list is missing `missing_shards` shards'
//   contributions (only ever set when the request opted in); unknown bits
//   are malformed.
//
// Decoding is strict: a frame whose payload cannot be parsed EXACTLY —
// unknown op, truncated field, or trailing bytes — is malformed, and the
// server answers with an error frame and drops the connection rather than
// resynchronize (a torn frame means the stream framing itself is suspect).
// Frames over kMaxFrameBytes are rejected from the header alone, before any
// payload is read.

#ifndef LEVELDBPP_SERVE_WIRE_H_
#define LEVELDBPP_SERVE_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/topk.h"
#include "util/slice.h"
#include "util/status.h"

namespace leveldbpp {
namespace wire {

/// Hard upper bound on a frame's payload; larger length prefixes are
/// rejected without allocating. 16MB comfortably fits any document plus
/// framing while bounding per-connection memory.
constexpr uint32_t kMaxFrameBytes = 16u << 20;

constexpr size_t kHeaderBytes = 4;

enum Op : uint8_t {
  kPut = 1,
  kGet = 2,
  kDelete = 3,
  kLookup = 4,
  kRangeLookup = 5,
  kStats = 6,
  kPing = 7,
  kHealth = 8,
};

/// Retired op values stay reserved, never reassigned, so a frame from an
/// old client decodes as an unknown op (malformed) instead of as some newer
/// request. Op 9 carried the cross-shard self-join until joins were
/// removed; op 10 carried LOOKUPAND (attr = v AND attr2 IN {...}) until the
/// conjunctive lookup and its planner were removed.
constexpr uint8_t kRetiredJoinOp = 9;
constexpr uint8_t kRetiredLookupAndOp = 10;

/// One past the highest op value ever assigned (ops start at 1 and are
/// dense apart from the retired values above). queries_doc_test iterates
/// [1, kOpCount) to prove every live wire op has a docs/QUERIES.md row.
constexpr uint8_t kOpCount = 11;

/// Wire-op name as documented in docs/QUERIES.md (e.g. "RANGELOOKUP").
const char* OpName(Op op);

enum StatusCode : uint8_t {
  kOk = 0,
  kNotFound = 1,
  kError = 2,
  /// The request's deadline expired before the operation completed.
  /// Retrying under the same deadline cannot help.
  kDeadlineExceeded = 3,
  /// The server refused the request to protect itself (admission control,
  /// or a write shed at a stalled shard's ladder). Nothing was applied;
  /// retry after Response::retry_after_micros.
  kRetryLater = 4,
};

/// Request flag bits. Unknown bits are malformed (strict decode).
constexpr uint8_t kReqFlagAllowDegraded = 0x1;

/// Response flag bits. Unknown bits are malformed (strict decode).
constexpr uint8_t kRespFlagDegraded = 0x1;

struct Request {
  Op op = kPing;
  /// Remaining time budget in microseconds at send time; 0 = none.
  uint64_t deadline_micros = 0;
  /// LOOKUP / RANGELOOKUP: accept partial results if some shards are down.
  bool allow_degraded = false;
  std::string key;        // kPut / kGet / kDelete
  std::string value;      // kPut: document. kLookup: attr value.
  std::string attribute;  // kLookup / kRangeLookup
  std::string lo;         // kRangeLookup
  std::string hi;         // kRangeLookup
  uint32_t k = 0;         // kLookup / kRangeLookup
};

struct Response {
  StatusCode code = kOk;
  /// Suggested backoff before retrying (kRetryLater only; 0 = none).
  uint64_t retry_after_micros = 0;
  /// True when `results` is missing contributions from `missing_shards`
  /// shards (only ever set when the request allowed degraded results).
  bool degraded = false;
  uint32_t missing_shards = 0;
  std::string payload;
  std::vector<QueryResult> results;
};

/// Append a complete frame (header + payload) encoding `req` to *out.
void EncodeRequest(const Request& req, std::string* out);

/// Parse a request frame's payload (header already stripped). Corruption on
/// any malformed input, including trailing bytes.
Status DecodeRequest(const Slice& payload, Request* req);

/// Append a complete frame (header + payload) encoding `resp` to *out.
void EncodeResponse(const Response& resp, std::string* out);

/// Parse a response frame's payload (header already stripped).
Status DecodeResponse(const Slice& payload, Response* resp);

/// Map an engine Status onto a response: OK / NotFound pass through,
/// anything else becomes kError with the status text as payload.
Response FromStatus(const Status& s);

}  // namespace wire
}  // namespace leveldbpp

#endif  // LEVELDBPP_SERVE_WIRE_H_
