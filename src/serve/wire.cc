#include "serve/wire.h"

#include "util/coding.h"

namespace leveldbpp {
namespace wire {

namespace {

Status Malformed(const char* what) {
  return Status::Corruption("malformed frame", what);
}

bool GetFixed32(Slice* input, uint32_t* value) {
  if (input->size() < 4) return false;
  *value = DecodeFixed32(input->data());
  input->remove_prefix(4);
  return true;
}

bool GetFixed64(Slice* input, uint64_t* value) {
  if (input->size() < 8) return false;
  *value = DecodeFixed64(input->data());
  input->remove_prefix(8);
  return true;
}

bool GetString(Slice* input, std::string* out) {
  Slice s;
  if (!GetLengthPrefixedSlice(input, &s)) return false;
  out->assign(s.data(), s.size());
  return true;
}

/// Prepend the frame header once the payload length is known: `start` is
/// out->size() before the payload was appended.
void FinishFrame(std::string* out, size_t start) {
  const size_t payload = out->size() - start;
  char header[kHeaderBytes];
  EncodeFixed32(header, static_cast<uint32_t>(payload));
  out->insert(start, header, kHeaderBytes);
}

}  // namespace

const char* OpName(Op op) {
  switch (op) {
    case kPut:
      return "PUT";
    case kGet:
      return "GET";
    case kDelete:
      return "DELETE";
    case kLookup:
      return "LOOKUP";
    case kRangeLookup:
      return "RANGELOOKUP";
    case kStats:
      return "STATS";
    case kPing:
      return "PING";
    case kHealth:
      return "HEALTH";
  }
  return "UNKNOWN";
}

void EncodeRequest(const Request& req, std::string* out) {
  const size_t start = out->size();
  out->push_back(static_cast<char>(req.op));
  PutFixed64(out, req.deadline_micros);
  out->push_back(
      static_cast<char>(req.allow_degraded ? kReqFlagAllowDegraded : 0));
  switch (req.op) {
    case kPut:
      PutLengthPrefixedSlice(out, req.key);
      PutLengthPrefixedSlice(out, req.value);
      break;
    case kGet:
    case kDelete:
      PutLengthPrefixedSlice(out, req.key);
      break;
    case kLookup:
      PutLengthPrefixedSlice(out, req.attribute);
      PutLengthPrefixedSlice(out, req.value);
      PutFixed32(out, req.k);
      break;
    case kRangeLookup:
      PutLengthPrefixedSlice(out, req.attribute);
      PutLengthPrefixedSlice(out, req.lo);
      PutLengthPrefixedSlice(out, req.hi);
      PutFixed32(out, req.k);
      break;
    case kStats:
    case kPing:
    case kHealth:
      break;
  }
  FinishFrame(out, start);
}

Status DecodeRequest(const Slice& payload, Request* req) {
  Slice in = payload;
  if (in.empty()) return Malformed("empty request");
  const uint8_t op = static_cast<uint8_t>(in[0]);
  in.remove_prefix(1);
  *req = Request();
  uint64_t deadline = 0;
  if (!GetFixed64(&in, &deadline)) return Malformed("truncated deadline");
  req->deadline_micros = deadline;
  if (in.empty()) return Malformed("truncated flags");
  const uint8_t flags = static_cast<uint8_t>(in[0]);
  in.remove_prefix(1);
  if ((flags & ~kReqFlagAllowDegraded) != 0) {
    return Malformed("unknown request flags");
  }
  req->allow_degraded = (flags & kReqFlagAllowDegraded) != 0;
  switch (op) {
    case kPut:
      req->op = kPut;
      if (!GetString(&in, &req->key) || !GetString(&in, &req->value)) {
        return Malformed("truncated PUT");
      }
      break;
    case kGet:
    case kDelete:
      req->op = static_cast<Op>(op);
      if (!GetString(&in, &req->key)) return Malformed("truncated key op");
      break;
    case kLookup:
      req->op = kLookup;
      if (!GetString(&in, &req->attribute) || !GetString(&in, &req->value) ||
          !GetFixed32(&in, &req->k)) {
        return Malformed("truncated LOOKUP");
      }
      break;
    case kRangeLookup:
      req->op = kRangeLookup;
      if (!GetString(&in, &req->attribute) || !GetString(&in, &req->lo) ||
          !GetString(&in, &req->hi) || !GetFixed32(&in, &req->k)) {
        return Malformed("truncated RANGELOOKUP");
      }
      break;
    case kStats:
    case kPing:
    case kHealth:
      req->op = static_cast<Op>(op);
      break;
    default:
      return Malformed("unknown op");
  }
  if (!in.empty()) return Malformed("trailing bytes");
  return Status::OK();
}

void EncodeResponse(const Response& resp, std::string* out) {
  const size_t start = out->size();
  out->push_back(static_cast<char>(resp.code));
  PutFixed64(out, resp.retry_after_micros);
  out->push_back(static_cast<char>(resp.degraded ? kRespFlagDegraded : 0));
  PutFixed32(out, resp.missing_shards);
  PutLengthPrefixedSlice(out, resp.payload);
  PutFixed32(out, static_cast<uint32_t>(resp.results.size()));
  for (const QueryResult& r : resp.results) {
    PutLengthPrefixedSlice(out, r.primary_key);
    PutFixed64(out, r.seq);
    PutLengthPrefixedSlice(out, r.value);
  }
  FinishFrame(out, start);
}

Status DecodeResponse(const Slice& payload, Response* resp) {
  Slice in = payload;
  if (in.empty()) return Malformed("empty response");
  const uint8_t code = static_cast<uint8_t>(in[0]);
  if (code > kRetryLater) return Malformed("unknown status code");
  in.remove_prefix(1);
  *resp = Response();
  resp->code = static_cast<StatusCode>(code);
  if (!GetFixed64(&in, &resp->retry_after_micros)) {
    return Malformed("truncated retry-after");
  }
  if (in.empty()) return Malformed("truncated flags");
  const uint8_t flags = static_cast<uint8_t>(in[0]);
  in.remove_prefix(1);
  if ((flags & ~kRespFlagDegraded) != 0) {
    return Malformed("unknown response flags");
  }
  resp->degraded = (flags & kRespFlagDegraded) != 0;
  uint32_t n = 0;
  if (!GetFixed32(&in, &resp->missing_shards) ||
      !GetString(&in, &resp->payload) || !GetFixed32(&in, &n)) {
    return Malformed("truncated response");
  }
  // Each result costs at least 1 + 8 + 1 bytes on the wire; a count beyond
  // that bound cannot be satisfied by the remaining payload.
  if (n > in.size() / 10 + 1) return Malformed("absurd result count");
  resp->results.reserve(n);
  for (uint32_t i = 0; i < n; i++) {
    QueryResult r;
    if (!GetString(&in, &r.primary_key) || !GetFixed64(&in, &r.seq) ||
        !GetString(&in, &r.value)) {
      return Malformed("truncated result");
    }
    resp->results.push_back(std::move(r));
  }
  if (!in.empty()) return Malformed("trailing bytes");
  return Status::OK();
}

Response FromStatus(const Status& s) {
  Response resp;
  if (s.ok()) {
    resp.code = kOk;
  } else if (s.IsNotFound()) {
    resp.code = kNotFound;
    resp.payload = s.ToString();
  } else if (s.IsBusy()) {
    resp.code = kRetryLater;
    resp.payload = s.ToString();
  } else if (s.IsDeadlineExceeded()) {
    resp.code = kDeadlineExceeded;
    resp.payload = s.ToString();
  } else {
    resp.code = kError;
    resp.payload = s.ToString();
  }
  return resp;
}

}  // namespace wire
}  // namespace leveldbpp
