#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "util/coding.h"

namespace leveldbpp {

namespace {

bool ReadFully(int fd, char* buf, size_t n, bool* timed_out) {
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r > 0) {
      got += static_cast<size_t>(r);
    } else if (r < 0 && errno == EINTR) {
      continue;
    } else {
      if (timed_out != nullptr &&
          (errno == EAGAIN || errno == EWOULDBLOCK)) {
        *timed_out = true;
      }
      return false;
    }
  }
  return true;
}

bool WriteFully(int fd, const Slice& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t w =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (w > 0) {
      sent += static_cast<size_t>(w);
    } else if (w < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

void SetRecvTimeout(int fd, int micros) {
  timeval tv;
  tv.tv_sec = micros / 1000000;
  tv.tv_usec = micros % 1000000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

/// Arms SO_RCVTIMEO for one scope and guarantees it is cleared on every
/// exit path (ReadRawResponse has four early returns; before this guard
/// each needed a hand-written reset and missing one would leave the socket
/// permanently timing out).
class RecvTimeoutGuard {
 public:
  RecvTimeoutGuard(int fd, int micros) : fd_(fd), armed_(micros > 0) {
    if (armed_) SetRecvTimeout(fd_, micros);
  }
  ~RecvTimeoutGuard() {
    if (armed_) SetRecvTimeout(fd_, 0);
  }
  RecvTimeoutGuard(const RecvTimeoutGuard&) = delete;
  RecvTimeoutGuard& operator=(const RecvTimeoutGuard&) = delete;

 private:
  const int fd_;
  const bool armed_;
};

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Dial host:port; on success hands back a connected, TCP_NODELAY socket.
Status OpenSocket(const std::string& host, int port, int* out_fd) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError("socket", std::strerror(errno));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host address", host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = Status::IOError("connect", std::strerror(errno));
    ::close(fd);
    return s;
  }
  // Request/response round-trips: don't let Nagle batch tiny frames.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  *out_fd = fd;
  return Status::OK();
}

/// Fold a response's status code back into an engine Status.
Status ToStatus(const wire::Response& resp) {
  switch (resp.code) {
    case wire::kOk:
      return Status::OK();
    case wire::kNotFound:
      return Status::NotFound("remote", resp.payload);
    case wire::kError:
      return Status::IOError("remote error", resp.payload);
    case wire::kDeadlineExceeded:
      return Status::DeadlineExceeded("remote", resp.payload);
    case wire::kRetryLater:
      return Status::Busy("remote overloaded", resp.payload);
  }
  return Status::Corruption("unknown response code");
}

}  // namespace

Status Client::Connect(const std::string& host, int port,
                       std::unique_ptr<Client>* out) {
  out->reset();
  int fd = -1;
  Status s = OpenSocket(host, port, &fd);
  if (!s.ok()) return s;
  out->reset(new Client(fd, host, port));
  return Status::OK();
}

Client::~Client() { ::close(fd_); }

Status Client::Reconnect() {
  ::close(fd_);
  fd_ = -1;
  int fd = -1;
  Status s = OpenSocket(host_, port_, &fd);
  if (!s.ok()) return s;
  fd_ = fd;
  return Status::OK();
}

Status Client::SendRaw(const Slice& bytes) {
  if (fd_ < 0) return Status::IOError("not connected");
  if (!WriteFully(fd_, bytes)) {
    return Status::IOError("send", std::strerror(errno));
  }
  return Status::OK();
}

Status Client::ReadRawResponse(wire::Response* resp, int recv_timeout_micros) {
  if (fd_ < 0) return Status::IOError("not connected");
  RecvTimeoutGuard guard(fd_, recv_timeout_micros);
  bool timed_out = false;
  char header[wire::kHeaderBytes];
  if (!ReadFully(fd_, header, sizeof(header), &timed_out)) {
    return timed_out ? Status::IOError("recv timeout")
                     : Status::IOError("connection closed");
  }
  const uint32_t frame_len = DecodeFixed32(header);
  if (frame_len > wire::kMaxFrameBytes) {
    return Status::Corruption("oversized response frame");
  }
  std::string payload(frame_len, '\0');
  if (frame_len > 0 &&
      !ReadFully(fd_, &payload[0], frame_len, &timed_out)) {
    return timed_out ? Status::IOError("recv timeout")
                     : Status::IOError("connection closed");
  }
  return wire::DecodeResponse(Slice(payload), resp);
}

Status Client::RoundTripOnce(const wire::Request& req, wire::Response* resp) {
  std::string frame;
  wire::EncodeRequest(req, &frame);
  Status s = SendRaw(frame);
  if (!s.ok()) return s;
  return ReadRawResponse(resp);
}

Status Client::RoundTrip(const wire::Request& req_in, wire::Response* resp) {
  wire::Request req = req_in;
  req.allow_degraded = allow_degraded_;
  if (req.deadline_micros == 0) req.deadline_micros = default_deadline_micros_;
  // The wire deadline is relative, so the overall budget is anchored here
  // and every (re)send carries only what remains of it.
  const uint64_t deadline_abs =
      req.deadline_micros != 0 ? NowMicros() + req.deadline_micros : 0;

  uint64_t backoff = policy_.initial_backoff_micros;
  int retries_left = policy_.max_retries;
  for (;;) {
    if (deadline_abs != 0) {
      const uint64_t now = NowMicros();
      if (now >= deadline_abs) {
        return Status::DeadlineExceeded("client deadline exhausted",
                                        "before attempt");
      }
      req.deadline_micros = deadline_abs - now;
    }

    Status s = RoundTripOnce(req, resp);
    if (!s.ok()) {
      // Transport failure: nothing decodable came back. Reconnect and
      // retry — safe because every operation is idempotent (a lost ACK
      // re-applies the same write).
      if (!s.IsIOError() || !policy_.reconnect || retries_left <= 0) return s;
      --retries_left;
      ++retries_performed_;
      Status rc = Reconnect();
      if (!rc.ok()) return rc;
      continue;
    }

    last_degraded_ = resp->degraded;
    last_missing_shards_ = resp->missing_shards;
    last_retry_after_micros_ = resp->retry_after_micros;

    if (resp->code != wire::kRetryLater || retries_left <= 0) {
      // Done: success, a terminal error, or retries exhausted (the caller
      // then sees RETRY_LATER as Status::Busy via ToStatus).
      return Status::OK();
    }

    --retries_left;
    ++retries_performed_;
    uint64_t sleep_us;
    if (policy_.honor_retry_after && resp->retry_after_micros != 0) {
      sleep_us = resp->retry_after_micros;
    } else {
      // Exponential backoff with jitter in [backoff/2, backoff].
      jitter_state_ ^= jitter_state_ << 13;
      jitter_state_ ^= jitter_state_ >> 7;
      jitter_state_ ^= jitter_state_ << 17;
      sleep_us = backoff / 2 + jitter_state_ % (backoff / 2 + 1);
      backoff = std::min<uint64_t>(backoff * 2, policy_.max_backoff_micros);
    }
    if (deadline_abs != 0) {
      const uint64_t now = NowMicros();
      if (now >= deadline_abs) {
        return Status::DeadlineExceeded("client deadline exhausted",
                                        "during backoff");
      }
      sleep_us = std::min<uint64_t>(sleep_us, deadline_abs - now);
    }
    if (sleep_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
    }
  }
}

Status Client::Put(const Slice& key, const Slice& json_value) {
  wire::Request req;
  req.op = wire::kPut;
  req.key = key.ToString();
  req.value = json_value.ToString();
  wire::Response resp;
  Status s = RoundTrip(req, &resp);
  return s.ok() ? ToStatus(resp) : s;
}

Status Client::Get(const Slice& key, std::string* value) {
  wire::Request req;
  req.op = wire::kGet;
  req.key = key.ToString();
  wire::Response resp;
  Status s = RoundTrip(req, &resp);
  if (!s.ok()) return s;
  s = ToStatus(resp);
  if (s.ok()) *value = std::move(resp.payload);
  return s;
}

Status Client::Delete(const Slice& key) {
  wire::Request req;
  req.op = wire::kDelete;
  req.key = key.ToString();
  wire::Response resp;
  Status s = RoundTrip(req, &resp);
  return s.ok() ? ToStatus(resp) : s;
}

Status Client::Lookup(const std::string& attribute, const Slice& value,
                      uint32_t k, std::vector<QueryResult>* results) {
  wire::Request req;
  req.op = wire::kLookup;
  req.attribute = attribute;
  req.value = value.ToString();
  req.k = k;
  wire::Response resp;
  Status s = RoundTrip(req, &resp);
  if (!s.ok()) return s;
  s = ToStatus(resp);
  if (s.ok()) *results = std::move(resp.results);
  return s;
}

Status Client::RangeLookup(const std::string& attribute, const Slice& lo,
                           const Slice& hi, uint32_t k,
                           std::vector<QueryResult>* results) {
  wire::Request req;
  req.op = wire::kRangeLookup;
  req.attribute = attribute;
  req.lo = lo.ToString();
  req.hi = hi.ToString();
  req.k = k;
  wire::Response resp;
  Status s = RoundTrip(req, &resp);
  if (!s.ok()) return s;
  s = ToStatus(resp);
  if (s.ok()) *results = std::move(resp.results);
  return s;
}

Status Client::Stats(std::string* json) {
  wire::Request req;
  req.op = wire::kStats;
  wire::Response resp;
  Status s = RoundTrip(req, &resp);
  if (!s.ok()) return s;
  s = ToStatus(resp);
  if (s.ok()) *json = std::move(resp.payload);
  return s;
}

Status Client::Health(std::string* json) {
  wire::Request req;
  req.op = wire::kHealth;
  wire::Response resp;
  Status s = RoundTrip(req, &resp);
  if (!s.ok()) return s;
  s = ToStatus(resp);
  if (s.ok()) *json = std::move(resp.payload);
  return s;
}

Status Client::Ping() {
  wire::Request req;
  req.op = wire::kPing;
  wire::Response resp;
  Status s = RoundTrip(req, &resp);
  if (!s.ok()) return s;
  s = ToStatus(resp);
  if (s.ok() && resp.payload != "pong") {
    return Status::Corruption("unexpected ping payload");
  }
  return s;
}

}  // namespace leveldbpp
