#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/coding.h"

namespace leveldbpp {

namespace {

/// Read exactly n bytes. Returns false on EOF / error / shutdown.
bool ReadFully(int fd, char* buf, size_t n) {
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r > 0) {
      got += static_cast<size_t>(r);
    } else if (r < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

/// Write exactly data.size() bytes. MSG_NOSIGNAL: a peer that closed mid-
/// response must surface as EPIPE, not kill the process with SIGPIPE.
/// (On platforms without MSG_NOSIGNAL — macOS — SO_NOSIGPIPE on the socket
/// provides the same guarantee; see DisableSigpipe.)
#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif
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

/// Belt-and-braces against SIGPIPE on write-to-closed-socket: every send
/// already passes MSG_NOSIGNAL where the platform has it; where it does
/// not, mark the socket itself.
void DisableSigpipe(int fd) {
#ifdef SO_NOSIGPIPE
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof(one));
#else
  (void)fd;
#endif
}

/// How long a shed connection/request should wait before trying again when
/// no shard-health signal applies (connection limit, in-flight limit).
constexpr uint64_t kAdmissionRetryMicros = 20000;

}  // namespace

Server::Server(ShardedDB* db, const ServerOptions& options)
    : db_(db),
      options_(options),
      stats_(options.statistics != nullptr ? options.statistics
                                           : db->statistics()) {}

Status Server::Start(ShardedDB* db, const ServerOptions& options,
                     std::unique_ptr<Server>* out) {
  out->reset();
  std::unique_ptr<Server> server(new Server(db, options));

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError("socket", std::strerror(errno));
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options.port));
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host address", options.host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = Status::IOError("bind", std::strerror(errno));
    ::close(fd);
    return s;
  }
  if (::listen(fd, 128) != 0) {
    Status s = Status::IOError("listen", std::strerror(errno));
    ::close(fd);
    return s;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    Status s = Status::IOError("getsockname", std::strerror(errno));
    ::close(fd);
    return s;
  }

  server->listen_fd_ = fd;
  server->port_ = ntohs(addr.sin_port);
  server->accept_thread_ = std::thread([srv = server.get()]() {
    srv->AcceptLoop();
  });
  *out = std::move(server);
  return Status::OK();
}

Server::~Server() { Stop(); }

void Server::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    // Wake every handler parked in recv(); the fds are closed by their
    // handlers on exit.
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  // Unblock accept().
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  std::vector<std::thread> handlers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    handlers.swap(handlers_);
  }
  for (std::thread& t : handlers) {
    if (t.joinable()) t.join();
  }
}

void Server::AcceptLoop() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // Listener shut down (or fatally broken) — exit the loop
    }
    DisableSigpipe(fd);
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    if (options_.max_connections > 0 &&
        conn_fds_.size() >= static_cast<size_t>(options_.max_connections)) {
      // Accept-shedding: answer with one RETRY_LATER frame and close,
      // instead of letting an unbounded connection population grow a
      // thread each. The write is best-effort (the peer may already be
      // gone) and never blocks long: the frame fits any socket buffer.
      stats_->Record(kServeRequestsShed);
      stats_->Record(kServeRetriesSuggested);
      wire::Response shed;
      shed.code = wire::kRetryLater;
      shed.retry_after_micros = kAdmissionRetryMicros;
      shed.payload = "server at connection limit";
      std::string out;
      wire::EncodeResponse(shed, &out);
      WriteFully(fd, out);
      ::close(fd);
      continue;
    }
    if (options_.idle_timeout_micros > 0) {
      timeval tv;
      tv.tv_sec = static_cast<time_t>(options_.idle_timeout_micros / 1000000);
      tv.tv_usec =
          static_cast<suseconds_t>(options_.idle_timeout_micros % 1000000);
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    }
    stats_->Record(kServeConnections);
    conn_fds_.push_back(fd);
    handlers_.emplace_back([this, fd]() { HandleConnection(fd); });
  }
}

void Server::HandleConnection(int fd) {
  std::string in;
  std::string out;
  for (;;) {
    char header[wire::kHeaderBytes];
    if (!ReadFully(fd, header, sizeof(header))) break;
    const uint32_t frame_len = DecodeFixed32(header);
    stats_->Record(kServeBytesRead, sizeof(header));
    if (frame_len > options_.max_frame_bytes) {
      // Refuse from the header alone — never allocate for an absurd
      // length. The stream is now unsynchronized, so drop it.
      stats_->Record(kServeMalformedFrames);
      wire::Response err;
      err.code = wire::kError;
      err.payload = "frame exceeds max_frame_bytes";
      out.clear();
      wire::EncodeResponse(err, &out);
      WriteFully(fd, out);
      break;
    }
    in.resize(frame_len);
    if (frame_len > 0 && !ReadFully(fd, &in[0], frame_len)) break;
    stats_->Record(kServeBytesRead, frame_len);

    wire::Request req;
    Status ds = wire::DecodeRequest(Slice(in), &req);
    if (!ds.ok()) {
      stats_->Record(kServeMalformedFrames);
      wire::Response err;
      err.code = wire::kError;
      err.payload = ds.ToString();
      out.clear();
      wire::EncodeResponse(err, &out);
      WriteFully(fd, out);
      break;
    }

    stats_->Record(kServeRequests);
    // Anchor the relative deadline to the store's clock the moment the
    // frame finished arriving; everything downstream compares absolutes.
    const uint64_t deadline_abs =
        req.deadline_micros != 0
            ? db_->env()->NowMicros() + req.deadline_micros
            : 0;
    wire::Response resp;
    const bool probe = req.op == wire::kPing || req.op == wire::kHealth;
    if (!probe && options_.max_inflight_requests > 0 &&
        inflight_.load(std::memory_order_relaxed) >=
            options_.max_inflight_requests) {
      // Admission control: refuse before touching the engine. Probes are
      // exempt — an operator must be able to ask "are you alive / which
      // shard is sick" precisely when the server is saturated.
      stats_->Record(kServeRequestsShed);
      stats_->Record(kServeRetriesSuggested);
      resp.code = wire::kRetryLater;
      resp.retry_after_micros = kAdmissionRetryMicros;
      resp.payload = "server at in-flight request limit";
    } else {
      inflight_.fetch_add(1, std::memory_order_relaxed);
      resp = Execute(req, deadline_abs);
      inflight_.fetch_sub(1, std::memory_order_relaxed);
    }
    out.clear();
    wire::EncodeResponse(resp, &out);
    if (!WriteFully(fd, out)) break;
    stats_->Record(kServeBytesWritten, out.size());
  }
  {
    // Deregister BEFORE closing: Stop() shutdowns every fd still listed, and
    // must never touch a closed (possibly reused) descriptor.
    std::lock_guard<std::mutex> lock(mu_);
    conn_fds_.erase(std::find(conn_fds_.begin(), conn_fds_.end(), fd));
  }
  ::close(fd);
}

wire::Response Server::Execute(const wire::Request& req,
                               uint64_t deadline_micros) {
  wire::Response resp;
  // Check the deadline before doing any work: under a deadline storm the
  // cheapest request is the one never executed. Fan-out queries re-check
  // at shard boundaries via QueryOptions; single-shard ops are short
  // enough that this entry check is the only one.
  if (deadline_micros != 0 && req.op != wire::kPing &&
      req.op != wire::kHealth &&
      db_->env()->NowMicros() >= deadline_micros) {
    stats_->Record(kServeDeadlineExceeded);
    return wire::FromStatus(
        Status::DeadlineExceeded("expired before execution"));
  }

  SecondaryDB::WriteControl wctl;
  wctl.no_stall = options_.shed_stalled_writes;

  ShardedDB::QueryOptions qopts;
  qopts.deadline_micros = deadline_micros;
  qopts.allow_degraded = req.allow_degraded;
  ShardedDB::QueryMeta meta;

  switch (req.op) {
    case wire::kPut:
      resp = wire::FromStatus(db_->Put(req.key, req.value, wctl));
      break;
    case wire::kGet: {
      std::string value;
      Status s = db_->Get(req.key, &value);
      resp = wire::FromStatus(s);
      if (s.ok()) resp.payload = std::move(value);
      break;
    }
    case wire::kDelete:
      resp = wire::FromStatus(db_->Delete(req.key, wctl));
      break;
    case wire::kLookup: {
      std::vector<QueryResult> results;
      Status s = db_->Lookup(req.attribute, req.value, req.k, qopts,
                             &results, &meta);
      resp = wire::FromStatus(s);
      if (s.ok()) resp.results = std::move(results);
      break;
    }
    case wire::kRangeLookup: {
      std::vector<QueryResult> results;
      Status s = db_->RangeLookup(req.attribute, req.lo, req.hi, req.k, qopts,
                                  &results, &meta);
      resp = wire::FromStatus(s);
      if (s.ok()) resp.results = std::move(results);
      break;
    }
    case wire::kStats: {
      std::string json;
      if (db_->GetProperty("leveldbpp.stats.json", &json)) {
        resp.payload = std::move(json);
      } else {
        resp.code = wire::kError;
        resp.payload = "stats property unavailable";
      }
      break;
    }
    case wire::kHealth:
      resp.payload = db_->HealthJson();
      break;
    case wire::kPing:
      resp.payload = "pong";
      break;
  }

  if (meta.degraded) {
    resp.degraded = true;
    resp.missing_shards = static_cast<uint32_t>(meta.missing_shards);
  }
  if (resp.code == wire::kRetryLater) {
    // A shed write: derive the retry-after hint from the target shard's
    // ladder state so clients back off proportionally to how sick it is.
    stats_->Record(kServeRequestsShed);
    if (req.op == wire::kPut || req.op == wire::kDelete) {
      const ShardedDB::ShardHealthInfo h = db_->ShardHealthFor(req.key);
      resp.retry_after_micros = h.suggested_retry_micros != 0
                                    ? h.suggested_retry_micros
                                    : kAdmissionRetryMicros;
    } else if (resp.retry_after_micros == 0) {
      resp.retry_after_micros = kAdmissionRetryMicros;
    }
    stats_->Record(kServeRetriesSuggested);
  } else if (resp.code == wire::kDeadlineExceeded) {
    stats_->Record(kServeDeadlineExceeded);
  }
  return resp;
}

}  // namespace leveldbpp
