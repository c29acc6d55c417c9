// Client: blocking single-connection client for the LevelDB++ server.
//
// One TCP connection, one outstanding request at a time (the protocol is
// strict request/response). Not thread-safe: the bench driver opens one
// Client per worker thread. SendRaw/ReadRawResponse expose the framing for
// protocol-robustness tests (torn frames, fuzzed payloads).
//
// Resilience: every operation runs under a RetryPolicy (on by default).
// RETRY_LATER responses back off — honoring the server's retry-after hint
// when present — and retry; transport errors transparently reconnect and
// retry. All Table 1 operations are idempotent (PUT/DELETE are last-writer
// -wins, reads are reads), so retrying after a lost ACK is safe. Retries
// never exceed the operation deadline: the remaining budget shrinks on
// every attempt and DEADLINE_EXCEEDED is never retried.

#ifndef LEVELDBPP_SERVE_CLIENT_H_
#define LEVELDBPP_SERVE_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/wire.h"

namespace leveldbpp {

/// How a Client copes with RETRY_LATER answers and broken connections.
struct RetryPolicy {
  /// Retries after the initial attempt; 0 disables retrying entirely.
  int max_retries = 5;

  /// First backoff before retrying; doubles per retry (with jitter in
  /// [backoff/2, backoff]) up to max_backoff_micros.
  uint64_t initial_backoff_micros = 2000;
  uint64_t max_backoff_micros = 100000;

  /// Sleep the server's Response::retry_after_micros hint (when nonzero)
  /// instead of the exponential schedule — the server derives it from the
  /// target shard's actual stall-ladder state.
  bool honor_retry_after = true;

  /// On a transport error (peer died, connection reset), re-dial the
  /// server and retry instead of failing the operation.
  bool reconnect = true;
};

class Client {
 public:
  static Status Connect(const std::string& host, int port,
                        std::unique_ptr<Client>* out);

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  /// Replace the retry policy (e.g. {.max_retries = 0} for tests that
  /// want to see RETRY_LATER surface as Status::Busy).
  void set_retry_policy(const RetryPolicy& policy) { policy_ = policy; }

  /// Deadline budget attached to every request (0 = none, the default).
  /// Relative — the server anchors it to its own clock on arrival — and
  /// also caps the client-side retry loop.
  void set_default_deadline_micros(uint64_t micros) {
    default_deadline_micros_ = micros;
  }

  /// Ask the server for partial LOOKUP/RANGELOOKUP results when some
  /// shards have failed (default off = fail-closed). Check last_degraded()
  /// after a lookup to see whether the answer is partial.
  void set_allow_degraded(bool allow) { allow_degraded_ = allow; }

  // ---- What the last completed round-trip reported ----

  bool last_degraded() const { return last_degraded_; }
  uint32_t last_missing_shards() const { return last_missing_shards_; }
  uint64_t last_retry_after_micros() const { return last_retry_after_micros_; }
  /// Retries this client has performed over its lifetime (both
  /// RETRY_LATER backoffs and reconnects).
  uint64_t retries_performed() const { return retries_performed_; }

  // ---- Table 1 operations over the wire ----

  Status Put(const Slice& key, const Slice& json_value);
  Status Get(const Slice& key, std::string* value);
  Status Delete(const Slice& key);
  Status Lookup(const std::string& attribute, const Slice& value, uint32_t k,
                std::vector<QueryResult>* results);
  Status RangeLookup(const std::string& attribute, const Slice& lo,
                     const Slice& hi, uint32_t k,
                     std::vector<QueryResult>* results);

  /// Server-side aggregated stats JSON (ShardedDB::GetProperty).
  Status Stats(std::string* json);

  /// Per-shard health snapshot as a JSON array (ShardedDB::HealthJson).
  /// Exempt from server admission control: works while the server sheds.
  Status Health(std::string* json);

  Status Ping();

  // ---- Raw access for protocol tests ----

  /// Write arbitrary bytes to the socket as-is (no framing added).
  Status SendRaw(const Slice& bytes);

  /// Read one response frame. With `recv_timeout_micros` > 0 the read gives
  /// up after that long (IOError "timeout") instead of blocking forever —
  /// fuzz tests use this so a dropped reply can't wedge the test.
  Status ReadRawResponse(wire::Response* resp, int recv_timeout_micros = 0);

 private:
  Client(int fd, std::string host, int port)
      : fd_(fd), host_(std::move(host)), port_(port) {}

  /// Close the current socket and dial host_:port_ again.
  Status Reconnect();

  /// One attempt: frame, send, read one response. No retries.
  Status RoundTripOnce(const wire::Request& req, wire::Response* resp);

  /// Full retry loop per the policy; fills last_*() from the final
  /// response. Returns non-OK only for transport/decode failures or an
  /// exhausted deadline — protocol-level failures come back as resp->code.
  Status RoundTrip(const wire::Request& req, wire::Response* resp);

  int fd_;
  std::string host_;
  int port_;
  RetryPolicy policy_;
  uint64_t default_deadline_micros_ = 0;
  bool allow_degraded_ = false;
  bool last_degraded_ = false;
  uint32_t last_missing_shards_ = 0;
  uint64_t last_retry_after_micros_ = 0;
  uint64_t retries_performed_ = 0;
  uint64_t jitter_state_ = 0x9e3779b97f4a7c15ull;  // xorshift state
};

}  // namespace leveldbpp

#endif  // LEVELDBPP_SERVE_CLIENT_H_
