// Wire protocol + server robustness: round-trips, concurrent clients, and
// the malformed-input gauntlet.
//
// The invariant under attack: NO byte stream a client can send — torn,
// truncated, oversized, or fuzzed — may crash or wedge the server. The
// worst allowed outcome is an error frame and a dropped connection; a
// fresh connection must always work afterwards.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.h"
#include "serve/server.h"
#include "serve/sharded_db.h"
#include "util/coding.h"

namespace leveldbpp {
namespace {

struct ServeFixture {
  std::unique_ptr<Env> env;
  std::unique_ptr<ShardedDB> db;
  std::unique_ptr<Server> server;

  explicit ServeFixture(int shards = 2) {
    env.reset(NewMemEnv());
    ShardedDBOptions options;
    options.shard.base.env = env.get();
    options.shard.base.write_buffer_size = 16 << 10;
    options.shard.index_type = IndexType::kLazy;
    options.shard.indexed_attributes = {"UserID"};
    options.num_shards = shards;
    EXPECT_TRUE(ShardedDB::Open(options, "/serve", &db).ok());
    EXPECT_TRUE(Server::Start(db.get(), ServerOptions(), &server).ok());
  }

  ~ServeFixture() {
    if (server != nullptr) server->Stop();
  }

  std::unique_ptr<Client> Connect() {
    std::unique_ptr<Client> client;
    EXPECT_TRUE(Client::Connect("127.0.0.1", server->port(), &client).ok());
    return client;
  }
};

std::string Doc(const std::string& user, int i) {
  return "{\"UserID\":\"" + user + "\",\"Seq\":" + std::to_string(i) + "}";
}

TEST(ServeProtocolTest, RoundTrips) {
  ServeFixture fx;
  std::unique_ptr<Client> client = fx.Connect();

  ASSERT_TRUE(client->Ping().ok());
  ASSERT_TRUE(client->Put("alpha", Doc("u1", 1)).ok());
  ASSERT_TRUE(client->Put("beta", Doc("u1", 2)).ok());
  ASSERT_TRUE(client->Put("gamma", Doc("u2", 3)).ok());

  std::string value;
  ASSERT_TRUE(client->Get("alpha", &value).ok());
  EXPECT_EQ(Doc("u1", 1), value);
  EXPECT_TRUE(client->Get("missing", &value).IsNotFound());

  std::vector<QueryResult> results;
  ASSERT_TRUE(client->Lookup("UserID", "u1", 0, &results).ok());
  ASSERT_EQ(2u, results.size());
  EXPECT_EQ("beta", results[0].primary_key);   // Newest first
  EXPECT_EQ("alpha", results[1].primary_key);
  EXPECT_GT(results[0].seq, results[1].seq);
  EXPECT_EQ(Doc("u1", 2), results[0].value);

  ASSERT_TRUE(client->RangeLookup("UserID", "u1", "u2", 0, &results).ok());
  EXPECT_EQ(3u, results.size());
  ASSERT_TRUE(client->RangeLookup("UserID", "u1", "u2", 1, &results).ok());
  ASSERT_EQ(1u, results.size());
  EXPECT_EQ("gamma", results[0].primary_key);

  ASSERT_TRUE(client->Delete("beta").ok());
  EXPECT_TRUE(client->Get("beta", &value).IsNotFound());
  ASSERT_TRUE(client->Lookup("UserID", "u1", 0, &results).ok());
  ASSERT_EQ(1u, results.size());

  std::string stats;
  ASSERT_TRUE(client->Stats(&stats).ok());
  EXPECT_NE(std::string::npos, stats.find("\"num_shards\":2"));
  EXPECT_NE(std::string::npos, stats.find("shard.writes.routed"));

  EXPECT_GE(fx.db->statistics()->Get(kServeRequests), 10u);
  EXPECT_GE(fx.db->statistics()->Get(kServeConnections), 1u);
  EXPECT_GT(fx.db->statistics()->Get(kServeBytesRead), 0u);
  EXPECT_GT(fx.db->statistics()->Get(kServeBytesWritten), 0u);
}

TEST(ServeProtocolTest, ConcurrentClients) {
  ServeFixture fx(/*shards=*/4);
  constexpr int kThreads = 4;
  constexpr int kOps = 40;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&fx, t]() {
      std::unique_ptr<Client> client;
      ASSERT_TRUE(
          Client::Connect("127.0.0.1", fx.server->port(), &client).ok());
      std::vector<QueryResult> results;
      for (int i = 0; i < kOps; i++) {
        const std::string key =
            "t" + std::to_string(t) + "-" + std::to_string(i);
        ASSERT_TRUE(client->Put(key, Doc("u" + std::to_string(i % 3), i)).ok());
        if (i % 5 == 0) {
          ASSERT_TRUE(
              client->Lookup("UserID", "u" + std::to_string(i % 3), 3,
                             &results)
                  .ok());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::unique_ptr<Client> client = fx.Connect();
  std::vector<QueryResult> results;
  ASSERT_TRUE(client->Lookup("UserID", "u0", 0, &results).ok());
  EXPECT_GT(results.size(), 0u);
  EXPECT_EQ(static_cast<uint64_t>(kThreads) * kOps,
            fx.db->statistics()->Get(kShardWritesRouted));
}

// A frame whose header promises more than max_frame_bytes must be refused
// from the header alone, with an error frame, and the connection dropped.
TEST(ServeProtocolTest, OversizedFrameIsRefused) {
  ServeFixture fx;
  std::unique_ptr<Client> client = fx.Connect();
  std::string huge(wire::kHeaderBytes, '\0');
  EncodeFixed32(&huge[0], wire::kMaxFrameBytes + 1);
  ASSERT_TRUE(client->SendRaw(huge).ok());

  wire::Response resp;
  ASSERT_TRUE(client->ReadRawResponse(&resp, /*timeout=*/2000000).ok());
  EXPECT_EQ(wire::kError, resp.code);
  EXPECT_EQ(1u, fx.db->statistics()->Get(kServeMalformedFrames));

  // Connection is dropped afterwards...
  EXPECT_FALSE(client->ReadRawResponse(&resp, 2000000).ok());
  // ...but the server lives on.
  EXPECT_TRUE(fx.Connect()->Ping().ok());
}

// Retired ops stay reserved: an old client's frame for op 9 (the self-join)
// or op 10 (LOOKUPAND) decodes as an unknown op, so it is malformed — an
// error frame, a dropped connection, and a server that keeps serving.
TEST(ServeProtocolTest, RetiredOpsAreMalformed) {
  ServeFixture fx;
  auto header = [](uint8_t op) {
    std::string payload;
    payload.push_back(static_cast<char>(op));
    PutFixed64(&payload, 0);  // No deadline
    payload.push_back('\0');  // No flags
    return payload;
  };
  // Each in the frame layout the retired op used.
  // Join: lp(attribute) fixed32(k).
  std::string join = header(wire::kRetiredJoinOp);
  PutLengthPrefixedSlice(&join, "UserID");
  PutFixed32(&join, 5);
  // LOOKUPAND: lp(attribute) lp(value) lp(attr2) fixed32(nin)
  // nin * lp(in value) fixed32(k).
  std::string lookup_and = header(wire::kRetiredLookupAndOp);
  PutLengthPrefixedSlice(&lookup_and, "UserID");
  PutLengthPrefixedSlice(&lookup_and, "u1");
  PutLengthPrefixedSlice(&lookup_and, "CreationTime");
  PutFixed32(&lookup_and, 2);
  PutLengthPrefixedSlice(&lookup_and, "4");
  PutLengthPrefixedSlice(&lookup_and, "5");
  PutFixed32(&lookup_and, 1);

  uint64_t malformed = 0;
  for (const std::string& payload : {join, lookup_and}) {
    SCOPED_TRACE(int(static_cast<uint8_t>(payload[0])));
    std::unique_ptr<Client> client = fx.Connect();
    std::string frame(wire::kHeaderBytes, '\0');
    EncodeFixed32(&frame[0], static_cast<uint32_t>(payload.size()));
    frame += payload;
    ASSERT_TRUE(client->SendRaw(frame).ok());

    wire::Response resp;
    ASSERT_TRUE(client->ReadRawResponse(&resp, /*timeout=*/2000000).ok());
    EXPECT_EQ(wire::kError, resp.code);
    EXPECT_EQ(++malformed, fx.db->statistics()->Get(kServeMalformedFrames));

    EXPECT_FALSE(client->ReadRawResponse(&resp, 2000000).ok());
    EXPECT_TRUE(fx.Connect()->Ping().ok());
  }
}

// A peer that vanishes mid-frame (torn header or torn payload) just closes
// its handler; the server keeps serving.
TEST(ServeProtocolTest, TornFramesDoNotWedgeTheServer) {
  ServeFixture fx;
  {
    std::unique_ptr<Client> client = fx.Connect();
    ASSERT_TRUE(client->SendRaw(Slice("\x02", 1)).ok());  // Partial header
  }
  {
    std::unique_ptr<Client> client = fx.Connect();
    std::string frame;
    wire::Request req;
    req.op = wire::kPut;
    req.key = "k";
    req.value = Doc("u", 1);
    wire::EncodeRequest(req, &frame);
    // Header + half the payload, then close.
    ASSERT_TRUE(
        client->SendRaw(Slice(frame.data(), frame.size() / 2)).ok());
  }
  EXPECT_TRUE(fx.Connect()->Ping().ok());
}

// Fuzz gauntlet: seeded mutations of valid frames. Any of (valid response |
// error frame | dropped connection) is acceptable; crash or wedge is not.
TEST(ServeProtocolTest, FuzzedFramesNeverWedge) {
  ServeFixture fx;

  // A pool of valid frames to mutate.
  std::vector<std::string> pool;
  {
    wire::Request req;
    std::string f;
    req.op = wire::kPut;
    req.key = "fuzz-key";
    req.value = Doc("u9", 7);
    wire::EncodeRequest(req, &f);
    pool.push_back(f);
    f.clear();
    req = wire::Request();
    req.op = wire::kGet;
    req.key = "fuzz-key";
    wire::EncodeRequest(req, &f);
    pool.push_back(f);
    f.clear();
    req = wire::Request();
    req.op = wire::kLookup;
    req.attribute = "UserID";
    req.value = "u9";
    req.k = 3;
    wire::EncodeRequest(req, &f);
    pool.push_back(f);
    f.clear();
    req = wire::Request();
    req.op = wire::kRangeLookup;
    req.attribute = "UserID";
    req.lo = "a";
    req.hi = "z";
    req.k = 5;
    wire::EncodeRequest(req, &f);
    pool.push_back(f);
    f.clear();
    req = wire::Request();
    req.op = wire::kPing;
    wire::EncodeRequest(req, &f);
    pool.push_back(f);
    f.clear();
    req = wire::Request();  // PR 9 fields: deadline + degraded flag
    req.op = wire::kLookup;
    req.attribute = "UserID";
    req.value = "u9";
    req.k = 2;
    req.deadline_micros = 123456789;
    req.allow_degraded = true;
    wire::EncodeRequest(req, &f);
    pool.push_back(f);
    f.clear();
    req = wire::Request();
    req.op = wire::kHealth;
    wire::EncodeRequest(req, &f);
    pool.push_back(f);
  }

  uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };

  constexpr int kRounds = 200;
  int dropped = 0, answered = 0;
  for (int i = 0; i < kRounds; i++) {
    std::string frame = pool[next() % pool.size()];
    switch (i % 6) {
      case 0:  // Flip one byte
        frame[next() % frame.size()] ^= static_cast<char>(1 + next() % 255);
        break;
      case 1:  // Truncate
        frame.resize(1 + next() % (frame.size() - 1));
        break;
      case 2:  // Append garbage
        for (uint64_t n = 1 + next() % 8, j = 0; j < n; j++) {
          frame.push_back(static_cast<char>(next()));
        }
        break;
      case 3:  // Zero the length header (empty payload, trailing bytes)
        EncodeFixed32(&frame[0], 0);
        break;
      case 4:  // Huge length header
        EncodeFixed32(&frame[0],
                      wire::kMaxFrameBytes + 1 + next() % 1000000);
        break;
      case 5:  // Pure garbage, no structure at all
        frame.assign(4 + next() % 32, '\0');
        for (char& c : frame) c = static_cast<char>(next());
        break;
    }

    std::unique_ptr<Client> client = fx.Connect();
    ASSERT_TRUE(client != nullptr) << "round " << i;
    Status ss = client->SendRaw(frame);
    if (!ss.ok()) continue;  // Server already closed on us — acceptable
    wire::Response resp;
    // Short timeout: a mutation that leaves the server expecting more bytes
    // will never answer; closing our end unwedges its handler.
    Status rs = client->ReadRawResponse(&resp, /*timeout=*/100000);
    if (rs.ok()) {
      answered++;
    } else {
      dropped++;
    }
  }
  // Sanity on the distribution: both outcomes occur, and the malformed
  // counter moved (case 4 alone guarantees >= kRounds/6 rejections).
  EXPECT_GT(answered, 0);
  EXPECT_GT(dropped, 0);
  EXPECT_GE(fx.db->statistics()->Get(kServeMalformedFrames),
            static_cast<uint64_t>(kRounds) / 6);

  // The server must still serve real traffic.
  std::unique_ptr<Client> client = fx.Connect();
  ASSERT_TRUE(client->Ping().ok());
  ASSERT_TRUE(client->Put("after-fuzz", Doc("u1", 1)).ok());
  std::string value;
  ASSERT_TRUE(client->Get("after-fuzz", &value).ok());
  EXPECT_EQ(Doc("u1", 1), value);
}

TEST(ServeProtocolTest, StopWhileClientsConnected) {
  ServeFixture fx;
  std::unique_ptr<Client> idle = fx.Connect();     // Parked in recv
  std::unique_ptr<Client> active = fx.Connect();
  ASSERT_TRUE(active->Ping().ok());

  fx.server->Stop();  // Must not hang on the parked connection

  wire::Response resp;
  EXPECT_FALSE(idle->ReadRawResponse(&resp, 2000000).ok());
  std::unique_ptr<Client> late;
  EXPECT_FALSE(
      Client::Connect("127.0.0.1", fx.server->port(), &late).ok() &&
      late->Ping().ok());
}

TEST(ServeProtocolTest, WireCodecRejectsTrailingBytes) {
  wire::Request req;
  req.op = wire::kGet;
  req.key = "k";
  std::string frame;
  wire::EncodeRequest(req, &frame);
  // Strip the header, append a byte: strict decoding must refuse.
  std::string payload = frame.substr(wire::kHeaderBytes);
  payload.push_back('x');
  wire::Request decoded;
  EXPECT_TRUE(wire::DecodeRequest(Slice(payload), &decoded).IsCorruption());

  // And the pristine payload round-trips.
  payload.pop_back();
  ASSERT_TRUE(wire::DecodeRequest(Slice(payload), &decoded).ok());
  EXPECT_EQ(wire::kGet, decoded.op);
  EXPECT_EQ("k", decoded.key);

  wire::Response resp;
  resp.code = wire::kOk;
  resp.payload = "hello";
  resp.results.push_back(QueryResult{"pk", 42, "{\"a\":1}"});
  std::string rframe;
  wire::EncodeResponse(resp, &rframe);
  wire::Response rdecoded;
  ASSERT_TRUE(wire::DecodeResponse(
                  Slice(rframe.data() + wire::kHeaderBytes,
                        rframe.size() - wire::kHeaderBytes),
                  &rdecoded)
                  .ok());
  EXPECT_EQ("hello", rdecoded.payload);
  ASSERT_EQ(1u, rdecoded.results.size());
  EXPECT_EQ("pk", rdecoded.results[0].primary_key);
  EXPECT_EQ(42u, rdecoded.results[0].seq);
}

// PR 9 wire additions: deadlines, degradation flags, and the two new
// status codes must survive an encode/decode round trip exactly.
TEST(ServeProtocolTest, DeadlineAndDegradedFieldsRoundTrip) {
  wire::Request req;
  req.op = wire::kLookup;
  req.attribute = "UserID";
  req.value = "u1";
  req.k = 7;
  req.deadline_micros = 0x0123456789abcdefull;
  req.allow_degraded = true;
  std::string frame;
  wire::EncodeRequest(req, &frame);
  wire::Request decoded;
  ASSERT_TRUE(wire::DecodeRequest(Slice(frame.data() + wire::kHeaderBytes,
                                        frame.size() - wire::kHeaderBytes),
                                  &decoded)
                  .ok());
  EXPECT_EQ(req.deadline_micros, decoded.deadline_micros);
  EXPECT_TRUE(decoded.allow_degraded);
  EXPECT_EQ(7u, decoded.k);

  wire::Response resp;
  resp.code = wire::kRetryLater;
  resp.retry_after_micros = 10000;
  resp.payload = "busy";
  std::string rframe;
  wire::EncodeResponse(resp, &rframe);
  wire::Response rdecoded;
  ASSERT_TRUE(wire::DecodeResponse(
                  Slice(rframe.data() + wire::kHeaderBytes,
                        rframe.size() - wire::kHeaderBytes),
                  &rdecoded)
                  .ok());
  EXPECT_EQ(wire::kRetryLater, rdecoded.code);
  EXPECT_EQ(10000u, rdecoded.retry_after_micros);
  EXPECT_EQ("busy", rdecoded.payload);

  resp = wire::Response();
  resp.code = wire::kDeadlineExceeded;
  resp.payload = "too late";
  rframe.clear();
  wire::EncodeResponse(resp, &rframe);
  ASSERT_TRUE(wire::DecodeResponse(
                  Slice(rframe.data() + wire::kHeaderBytes,
                        rframe.size() - wire::kHeaderBytes),
                  &rdecoded)
                  .ok());
  EXPECT_EQ(wire::kDeadlineExceeded, rdecoded.code);

  resp = wire::Response();
  resp.code = wire::kOk;
  resp.degraded = true;
  resp.missing_shards = 3;
  resp.results.push_back(QueryResult{"pk", 9, "{\"a\":1}"});
  rframe.clear();
  wire::EncodeResponse(resp, &rframe);
  ASSERT_TRUE(wire::DecodeResponse(
                  Slice(rframe.data() + wire::kHeaderBytes,
                        rframe.size() - wire::kHeaderBytes),
                  &rdecoded)
                  .ok());
  EXPECT_TRUE(rdecoded.degraded);
  EXPECT_EQ(3u, rdecoded.missing_shards);
  ASSERT_EQ(1u, rdecoded.results.size());
}

// A response whose code byte is not a known StatusCode must be refused by
// strict decoding, not mapped to some arbitrary enum value.
TEST(ServeProtocolTest, UnknownStatusCodeIsRejected) {
  wire::Response resp;
  resp.code = wire::kOk;
  resp.payload = "x";
  std::string frame;
  wire::EncodeResponse(resp, &frame);
  std::string payload = frame.substr(wire::kHeaderBytes);
  for (uint8_t bad : {static_cast<uint8_t>(wire::kRetryLater + 1),
                      static_cast<uint8_t>(200), static_cast<uint8_t>(255)}) {
    payload[0] = static_cast<char>(bad);
    wire::Response decoded;
    EXPECT_TRUE(wire::DecodeResponse(Slice(payload), &decoded).IsCorruption())
        << "code " << static_cast<int>(bad);
  }
}

// Unknown flag bits (request and response) are malformed, so old decoders
// can never silently ignore semantics a future peer relies on.
TEST(ServeProtocolTest, UnknownFlagBitsAreRejected) {
  wire::Request req;
  req.op = wire::kGet;
  req.key = "k";
  std::string frame;
  wire::EncodeRequest(req, &frame);
  // Payload layout: [op:1][deadline:8][flags:1]...
  std::string payload = frame.substr(wire::kHeaderBytes);
  payload[9] = static_cast<char>(0x2);
  wire::Request decoded;
  EXPECT_TRUE(wire::DecodeRequest(Slice(payload), &decoded).IsCorruption());

  wire::Response resp;
  resp.code = wire::kOk;
  std::string rframe;
  wire::EncodeResponse(resp, &rframe);
  // Payload layout: [code:1][retry_after:8][flags:1]...
  std::string rpayload = rframe.substr(wire::kHeaderBytes);
  rpayload[9] = static_cast<char>(0x80);
  wire::Response rdecoded;
  EXPECT_TRUE(
      wire::DecodeResponse(Slice(rpayload), &rdecoded).IsCorruption());
}

}  // namespace
}  // namespace leveldbpp
