// leveldbpp_server: serve a sharded store over the binary protocol.
//
//   leveldbpp_server --db=PATH [--shards=N] [--port=P] [--host=H]
//                    [--type=noindex|embedded|lazy|eager|composite]
//                    [--attrs=A,B,...]
//                    [--max-inflight=N] [--max-connections=N]
//                    [--idle-timeout-ms=N] [--no-shed-stalled-writes]
//
// Overload policy (DESIGN.md "Serving robustness"): stalled-shard writes
// are shed with RETRY_LATER by default (--no-shed-stalled-writes parks them
// instead, like an embedded caller); --max-inflight and --max-connections
// bound concurrent work and sockets (0 = unlimited), and --idle-timeout-ms
// reaps silent connections.
//
// Every number is a plain decimal (port at most 65535); anything else — a
// sign, a suffix, an overflow — prints usage and exits 2.
//
// Opens (creating if missing) a ShardedDB at PATH with N shards and listens
// on H:P (port 0 = pick an ephemeral port). Prints exactly one line
//
//   listening on <host>:<port>
//
// to stdout once ready — scripts parse it to find an ephemeral port — then
// serves until SIGINT/SIGTERM. Background compaction runs per shard, as a
// server should.

#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "parse_number.h"
#include "serve/server.h"
#include "serve/sharded_db.h"

namespace {

using namespace leveldbpp;

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

void Usage() {
  std::fprintf(
      stderr,
      "usage: leveldbpp_server --db=PATH [--shards=N] [--port=P] [--host=H]\n"
      "                        [--type=TYPE] [--attrs=A,B,...]\n"
      "                        [--max-inflight=N] [--max-connections=N]\n"
      "                        [--idle-timeout-ms=N]\n"
      "                        [--no-shed-stalled-writes]\n");
}

bool ParseIndexType(const std::string& name, IndexType* type) {
  if (name == "noindex") *type = IndexType::kNoIndex;
  else if (name == "embedded") *type = IndexType::kEmbedded;
  else if (name == "lazy") *type = IndexType::kLazy;
  else if (name == "eager") *type = IndexType::kEager;
  else if (name == "composite") *type = IndexType::kComposite;
  else return false;
  return true;
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    if (comma > start) out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string db_path, host = "127.0.0.1", type_name = "embedded";
  std::string attrs = "UserID,CreationTime";
  uint64_t shards = 4, port = 0;
  uint64_t max_inflight = 0, max_connections = 0;
  uint64_t idle_timeout_ms = 0;
  bool shed_stalled_writes = true;
  bool numbers_ok = true;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg.rfind("--db=", 0) == 0) db_path = arg.substr(5);
    else if (arg.rfind("--shards=", 0) == 0)
      numbers_ok &= ParseNumber(arg.substr(9), INT_MAX, &shards);
    else if (arg.rfind("--port=", 0) == 0)
      numbers_ok &= ParseNumber(arg.substr(7), 65535, &port);
    else if (arg.rfind("--host=", 0) == 0) host = arg.substr(7);
    else if (arg.rfind("--type=", 0) == 0) type_name = arg.substr(7);
    else if (arg.rfind("--attrs=", 0) == 0) attrs = arg.substr(8);
    else if (arg.rfind("--max-inflight=", 0) == 0)
      numbers_ok &= ParseNumber(arg.substr(15), INT_MAX, &max_inflight);
    else if (arg.rfind("--max-connections=", 0) == 0)
      numbers_ok &= ParseNumber(arg.substr(18), INT_MAX, &max_connections);
    else if (arg.rfind("--idle-timeout-ms=", 0) == 0)
      numbers_ok &=
          ParseNumber(arg.substr(18), UINT64_MAX / 1000, &idle_timeout_ms);
    else if (arg == "--no-shed-stalled-writes") shed_stalled_writes = false;
    else if (arg == "--help" || arg == "-h") { Usage(); return 0; }
    else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      Usage();
      return 2;
    }
  }
  if (!numbers_ok) {
    std::fprintf(stderr, "malformed number in a flag\n");
    Usage();
    return 2;
  }
  if (db_path.empty()) {
    Usage();
    return 2;
  }

  ShardedDBOptions options;
  options.num_shards = static_cast<int>(shards);
  options.shard.indexed_attributes = SplitCommas(attrs);
  options.shard.base.background_compaction = true;
  if (!ParseIndexType(type_name, &options.shard.index_type)) {
    std::fprintf(stderr, "unknown index type: %s\n", type_name.c_str());
    return 2;
  }

  std::unique_ptr<ShardedDB> db;
  Status s = ShardedDB::Open(options, db_path, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }

  ServerOptions server_options;
  server_options.host = host;
  server_options.port = static_cast<int>(port);
  server_options.shed_stalled_writes = shed_stalled_writes;
  server_options.max_inflight_requests = static_cast<int>(max_inflight);
  server_options.max_connections = static_cast<int>(max_connections);
  server_options.idle_timeout_micros = idle_timeout_ms * 1000;
  std::unique_ptr<Server> server;
  s = Server::Start(db.get(), server_options, &server);
  if (!s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    return 1;
  }

  std::printf("listening on %s:%d\n", host.c_str(), server->port());
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) {
    Env::Posix()->SleepForMicroseconds(100 * 1000);
  }

  server->Stop();
  std::fprintf(stderr, "shut down\n");
  return 0;
}
