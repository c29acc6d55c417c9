// leveldbpp_client: command-line client for leveldbpp_server.
//
//   leveldbpp_client [--host=H] [--port=P] [--deadline-ms=N] [--retries=N]
//                    [--allow-degraded] COMMAND [ARGS...]
//
// Commands:
//   ping
//   put KEY JSON              e.g. put k1 '{"UserID":"u1"}'
//   get KEY
//   del KEY
//   lookup ATTR VALUE [K]
//   range ATTR LO HI [K]
//   stats
//   health
//
// --deadline-ms=N    end-to-end budget per operation (propagated to the
//                    server, which abandons work once it expires); 0 = none.
// --retries=N        RETRY_LATER / transport-failure retry budget (default 5;
//                    0 disables retrying).
// --allow-degraded   accept partial LOOKUP/RANGE results when shards are
//                    down; a degraded answer is flagged on stderr.
//
// LOOKUP/RANGELOOKUP print one line per result: <seq> <key> <value>.
// Exit status: 0 ok, 1 not found / error, 2 usage.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "serve/client.h"

namespace {

using namespace leveldbpp;

void Usage() {
  std::fprintf(stderr,
               "usage: leveldbpp_client [--host=H] [--port=P]\n"
               "    [--deadline-ms=N] [--retries=N] [--allow-degraded]\n"
               "    COMMAND ...\n"
               "  ping | put K JSON | get K | del K |\n"
               "  lookup ATTR VALUE [K] | range ATTR LO HI [K] |\n"
               "  stats | health\n");
}

void PrintResults(const std::vector<QueryResult>& results) {
  for (const QueryResult& r : results) {
    std::printf("%llu %s %s\n", static_cast<unsigned long long>(r.seq),
                r.primary_key.c_str(), r.value.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 0;
  uint64_t deadline_ms = 0;
  int retries = -1;  // -1: keep the client's default policy
  bool allow_degraded = false;
  std::vector<std::string> args;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg.rfind("--host=", 0) == 0) host = arg.substr(7);
    else if (arg.rfind("--port=", 0) == 0) port = std::atoi(arg.c_str() + 7);
    else if (arg.rfind("--deadline-ms=", 0) == 0)
      deadline_ms = std::strtoull(arg.c_str() + 14, nullptr, 10);
    else if (arg.rfind("--retries=", 0) == 0)
      retries = std::atoi(arg.c_str() + 10);
    else if (arg == "--allow-degraded") allow_degraded = true;
    else if (arg == "--help" || arg == "-h") { Usage(); return 0; }
    else args.push_back(arg);
  }
  if (args.empty() || port == 0) {
    Usage();
    return 2;
  }

  std::unique_ptr<Client> client;
  Status s = Client::Connect(host, port, &client);
  if (!s.ok()) {
    std::fprintf(stderr, "connect failed: %s\n", s.ToString().c_str());
    return 1;
  }
  if (deadline_ms > 0) client->set_default_deadline_micros(deadline_ms * 1000);
  if (retries >= 0) {
    RetryPolicy policy;
    policy.max_retries = retries;
    client->set_retry_policy(policy);
  }
  client->set_allow_degraded(allow_degraded);

  const std::string& cmd = args[0];
  if (cmd == "ping" && args.size() == 1) {
    s = client->Ping();
    if (s.ok()) std::printf("pong\n");
  } else if (cmd == "put" && args.size() == 3) {
    s = client->Put(args[1], args[2]);
  } else if (cmd == "get" && args.size() == 2) {
    std::string value;
    s = client->Get(args[1], &value);
    if (s.ok()) std::printf("%s\n", value.c_str());
  } else if (cmd == "del" && args.size() == 2) {
    s = client->Delete(args[1]);
  } else if (cmd == "lookup" && (args.size() == 3 || args.size() == 4)) {
    const uint32_t k = args.size() == 4 ? std::atoi(args[3].c_str()) : 0;
    std::vector<QueryResult> results;
    s = client->Lookup(args[1], args[2], k, &results);
    if (s.ok()) PrintResults(results);
  } else if (cmd == "range" && (args.size() == 4 || args.size() == 5)) {
    const uint32_t k = args.size() == 5 ? std::atoi(args[4].c_str()) : 0;
    std::vector<QueryResult> results;
    s = client->RangeLookup(args[1], args[2], args[3], k, &results);
    if (s.ok()) PrintResults(results);
  } else if (cmd == "stats" && args.size() == 1) {
    std::string json;
    s = client->Stats(&json);
    if (s.ok()) std::printf("%s\n", json.c_str());
  } else if (cmd == "health" && args.size() == 1) {
    std::string json;
    s = client->Health(&json);
    if (s.ok()) std::printf("%s\n", json.c_str());
  } else {
    Usage();
    return 2;
  }

  if (client->last_degraded()) {
    std::fprintf(stderr,
                 "warning: DEGRADED answer (%u shard%s missing)\n",
                 client->last_missing_shards(),
                 client->last_missing_shards() == 1 ? "" : "s");
  }
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}
