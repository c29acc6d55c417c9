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
// Every number (K, --port, --deadline-ms, --retries) is a plain decimal;
// anything else — a sign, a suffix, an overflow — is a usage error.
// Exit status: 0 ok, 1 not found / error, 2 usage.

#include <climits>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "parse_number.h"
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
  uint64_t port = 0;
  uint64_t deadline_ms = 0;
  uint64_t retries = UINT64_MAX;  // UINT64_MAX: keep the client's default
  bool allow_degraded = false;
  bool numbers_ok = true;
  std::vector<std::string> args;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg.rfind("--host=", 0) == 0) host = arg.substr(7);
    else if (arg.rfind("--port=", 0) == 0)
      numbers_ok &= ParseNumber(arg.substr(7), 65535, &port);
    else if (arg.rfind("--deadline-ms=", 0) == 0)
      numbers_ok &=
          ParseNumber(arg.substr(14), UINT64_MAX / 1000, &deadline_ms);
    else if (arg.rfind("--retries=", 0) == 0)
      numbers_ok &= ParseNumber(arg.substr(10), INT_MAX, &retries);
    else if (arg == "--allow-degraded") allow_degraded = true;
    else if (arg == "--help" || arg == "-h") { Usage(); return 0; }
    else args.push_back(arg);
  }
  // The optional trailing K of lookup/range; 0 means no limit.
  uint64_t k = 0;
  if (!args.empty() && ((args[0] == "lookup" && args.size() == 4) ||
                        (args[0] == "range" && args.size() == 5))) {
    numbers_ok &= ParseNumber(args.back(), UINT32_MAX, &k);
  }
  if (args.empty() || port == 0 || !numbers_ok) {
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
  if (retries != UINT64_MAX) {
    RetryPolicy policy;
    policy.max_retries = static_cast<int>(retries);
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
    std::vector<QueryResult> results;
    s = client->Lookup(args[1], args[2], static_cast<uint32_t>(k), &results);
    if (s.ok()) PrintResults(results);
  } else if (cmd == "range" && (args.size() == 4 || args.size() == 5)) {
    std::vector<QueryResult> results;
    s = client->RangeLookup(args[1], args[2], args[3], static_cast<uint32_t>(k),
                            &results);
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
