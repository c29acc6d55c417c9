#include "util/perf_context.h"

#include <cstdio>

#include "json/json.h"

namespace leveldbpp {

namespace perf_internal {
thread_local PerfContext* tls_context = nullptr;
thread_local uint64_t* tls_tickers = nullptr;
}  // namespace perf_internal

PerfContext* GetPerfContext() {
  static thread_local PerfContext ctx;
  return &ctx;
}

PerfContext* SwapThreadPerfContext(PerfContext* ctx) {
  PerfContext* prev = perf_internal::tls_context;
  perf_internal::tls_context = ctx;
  perf_internal::tls_tickers = ctx != nullptr ? ctx->tickers.data() : nullptr;
  return prev;
}

void EnablePerfContext() { SwapThreadPerfContext(GetPerfContext()); }

void DisablePerfContext() { SwapThreadPerfContext(nullptr); }

const std::vector<PerfContext::Field>& PerfContext::CounterFields() {
  static const std::vector<Field> kFields = {
      {"perf.posting.entries.scanned", &PerfContext::posting_entries_scanned},
      {"perf.candidate.records.scanned",
       &PerfContext::candidate_records_scanned},
      {"perf.candidates.validated", &PerfContext::candidates_validated},
      {"perf.candidates.valid", &PerfContext::candidates_valid},
  };
  return kFields;
}

const std::vector<PerfContext::Field>& PerfContext::TimerFields() {
  static const std::vector<Field> kFields = {
      {"perf.get.micros", &PerfContext::get_micros},
      {"perf.multiget.micros", &PerfContext::multiget_micros},
      {"perf.lookup.micros", &PerfContext::lookup_micros},
      {"perf.validate.micros", &PerfContext::validate_micros},
  };
  return kFields;
}

void PerfContext::Reset() { *this = PerfContext(); }

void PerfContext::MergeFrom(const PerfContext& other) {
  for (uint32_t i = 0; i < kTickerCount; i++) tickers[i] += other.tickers[i];
  for (const Field& f : CounterFields()) this->*f.member += other.*f.member;
  for (const Field& f : TimerFields()) this->*f.member += other.*f.member;
}

std::string PerfContext::ToString(bool include_zeros) const {
  std::string out;
  char buf[128];
  auto append = [&](const char* name, uint64_t v) {
    if (v == 0 && !include_zeros) return;
    std::snprintf(buf, sizeof(buf), "%-32s %12llu\n", name,
                  static_cast<unsigned long long>(v));
    out.append(buf);
  };
  for (uint32_t i = 0; i < kTickerCount; i++) {
    append(TickerName(static_cast<Ticker>(i)), tickers[i]);
  }
  for (const Field& f : CounterFields()) append(f.name, this->*f.member);
  for (const Field& f : TimerFields()) append(f.name, this->*f.member);
  return out;
}

std::string PerfContext::ToJson() const {
  json::Object tickers_obj;
  for (uint32_t i = 0; i < kTickerCount; i++) {
    tickers_obj[TickerName(static_cast<Ticker>(i))] =
        json::Value(static_cast<int64_t>(tickers[i]));
  }
  json::Object counters_obj;
  for (const Field& f : CounterFields()) {
    counters_obj[f.name] = json::Value(static_cast<int64_t>(this->*f.member));
  }
  json::Object timers_obj;
  for (const Field& f : TimerFields()) {
    timers_obj[f.name] = json::Value(static_cast<int64_t>(this->*f.member));
  }
  json::Object root;
  root["tickers"] = json::Value(std::move(tickers_obj));
  root["counters"] = json::Value(std::move(counters_obj));
  root["timers"] = json::Value(std::move(timers_obj));
  return json::Value(std::move(root)).ToString();
}

}  // namespace leveldbpp
