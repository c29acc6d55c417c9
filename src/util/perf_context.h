// PerfContext: thread-local per-operation cost accumulator.
//
// The global Statistics tickers attribute I/O by *differencing snapshots*
// around an operation window, which only works when nothing else runs
// concurrently. A PerfContext instead mirrors, on the calling thread, every
// ticker the thread records into ANY Statistics object (primary DB and each
// standalone index own separate ones), plus a handful of named counters and
// stage timers the flat registry has no slot for. Reset it before an
// operation, read it after, and the paper's Figure 13-15 I/O attribution
// falls out of a single query.
//
// Lifecycle: recording is off by default (one predictable null-check per
// Record). EnablePerfContext() routes this thread's recording into the
// thread's own PerfContext instance (GetPerfContext()). ParallelRun
// redirects each pool task into a task-local context via
// SwapThreadPerfContext and merges the results back into the calling
// thread's context, so fan-out queries still produce one per-query total.

#ifndef LEVELDBPP_UTIL_PERF_CONTEXT_H_
#define LEVELDBPP_UTIL_PERF_CONTEXT_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "env/statistics.h"

namespace leveldbpp {

struct PerfContext {
  /// Mirror of every Ticker recorded by this thread while the context was
  /// active, index-aligned with the Ticker enum.
  std::array<uint64_t, kTickerCount> tickers{};

  // Named counters with no ticker equivalent. All are placed so that their
  // value is independent of read_parallelism (counted where work is
  // *discovered*, not where it is pruned).
  uint64_t posting_entries_scanned = 0;   // posting-list entries parsed
  uint64_t candidate_records_scanned = 0; // records visited in scans
  uint64_t candidates_validated = 0;      // primary-DB validation attempts
  uint64_t candidates_valid = 0;          // ... that confirmed the attribute

  // Stage timers (microseconds, steady clock). Stages overlap: a secondary
  // lookup's validate_micros is a slice of its lookup_micros.
  uint64_t get_micros = 0;       // DBImpl::Get (public entry only)
  uint64_t multiget_micros = 0;  // DBImpl::MultiGetWithMeta
  uint64_t lookup_micros = 0;    // SecondaryDB::Lookup/RangeLookup
  uint64_t validate_micros = 0;  // CandidateSink resolution

  void Reset();
  void MergeFrom(const PerfContext& other);

  uint64_t TickerValue(Ticker t) const { return tickers[t]; }

  /// Multi-line dump; zero-valued entries skipped unless include_zeros.
  std::string ToString(bool include_zeros = false) const;
  /// JSON object: {"tickers": {...}, "counters": {...}, "timers": {...}}.
  std::string ToJson() const;

  struct Field {
    const char* name;
    uint64_t PerfContext::*member;
  };
  /// Canonical registry of the named counters, in declaration order.
  /// docs/METRICS.md is checked against this list by stats_doc_test.
  static const std::vector<Field>& CounterFields();
  /// Canonical registry of the stage timers, in declaration order.
  static const std::vector<Field>& TimerFields();
};

namespace perf_internal {
/// This thread's active context, or null when perf tracking is off.
/// tls_tickers (env/statistics.h) always points at its tickers array.
extern thread_local PerfContext* tls_context;
}  // namespace perf_internal

/// The calling thread's own PerfContext instance. Valid whether or not
/// recording is enabled; Enable/DisablePerfContext toggle recording into it.
PerfContext* GetPerfContext();

/// Route this thread's Statistics recording into GetPerfContext().
void EnablePerfContext();
/// Stop per-thread recording (the default state).
void DisablePerfContext();

inline PerfContext* CurrentThreadPerfContext() {
  return perf_internal::tls_context;
}

/// Redirect this thread's recording to ctx (null = off); returns the
/// previous target. ParallelRun uses this to capture pool-task costs.
PerfContext* SwapThreadPerfContext(PerfContext* ctx);

/// Add to a named PerfContext counter iff recording is enabled.
inline void PerfCounterAdd(uint64_t PerfContext::*member, uint64_t amount) {
  PerfContext* pc = perf_internal::tls_context;
  if (pc != nullptr) pc->*member += amount;
}

/// RAII stage timer: adds elapsed steady-clock microseconds to a PerfContext
/// timer field at scope exit. Captures the context at construction, so the
/// sample lands in the context that was active when the stage BEGAN even if
/// ParallelRun swaps the thread's context mid-stage. No clock calls are made
/// when recording is disabled.
class ScopedPerfTimer {
 public:
  explicit ScopedPerfTimer(uint64_t PerfContext::*member)
      : ctx_(perf_internal::tls_context), member_(member) {
    if (ctx_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedPerfTimer() {
    if (ctx_ != nullptr) {
      ctx_->*member_ += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start_)
              .count());
    }
  }
  ScopedPerfTimer(const ScopedPerfTimer&) = delete;
  ScopedPerfTimer& operator=(const ScopedPerfTimer&) = delete;

 private:
  PerfContext* ctx_;
  uint64_t PerfContext::*member_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace leveldbpp

#endif  // LEVELDBPP_UTIL_PERF_CONTEXT_H_
