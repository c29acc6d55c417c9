// docs/METRICS.md is the reference manual for every observable metric the
// engine exports. This test keeps it honest in BOTH directions:
//
//   1. Completeness — every ticker, histogram and PerfContext field
//      registered in code, and every documented property, appears
//      (backticked) in the manual.
//   2. No phantoms — every backticked name in the manual's metric tables
//      (rows beginning "| `") names something that actually exists in a
//      code registry (or the documented property list).
//
// The doc path is injected by CMake as METRICS_DOC_PATH.

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "env/statistics.h"
#include "util/perf_context.h"

namespace leveldbpp {
namespace {

std::string ReadDoc() {
  std::ifstream in(METRICS_DOC_PATH);
  EXPECT_TRUE(in.good()) << "cannot open " << METRICS_DOC_PATH;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Every `backticked` span in the document.
std::set<std::string> BacktickedSpans(const std::string& doc) {
  std::set<std::string> spans;
  size_t pos = 0;
  while ((pos = doc.find('`', pos)) != std::string::npos) {
    size_t end = doc.find('`', pos + 1);
    if (end == std::string::npos) break;
    if (end > pos + 1) spans.insert(doc.substr(pos + 1, end - pos - 1));
    pos = end + 1;
  }
  return spans;
}

// The first backticked token of every markdown table row ("| `name` | ...").
std::vector<std::string> TableRowNames(const std::string& doc) {
  std::vector<std::string> names;
  std::istringstream lines(doc);
  std::string line;
  while (std::getline(lines, line)) {
    size_t i = line.find_first_not_of(" \t");
    if (i == std::string::npos || line[i] != '|') continue;
    i = line.find_first_not_of(" \t", i + 1);
    if (i == std::string::npos || line[i] != '`') continue;
    size_t end = line.find('`', i + 1);
    if (end == std::string::npos || end == i + 1) continue;
    names.push_back(line.substr(i + 1, end - i - 1));
  }
  return names;
}

// Everything the engine exports under a stable name.
std::set<std::string> CodeRegistry() {
  std::set<std::string> names;
  for (uint32_t i = 0; i < kTickerCount; i++) {
    names.insert(TickerName(static_cast<Ticker>(i)));
  }
  for (uint32_t i = 0; i < kHistogramCount; i++) {
    names.insert(HistogramName(static_cast<HistogramType>(i)));
  }
  for (const PerfContext::Field& f : PerfContext::CounterFields()) {
    names.insert(f.name);
  }
  for (const PerfContext::Field& f : PerfContext::TimerFields()) {
    names.insert(f.name);
  }
  return names;
}

// DB::GetProperty names, as documented. Kept in the manual's Properties
// table; db_property_test exercises the properties themselves.
const char* const kPropertyNames[] = {
    "leveldbpp.num-files-at-level<N>",
    "leveldbpp.sstables",
    "leveldbpp.total-bytes",
    "leveldbpp.approximate-memory-usage",
    "leveldbpp.levels",
    "leveldbpp.stats",
    "leveldbpp.stats.json",
    "leveldbpp.quarantine",
};

// Non-registry lines the stats property derives on the fly; documented in
// the manual's derived-lines table.
const char* const kDerivedLines[] = {
    "block.cache.hit.ratio",
    "block.cache.charge",
};

TEST(StatsDocTest, EveryRegisteredNameIsDocumented) {
  const std::string doc = ReadDoc();
  ASSERT_FALSE(doc.empty());
  const std::set<std::string> spans = BacktickedSpans(doc);
  for (const std::string& name : CodeRegistry()) {
    EXPECT_EQ(1u, spans.count(name))
        << "'" << name << "' is exported by the engine but missing from "
        << METRICS_DOC_PATH;
  }
  for (const char* name : kPropertyNames) {
    EXPECT_EQ(1u, spans.count(name))
        << "property '" << name << "' missing from " << METRICS_DOC_PATH;
  }
}

TEST(StatsDocTest, EveryDocumentedTableEntryExistsInCode) {
  const std::string doc = ReadDoc();
  std::set<std::string> allowed = CodeRegistry();
  for (const char* name : kPropertyNames) allowed.insert(name);
  for (const char* name : kDerivedLines) allowed.insert(name);
  const std::vector<std::string> rows = TableRowNames(doc);
  ASSERT_FALSE(rows.empty()) << "no metric tables found in the manual";
  for (const std::string& name : rows) {
    EXPECT_EQ(1u, allowed.count(name))
        << "'" << name << "' is documented in " << METRICS_DOC_PATH
        << " but not exported by any code registry";
  }
}

TEST(StatsDocTest, TableCoverageMatchesRegistrySizes) {
  // The tables must carry one row per registered name — no name may hide
  // only in prose. (Set-based checks above can't catch a missing row that
  // another table already names.)
  const std::string doc = ReadDoc();
  const std::vector<std::string> rows = TableRowNames(doc);
  std::set<std::string> row_set(rows.begin(), rows.end());
  for (const std::string& name : CodeRegistry()) {
    EXPECT_EQ(1u, row_set.count(name))
        << "'" << name << "' has no table row of its own in "
        << METRICS_DOC_PATH;
  }
  // And no name is documented twice.
  EXPECT_EQ(row_set.size(), rows.size())
      << "a metric table documents some name more than once";
}

}  // namespace
}  // namespace leveldbpp
