// docs/QUERIES.md is the reference manual for the engine's query surface.
// This test keeps it honest in BOTH directions, the same contract
// stats_doc_test enforces for METRICS.md:
//
//   1. Completeness — every public query entry point and every wire op
//      has exactly one table row of its own in the manual.
//   2. No phantoms — every table row's leading backticked token names a
//      real query method, wire op, or index variant.
//
// The doc path is injected by CMake as QUERIES_DOC_PATH.

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/secondary_db.h"
#include "serve/wire.h"

namespace leveldbpp {
namespace {

std::string ReadDoc() {
  std::ifstream in(QUERIES_DOC_PATH);
  EXPECT_TRUE(in.good()) << "cannot open " << QUERIES_DOC_PATH;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
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

// Every public query entry point the engine exports. Adding a query method
// to SecondaryDB / ShardedDB without extending this list AND the manual is
// the drift this test exists to catch.
const char* const kQueryMethods[] = {
    "Put",
    "Delete",
    "Get",
    "MultiGet",
    "Lookup",
    "RangeLookup",
    "NewIterator",
    "GetSnapshot",
    "ReleaseSnapshot",
};

std::set<std::string> WireOps() {
  std::set<std::string> ops;
  for (uint8_t i = 1; i < wire::kOpCount; i++) {
    // Retired values stay reserved, never reassigned.
    if (i == wire::kRetiredJoinOp || i == wire::kRetiredLookupAndOp) continue;
    const char* name = wire::OpName(static_cast<wire::Op>(i));
    EXPECT_STRNE("UNKNOWN", name) << "op value " << int(i) << " has no name";
    ops.insert(name);
  }
  return ops;
}

std::set<std::string> VariantNames() {
  std::set<std::string> names;
  for (IndexType t : {IndexType::kNoIndex, IndexType::kEmbedded,
                      IndexType::kLazy, IndexType::kEager,
                      IndexType::kComposite}) {
    names.insert(IndexTypeName(t));
  }
  return names;
}

TEST(QueriesDocTest, EveryQueryEntryPointHasExactlyOneRow) {
  const std::string doc = ReadDoc();
  ASSERT_FALSE(doc.empty());
  const std::vector<std::string> rows = TableRowNames(doc);
  ASSERT_FALSE(rows.empty()) << "no tables found in the manual";
  auto count = [&rows](const std::string& name) {
    size_t n = 0;
    for (const std::string& r : rows) {
      if (r == name) n++;
    }
    return n;
  };
  for (const char* name : kQueryMethods) {
    EXPECT_EQ(1u, count(name))
        << "query method '" << name << "' must have exactly one table row in "
        << QUERIES_DOC_PATH;
  }
  for (const std::string& op : WireOps()) {
    EXPECT_EQ(1u, count(op))
        << "wire op '" << op << "' must have exactly one table row in "
        << QUERIES_DOC_PATH;
  }
  for (const std::string& v : VariantNames()) {
    EXPECT_EQ(1u, count(v))
        << "variant '" << v << "' must have exactly one support-matrix row in "
        << QUERIES_DOC_PATH;
  }
}

TEST(QueriesDocTest, EveryDocumentedRowExistsInCode) {
  const std::string doc = ReadDoc();
  std::set<std::string> allowed = WireOps();
  for (const char* name : kQueryMethods) allowed.insert(name);
  for (const std::string& v : VariantNames()) allowed.insert(v);
  for (const std::string& row : TableRowNames(doc)) {
    EXPECT_EQ(1u, allowed.count(row))
        << "'" << row << "' has a table row in " << QUERIES_DOC_PATH
        << " but is not a known query method, wire op, or index variant";
  }
}

TEST(QueriesDocTest, TableCoverageMatchesRegistrySizes) {
  const std::string doc = ReadDoc();
  const std::vector<std::string> rows = TableRowNames(doc);
  const std::set<std::string> row_set(rows.begin(), rows.end());
  EXPECT_EQ(row_set.size(), rows.size())
      << "some table row is documented more than once";
  const size_t registry_size = WireOps().size() + VariantNames().size() +
                               sizeof(kQueryMethods) / sizeof(kQueryMethods[0]);
  EXPECT_EQ(registry_size, row_set.size())
      << "manual rows and code registries disagree in size";
}

TEST(QueriesDocTest, OpNamesAreDenseAndNamed) {
  // kOpCount must stay one past the highest op value ever assigned, with
  // every value but the two reserved retired ops named — the manual's wire
  // table is generated against this registry.
  EXPECT_EQ(wire::kRetiredLookupAndOp + 1, wire::kOpCount);
  EXPECT_EQ(size_t{wire::kOpCount} - 3, WireOps().size());
}

}  // namespace
}  // namespace leveldbpp
