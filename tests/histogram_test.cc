// Histogram edge cases: empty and single-sample histograms must report
// sane summaries (the empty-percentile bug returned the 1e200 bucket
// sentinel before the guard), and Merge must behave as if the merged
// samples had been Added directly — including merges involving empty
// histograms in either position. The engine tests check that each WAL
// sync, flush and compaction adds exactly one sample to its histogram.

#include "util/histogram.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "db/db_impl.h"
#include "env/env.h"
#include "env/statistics.h"
#include "util/random.h"

namespace leveldbpp {
namespace {

TEST(HistogramTest, EmptyHistogramReportsZeros) {
  Histogram h;
  EXPECT_EQ(0u, h.Count());
  EXPECT_EQ(0, h.Sum());
  EXPECT_EQ(0, h.Average());
  EXPECT_EQ(0, h.StandardDeviation());
  // Regression: these previously surfaced the 1e200 min_ sentinel.
  EXPECT_EQ(0, h.Min());
  EXPECT_EQ(0, h.Max());
  EXPECT_EQ(0, h.Median());
  EXPECT_EQ(0, h.Percentile(0));
  EXPECT_EQ(0, h.Percentile(25));
  EXPECT_EQ(0, h.Percentile(100));
  Histogram::BoxPlot bp = h.GetBoxPlot();
  EXPECT_EQ(0, bp.lo_whisker);
  EXPECT_EQ(0, bp.q1);
  EXPECT_EQ(0, bp.median);
  EXPECT_EQ(0, bp.q3);
  EXPECT_EQ(0, bp.hi_whisker);
}

TEST(HistogramTest, SingleSampleQuantilesClampToTheSample) {
  Histogram h;
  h.Add(42);
  EXPECT_EQ(1u, h.Count());
  EXPECT_EQ(42, h.Min());
  EXPECT_EQ(42, h.Max());
  EXPECT_EQ(42, h.Average());
  // Every quantile of a one-sample distribution is that sample; the min/max
  // clamp inside Percentile must enforce it despite bucket interpolation.
  EXPECT_EQ(42, h.Percentile(1));
  EXPECT_EQ(42, h.Median());
  EXPECT_EQ(42, h.Percentile(99));
}

TEST(HistogramTest, ClearResetsToEmptyState) {
  Histogram h;
  h.Add(5);
  h.Add(500);
  h.Clear();
  EXPECT_EQ(0u, h.Count());
  EXPECT_EQ(0, h.Min());
  EXPECT_EQ(0, h.Median());
}

TEST(HistogramTest, MergeMatchesDirectAdds) {
  Random rnd(301);
  Histogram a, b, direct;
  for (int i = 0; i < 500; i++) {
    double v = 1 + rnd.Uniform(100000);
    a.Add(v);
    direct.Add(v);
  }
  for (int i = 0; i < 300; i++) {
    double v = 1 + rnd.Uniform(1000);
    b.Add(v);
    direct.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(direct.Count(), a.Count());
  EXPECT_EQ(direct.Sum(), a.Sum());
  EXPECT_EQ(direct.Min(), a.Min());
  EXPECT_EQ(direct.Max(), a.Max());
  EXPECT_EQ(direct.Average(), a.Average());
  for (double p : {5.0, 25.0, 50.0, 75.0, 95.0}) {
    EXPECT_EQ(direct.Percentile(p), a.Percentile(p)) << "p" << p;
  }
}

TEST(HistogramTest, MergeWithEmptyIsIdentityBothWays) {
  Histogram samples;
  samples.Add(7);
  samples.Add(300);

  // Empty into non-empty: nothing changes. The empty side's min_ sentinel
  // (1e200) must not leak into the merged min.
  Histogram a = samples;
  Histogram empty;
  a.Merge(empty);
  EXPECT_EQ(samples.Count(), a.Count());
  EXPECT_EQ(7, a.Min());
  EXPECT_EQ(300, a.Max());
  EXPECT_EQ(samples.Median(), a.Median());

  // Non-empty into empty: the result is a copy of the samples.
  Histogram b;
  b.Merge(samples);
  EXPECT_EQ(samples.Count(), b.Count());
  EXPECT_EQ(7, b.Min());
  EXPECT_EQ(300, b.Max());
  EXPECT_EQ(samples.Median(), b.Median());

  // Empty into empty stays empty (and keeps reporting zeros).
  Histogram c, d;
  c.Merge(d);
  EXPECT_EQ(0u, c.Count());
  EXPECT_EQ(0, c.Min());
  EXPECT_EQ(0, c.Percentile(50));
}

TEST(HistogramTest, OverflowBucketCapturesHugeValues) {
  Histogram h;
  h.Add(1e12);  // Beyond the 1e11 bucket: lands in the 1e200 overflow bucket
  h.Add(1);
  EXPECT_EQ(2u, h.Count());
  EXPECT_EQ(1, h.Min());
  EXPECT_EQ(1e12, h.Max());
  // Quantiles stay clamped to observed samples, not bucket bounds.
  EXPECT_LE(h.Percentile(99), 1e12);
}

TEST(HistogramTest, StatisticsHistogramRegistryRoundTrips) {
  Statistics stats;
  stats.RecordHistogram(kHistGetMicros, 100);
  stats.RecordHistogram(kHistGetMicros, 200);
  Histogram h = stats.GetHistogram(kHistGetMicros);
  EXPECT_EQ(2u, h.Count());
  EXPECT_EQ(100, h.Min());
  EXPECT_EQ(200, h.Max());
  // Untouched histograms stay empty.
  EXPECT_EQ(0u, stats.GetHistogram(kHistFlushMicros).Count());
  // The text dump names only the histograms that have samples.
  std::string text = stats.HistogramsToString();
  EXPECT_NE(std::string::npos, text.find("get.micros"));
  EXPECT_EQ(std::string::npos, text.find("flush.micros"));
  stats.Reset();
  EXPECT_EQ(0u, stats.GetHistogram(kHistGetMicros).Count());
}

TEST(HistogramTest, EveryHistogramTypeHasAName) {
  for (uint32_t i = 0; i < kHistogramCount; i++) {
    const char* name = HistogramName(static_cast<HistogramType>(i));
    ASSERT_NE(nullptr, name);
    EXPECT_GT(std::string(name).size(), 0u) << i;
  }
}

class EngineHistogramTest : public testing::Test {
 protected:
  EngineHistogramTest() : env_(NewMemEnv()) {
    Options options;
    options.env = env_.get();
    options.write_buffer_size = 16 << 10;
    options.statistics = &stats_;
    DBImpl* raw = nullptr;
    EXPECT_TRUE(DBImpl::Open(options, "/histdb", &raw).ok());
    db_.reset(raw);
  }

  static std::string Key(int i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "key%06d", i);
    return buf;
  }

  // 400 records of ~130 bytes overflow the 16 KB memtable several times.
  void PutAll(char tag) {
    for (int i = 0; i < 400; i++) {
      ASSERT_TRUE(db_->Put(WriteOptions(), Key(i),
                           std::string(1, tag) + std::string(128, tag))
                      .ok());
    }
  }

  std::unique_ptr<Env> env_;
  Statistics stats_;
  std::unique_ptr<DBImpl> db_;
};

TEST_F(EngineHistogramTest, WalSyncMicrosCountsSyncedWritesOnly) {
  WriteOptions synced;
  synced.sync = true;
  ASSERT_TRUE(db_->Put(synced, Key(0), "a").ok());
  EXPECT_EQ(1u, stats_.GetHistogram(kHistWalSyncMicros).Count());
  ASSERT_TRUE(db_->Put(synced, Key(1), "a").ok());
  EXPECT_EQ(2u, stats_.GetHistogram(kHistWalSyncMicros).Count());
  ASSERT_TRUE(db_->Put(WriteOptions(), Key(2), "a").ok());
  EXPECT_EQ(2u, stats_.GetHistogram(kHistWalSyncMicros).Count());
}

TEST_F(EngineHistogramTest, FlushMicrosCountEqualsFlushCount) {
  PutAll('a');
  ASSERT_TRUE(db_->CompactAll().ok());
  EXPECT_GT(stats_.Get(kFlushCount), 0u);
  EXPECT_EQ(stats_.Get(kFlushCount),
            stats_.GetHistogram(kHistFlushMicros).Count());
}

TEST_F(EngineHistogramTest, CompactionMicrosCountEqualsCompactionCount) {
  // Two overlapping generations force a real merging compaction (a single
  // sorted run would just move trivially).
  PutAll('a');
  ASSERT_TRUE(db_->CompactAll().ok());
  PutAll('b');
  ASSERT_TRUE(db_->CompactAll().ok());
  EXPECT_GT(stats_.Get(kCompactionCount), 0u);
  EXPECT_EQ(stats_.Get(kCompactionCount),
            stats_.GetHistogram(kHistCompactionMicros).Count());
  EXPECT_GT(stats_.Get(kCompactionBytesRead), 0u);
  EXPECT_GT(stats_.Get(kCompactionBytesWritten), 0u);
}

}  // namespace
}  // namespace leveldbpp
