// The MANIFEST persists each SSTable's file-level secondary zone map (the
// paper's "global metadata file"). These tests prove the metadata survives
// reopen and keeps pruning whole files without any table access.

#include <gtest/gtest.h>

#include <memory>

#include "core/document.h"
#include "db/db_impl.h"
#include "env/env.h"
#include "table/filter_policy.h"

namespace leveldbpp {
namespace {

class ManifestZoneMapTest : public testing::Test {
 protected:
  ManifestZoneMapTest() : env_(NewMemEnv()) {
    filter_.reset(NewBloomFilterPolicy(10));
    Open();
  }

  void Open() {
    Options options;
    options.env = env_.get();
    options.write_buffer_size = 64 << 10;
    options.max_file_size = 32 << 10;
    options.statistics = &stats_;
    options.filter_policy = filter_.get();
    options.secondary_attributes = {"CreationTime"};
    options.attribute_extractor = JsonAttributeExtractor::Instance();
    options.secondary_filter_policy = filter_.get();
    DBImpl* raw = nullptr;
    ASSERT_TRUE(DBImpl::Open(options, "/zmdb", &raw).ok());
    db_.reset(raw);
  }

  void Fill() {
    for (int i = 0; i < 4000; i++) {
      char ts[16];
      std::snprintf(ts, sizeof(ts), "%012d", 1000 + i);
      ASSERT_TRUE(db_->Put(WriteOptions(), "k" + std::to_string(i),
                           "{\"CreationTime\":\"" + std::string(ts) +
                               "\",\"pad\":\"" + std::string(120, 'p') +
                               "\"}")
                      .ok());
    }
    ASSERT_TRUE(db_->CompactAll().ok());
  }

  Statistics stats_;
  std::unique_ptr<Env> env_;
  std::unique_ptr<const FilterPolicy> filter_;
  std::unique_ptr<DBImpl> db_;
};

TEST_F(ManifestZoneMapTest, FileMetaCarriesZoneRanges) {
  Fill();
  Version* v = db_->versions()->current();
  v->Ref();
  int files_with_zones = 0;
  for (int level = 0; level < v->NumLevels(); level++) {
    for (FileMetaData* f : v->files(level)) {
      ASSERT_EQ(1u, f->zone_ranges.size());
      if (f->zone_ranges[0].present) {
        files_with_zones++;
        EXPECT_LE(f->zone_ranges[0].min, f->zone_ranges[0].max);
      }
    }
  }
  v->Unref();
  EXPECT_GT(files_with_zones, 1);
}

TEST_F(ManifestZoneMapTest, ZoneRangesSurviveReopen) {
  Fill();
  db_.reset();
  Open();
  Version* v = db_->versions()->current();
  v->Ref();
  int files_with_zones = 0;
  for (int level = 0; level < v->NumLevels(); level++) {
    for (FileMetaData* f : v->files(level)) {
      ASSERT_EQ(1u, f->zone_ranges.size());
      if (f->zone_ranges[0].present) files_with_zones++;
    }
  }
  v->Unref();
  EXPECT_GT(files_with_zones, 1) << "zone ranges lost across MANIFEST replay";
}

TEST_F(ManifestZoneMapTest, FileLevelPruningNeedsNoTableOpen) {
  Fill();
  db_.reset();
  Open();  // Fresh table cache: nothing is open.

  uint64_t reads_before = stats_.Get(kBlockRead);
  uint64_t pruned_before = stats_.Get(kZoneMapFilePruned);
  // A range entirely outside the data ([ts 9000+]) must be answered from
  // MANIFEST metadata alone.
  int visited = 0;
  DBImpl::ReadView view(db_.get(), ReadOptions());
  ASSERT_TRUE(db_->EmbeddedScanBuckets(
                    view, "CreationTime", "000000009000",
                    "000000009999",
                    [](const Slice&, SequenceNumber, const Slice&) {},
                    [&](const std::vector<DBImpl::BlockCandidate>& cands) {
                      visited += static_cast<int>(cands.size());
                    },
                    [](SequenceNumber) { return true; })
                  .ok());
  EXPECT_EQ(0, visited);
  EXPECT_EQ(reads_before, stats_.Get(kBlockRead));
  EXPECT_GT(stats_.Get(kZoneMapFilePruned), pruned_before);
}

}  // namespace
}  // namespace leveldbpp
