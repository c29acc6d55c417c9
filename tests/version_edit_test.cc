#include "db/version_edit.h"

#include <gtest/gtest.h>

#include "util/coding.h"

namespace leveldbpp {

static void TestEncodeDecode(const VersionEdit& edit) {
  std::string encoded, encoded2;
  edit.EncodeTo(&encoded);
  VersionEdit parsed;
  Status s = parsed.DecodeFrom(encoded);
  ASSERT_TRUE(s.ok()) << s.ToString();
  parsed.EncodeTo(&encoded2);
  ASSERT_EQ(encoded, encoded2);
}

TEST(VersionEditTest, EncodeDecode) {
  static const uint64_t kBig = 1ull << 50;

  VersionEdit edit;
  for (int i = 0; i < 4; i++) {
    TestEncodeDecode(edit);
    FileMetaData meta;
    meta.number = kBig + 300 + i;
    meta.file_size = kBig + 400 + i;
    meta.smallest = InternalKey("foo", kBig + 500 + i, kTypeValue);
    meta.largest = InternalKey("zoo", kBig + 600 + i, kTypeDeletion);
    edit.AddFile(3, meta);
    edit.RemoveFile(4, kBig + 700 + i);
    edit.SetCompactPointer(i, InternalKey("x", kBig + 900 + i, kTypeValue));
  }

  edit.SetComparatorName("foo");
  edit.SetLogNumber(kBig + 100);
  edit.SetNextFile(kBig + 200);
  edit.SetLastSequence(kBig + 1000);
  TestEncodeDecode(edit);
}

TEST(VersionEditTest, EncodeDecodeZoneRanges) {
  // The LevelDB++ extension: per-file secondary zone maps travel through
  // the MANIFEST.
  VersionEdit edit;
  FileMetaData meta;
  meta.number = 7;
  meta.file_size = 1234;
  meta.smallest = InternalKey("a", 1, kTypeValue);
  meta.largest = InternalKey("z", 2, kTypeValue);
  ZoneRange user_range;
  user_range.Extend("alice");
  user_range.Extend("zed");
  ZoneRange absent;  // Attribute missing from the whole file
  meta.zone_ranges = {user_range, absent};
  edit.AddFile(1, meta);
  TestEncodeDecode(edit);

  std::string encoded;
  edit.EncodeTo(&encoded);
  VersionEdit parsed;
  ASSERT_TRUE(parsed.DecodeFrom(encoded).ok());
  std::string round2;
  parsed.EncodeTo(&round2);
  ASSERT_EQ(encoded, round2);
}

TEST(VersionEditTest, DecodeRejectsGarbage) {
  VersionEdit edit;
  EXPECT_FALSE(edit.DecodeFrom(Slice("\x99\x88garbage")).ok());
  // Truncated new-file record.
  VersionEdit good;
  FileMetaData meta;
  meta.number = 1;
  meta.file_size = 2;
  meta.smallest = InternalKey("a", 1, kTypeValue);
  meta.largest = InternalKey("b", 2, kTypeValue);
  good.AddFile(0, meta);
  std::string encoded;
  good.EncodeTo(&encoded);
  EXPECT_FALSE(
      edit.DecodeFrom(Slice(encoded.data(), encoded.size() - 3)).ok());
}

TEST(VersionEditTest, DecodeIgnoresRetiredSortedViewTag) {
  // Older versions recorded their sorted-view artifact under tag 8. Such a
  // record still decodes, and every other field keeps its value.
  VersionEdit edit;
  edit.SetLogNumber(11);
  edit.SetNextFile(22);
  FileMetaData meta;
  meta.number = 5;
  meta.file_size = 66;
  meta.smallest = InternalKey("a", 1, kTypeValue);
  meta.largest = InternalKey("m", 2, kTypeValue);
  edit.AddFile(2, meta);
  std::string head;
  edit.EncodeTo(&head);

  VersionEdit tail_edit;
  tail_edit.SetLastSequence(33);
  std::string tail;
  tail_edit.EncodeTo(&tail);

  std::string record = head;
  PutVarint32(&record, 8);
  PutVarint64(&record, 123);
  record += tail;

  VersionEdit parsed;
  Status s = parsed.DecodeFrom(record);
  ASSERT_TRUE(s.ok()) << s.ToString();
  VersionEdit want = edit;
  want.SetLastSequence(33);
  std::string want_encoded, got_encoded;
  want.EncodeTo(&want_encoded);
  parsed.EncodeTo(&got_encoded);
  EXPECT_EQ(want_encoded, got_encoded);

  // The tag's varint is still required.
  std::string truncated = head;
  PutVarint32(&truncated, 8);
  EXPECT_FALSE(parsed.DecodeFrom(truncated).ok());
}

TEST(VersionEditTest, DecodeRejectsLevelPastLevelCount) {
  // A level at or past kNumLevels would index past the per-level arrays
  // VersionSet sizes to kNumLevels, so each level-carrying record must
  // decode to Corruption; the deepest real level still decodes.
  FileMetaData meta;
  meta.number = 9;
  meta.file_size = 10;
  meta.smallest = InternalKey("a", 1, kTypeValue);
  meta.largest = InternalKey("b", 2, kTypeValue);
  for (int level : {kNumLevels - 1, kNumLevels}) {
    VersionEdit add, remove, pointer;
    add.AddFile(level, meta);
    remove.RemoveFile(level, 9);
    pointer.SetCompactPointer(level, InternalKey("x", 3, kTypeValue));
    for (const VersionEdit* edit : {&add, &remove, &pointer}) {
      std::string encoded;
      edit->EncodeTo(&encoded);
      VersionEdit parsed;
      Status s = parsed.DecodeFrom(encoded);
      if (level < kNumLevels) {
        EXPECT_TRUE(s.ok()) << s.ToString();
      } else {
        EXPECT_TRUE(s.IsCorruption()) << s.ToString();
      }
    }
  }
}

}  // namespace leveldbpp
