#include "db/write_batch.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/posting_list.h"
#include "db/db_impl.h"
#include "db/dbformat.h"
#include "db/memtable.h"
#include "env/env.h"

namespace leveldbpp {

static std::string PrintContents(WriteBatch* b) {
  InternalKeyComparator cmp(BytewiseComparator());
  MemTable* mem = new MemTable(cmp);
  mem->Ref();
  std::string state;
  Status s = WriteBatchInternal::InsertInto(b, mem);
  int count = 0;
  Iterator* iter = mem->NewIterator();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    ParsedInternalKey ikey;
    EXPECT_TRUE(ParseInternalKey(iter->key(), &ikey));
    switch (ikey.type) {
      case kTypeValue:
        state.append("Put(");
        state.append(ikey.user_key.ToString());
        state.append(", ");
        state.append(iter->value().ToString());
        state.append(")");
        count++;
        break;
      case kTypeDeletion:
        state.append("Delete(");
        state.append(ikey.user_key.ToString());
        state.append(")");
        count++;
        break;
    }
    state.append("@");
    state.append(std::to_string(ikey.sequence));
  }
  delete iter;
  if (!s.ok()) {
    state.append("ParseError()");
  } else if (count != WriteBatchInternal::Count(b)) {
    state.append("CountMismatch()");
  }
  mem->Unref();
  return state;
}

TEST(WriteBatchTest, Empty) {
  WriteBatch batch;
  ASSERT_EQ("", PrintContents(&batch));
  ASSERT_EQ(0, WriteBatchInternal::Count(&batch));
}

TEST(WriteBatchTest, Multiple) {
  WriteBatch batch;
  batch.Put(Slice("foo"), Slice("bar"));
  batch.Delete(Slice("box"));
  batch.Put(Slice("baz"), Slice("boo"));
  WriteBatchInternal::SetSequence(&batch, 100);
  ASSERT_EQ(100u, WriteBatchInternal::Sequence(&batch));
  ASSERT_EQ(3, WriteBatchInternal::Count(&batch));
  ASSERT_EQ(
      "Put(baz, boo)@102"
      "Delete(box)@101"
      "Put(foo, bar)@100",
      PrintContents(&batch));
}

TEST(WriteBatchTest, Corruption) {
  WriteBatch batch;
  batch.Put(Slice("foo"), Slice("bar"));
  batch.Delete(Slice("box"));
  WriteBatchInternal::SetSequence(&batch, 200);
  Slice contents = WriteBatchInternal::Contents(&batch);
  WriteBatch batch2;
  WriteBatchInternal::SetContents(&batch2,
                                  Slice(contents.data(), contents.size() - 1));
  ASSERT_EQ(
      "Put(foo, bar)@200"
      "ParseError()",
      PrintContents(&batch2));
}

TEST(WriteBatchTest, Append) {
  WriteBatch b1, b2;
  WriteBatchInternal::SetSequence(&b1, 200);
  WriteBatchInternal::SetSequence(&b2, 300);
  WriteBatchInternal::Append(&b1, &b2);
  ASSERT_EQ("", PrintContents(&b1));
  b2.Put("a", "va");
  WriteBatchInternal::Append(&b1, &b2);
  ASSERT_EQ("Put(a, va)@200", PrintContents(&b1));
  b2.Clear();
  b2.Put("b", "vb");
  WriteBatchInternal::Append(&b1, &b2);
  ASSERT_EQ(
      "Put(a, va)@200"
      "Put(b, vb)@201",
      PrintContents(&b1));
  b2.Delete("foo");
  WriteBatchInternal::Append(&b1, &b2);
  // Versions of one user key surface newest-first (internal key order).
  ASSERT_EQ(
      "Put(a, va)@200"
      "Put(b, vb)@202"
      "Put(b, vb)@201"
      "Delete(foo)@203",
      PrintContents(&b1));
}

TEST(WriteBatchTest, ApproximateSize) {
  WriteBatch batch;
  size_t empty_size = batch.ApproximateSize();

  batch.Put(Slice("foo"), Slice("bar"));
  size_t one_key_size = batch.ApproximateSize();
  ASSERT_LT(empty_size, one_key_size);

  batch.Put(Slice("baz"), Slice("boo"));
  size_t two_keys_size = batch.ApproximateSize();
  ASSERT_LT(one_key_size, two_keys_size);

  batch.Delete(Slice("box"));
  size_t post_delete_size = batch.ApproximateSize();
  ASSERT_LT(two_keys_size, post_delete_size);
}

TEST(WriteBatchTest, MergerCombinesMemtableFragments) {
  // A Lazy-index memtable keeps one version per Put: the insert never
  // merges. GetFragments hands a memtable's versions over together, and a
  // flush writes them as one merged fragment.
  std::unique_ptr<Env> env(NewMemEnv());
  Options options;
  options.env = env.get();
  options.value_merger = PostingListMerger::Instance();
  DBImpl* raw = nullptr;
  ASSERT_TRUE(DBImpl::Open(options, "/mergedb", &raw).ok());
  std::unique_ptr<DBImpl> db(raw);

  std::string frag1, frag2;
  PostingList::Serialize({{"t1", 1, false}}, &frag1);
  PostingList::Serialize({{"t2", 2, false}}, &frag2);
  ASSERT_TRUE(db->Put(WriteOptions(), "u1", frag1).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "u1", frag2).ok());

  struct Fragment {
    int rank;
    SequenceNumber seq;
    std::vector<std::string> versions;
  };
  auto fragments = [&]() {
    std::vector<Fragment> out;
    EXPECT_TRUE(db->GetFragments(ReadOptions(), "u1",
                                 [&](int rank, SequenceNumber seq, bool,
                                     const std::vector<Slice>& versions) {
                                   out.push_back({rank, seq, {}});
                                   for (const Slice& v : versions) {
                                     out.back().versions.push_back(
                                         v.ToString());
                                   }
                                   return true;
                                 })
                    .ok());
    return out;
  };

  // The memtable: two versions, newest first, as written.
  std::vector<Fragment> frags = fragments();
  ASSERT_EQ(1u, frags.size());
  EXPECT_EQ(0, frags[0].rank);
  EXPECT_EQ(2u, frags[0].seq);
  EXPECT_EQ((std::vector<std::string>{frag2, frag1}), frags[0].versions);

  // After a flush: one L0 table holding one merged fragment.
  ASSERT_TRUE(db->Write(WriteOptions(), nullptr).ok());
  frags = fragments();
  ASSERT_EQ(1u, frags.size());
  EXPECT_GT(frags[0].rank, 0);
  EXPECT_EQ(2u, frags[0].seq);  // The newest version's sequence
  ASSERT_EQ(1u, frags[0].versions.size());
  std::vector<PostingEntry> merged;
  ASSERT_TRUE(PostingList::Parse(Slice(frags[0].versions[0]), &merged));
  ASSERT_EQ(2u, merged.size());
  EXPECT_EQ("t2", merged[0].primary_key);  // Newest first
  EXPECT_EQ("t1", merged[1].primary_key);
}

}  // namespace leveldbpp
