#include "core/topk.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace leveldbpp {

static QueryResult QR(const std::string& key, SequenceNumber seq) {
  QueryResult r;
  r.primary_key = key;
  r.seq = seq;
  return r;
}

TEST(TopK, UnlimitedCollectsEverything) {
  TopKCollector heap(0);
  for (int i = 0; i < 100; i++) {
    EXPECT_TRUE(heap.WouldAdmit(i));
    heap.Add(QR("k" + std::to_string(i), i));
  }
  EXPECT_FALSE(heap.Full());
  auto results = heap.TakeSortedNewestFirst();
  ASSERT_EQ(100u, results.size());
  for (size_t i = 1; i < results.size(); i++) {
    EXPECT_GT(results[i - 1].seq, results[i].seq);
  }
}

TEST(TopK, KeepsKNewest) {
  TopKCollector heap(3);
  Random64 rnd(1);
  std::vector<SequenceNumber> seqs;
  for (int i = 0; i < 200; i++) {
    SequenceNumber s = rnd.Uniform(100000);
    seqs.push_back(s);
    heap.Add(QR("k", s));
  }
  std::sort(seqs.rbegin(), seqs.rend());
  auto results = heap.TakeSortedNewestFirst();
  ASSERT_EQ(3u, results.size());
  EXPECT_EQ(seqs[0], results[0].seq);
  EXPECT_EQ(seqs[1], results[1].seq);
  EXPECT_EQ(seqs[2], results[2].seq);
}

TEST(TopK, AdmissionCheck) {
  TopKCollector heap(2);
  heap.Add(QR("a", 100));
  heap.Add(QR("b", 200));
  EXPECT_TRUE(heap.Full());
  // Older than the heap's root: rejected without mutation.
  EXPECT_FALSE(heap.WouldAdmit(50));
  EXPECT_FALSE(heap.Add(QR("c", 50)));
  // Equal to the oldest retained: also rejected (strictly newer required).
  EXPECT_FALSE(heap.WouldAdmit(100));
  // Newer: displaces the oldest.
  EXPECT_TRUE(heap.WouldAdmit(150));
  EXPECT_TRUE(heap.Add(QR("d", 150)));
  auto results = heap.TakeSortedNewestFirst();
  ASSERT_EQ(2u, results.size());
  EXPECT_EQ("b", results[0].primary_key);
  EXPECT_EQ("d", results[1].primary_key);
}

TEST(TopK, NotFullUntilK) {
  TopKCollector heap(5);
  for (int i = 0; i < 4; i++) {
    EXPECT_FALSE(heap.Full());
    heap.Add(QR("k", i));
  }
  EXPECT_FALSE(heap.Full());
  heap.Add(QR("k", 4));
  EXPECT_TRUE(heap.Full());
}

// Equal seqs — shards without a shared sequence counter produce them —
// come out ordered by primary key, whatever order they were added in.
TEST(TopK, TiedSeqsOrderedByKeyUnlimited) {
  TopKCollector heap(0);
  for (const char* key : {"d", "b", "e", "a", "c"}) heap.Add(QR(key, 7));
  heap.Add(QR("z", 9));
  heap.Add(QR("y", 3));
  std::string order;
  for (const QueryResult& r : heap.TakeSortedNewestFirst()) {
    order += r.primary_key;
  }
  EXPECT_EQ("zabcdey", order);
}

TEST(TopK, TiedSeqsOrderedByKeyLimited) {
  TopKCollector heap(4);
  for (const char* key : {"d", "b", "a", "c"}) heap.Add(QR(key, 7));
  // Equal to the root: rejected, as any candidate not strictly newer is.
  EXPECT_FALSE(heap.Add(QR("0", 7)));
  EXPECT_TRUE(heap.Add(QR("x", 8)));
  std::string order;
  for (const QueryResult& r : heap.TakeSortedNewestFirst()) {
    EXPECT_TRUE(r.seq == 8 || r.seq == 7);
    order += r.primary_key;
  }
  // One of the four seq-7 records made room for "x"; the rest keep key
  // order.
  ASSERT_EQ(4u, order.size());
  EXPECT_EQ('x', order[0]);
  EXPECT_TRUE(std::is_sorted(order.begin() + 1, order.end())) << order;
}

// A record displacing the root takes over the root's slot: every result
// keeps its own key and value, and the K newest come out in order.
TEST(TopK, RecordsStayWithTheirSeqs) {
  for (size_t k : {size_t{0}, size_t{1}, size_t{5}, size_t{64}}) {
    TopKCollector heap(k);
    Random64 rnd(k + 1);
    std::vector<SequenceNumber> seqs;
    for (int i = 0; i < 500; i++) {
      const SequenceNumber seq = rnd.Next() >> 20;  // Distinct in practice
      seqs.push_back(seq);
      QueryResult r = QR("k" + std::to_string(seq), seq);
      r.value = "v" + std::to_string(seq);
      heap.Add(std::move(r));
    }
    std::sort(seqs.rbegin(), seqs.rend());
    if (k != 0) seqs.resize(k);
    const std::vector<QueryResult> results = heap.TakeSortedNewestFirst();
    ASSERT_EQ(seqs.size(), results.size()) << k;
    for (size_t i = 0; i < results.size(); i++) {
      EXPECT_EQ(seqs[i], results[i].seq) << k;
      EXPECT_EQ("k" + std::to_string(seqs[i]), results[i].primary_key) << k;
      EXPECT_EQ("v" + std::to_string(seqs[i]), results[i].value) << k;
    }
  }
}

}  // namespace leveldbpp
