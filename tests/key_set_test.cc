#include "util/key_set.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "util/coding.h"
#include "util/hash.h"
#include "util/random.h"

namespace leveldbpp {

namespace {

// Sends every key to one slot, so each insert and lookup walks the whole
// probe chain and equality alone tells keys apart.
struct CollidingHash {
  uint64_t operator()(const Slice&) const { return 42; }
};

std::string RandomKey(Random64* rnd) {
  std::string key(rnd->Uniform(24), '\0');
  for (char& c : key) c = static_cast<char>(rnd->Uniform(256));
  return key;
}

// Inserts a random stream of keys (with repeats) into `set`, checking each
// answer against std::set, then checks Contains for every key seen and for
// keys never inserted.
template <typename Set>
void CheckAgainstStdSet(Set* set, int inserts, uint64_t seed) {
  Random64 rnd(seed);
  std::set<std::string> model;
  std::vector<std::string> keys;
  for (int i = 0; i < inserts; i++) {
    std::string key = keys.empty() || rnd.Uniform(4) != 0
                          ? RandomKey(&rnd)
                          : keys[rnd.Uniform(keys.size())];
    const bool added = model.insert(key).second;
    ASSERT_EQ(added, set->Insert(Slice(key))) << i;
    if (added) keys.push_back(key);
  }
  ASSERT_EQ(model.size(), set->size());
  for (const std::string& key : keys) ASSERT_TRUE(set->Contains(Slice(key)));
  for (int i = 0; i < 1000; i++) {
    const std::string key = RandomKey(&rnd) + "#absent";
    ASSERT_FALSE(set->Contains(Slice(key)));
  }
}

}  // namespace

TEST(KeySet, GrowsAcrossManyRehashes) {
  // 16 slots at first, doubling at half load: 200,000 inserts cross about
  // fourteen rehashes, each of which must keep every key findable.
  KeySet set;
  CheckAgainstStdSet(&set, 200000, 7);
}

TEST(KeySet, MatchesStdSetUnderEveryKeyColliding) {
  BasicKeySet<CollidingHash> set;
  CheckAgainstStdSet(&set, 3000, 11);
}

TEST(KeySet, EmptyKey) {
  KeySet set;
  EXPECT_FALSE(set.Contains(Slice()));
  EXPECT_TRUE(set.Insert(Slice()));
  EXPECT_FALSE(set.Insert(Slice("")));
  EXPECT_TRUE(set.Contains(Slice()));
  EXPECT_FALSE(set.Contains(Slice("\0", 1)));
  EXPECT_TRUE(set.Insert(Slice("\0", 1)));
  EXPECT_EQ(2u, set.size());
}

TEST(KeySet, KeysWithEmbeddedNuls) {
  const std::string keys[] = {std::string("a\0b", 3), std::string("a\0c", 3),
                              std::string("a\0", 2), std::string("a", 1),
                              std::string("\0\0\0", 3)};
  BasicKeySet<CollidingHash> colliding;
  KeySet seeded;
  for (const std::string& key : keys) {
    EXPECT_TRUE(colliding.Insert(Slice(key)));
    EXPECT_TRUE(seeded.Insert(Slice(key)));
  }
  for (const std::string& key : keys) {
    EXPECT_FALSE(colliding.Insert(Slice(key)));
    EXPECT_FALSE(seeded.Insert(Slice(key)));
  }
  EXPECT_EQ(5u, colliding.size());
  EXPECT_EQ(5u, seeded.size());
}

// SipHash-1-3 under the key 00 01 .. 0f, of the messages 00 01 .. (n-1):
// the reference vectors for n = 0 and n = 15 (one full word and a tail).
TEST(KeySet, SipHash13MatchesReferenceVectors) {
  char bytes[16];
  for (int i = 0; i < 16; i++) bytes[i] = static_cast<char>(i);
  const uint64_t k0 = DecodeFixed64(bytes), k1 = DecodeFixed64(bytes + 8);
  EXPECT_EQ(0xabac0158050fc4dcULL, SipHash13(k0, k1, bytes, 0));
  EXPECT_EQ(0xd320d86d2a519956ULL, SipHash13(k0, k1, bytes, 15));
}

TEST(KeySet, PairEncodingIsUnambiguous) {
  std::string ab_c, a_bc, empty_abc, abc_empty;
  EncodeKeyPair(Slice("ab"), Slice("c"), &ab_c);
  EncodeKeyPair(Slice("a"), Slice("bc"), &a_bc);
  EncodeKeyPair(Slice(""), Slice("abc"), &empty_abc);
  EncodeKeyPair(Slice("abc"), Slice(""), &abc_empty);
  KeySet set;
  EXPECT_TRUE(set.Insert(Slice(ab_c)));
  EXPECT_TRUE(set.Insert(Slice(a_bc)));
  EXPECT_TRUE(set.Insert(Slice(empty_abc)));
  EXPECT_TRUE(set.Insert(Slice(abc_empty)));
  EXPECT_EQ(4u, set.size());

  // Pairs of random strings: equal encodings only for equal pairs.
  Random64 rnd(5);
  std::set<std::pair<std::string, std::string>> pairs;
  KeySet encoded;
  std::string enc;
  for (int i = 0; i < 20000; i++) {
    std::string first(rnd.Uniform(4), 'x'), second(rnd.Uniform(4), 'x');
    for (char& c : first) c = "x\0\1"[rnd.Uniform(3)];
    for (char& c : second) c = "x\0\1"[rnd.Uniform(3)];
    EncodeKeyPair(Slice(first), Slice(second), &enc);
    ASSERT_EQ(pairs.emplace(first, second).second, encoded.Insert(Slice(enc)));
  }
}

}  // namespace leveldbpp
