// Differential correctness: every index variant must produce exactly the
// same LOOKUP / RANGELOOKUP answers (keys AND recency order) as an
// in-memory reference model, under randomized workloads of inserts,
// updates (key overwrites that move records between secondary keys),
// deletes, full compactions and reopen-after-close.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/secondary_db.h"
#include "env/env.h"
#include "json/json.h"
#include "util/random.h"

namespace leveldbpp {
namespace {

std::string MakeDoc(const std::string& user, uint64_t ctime,
                    const std::string& body) {
  json::Object obj;
  obj["UserID"] = json::Value(user);
  char ts[32];
  std::snprintf(ts, sizeof(ts), "%012llu",
                static_cast<unsigned long long>(ctime));
  obj["CreationTime"] = json::Value(std::string(ts));
  obj["Body"] = json::Value(body);
  return json::Value(std::move(obj)).ToString();
}

// Reference model: newest state of each key + a global write counter that
// mirrors the engine's sequence numbers.
class Model {
 public:
  void Put(const std::string& key, const std::string& user, uint64_t ctime) {
    counter_++;
    records_[key] = {user, ctime, counter_};
  }

  void Delete(const std::string& key) {
    counter_++;
    records_.erase(key);
  }

  struct Rec {
    std::string user;
    uint64_t ctime;
    uint64_t written_at;
  };

  std::vector<std::string> Lookup(const std::string& user, size_t k) const {
    std::vector<std::pair<uint64_t, std::string>> matches;
    for (const auto& [key, rec] : records_) {
      if (rec.user == user) matches.emplace_back(rec.written_at, key);
    }
    return TopK(std::move(matches), k);
  }

  std::vector<std::string> RangeLookup(uint64_t lo, uint64_t hi,
                                       size_t k) const {
    std::vector<std::pair<uint64_t, std::string>> matches;
    for (const auto& [key, rec] : records_) {
      if (rec.ctime >= lo && rec.ctime <= hi) {
        matches.emplace_back(rec.written_at, key);
      }
    }
    return TopK(std::move(matches), k);
  }

  const std::map<std::string, Rec>& records() const { return records_; }

 private:
  static std::vector<std::string> TopK(
      std::vector<std::pair<uint64_t, std::string>> matches, size_t k) {
    std::sort(matches.begin(), matches.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    if (k != 0 && matches.size() > k) matches.resize(k);
    std::vector<std::string> keys;
    keys.reserve(matches.size());
    for (auto& [seq, key] : matches) keys.push_back(std::move(key));
    return keys;
  }

  std::map<std::string, Rec> records_;
  uint64_t counter_ = 0;
};

class IndexEquivalenceTest : public testing::TestWithParam<IndexType> {
 protected:
  IndexEquivalenceTest() : env_(NewMemEnv()), path_("/eqdb") { Open(); }

  void Open() {
    SecondaryDBOptions options;
    options.base.env = env_.get();
    options.base.write_buffer_size = 64 << 10;
    options.base.max_file_size = 32 << 10;
    options.base.max_bytes_for_level_base = 128 << 10;
    options.index_type = GetParam();
    options.indexed_attributes = {"UserID", "CreationTime"};
    Status s = SecondaryDB::Open(options, path_, &db_);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  void Reopen() {
    db_.reset();
    Open();
  }

  std::vector<std::string> Lookup(const std::string& user, size_t k) {
    std::vector<QueryResult> results;
    Status s = db_->Lookup("UserID", user, k, &results);
    EXPECT_TRUE(s.ok()) << s.ToString();
    std::vector<std::string> keys;
    for (const auto& r : results) keys.push_back(r.primary_key);
    return keys;
  }

  std::vector<std::string> RangeLookup(uint64_t lo, uint64_t hi, size_t k) {
    char lo_s[32], hi_s[32];
    std::snprintf(lo_s, sizeof(lo_s), "%012llu",
                  static_cast<unsigned long long>(lo));
    std::snprintf(hi_s, sizeof(hi_s), "%012llu",
                  static_cast<unsigned long long>(hi));
    std::vector<QueryResult> results;
    Status s = db_->RangeLookup("CreationTime", lo_s, hi_s, k, &results);
    EXPECT_TRUE(s.ok()) << s.ToString();
    std::vector<std::string> keys;
    for (const auto& r : results) keys.push_back(r.primary_key);
    return keys;
  }

  void CheckAllUsers(const Model& model, size_t num_users,
                     const std::vector<size_t>& ks) {
    for (size_t u = 0; u < num_users; u++) {
      std::string user = "user" + std::to_string(u);
      for (size_t k : ks) {
        EXPECT_EQ(model.Lookup(user, k), Lookup(user, k))
            << "user=" << user << " k=" << k
            << " type=" << IndexTypeName(GetParam());
      }
      CheckEnumeratePostings(user, model.Lookup(user, 0));
    }
  }

  // The posting-list variants' EnumeratePostings (LOOKUP's enumeration
  // half, before validation) yields each primary key at most once, and
  // every live match among them; stale postings may add more.
  void CheckEnumeratePostings(const std::string& user,
                              const std::vector<std::string>& live) {
    const IndexType type = GetParam();
    if (type != IndexType::kLazy && type != IndexType::kEager &&
        type != IndexType::kComposite) {
      return;
    }
    std::vector<PostingCandidate> postings;
    Status s = db_->index("UserID")->EnumeratePostings(user, &postings);
    ASSERT_TRUE(s.ok()) << s.ToString();
    std::set<std::string> keys;
    for (const PostingCandidate& p : postings) {
      EXPECT_TRUE(keys.insert(p.primary_key).second)
          << "user=" << user << " key=" << p.primary_key
          << " enumerated twice, type=" << IndexTypeName(type);
    }
    for (const std::string& key : live) {
      EXPECT_EQ(1u, keys.count(key))
          << "user=" << user << " live key=" << key
          << " not enumerated, type=" << IndexTypeName(type);
    }
  }

  std::unique_ptr<Env> env_;
  std::string path_;
  std::unique_ptr<SecondaryDB> db_;
};

TEST_P(IndexEquivalenceTest, BasicLookup) {
  Model model;
  db_->Put("t1", MakeDoc("u1", 100, "hello"));
  model.Put("t1", "u1", 100);
  db_->Put("t2", MakeDoc("u1", 101, "world"));
  model.Put("t2", "u1", 101);
  db_->Put("t3", MakeDoc("u2", 102, "x"));
  model.Put("t3", "u2", 102);

  EXPECT_EQ(model.Lookup("u1", 0), Lookup("u1", 0));
  EXPECT_EQ(model.Lookup("u1", 1), Lookup("u1", 1));
  EXPECT_EQ(model.Lookup("u2", 0), Lookup("u2", 0));
  EXPECT_EQ(model.Lookup("nobody", 0), Lookup("nobody", 0));
}

TEST_P(IndexEquivalenceTest, UpdateMovesRecordBetweenSecondaryKeys) {
  Model model;
  db_->Put("t1", MakeDoc("u1", 100, "a"));
  model.Put("t1", "u1", 100);
  db_->Put("t2", MakeDoc("u2", 101, "b"));
  model.Put("t2", "u2", 101);
  // Update t1: now belongs to u2 (the paper's Example 3).
  db_->Put("t1", MakeDoc("u2", 102, "c"));
  model.Put("t1", "u2", 102);

  EXPECT_EQ(model.Lookup("u1", 0), Lookup("u1", 0));  // Empty: stale filtered
  EXPECT_EQ(model.Lookup("u2", 0), Lookup("u2", 0));  // t1 newest, then t2
}

TEST_P(IndexEquivalenceTest, DeleteHidesRecord) {
  Model model;
  db_->Put("t1", MakeDoc("u1", 100, "a"));
  model.Put("t1", "u1", 100);
  db_->Put("t2", MakeDoc("u1", 101, "b"));
  model.Put("t2", "u1", 101);
  db_->Delete("t1");
  model.Delete("t1");

  EXPECT_EQ(model.Lookup("u1", 0), Lookup("u1", 0));

  db_->CompactAll();
  EXPECT_EQ(model.Lookup("u1", 0), Lookup("u1", 0));
}

TEST_P(IndexEquivalenceTest, RangeLookupBasic) {
  Model model;
  for (int i = 0; i < 50; i++) {
    std::string key = "t" + std::to_string(i);
    std::string user = "user" + std::to_string(i % 5);
    db_->Put(key, MakeDoc(user, 1000 + i, "body"));
    model.Put(key, user, 1000 + i);
  }
  EXPECT_EQ(model.RangeLookup(1010, 1020, 0), RangeLookup(1010, 1020, 0));
  EXPECT_EQ(model.RangeLookup(1010, 1020, 5), RangeLookup(1010, 1020, 5));
  EXPECT_EQ(model.RangeLookup(0, 9999999, 10), RangeLookup(0, 9999999, 10));
  EXPECT_EQ(model.RangeLookup(2000, 3000, 0), RangeLookup(2000, 3000, 0));
}

TEST_P(IndexEquivalenceTest, RandomizedWorkload) {
  Model model;
  Random64 rnd(0xC0FFEE ^ static_cast<uint64_t>(GetParam()));
  const size_t kUsers = 20;
  const std::vector<size_t> ks = {0, 1, 3, 10};

  for (int step = 0; step < 4000; step++) {
    int op = static_cast<int>(rnd.Uniform(100));
    std::string key = "t" + std::to_string(rnd.Uniform(600));
    if (op < 70) {
      std::string user = "user" + std::to_string(rnd.Uniform(kUsers));
      uint64_t ctime = 1000 + step;
      db_->Put(key, MakeDoc(user, ctime, std::string(rnd.Uniform(80), 'b')));
      model.Put(key, user, ctime);
    } else if (op < 80) {
      db_->Delete(key);
      model.Delete(key);
    } else if (op < 90) {
      std::string user = "user" + std::to_string(rnd.Uniform(kUsers));
      size_t k = ks[rnd.Uniform(ks.size())];
      ASSERT_EQ(model.Lookup(user, k), Lookup(user, k))
          << "step " << step << " type " << IndexTypeName(GetParam());
    } else {
      uint64_t lo = 1000 + rnd.Uniform(4100);
      uint64_t hi = lo + rnd.Uniform(500);
      size_t k = ks[rnd.Uniform(ks.size())];
      ASSERT_EQ(model.RangeLookup(lo, hi, k), RangeLookup(lo, hi, k))
          << "step " << step << " type " << IndexTypeName(GetParam());
    }
  }

  CheckAllUsers(model, kUsers, ks);
}

TEST_P(IndexEquivalenceTest, SurvivesCompactionAndReopen) {
  Model model;
  Random64 rnd(0xFEED ^ static_cast<uint64_t>(GetParam()));
  const size_t kUsers = 10;

  for (int round = 0; round < 3; round++) {
    for (int i = 0; i < 600; i++) {
      std::string key = "t" + std::to_string(rnd.Uniform(400));
      std::string user = "user" + std::to_string(rnd.Uniform(kUsers));
      uint64_t ctime = 1000 + round * 1000 + i;
      db_->Put(key, MakeDoc(user, ctime, std::string(60, 'z')));
      model.Put(key, user, ctime);
      if (rnd.Uniform(10) == 0) {
        std::string victim = "t" + std::to_string(rnd.Uniform(400));
        db_->Delete(victim);
        model.Delete(victim);
      }
    }
    if (round == 0) {
      ASSERT_TRUE(db_->CompactAll().ok());
    } else if (round == 1) {
      Reopen();
    }
    CheckAllUsers(model, kUsers, {0, 1, 5});
    EXPECT_EQ(model.RangeLookup(1000, 3800, 10), RangeLookup(1000, 3800, 10));
  }
}

TEST_P(IndexEquivalenceTest, GetUnaffectedByIndexing) {
  db_->Put("k1", MakeDoc("u1", 5, "v"));
  std::string value;
  ASSERT_TRUE(db_->Get("k1", &value).ok());
  json::Value doc;
  ASSERT_TRUE(json::Parse(Slice(value), &doc));
  EXPECT_EQ("u1", doc["UserID"].as_string());
  ASSERT_TRUE(db_->Delete("k1").ok());
  EXPECT_TRUE(db_->Get("k1", &value).IsNotFound());
}

INSTANTIATE_TEST_SUITE_P(
    AllIndexTypes, IndexEquivalenceTest,
    testing::Values(IndexType::kNoIndex, IndexType::kEmbedded,
                    IndexType::kLazy, IndexType::kEager,
                    IndexType::kComposite),
    [](const testing::TestParamInfo<IndexType>& info) {
      return IndexTypeName(info.param);
    });

}  // namespace
}  // namespace leveldbpp
