// Differential iterator-model harness (randomized, in the style of
// randomized_crash_test): drive the public iterator stack against a
// std::map golden model through random interleavings of
// Next/Prev/Seek/SeekToFirst/SeekToLast with concurrent Put/Delete/
// flush/compaction, snapshots taken mid-mutation, and iterators created
// before mutations (implicit creation-time pinning).
//
// Every seed runs under TWO configurations — read_parallelism 0 and 4 — in
// lockstep against the model, and the two per-seed transcripts must be
// byte-identical: the parallel read path is a pure optimization. 140 seeds
// x 2 configs = 280 randomized rounds. The repro seed is printed at start
// and attached to every assertion; override with the ITER_MODEL_SEED env
// var.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>

#include "db/db_impl.h"
#include "env/env.h"
#include "util/random.h"

namespace leveldbpp {
namespace {

struct Config {
  int read_parallelism;
  const char* name;
};

constexpr Config kConfigs[] = {
    {0, "serial"},
    {4, "parallel"},
};

constexpr int kSeeds = 140;  // x 2 configs = 280 rounds
constexpr int kKeySpace = 200;
constexpr int kOpsPerRound = 180;
constexpr int kProgramLength = 20;

// Golden model: a bidirectional iterator over an immutable std::map
// snapshot, with exactly the DB iterator's contract (Next/Prev require
// Valid; Prev before the first entry invalidates).
class ModelIter {
 public:
  explicit ModelIter(const std::map<std::string, std::string>* m) : m_(m) {}

  bool Valid() const { return valid_; }
  void SeekToFirst() {
    it_ = m_->begin();
    valid_ = it_ != m_->end();
  }
  void SeekToLast() {
    valid_ = !m_->empty();
    if (valid_) it_ = std::prev(m_->end());
  }
  void Seek(const std::string& target) {
    it_ = m_->lower_bound(target);
    valid_ = it_ != m_->end();
  }
  void Next() {
    ++it_;
    valid_ = it_ != m_->end();
  }
  void Prev() {
    if (it_ == m_->begin()) {
      valid_ = false;
    } else {
      --it_;
    }
  }
  const std::string& key() const { return it_->first; }
  const std::string& value() const { return it_->second; }

 private:
  const std::map<std::string, std::string>* m_;
  std::map<std::string, std::string>::const_iterator it_;
  bool valid_ = false;
};

std::string TestKey(uint32_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%05u", i);
  return buf;
}

class IteratorModelTest : public testing::Test {
 protected:
  uint32_t BaseSeed() {
    const char* override_seed = std::getenv("ITER_MODEL_SEED");
    return override_seed != nullptr
               ? static_cast<uint32_t>(std::atoi(override_seed))
               : 301u;
  }

  // One random mutation applied to DB and model in lockstep.
  void Mutate(DBImpl* db, std::map<std::string, std::string>* model,
              Random* rnd, uint32_t* value_counter) {
    const std::string key = TestKey(rnd->Uniform(kKeySpace));
    if (rnd->Uniform(100) < 70) {
      std::string value = "v" + std::to_string((*value_counter)++) + "_";
      value.append(100 + rnd->Uniform(100),
                   static_cast<char>('a' + rnd->Uniform(26)));
      ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok());
      (*model)[key] = std::move(value);
    } else {
      ASSERT_TRUE(db->Delete(WriteOptions(), key).ok());
      model->erase(key);
    }
  }

  // Run one random program on (db iterator, model iterator) in lockstep,
  // appending each observation to *transcript and checking equality.
  void RunProgram(Iterator* it, const std::map<std::string, std::string>& map,
                  Random* rnd, uint32_t seed, std::string* transcript) {
    ModelIter mit(&map);
    std::string oplog;  // For repro messages: the program executed so far
    for (int op = 0; op < kProgramLength; op++) {
      const bool can_step = it->Valid() && mit.Valid();
      switch (rnd->Uniform(can_step ? 5 : 3)) {
        case 0:
          it->SeekToFirst();
          mit.SeekToFirst();
          oplog += "First ";
          break;
        case 1:
          it->SeekToLast();
          mit.SeekToLast();
          oplog += "Last ";
          break;
        case 2: {
          const std::string target = TestKey(rnd->Uniform(kKeySpace + 4));
          it->Seek(target);
          mit.Seek(target);
          oplog += "Seek(" + target + ") ";
          break;
        }
        case 3:
          it->Next();
          mit.Next();
          oplog += "Next ";
          break;
        case 4:
          it->Prev();
          mit.Prev();
          oplog += "Prev ";
          break;
      }
      ASSERT_TRUE(it->status().ok()) << "seed=" << seed << " op=" << op << ": "
                                     << it->status().ToString();
      ASSERT_EQ(mit.Valid(), it->Valid())
          << "seed=" << seed << " op=" << op << " prog: " << oplog;
      if (mit.Valid()) {
        ASSERT_EQ(mit.key(), it->key().ToString())
            << "seed=" << seed << " op=" << op << " prog: " << oplog;
        ASSERT_EQ(mit.value(), it->value().ToString())
            << "seed=" << seed << " op=" << op << " prog: " << oplog;
        transcript->append(mit.key());
        transcript->push_back('=');
        transcript->append(mit.value());
        transcript->push_back(';');
      } else {
        transcript->append("~;");
      }
    }
  }

  // Full forward + backward sweeps, lockstep-checked and transcribed.
  void FullSweeps(Iterator* it, const std::map<std::string, std::string>& map,
                  uint32_t seed, std::string* transcript) {
    size_t n = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      transcript->append(it->key().ToString());
      transcript->push_back(',');
      n++;
      ASSERT_LE(n, map.size() + 1) << "seed=" << seed << " runaway forward";
    }
    ASSERT_TRUE(it->status().ok()) << "seed=" << seed;
    ASSERT_EQ(map.size(), n) << "seed=" << seed << " forward sweep";
    n = 0;
    for (it->SeekToLast(); it->Valid(); it->Prev()) {
      transcript->append(it->key().ToString());
      transcript->push_back('.');
      n++;
      ASSERT_LE(n, map.size() + 1) << "seed=" << seed << " runaway backward";
    }
    ASSERT_TRUE(it->status().ok()) << "seed=" << seed;
    ASSERT_EQ(map.size(), n) << "seed=" << seed << " backward sweep";
  }

  // One full randomized round: build a store while interleaving iterator
  // programs (plain, snapshot-under-mutation, iterator-under-mutation),
  // returning the round's observation transcript.
  void RunRound(uint32_t seed, const Config& cfg, std::string* transcript) {
    std::unique_ptr<Env> env(NewMemEnv());
    Options options;
    options.env = env.get();
    options.create_if_missing = true;
    // Small thresholds so 200 keys develop multiple levels.
    options.write_buffer_size = 4 << 10;
    options.max_file_size = 2 << 10;
    options.max_bytes_for_level_base = 1 << 10;
    options.read_parallelism = cfg.read_parallelism;
    DBImpl* raw = nullptr;
    ASSERT_TRUE(DBImpl::Open(options, "/iter_model", &raw).ok());
    std::unique_ptr<DBImpl> db(raw);

    Random rnd(seed);
    std::map<std::string, std::string> model;
    uint32_t value_counter = 0;

    for (int i = 0; i < kOpsPerRound; i++) {
      const uint32_t r = rnd.Uniform(100);
      if (r < 62) {
        Mutate(db.get(), &model, &rnd, &value_counter);
      } else if (r < 72) {
        // Forced memtable rotation + flush (internal Write(nullptr) hook).
        ASSERT_TRUE(db->Write(WriteOptions(), nullptr).ok());
      } else if (r < 80) {
        ASSERT_TRUE(db->MaybeCompact().ok());
      } else if (r < 84) {
        ASSERT_TRUE(db->CompactAll().ok());
      } else if (r < 90) {
        // Plain iterator over the current state.
        std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
        RunProgram(it.get(), model, &rnd, seed, transcript);
      } else if (r < 95) {
        // Snapshot taken mid-workload, then mutated over: the snapshot
        // iterator must see exactly the prefix state.
        const Snapshot* snap = db->GetSnapshot();
        const std::map<std::string, std::string> frozen = model;
        const int extra = 3 + rnd.Uniform(10);
        for (int m = 0; m < extra; m++) {
          Mutate(db.get(), &model, &rnd, &value_counter);
        }
        if (rnd.OneIn(2)) {
          ASSERT_TRUE(db->Write(WriteOptions(), nullptr).ok());  // flush
        }
        if (rnd.OneIn(3)) {
          ASSERT_TRUE(db->MaybeCompact().ok());
        }
        ReadOptions ro;
        ro.snapshot = snap;
        std::unique_ptr<Iterator> it(db->NewIterator(ro));
        RunProgram(it.get(), frozen, &rnd, seed, transcript);
        it.reset();
        db->ReleaseSnapshot(snap);
      } else {
        // Iterator created BEFORE mutations: implicit creation-time
        // pinning must hold without an explicit snapshot handle.
        std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
        const std::map<std::string, std::string> frozen = model;
        const int extra = 3 + rnd.Uniform(10);
        for (int m = 0; m < extra; m++) {
          Mutate(db.get(), &model, &rnd, &value_counter);
        }
        if (rnd.OneIn(2)) {
          ASSERT_TRUE(db->Write(WriteOptions(), nullptr).ok());
        }
        RunProgram(it.get(), frozen, &rnd, seed, transcript);
      }
      if (testing::Test::HasFatalFailure()) return;
    }

    // Settle the tree, then sweep the final state both ways.
    ASSERT_TRUE(db->CompactAll().ok());
    std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
    FullSweeps(it.get(), model, seed, transcript);
  }
};

TEST_F(IteratorModelTest, DifferentialModel280Rounds) {
  const uint32_t base = BaseSeed();
  std::printf("iterator-model base seed: %u (ITER_MODEL_SEED overrides)\n",
              base);
  for (int i = 0; i < kSeeds; i++) {
    const uint32_t seed = base + static_cast<uint32_t>(i) * 7919u;
    std::string reference;
    for (const Config& cfg : kConfigs) {
      std::string transcript;
      RunRound(seed, cfg, &transcript);
      ASSERT_FALSE(testing::Test::HasFatalFailure())
          << "seed=" << seed << " config=" << cfg.name;
      if (&cfg == &kConfigs[0]) {
        reference = std::move(transcript);
      } else {
        ASSERT_EQ(reference, transcript)
            << "seed=" << seed << ": transcript of " << cfg.name
            << " differs from " << kConfigs[0].name;
      }
    }
  }
}

}  // namespace
}  // namespace leveldbpp
