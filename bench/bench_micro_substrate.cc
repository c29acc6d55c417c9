// Substrate microbenchmarks (google-benchmark): the primitives every
// experiment rests on — coding, checksums, bloom filters, compression,
// skiplist/memtable, block build/read, JSON attribute extraction,
// posting-list parse and merge.

#include <benchmark/benchmark.h>

#include <memory>

#include "compress/codec.h"
#include "core/document.h"
#include "core/posting_list.h"
#include "db/dbformat.h"
#include "db/memtable.h"
#include "db/options.h"
#include "table/block.h"
#include "table/block_builder.h"
#include "table/filter_policy.h"
#include "util/coding.h"
#include "util/comparator.h"
#include "util/crc32c.h"
#include "util/random.h"
#include "workload/tweet_generator.h"

namespace leveldbpp {
namespace {

void BM_Varint64Encode(benchmark::State& state) {
  Random64 rnd(1);
  std::vector<uint64_t> values;
  for (int i = 0; i < 1024; i++) values.push_back(rnd.Next() >> rnd.Uniform(60));
  std::string buf;
  for (auto _ : state) {
    buf.clear();
    for (uint64_t v : values) PutVarint64(&buf, v);
    benchmark::DoNotOptimize(buf);
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_Varint64Encode);

void BM_Varint64Decode(benchmark::State& state) {
  Random64 rnd(1);
  std::string buf;
  for (int i = 0; i < 1024; i++) PutVarint64(&buf, rnd.Next() >> rnd.Uniform(60));
  for (auto _ : state) {
    Slice input(buf);
    uint64_t v;
    while (GetVarint64(&input, &v)) benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_Varint64Decode);

void BM_Crc32c(benchmark::State& state) {
  std::string data(state.range(0), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::Value(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(65536);

// The table loop Extend falls back to on CPUs without SSE4.2.
void BM_Crc32cPortable(benchmark::State& state) {
  std::string data(state.range(0), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crc32c::internal::ExtendPortable(0, data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_Crc32cPortable)->Arg(4096)->Arg(65536);

void BM_BloomCreate(benchmark::State& state) {
  std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(20));
  std::vector<std::string> keys;
  std::vector<Slice> slices;
  for (int i = 0; i < 128; i++) keys.push_back("user" + std::to_string(i));
  for (const auto& k : keys) slices.emplace_back(k);
  std::string dst;
  for (auto _ : state) {
    dst.clear();
    policy->CreateFilter(slices.data(), static_cast<int>(slices.size()), &dst);
    benchmark::DoNotOptimize(dst);
  }
  state.SetItemsProcessed(state.iterations() * slices.size());
}
BENCHMARK(BM_BloomCreate);

void BM_BloomProbe(benchmark::State& state) {
  std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(20));
  std::vector<std::string> keys;
  std::vector<Slice> slices;
  for (int i = 0; i < 128; i++) keys.push_back("user" + std::to_string(i));
  for (const auto& k : keys) slices.emplace_back(k);
  std::string filter;
  policy->CreateFilter(slices.data(), static_cast<int>(slices.size()),
                       &filter);
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        policy->KeyMayMatch(Slice(keys[i++ & 127]), Slice(filter)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomProbe);

void BM_SimpleLZCompress(benchmark::State& state) {
  std::string data;
  Random64 rnd(7);
  while (data.size() < 4096) {
    data += "{\"UserID\":\"u" + std::to_string(rnd.Uniform(100)) +
            "\",\"Body\":\"some tweet text here\"}";
  }
  std::string out;
  for (auto _ : state) {
    out.clear();
    simplelz::Compress(Slice(data), &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_SimpleLZCompress);

// A primary-table data block as the engine writes it: TweetGenerator
// documents under internal keys, cut at the default block size.
std::string TweetDataBlock() {
  const Options defaults;
  TweetGenerator gen{TweetGeneratorOptions()};
  BlockBuilder builder(defaults.block_restart_interval);
  SequenceNumber seq = 1;
  while (builder.CurrentSizeEstimate() < defaults.block_size) {
    Tweet t = gen.Next();
    std::string key;
    AppendInternalKey(&key, ParsedInternalKey(t.tweet_id, seq++, kTypeValue));
    builder.Add(Slice(key), Slice(t.ToJson()));
  }
  return builder.Finish().ToString();
}

void BM_SimpleLZUncompress(benchmark::State& state) {
  const std::string data = TweetDataBlock();
  std::string compressed;
  simplelz::Compress(Slice(data), &compressed);
  std::string out(data.size(), '\0');
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simplelz::Uncompress(Slice(compressed), out.data()));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_SimpleLZUncompress);

void BM_MemTableAdd(benchmark::State& state) {
  InternalKeyComparator icmp(BytewiseComparator());
  uint64_t seq = 1;
  MemTable* mem = new MemTable(icmp);
  mem->Ref();
  Random64 rnd(3);
  for (auto _ : state) {
    std::string key = "key" + std::to_string(rnd.Next() & 0xFFFFF);
    mem->Add(seq++, kTypeValue, Slice(key), Slice("value"));
    if (mem->ApproximateMemoryUsage() > (16 << 20)) {
      state.PauseTiming();
      mem->Unref();
      mem = new MemTable(icmp);
      mem->Ref();
      state.ResumeTiming();
    }
  }
  mem->Unref();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemTableAdd);

void BM_BlockBuildAndSeek(benchmark::State& state) {
  BlockBuilder builder(16);
  std::vector<std::string> keys;
  for (int i = 0; i < 200; i++) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "key%08d", i * 7);
    keys.push_back(buf);
    builder.Add(Slice(buf), Slice("value-payload-0123456789"));
  }
  Slice contents = builder.Finish();
  BlockContents bc;
  bc.data = contents;
  bc.heap_allocated = false;
  bc.cachable = false;
  Block block(bc);
  int i = 0;
  for (auto _ : state) {
    std::unique_ptr<Iterator> it(block.NewIterator(BytewiseComparator()));
    it->Seek(Slice(keys[i++ % keys.size()]));
    benchmark::DoNotOptimize(it->Valid());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockBuildAndSeek);

// The per-record attribute check of every LOOKUP: UserID out of a
// TweetGenerator document.
void BM_JsonExtract(benchmark::State& state) {
  TweetGenerator gen{TweetGeneratorOptions()};
  std::vector<std::string> docs;
  for (int i = 0; i < 64; i++) docs.push_back(gen.Next().ToJson());
  const JsonAttributeExtractor* extractor = JsonAttributeExtractor::Instance();
  const std::string attr = "UserID";
  std::string out;
  size_t i = 0, bytes = 0;
  for (auto _ : state) {
    const std::string& doc = docs[i++ % docs.size()];
    benchmark::DoNotOptimize(extractor->Extract(Slice(doc), attr, &out));
    bytes += doc.size();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_JsonExtract);

// Decoding one stored posting list: 910 entries, the size of a popular
// user's list on the Fig 10 static workload, every 8th a deletion marker.
void BM_PostingListParse(benchmark::State& state) {
  std::vector<PostingEntry> entries;
  uint64_t seq = 1000000;
  for (int i = 0; i < 910; i++) {
    char key[24];
    std::snprintf(key, sizeof(key), "t%012d", i * 7919);  // A tweet ID
    entries.emplace_back(key, seq -= 13, i % 8 == 0);
  }
  std::string data;
  PostingList::Serialize(entries, &data);
  std::vector<PostingEntry> parsed;
  for (auto _ : state) {
    benchmark::DoNotOptimize(PostingList::Parse(Slice(data), &parsed));
  }
  state.SetItemsProcessed(state.iterations() * entries.size());
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_PostingListParse);

void BM_PostingListMerge(benchmark::State& state) {
  // Merge 4 fragments of 32 entries each — a typical Lazy compaction step.
  std::vector<std::string> serialized(4);
  uint64_t seq = 1000000;
  for (int f = 3; f >= 0; f--) {
    std::vector<PostingEntry> entries;
    for (int i = 0; i < 32; i++) {
      entries.emplace_back("t" + std::to_string(f * 1000 + i), seq--, false);
    }
    PostingList::Serialize(entries, &serialized[f]);
  }
  std::vector<Slice> values;
  for (const auto& s : serialized) values.emplace_back(s);
  std::string out;
  for (auto _ : state) {
    PostingListMerger::Instance()->Merge(Slice("u1"), values, false, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_PostingListMerge);

}  // namespace
}  // namespace leveldbpp

BENCHMARK_MAIN();
