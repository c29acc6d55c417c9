// Primary-key range scans through the heap-merge iterator, swept over scan
// selectivity for every index variant.
//
// Each variant scans its PRIMARY table through DB::NewIterator over the same
// deterministic put stream and engine geometry, so the LSM shape is fixed
// per variant and each scan pays a log(runs) heap reshuffle per Next().
//
// Emits one JSON line per (variant, selectivity) cell:
//   {"bench":"range_scan","variant":"Lazy","engine":"heap_merge",
//    "permille":100,"scans":...,"keys_per_scan":...,"us_per_scan":...,
//    "keys_per_sec":...}
// "engine" is always "heap_merge"; it keeps rows comparable with older
// snapshots, which also measured a second engine.
//
// Usage: bench_range_scan [--n=40000] [--reps=40] [--pad=128]

#include <cinttypes>
#include <cstdio>

#include "harness.h"

namespace leveldbpp {
namespace bench {
namespace {

std::string ScanKey(uint64_t i) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "k%08llu",
                static_cast<unsigned long long>(i));
  return buf;
}

// Incompressible padding so on-disk sizes track document sizes and the
// deterministic geometry below develops multiple populated levels.
std::string Doc(uint64_t i, size_t pad) {
  std::string noise(pad, ' ');
  uint64_t x = (i + 1) * 6364136223846793005ull + 1442695040888963407ull;
  for (size_t j = 0; j < pad; j++) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    noise[j] = static_cast<char>('A' + ((x >> 33) % 26));
  }
  char ts[32];
  std::snprintf(ts, sizeof(ts), "%012llu",
                static_cast<unsigned long long>(1000000 + i));
  return "{\"CreationTime\":\"" + std::string(ts) + "\",\"Pad\":\"" + noise +
         "\",\"UserID\":\"user" + std::to_string(i % 101) + "\"}";
}

struct Cell {
  uint64_t scans = 0;
  uint64_t keys = 0;
  uint64_t micros = 0;
};

void Run(const Flags& flags) {
  const uint64_t n = flags.GetInt("n", 40000);
  const uint64_t reps = flags.GetInt("reps", 40);
  const size_t pad = flags.GetInt("pad", 128);
  // Scan width as a fraction of the keyspace, in per-mille.
  const std::vector<uint64_t> permille = {1, 10, 100, 500, 1000};
  const std::string root = ScratchRoot();

  std::fprintf(stderr,
               "range_scan: n=%" PRIu64 " docs, pad=%zu, reps=%" PRIu64
               " per selectivity point\n",
               n, pad, reps);

  for (IndexType type : AllVariants()) {
    VariantConfig config;
    config.type = type;
    if (type == IndexType::kNoIndex) config.attributes = {};
    // Small geometry so ~n docs settle into 2-3 populated levels below
    // L0 at quiescence; incompressible docs keep the shape honest.
    config.write_buffer_size = 256 << 10;
    config.max_file_size = 128 << 10;
    config.max_bytes_for_level_base = 512 << 10;
    config.compression = kNoCompression;
    const std::string path = root + "/" + Name(type);
    auto db = OpenVariant(config, path);
    for (uint64_t i = 0; i < n; i++) {
      CheckOk(db->Put(ScanKey(i), Doc(i, pad)), "put");
    }

    std::vector<Cell> cells(permille.size());
    for (uint64_t rep = 0; rep < reps; rep++) {
      for (size_t s = 0; s < permille.size(); s++) {
        const uint64_t width = n * permille[s] / 1000;
        if (width == 0) continue;
        // Rotate the window start so repeats touch different blocks.
        const uint64_t lo = (rep * 2654435761ull) % (n - width + 1);
        const std::string limit = ScanKey(lo + width);
        Timer timer;
        std::unique_ptr<Iterator> it(
            db->primary()->NewIterator(ReadOptions()));
        uint64_t keys = 0;
        for (it->Seek(ScanKey(lo));
             it->Valid() && it->key().ToString() < limit; it->Next()) {
          keys++;
        }
        CheckOk(it->status(), "scan");
        cells[s].micros += timer.ElapsedMicros();
        cells[s].scans++;
        cells[s].keys += keys;
      }
    }

    for (size_t s = 0; s < permille.size(); s++) {
      const Cell& c = cells[s];
      if (c.scans == 0) continue;
      const double us_per_scan =
          static_cast<double>(c.micros) / c.scans;
      const double keys_per_scan =
          static_cast<double>(c.keys) / c.scans;
      const double keys_per_sec =
          c.micros == 0 ? 0.0
                        : static_cast<double>(c.keys) * 1e6 / c.micros;
      std::fprintf(stderr,
                   "  %-10s %4" PRIu64 "‰  %9.1f us/scan  "
                   "%8.0f keys  %10.0f keys/s\n",
                   Name(type), permille[s], us_per_scan,
                   keys_per_scan, keys_per_sec);
      JsonLine line("range_scan");
      line.Str("variant", Name(type))
          .Str("engine", "heap_merge")
          .Int("permille", permille[s])
          .Int("n", n)
          .Int("scans", c.scans)
          .Double("keys_per_scan", keys_per_scan)
          .Double("us_per_scan", us_per_scan)
          .Double("keys_per_sec", keys_per_sec);
      line.Emit();
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace leveldbpp

int main(int argc, char** argv) {
  leveldbpp::bench::Flags flags(argc, argv);
  leveldbpp::bench::Run(flags);
  return 0;
}
