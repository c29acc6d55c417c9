#include "util/crc32c.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "util/random.h"

namespace leveldbpp {
namespace crc32c {

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

// Known-answer tests from the CRC32C specification (RFC 3720 appendix),
// against both the dispatched path and the portable fallback.
TEST(Crc32c, StandardResults) {
  for (ExtendFn extend :
       {ExtendFn{Extend}, ExtendFn{internal::ExtendPortable}}) {
    auto value = [extend](const char* data, size_t n) {
      return extend(0, data, n);
    };
    char buf[32];

    memset(buf, 0, sizeof(buf));
    EXPECT_EQ(0x8a9136aau, value(buf, sizeof(buf)));

    memset(buf, 0xff, sizeof(buf));
    EXPECT_EQ(0x62a8ab43u, value(buf, sizeof(buf)));

    for (int i = 0; i < 32; i++) {
      buf[i] = static_cast<char>(i);
    }
    EXPECT_EQ(0x46dd794eu, value(buf, sizeof(buf)));

    for (int i = 0; i < 32; i++) {
      buf[i] = static_cast<char>(31 - i);
    }
    EXPECT_EQ(0x113fdb5cu, value(buf, sizeof(buf)));

    uint8_t data[48] = {
        0x01, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
        0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x18, 0x28, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    };
    EXPECT_EQ(0xd9963a56u,
              value(reinterpret_cast<char*>(data), sizeof(data)));
  }
}

TEST(Crc32c, Values) { EXPECT_NE(Value("a", 1), Value("foo", 3)); }

TEST(Crc32c, Extend) {
  EXPECT_EQ(Value("hello world", 11), Extend(Value("hello ", 6), "world", 5));
}

TEST(Crc32c, Mask) {
  uint32_t crc = Value("foo", 3);
  EXPECT_NE(crc, Mask(crc));
  EXPECT_NE(crc, Mask(Mask(crc)));
  EXPECT_EQ(crc, Unmask(Mask(crc)));
  EXPECT_EQ(crc, Unmask(Unmask(Mask(Mask(crc)))));
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  std::string data;
  for (int i = 0; i < 1000; i++) {
    data.push_back(static_cast<char>(i * 37));
  }
  uint32_t one_shot = Value(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); split += 97) {
    uint32_t inc = Value(data.data(), split);
    inc = Extend(inc, data.data() + split, data.size() - split);
    EXPECT_EQ(one_shot, inc);
  }
}

// On an x86-64 CPU with SSE4.2 the dispatcher must pick the instruction,
// so the equivalence tests below cannot compare the fallback with itself.
TEST(Crc32c, HardwarePathSelectedWhereAvailable) {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) {
    EXPECT_TRUE(IsHardwareAccelerated());
    return;
  }
#endif
  EXPECT_FALSE(IsHardwareAccelerated());
}

// Seeded lengths 0..8 KiB at start offsets 0..15 (every alignment), random
// init_crc, and random chains of Extend calls: the dispatched path must
// agree with the portable loop on every one.
TEST(Crc32c, RandomizedMatchesPortable) {
  Random64 rnd(20180610);
  std::string buf(8192 + 16, '\0');
  for (char& c : buf) c = static_cast<char>(rnd.Next() & 0xFF);

  for (int trial = 0; trial < 2000; trial++) {
    const size_t start = rnd.Uniform(16);
    const size_t len = rnd.Uniform(8192 + 1);
    const uint32_t init = static_cast<uint32_t>(rnd.Next());
    const char* p = buf.data() + start;
    const uint32_t portable = internal::ExtendPortable(init, p, len);
    ASSERT_EQ(portable, Extend(init, p, len))
        << "start=" << start << " len=" << len << " init=" << init;

    // The same bytes fed to each path as a chain of short pieces.
    uint32_t chained_hw = init;
    uint32_t chained_sw = init;
    size_t done = 0;
    while (done < len) {
      const size_t piece = 1 + rnd.Uniform(std::min<size_t>(len - done, 100));
      chained_hw = Extend(chained_hw, p + done, piece);
      chained_sw = internal::ExtendPortable(chained_sw, p + done, piece);
      done += piece;
    }
    ASSERT_EQ(portable, chained_hw) << "start=" << start << " len=" << len;
    ASSERT_EQ(portable, chained_sw) << "start=" << start << " len=" << len;
  }
}

// Flipping any single bit of a 4 KiB block changes its CRC on both paths
// (and both paths still agree on the damaged block).
TEST(Crc32c, EverySingleBitFlipDetected) {
  Random64 rnd(4);
  std::string block(4096, '\0');
  for (char& c : block) c = static_cast<char>(rnd.Next() & 0xFF);
  const uint32_t clean = Value(block.data(), block.size());
  ASSERT_EQ(clean, internal::ExtendPortable(0, block.data(), block.size()));

  for (size_t bit = 0; bit < block.size() * 8; bit++) {
    block[bit / 8] ^= static_cast<char>(1 << (bit % 8));
    const uint32_t hw = Value(block.data(), block.size());
    const uint32_t sw = internal::ExtendPortable(0, block.data(), block.size());
    block[bit / 8] ^= static_cast<char>(1 << (bit % 8));
    ASSERT_NE(clean, hw) << "bit " << bit;
    ASSERT_EQ(hw, sw) << "bit " << bit;
  }
}

}  // namespace crc32c
}  // namespace leveldbpp
