#include "util/hash.h"

#include <cstring>
#include <random>
#include <utility>

#include "util/coding.h"

namespace leveldbpp {

uint32_t Hash(const char* data, size_t n, uint32_t seed) {
  // Similar to murmur hash.
  const uint32_t m = 0xc6a4a793;
  const uint32_t r = 24;
  const char* limit = data + n;
  uint32_t h = seed ^ (static_cast<uint32_t>(n) * m);

  while (data + 4 <= limit) {
    uint32_t w = DecodeFixed32(data);
    data += 4;
    h += w;
    h *= m;
    h ^= (h >> 16);
  }

  switch (limit - data) {
    case 3:
      h += static_cast<uint8_t>(data[2]) << 16;
      [[fallthrough]];
    case 2:
      h += static_cast<uint8_t>(data[1]) << 8;
      [[fallthrough]];
    case 1:
      h += static_cast<uint8_t>(data[0]);
      h *= m;
      h ^= (h >> r);
      break;
  }
  return h;
}

namespace {

inline uint64_t Rotl(uint64_t x, int b) { return (x << b) | (x >> (64 - b)); }

struct SipState {
  uint64_t v0, v1, v2, v3;

  void Round() {
    v0 += v1;
    v1 = Rotl(v1, 13);
    v1 ^= v0;
    v0 = Rotl(v0, 32);
    v2 += v3;
    v3 = Rotl(v3, 16);
    v3 ^= v2;
    v0 += v3;
    v3 = Rotl(v3, 21);
    v3 ^= v0;
    v2 += v1;
    v1 = Rotl(v1, 17);
    v1 ^= v2;
    v2 = Rotl(v2, 32);
  }
};

}  // namespace

uint64_t SipHash13(uint64_t k0, uint64_t k1, const char* data, size_t n) {
  SipState s{0x736f6d6570736575ULL ^ k0, 0x646f72616e646f6dULL ^ k1,
             0x6c7967656e657261ULL ^ k0, 0x7465646279746573ULL ^ k1};
  const char* const end = data + (n & ~size_t{7});
  for (; data != end; data += 8) {
    const uint64_t m = DecodeFixed64(data);
    s.v3 ^= m;
    s.Round();
    s.v0 ^= m;
  }
  uint64_t last = static_cast<uint64_t>(n) << 56;
  for (size_t i = 0; i < (n & 7); i++) {
    last |= static_cast<uint64_t>(static_cast<uint8_t>(data[i])) << (8 * i);
  }
  s.v3 ^= last;
  s.Round();
  s.v0 ^= last;
  s.v2 ^= 0xff;
  s.Round();
  s.Round();
  s.Round();
  return s.v0 ^ s.v1 ^ s.v2 ^ s.v3;
}

void ProcessHashKey(uint64_t* k0, uint64_t* k1) {
  static const std::pair<uint64_t, uint64_t> key = [] {
    std::random_device rd;
    auto draw = [&rd] {
      return (static_cast<uint64_t>(rd()) << 32) ^ rd();
    };
    const uint64_t a = draw();
    return std::make_pair(a, draw());
  }();
  *k0 = key.first;
  *k1 = key.second;
}

}  // namespace leveldbpp
