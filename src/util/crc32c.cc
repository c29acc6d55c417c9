#include "util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define LEVELDBPP_CRC32C_SSE42 1
#endif

namespace leveldbpp {
namespace crc32c {

namespace {

// Table-driven CRC32C (polynomial 0x1EDC6F41, reflected 0x82F63B78).
// The table is generated on first use; slicing-by-4 is the portable
// fallback for CPUs without a CRC32C instruction.
struct Tables {
  std::array<std::array<uint32_t, 256>, 4> t;
  Tables() {
    const uint32_t poly = 0x82F63B78u;
    for (uint32_t i = 0; i < 256; i++) {
      uint32_t crc = i;
      for (int j = 0; j < 8; j++) {
        crc = (crc >> 1) ^ ((crc & 1) ? poly : 0);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; i++) {
      t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xFF];
      t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xFF];
      t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xFF];
    }
  }
};

const Tables& GetTables() {
  static const Tables tables;
  return tables;
}

#ifdef LEVELDBPP_CRC32C_SSE42
// SSE4.2's crc32 instruction computes exactly this polynomial, 8 bytes per
// instruction. Compiled for SSE4.2 on its own, so the rest of the build
// keeps the baseline ISA; it runs only where the CPU reports SSE4.2.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init_crc,
                                                       const char* data,
                                                       size_t n) {
  const char* p = data;
  uint64_t crc = init_crc ^ 0xFFFFFFFFu;
  while (n >= 8) {
    uint64_t word;
    memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
    p += 8;
    n -= 8;
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  while (n > 0) {
    crc32 = _mm_crc32_u8(crc32, static_cast<uint8_t>(*p));
    p++;
    n--;
  }
  return crc32 ^ 0xFFFFFFFFu;
}
#endif

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

// The CPU is probed once, on first use. __builtin_cpu_init is called
// explicitly because a CRC taken during static initialisation can run
// before libgcc's own constructor has filled in the CPU data.
ExtendFn SelectedExtend() {
  static const ExtendFn fn = []() -> ExtendFn {
#ifdef LEVELDBPP_CRC32C_SSE42
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2")) return ExtendSse42;
#endif
    return internal::ExtendPortable;
  }();
  return fn;
}

}  // namespace

namespace internal {

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  const Tables& tab = GetTables();
  const uint8_t* p = reinterpret_cast<const uint8_t*>(data);
  uint32_t crc = init_crc ^ 0xFFFFFFFFu;

  // Process 4 bytes at a time (slicing-by-4).
  while (n >= 4) {
    crc ^= static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
    crc = tab.t[3][crc & 0xFF] ^ tab.t[2][(crc >> 8) & 0xFF] ^
          tab.t[1][(crc >> 16) & 0xFF] ^ tab.t[0][(crc >> 24) & 0xFF];
    p += 4;
    n -= 4;
  }
  while (n > 0) {
    crc = (crc >> 8) ^ tab.t[0][(crc ^ *p) & 0xFF];
    p++;
    n--;
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace internal

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  return SelectedExtend()(init_crc, data, n);
}

bool IsHardwareAccelerated() {
  return SelectedExtend() != internal::ExtendPortable;
}

}  // namespace crc32c
}  // namespace leveldbpp
