// CRC32C (Castagnoli) checksums, with the LevelDB mask/unmask scheme used to
// make CRCs of CRC-bearing payloads safe to store alongside the data.

#ifndef LEVELDBPP_UTIL_CRC32C_H_
#define LEVELDBPP_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace leveldbpp {
namespace crc32c {

/// Return the crc32c of concat(A, data[0, n-1]) where init_crc is the
/// crc32c of some string A. Uses the SSE4.2 crc32 instruction when the CPU
/// has it (probed once, on first call) and a portable table loop otherwise;
/// both give the same result.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

/// True when Extend runs on the CPU's CRC32C instruction.
bool IsHardwareAccelerated();

namespace internal {
/// The portable table loop Extend falls back to. Exposed so tests can check
/// it against the dispatched path and benchmarks can keep timing it.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);
}  // namespace internal

/// Return the crc32c of data[0, n-1].
inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

static const uint32_t kMaskDelta = 0xa282ead8ul;

/// Return a masked representation of crc. Stored CRCs are masked so that
/// computing the CRC of a string containing embedded CRCs stays well-behaved.
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

/// Invert Mask().
inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - kMaskDelta;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace crc32c
}  // namespace leveldbpp

#endif  // LEVELDBPP_UTIL_CRC32C_H_
