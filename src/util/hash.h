// Byte hashing: a Murmur-style hash for bloom filters and the block cache,
// and a keyed SipHash for in-memory tables whose keys come from clients.

#ifndef LEVELDBPP_UTIL_HASH_H_
#define LEVELDBPP_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>

namespace leveldbpp {

/// Hash `data[0,n)` with the given seed (LevelDB's Murmur-like hash).
uint32_t Hash(const char* data, size_t n, uint32_t seed);

/// SipHash-1-3 of `data[0,n)` under the 128-bit key (k0, k1). Unlike
/// Hash, whose collisions do not depend on its seed, an input set that
/// collides under one key is no more likely to collide under another, so a
/// table hashed under a secret key cannot be flooded with crafted keys.
uint64_t SipHash13(uint64_t k0, uint64_t k1, const char* data, size_t n);

/// The process's SipHash key: drawn from std::random_device on first use,
/// the same for the rest of the process.
void ProcessHashKey(uint64_t* k0, uint64_t* k1);

}  // namespace leveldbpp

#endif  // LEVELDBPP_UTIL_HASH_H_
