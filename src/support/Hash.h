//===- support/Hash.h - FNV-1a hashing -----------------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// 64-bit FNV-1a, the one content hash behind the module and source
/// fingerprints, the trial-cache keys, the JIT's compile-stream
/// fingerprints, the traffic digests and the fuzzer's chaos schedules.
/// Each of those is recorded output (stream fingerprints, digests, replay
/// schedules), so every caller keeps the seed it was first recorded with.
///
//===----------------------------------------------------------------------===//

#ifndef INCLINE_SUPPORT_HASH_H
#define INCLINE_SUPPORT_HASH_H

#include <cstdint>
#include <string_view>

namespace incline {

/// The standard 64-bit FNV offset basis.
constexpr uint64_t FnvOffsetBasis = 14695981039346656037ull;
/// The offset basis missing its last digit. Stream fingerprints, traffic
/// digests and chaos schedules were recorded with it, so those callers
/// keep it.
constexpr uint64_t FnvShortBasis = 1469598103934665603ull;

constexpr uint64_t FnvPrime = 1099511628211ull;

/// Folds the bytes of \p Data into \p Hash.
inline uint64_t fnv1a(std::string_view Data, uint64_t Hash) {
  for (unsigned char C : Data) {
    Hash ^= C;
    Hash *= FnvPrime;
  }
  return Hash;
}

/// Folds the eight little-endian bytes of \p Value into \p Hash.
inline uint64_t fnv1a(uint64_t Value, uint64_t Hash) {
  for (int I = 0; I < 8; ++I) {
    Hash ^= (Value >> (I * 8)) & 0xff;
    Hash *= FnvPrime;
  }
  return Hash;
}

} // namespace incline

#endif // INCLINE_SUPPORT_HASH_H
