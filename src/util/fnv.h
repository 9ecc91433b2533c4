// 64-bit FNV-1a over the little-endian bytes of 64-bit words — the catalog
// digest that saved sessions, WAL step records and checkpoints bind to.
// The byte order and constants are part of that on-disk format.
#ifndef AIGS_UTIL_FNV_H_
#define AIGS_UTIL_FNV_H_

#include <cstdint>

namespace aigs {

inline constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

/// Folds the eight bytes of `value`, lowest first, into `h`.
inline void FnvMix(std::uint64_t& h, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (value >> (byte * 8)) & 0xFF;
    h *= kFnvPrime;
  }
}

}  // namespace aigs

#endif  // AIGS_UTIL_FNV_H_
