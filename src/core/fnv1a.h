// Word-wise 64-bit FNV-1a: the checksum of the `.spc` probe cache and the
// `.spr` rollup store, and the rollup store's analysis fingerprint. Both
// file formats store its value, so its definition is part of their
// on-disk contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "net/endian.h"

namespace synscan::core {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// Folds one 64-bit word into the hash state.
[[nodiscard]] inline std::uint64_t fnv1a_word(std::uint64_t state, std::uint64_t word) {
  return (state ^ word) * kFnvPrime;
}

/// FNV-1a over `bytes` taken as little-endian 64-bit words, the tail word
/// zero-padded. Word-at-a-time keeps a validating pass over a whole file
/// at one multiply per 8 bytes instead of per byte. Chain calls by
/// passing the previous result as `state`.
[[nodiscard]] inline std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                                         std::uint64_t state = kFnvOffset) {
  const std::size_t words = bytes.size() / 8;
  const std::uint8_t* p = bytes.data();
  for (std::size_t i = 0; i < words; ++i, p += 8) state = fnv1a_word(state, net::load_le64(p));
  const std::size_t tail = bytes.size() % 8;
  if (tail != 0) {
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < tail; ++i) word |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    state = fnv1a_word(state, word);
  }
  return state;
}

}  // namespace synscan::core
