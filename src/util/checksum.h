// CRC-32C (Castagnoli) over byte spans — the 32-bit checksum carried by every
// compressed page image (stored in the ring entry header and in the swap
// backends' fragment metadata) so that corruption anywhere on the
// compress -> ring -> fragment -> disk -> decompress round-trip is caught at
// read time instead of surfacing as silently wrong application data.
//
// Two implementations with the same values, picked once per process by the CPU:
//   * x86-64 hosts whose CPU reports SSE4.2 run the crc32 instruction, which
//     implements exactly this polynomial: one 64-bit step per 8 bytes, about
//     5x the table path on a 1 KB payload (every ccache hit verifies one);
//   * every other host runs the portable slicing-by-8 loop: eight bytes per
//     step through eight constexpr tables, about 6x the bytewise loop.
// There is no setting for the choice; Crc32HardwarePath() reports it. The
// simulator charges checksum work zero virtual time, so the path never moves a
// simulated result, only host time.
// By convention a stored checksum of 0 means "no checksum recorded" and readers
// skip verification; Crc32() therefore never returns 0 for any input.
#ifndef COMPCACHE_UTIL_CHECKSUM_H_
#define COMPCACHE_UTIL_CHECKSUM_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define COMPCACHE_CRC32C_HARDWARE 1
#endif

namespace compcache {

namespace internal {

// kCrc32cTables[0] is the classic bytewise table (reflected CRC-32C poly);
// kCrc32cTables[k][b] advances the CRC of byte b through k further zero bytes,
// so eight lookups fold one 64-bit word.
inline constexpr std::array<std::array<uint32_t, 256>, 8> MakeCrc32cTables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
    tables[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

inline constexpr std::array<std::array<uint32_t, 256>, 8> kCrc32cTables = MakeCrc32cTables();

// Portable slicing-by-8 CRC-32C, with Crc32()'s 0 -> 1 mapping.
inline uint32_t Crc32cSliced(std::span<const uint8_t> data) {
  const auto& t = kCrc32cTables;
  // Little-endian word from bytes: any alignment, any host byte order.
  const auto load32 = [](const uint8_t* b) {
    return uint32_t{b[0]} | uint32_t{b[1]} << 8 | uint32_t{b[2]} << 16 | uint32_t{b[3]} << 24;
  };
  uint32_t crc = 0xFFFFFFFFu;
  const uint8_t* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = crc ^ load32(p);
    const uint32_t hi = load32(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24];
    crc ^= t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFF];
  }
  crc ^= 0xFFFFFFFFu;
  return crc == 0 ? 1u : crc;
}

#ifdef COMPCACHE_CRC32C_HARDWARE
// SSE4.2 CRC-32C, with Crc32()'s 0 -> 1 mapping. Callers must first check
// Crc32HardwarePath(): on a CPU without SSE4.2 the instruction faults.
__attribute__((target("sse4.2"))) inline uint32_t Crc32cHardware(std::span<const uint8_t> data) {
  uint64_t crc = 0xFFFFFFFFu;
  const uint8_t* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; ++p, --n) {
    crc32 = _mm_crc32_u8(crc32, *p);
  }
  crc32 ^= 0xFFFFFFFFu;
  return crc32 == 0 ? 1u : crc32;
}
#endif

}  // namespace internal

// True when Crc32() runs the SSE4.2 instruction, false on the table path.
// Decided once per process from the CPU's feature bits.
inline bool Crc32HardwarePath() {
#ifdef COMPCACHE_CRC32C_HARDWARE
  static const bool hardware = [] {
    __builtin_cpu_init();  // required if this first runs before static constructors
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return hardware;
#else
  return false;
#endif
}

// CRC-32C of `data`. Never returns 0 (0 is reserved for "absent"): the rare
// input whose true CRC is 0 maps to 1, a one-in-four-billion detection loss.
inline uint32_t Crc32(std::span<const uint8_t> data) {
#ifdef COMPCACHE_CRC32C_HARDWARE
  if (Crc32HardwarePath()) {
    return internal::Crc32cHardware(data);
  }
#endif
  return internal::Crc32cSliced(data);
}

}  // namespace compcache

#endif  // COMPCACHE_UTIL_CHECKSUM_H_
