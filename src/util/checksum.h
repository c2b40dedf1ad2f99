// CRC-32C (Castagnoli) over byte spans — the 32-bit checksum carried by every
// compressed page image (stored in the ring entry header and in the swap
// backends' fragment metadata) so that corruption anywhere on the
// compress -> ring -> fragment -> disk -> decompress round-trip is caught at
// read time instead of surfacing as silently wrong application data.
//
// Software slicing-by-8 implementation (no SSE4.2 dependency): eight bytes per
// step through eight constexpr tables, about 6x the bytewise loop and the same
// values. The simulator charges checksum work zero virtual time, so only
// determinism and portability matter.
// By convention a stored checksum of 0 means "no checksum recorded" and readers
// skip verification; Crc32() therefore never returns 0 for any input.
#ifndef COMPCACHE_UTIL_CHECKSUM_H_
#define COMPCACHE_UTIL_CHECKSUM_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

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

}  // namespace internal

// CRC-32C of `data`. Never returns 0 (0 is reserved for "absent"): the rare
// input whose true CRC is 0 maps to 1, a one-in-four-billion detection loss.
inline uint32_t Crc32(std::span<const uint8_t> data) {
  const auto& t = internal::kCrc32cTables;
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

}  // namespace compcache

#endif  // COMPCACHE_UTIL_CHECKSUM_H_
