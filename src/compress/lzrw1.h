// LZRW1 — Ross Williams's "extremely fast Ziv-Lempel" compressor (DCC 1991),
// re-implemented from scratch. This is the algorithm the paper used for every
// measurement ("Compression was performed using Williams's LZRW1 algorithm").
//
// Algorithm shape (faithful to the published description):
//   * single pass, greedy;
//   * a hash table maps a hash of the next 3 bytes to the most recent position
//     where that hash was seen — one probe, no chains;
//   * items are grouped 16 to a group behind a 16-bit control word: bit 0 means a
//     literal byte, bit 1 means a copy item;
//   * a copy item is two bytes: a 12-bit backwards offset (1..4095) and a 4-bit
//     length encoding lengths 3..18;
//   * only one hash-table insertion is performed per item (not per byte), which is
//     what makes the algorithm fast;
//   * decompression needs no table at all, so it runs faster than compression.
//     The paper's Figure 1 analysis assumes about 2:1. Here a 4 KB page decodes
//     about 2.5x (pointer arrays) to 4.6x (text) faster than it encodes, and
//     1.9x for an all-zero page (bench/codec_throughput, Release, 4-vCPU
//     2.1 GHz Xeon VM, median of six rounds), and
//     bench/perf_hotpath gates decode faster than encode within one run.
//
// Both directions run a group-at-a-time fast path while a whole 16-item group
// fits, then the bytewise loop for the tail; the decoder's fast path moves each
// run of literal items at once. The output and every decode verdict are
// byte-identical to the bytewise code alone (DESIGN.md §13, "LZRW1 kernels";
// pinned by compress_test's Lzrw1OracleTest).
//
// The hash table size is configurable because the paper (section 4.4) discusses the
// memory/ratio trade-off: "This hash table can be relatively large (e.g., on the
// order of 1 Mbyte), which improves compression at the cost of memory... In the
// system measured for this paper, the hash table is 16 Kbytes."
#ifndef COMPCACHE_COMPRESS_LZRW1_H_
#define COMPCACHE_COMPRESS_LZRW1_H_

#include <cstdint>
#include <vector>

#include "compress/codec.h"

namespace compcache {

class Lzrw1 : public Codec {
 public:
  // hash_bits selects 2^hash_bits table entries of 4 bytes each; the default 12
  // gives the paper's 16 KB table.
  explicit Lzrw1(unsigned hash_bits = 12);

  std::string_view name() const override { return "lzrw1"; }
  size_t MaxCompressedSize(size_t n) const override;
  size_t Compress(std::span<const uint8_t> src, std::span<uint8_t> dst) override;
  bool TryDecompress(std::span<const uint8_t> src, std::span<uint8_t> dst) override;

  size_t hash_table_bytes() const { return table_.size() * sizeof(uint32_t); }

 private:
  unsigned hash_bits_;
  // Each entry packs (epoch << kPosBits) | (pos + 1). Tagging entries with the
  // call epoch lets the table persist across calls without a per-call memset
  // (16 KB at the default size — 4x the page being compressed): an entry from
  // an older epoch reads exactly like an empty slot, so output is
  // byte-identical to the reset-every-call scheme.
  static constexpr uint32_t kPosBits = 20;  // inputs up to 2^20 - 1 bytes
  static constexpr uint32_t kPosMask = (1u << kPosBits) - 1;
  static constexpr uint32_t kMaxEpoch = (1u << (32 - kPosBits)) - 1;
  std::vector<uint32_t> table_;
  uint32_t epoch_ = 0;
};

// Shared by lzrw1 and lzrw1a: copy items reach back at most 4095 bytes and cover
// 3..18 bytes.
inline constexpr uint32_t kLzrwMaxOffset = 4095;
inline constexpr uint32_t kLzrwMinMatch = 3;
inline constexpr uint32_t kLzrwMaxMatch = 18;

// Decodes the shared LZRW bitstream (used by both Lzrw1 and Lzrw1a — decompression
// needs no per-codec state). dst.size() must equal the original input size.
// Returns false on malformed input without reading or writing out of bounds.
bool LzrwTryDecode(std::span<const uint8_t> src, std::span<uint8_t> dst);

// Asserting wrapper for known-intact streams; returns dst.size().
size_t LzrwDecode(std::span<const uint8_t> src, std::span<uint8_t> dst);

}  // namespace compcache

#endif  // COMPCACHE_COMPRESS_LZRW1_H_
