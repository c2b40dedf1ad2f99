#include "compress/lzrw1.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/assert.h"

namespace compcache {

namespace {

// 16 items per control group; worst case every item is a literal, costing one byte
// each plus two control bytes per group.
constexpr size_t kItemsPerGroup = 16;

// Fast-path entry conditions, checked once per group (DESIGN.md §13, "LZRW1
// kernels"). The encoder needs room for a whole group of 18-byte matches plus
// three 8-byte words ahead of the last item.
//
// The decoder needs output room for 16 maximal copies: item k starts at most
// 18k bytes into the group and writes at most 18 bytes, overshoot included (a
// 16-byte literal move starts at most 18 * 15 + 1 bytes in). On the input side
// it needs the control word and at most 32 item bytes, and room for each
// 16-byte literal move. The last move starts after the group's last copy:
// with at least one literal among the 16 items that is at most 31 item bytes
// in, so the move reads at most 2 + 31 + 16 bytes from the group start.
constexpr size_t kEncodeFastInput = kItemsPerGroup * kLzrwMaxMatch + 24;
constexpr ptrdiff_t kDecodeFastInput = 2 + (2 * kItemsPerGroup - 1) + kItemsPerGroup;
constexpr ptrdiff_t kDecodeFastOutput = kItemsPerGroup * kLzrwMaxMatch;

size_t WorstCase(size_t n) {
  const size_t groups = (n + kItemsPerGroup - 1) / kItemsPerGroup;
  return 1 /* container flag */ + n + 2 * groups;
}

// Unaligned little-endian 64-bit load: byte i of the input lands in bits
// [8i, 8i + 8), so countr_zero of an XOR finds the first differing byte.
inline uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

// Multiplicative hash of the next three bytes, key = p[0] << 16 | p[1] << 8 |
// p[2] (40543 is the multiplier Williams used; any odd multiplier with good
// avalanche works). shift = 24 - hash_bits, mask = 2^hash_bits - 1.
inline uint32_t HashKey(uint32_t key, unsigned shift, uint32_t mask) {
  return ((key * 40543u) >> shift) & mask;
}

inline uint32_t Key3(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 16) | (static_cast<uint32_t>(p[1]) << 8) | p[2];
}

// Key3 of the first three input bytes held in a Load64 word.
inline uint32_t Key3OfWord(uint64_t word) {
  return __builtin_bswap32(static_cast<uint32_t>(word) << 8);
}

// Length of the match between a and b, given diff = Load64(a) ^ Load64(b)
// with its low three bytes zero: the first differing byte, capped at 18.
// Reads at most a[0, 24) and b[0, 24).
inline size_t MatchLength(const uint8_t* a, const uint8_t* b, uint64_t diff) {
  // The shortest match gets its own branch. Where it dominates (pointer
  // arrays) the branch predicts, so the next item's position does not wait
  // on the table load -> candidate load -> countr_zero chain.
  if ((diff & 0xFF000000u) != 0) {
    return kLzrwMinMatch;
  }
  if (diff != 0) {
    return static_cast<size_t>(std::countr_zero(diff)) / 8;
  }
  diff = Load64(a + 8) ^ Load64(b + 8);
  if (diff != 0) {
    return 8 + static_cast<size_t>(std::countr_zero(diff)) / 8;
  }
  diff = Load64(a + 16) ^ Load64(b + 16);
  const size_t len = diff != 0 ? 16 + static_cast<size_t>(std::countr_zero(diff)) / 8 : 24;
  return std::min<size_t>(len, kLzrwMaxMatch);
}

// One copy item of a fast group: no truncation or end-of-output check, which
// the group's entry bounds make unnecessary. Returns false when the offset
// reaches before the start of the output.
inline bool FastCopyItem(const uint8_t*& in, uint8_t*& out, const uint8_t* out_begin) {
  const uint32_t b0 = in[0];
  const uint32_t b1 = in[1];
  in += 2;
  const size_t offset = ((b0 & 0xF0u) << 4) | b1;
  const size_t len = (b0 & 0x0Fu) + kLzrwMinMatch;
  if (offset < 1 || out - out_begin < static_cast<ptrdiff_t>(offset)) [[unlikely]] {
    return false;
  }
  const uint8_t* const from = out - offset;
  if (offset >= 8) {
    // Each move's source ends at least offset >= its width bytes behind its
    // destination, so the ranges do not overlap and hold only final bytes:
    // the moves reproduce the byte-wise copy. Bytes past len are rewritten by
    // later items before the stream can be accepted. Bytes 16-17 move as a
    // pair, not as a third 8-byte word: that word would straddle this item's
    // own first store and stall store-to-load forwarding on runs.
    std::memcpy(out, from, 8);
    std::memcpy(out + 8, from + 8, 8);
    if (len > 16) {
      std::memcpy(out + 16, from + 16, 2);
    }
  } else {
    for (size_t i = 0; i < len; ++i) {  // byte-wise: offset < len repeats a pattern
      out[i] = from[i];
    }
  }
  out += len;
  return true;
}

}  // namespace

Lzrw1::Lzrw1(unsigned hash_bits) : hash_bits_(hash_bits) {
  CC_EXPECTS(hash_bits >= 8 && hash_bits <= 22);
  table_.assign(size_t{1} << hash_bits_, 0);
}

size_t Lzrw1::MaxCompressedSize(size_t n) const { return WorstCase(n); }

size_t Lzrw1::Compress(std::span<const uint8_t> src, std::span<uint8_t> dst) {
  const size_t n = src.size();
  CC_EXPECTS(dst.size() >= MaxCompressedSize(n));
  if (n == 0) {
    dst[0] = kContainerRaw;
    return 1;
  }

  // Positions are stored +1 so that 0 means "empty slot"; the table persists
  // across calls, so stale entries from a previous buffer must never be trusted.
  // Entries carry the call epoch in their high bits: bumping the epoch
  // invalidates the whole table in O(1) instead of a 16 KB memset per page.
  // A full clear is only needed when the epoch counter wraps, or for inputs too
  // large for the packed position field (never the 4 KB page case).
  if (n > kPosMask - 1 || epoch_ == kMaxEpoch) {
    std::memset(table_.data(), 0, table_.size() * sizeof(uint32_t));
    epoch_ = 0;
  } else {
    ++epoch_;
  }
  // Locals, not members: every byte store through `out` may alias *this, so
  // members read in the loops would be reloaded on every item.
  uint32_t* const table = table_.data();
  const unsigned shift = 24 - hash_bits_;
  const uint32_t mask = (1u << hash_bits_) - 1;
  const uint32_t epoch_tag = epoch_ << kPosBits;

  uint8_t* const out_begin = dst.data();
  uint8_t* out = out_begin + 1;  // container flag goes in byte 0
  const uint8_t* const in = src.data();
  size_t pos = 0;

  // Fast groups: with kEncodeFastInput bytes left at the group start, every
  // item has >= 42 bytes ahead of it, so the 18-byte length cap is the only
  // bound on a match and the three-word loads below stay in the input.
  while (n - pos >= kEncodeFastInput) {
    uint8_t* const control_at = out;
    out += 2;
    uint32_t control = 0;
    for (unsigned item = 0; item < kItemsPerGroup; ++item) {
      const uint64_t word = Load64(in + pos);
      const uint32_t h = HashKey(Key3OfWord(word), shift, mask);
      const uint32_t entry = table[h];
      table[h] = epoch_tag | (static_cast<uint32_t>(pos) + 1);
      const uint32_t prev_plus1 = (entry & ~kPosMask) == epoch_tag ? (entry & kPosMask) : 0;
      if (prev_plus1 != 0) {
        const size_t prev = prev_plus1 - 1;
        const size_t offset = pos - prev;
        if (offset >= 1 && offset <= kLzrwMaxOffset) {
          const uint64_t diff = Load64(in + prev) ^ word;
          if ((diff & 0xFFFFFFu) == 0) {
            const size_t len = MatchLength(in + prev, in + pos, diff);
            control |= 1u << item;
            *out++ = static_cast<uint8_t>(((offset >> 4) & 0xF0u) | (len - kLzrwMinMatch));
            *out++ = static_cast<uint8_t>(offset & 0xFFu);
            pos += len;
            continue;
          }
        }
      }
      *out++ = static_cast<uint8_t>(word);
      ++pos;
    }
    control_at[0] = static_cast<uint8_t>(control & 0xFFu);
    control_at[1] = static_cast<uint8_t>(control >> 8);
  }

  // Tail: the reference loop, every step checked against the end of input.
  while (pos < n) {
    // Start a group: reserve two bytes for the control word.
    uint8_t* const control_at = out;
    out += 2;
    uint16_t control = 0;

    for (size_t item = 0; item < kItemsPerGroup && pos < n; ++item) {
      bool emitted_copy = false;
      if (pos + kLzrwMinMatch <= n) {
        const uint32_t h = HashKey(Key3(in + pos), shift, mask);
        const uint32_t entry = table[h];
        const uint32_t prev_plus1 = (entry & ~kPosMask) == epoch_tag ? (entry & kPosMask) : 0;
        table[h] = epoch_tag | (static_cast<uint32_t>(pos) + 1);
        if (prev_plus1 != 0) {
          const size_t prev = prev_plus1 - 1;
          const size_t offset = pos - prev;
          if (offset >= 1 && offset <= kLzrwMaxOffset &&
              in[prev] == in[pos] && in[prev + 1] == in[pos + 1] && in[prev + 2] == in[pos + 2]) {
            // Extend the match greedily up to 18 bytes or end of input. Matches may
            // overlap the current position (offset < length), which the
            // decompressor handles byte-by-byte.
            size_t len = kLzrwMinMatch;
            const size_t max_len = std::min<size_t>(kLzrwMaxMatch, n - pos);
            while (len < max_len && in[prev + len] == in[pos + len]) {
              ++len;
            }
            control |= static_cast<uint16_t>(1u << item);
            *out++ = static_cast<uint8_t>(((offset >> 4) & 0xF0u) | (len - kLzrwMinMatch));
            *out++ = static_cast<uint8_t>(offset & 0xFFu);
            pos += len;
            emitted_copy = true;
          }
        }
      }
      if (!emitted_copy) {
        *out++ = in[pos];
        ++pos;
      }
    }

    control_at[0] = static_cast<uint8_t>(control & 0xFFu);
    control_at[1] = static_cast<uint8_t>(control >> 8);
  }

  const size_t compressed_size = static_cast<size_t>(out - out_begin);
  if (compressed_size >= n + 1) {
    // Expansion: store raw. This is the standard LZRW1 "copy flag" escape.
    dst[0] = kContainerRaw;
    if (n > 0) {  // memcpy from an empty span's null data() is UB
      std::memcpy(dst.data() + 1, in, n);
    }
    return n + 1;
  }
  dst[0] = kContainerCompressed;
  return compressed_size;
}

bool Lzrw1::TryDecompress(std::span<const uint8_t> src, std::span<uint8_t> dst) {
  return LzrwTryDecode(src, dst);
}

bool LzrwTryDecode(std::span<const uint8_t> src, std::span<uint8_t> dst) {
  if (src.empty()) {
    return false;
  }
  if (IsZeroPageMarker(src)) {
    if (!dst.empty()) {
      std::memset(dst.data(), 0, dst.size());
    }
    return true;
  }
  const size_t n = dst.size();
  const uint8_t* in = src.data() + 1;
  const uint8_t* const in_end = src.data() + src.size();

  if (src[0] == kContainerRaw) {
    if (src.size() != n + 1) {
      return false;
    }
    if (n > 0) {  // memcpy on an empty span's null data() is UB
      std::memcpy(dst.data(), in, n);
    }
    return true;
  }
  if (src[0] != kContainerCompressed) {
    return false;
  }

  uint8_t* const out_begin = dst.data();
  uint8_t* out = out_begin;
  uint8_t* const out_end = out + n;

  // Fast groups: with kDecodeFastInput input bytes and kDecodeFastOutput
  // bytes of output room at the group start, no item can be truncated or run
  // past the end of dst and no literal move can read past in_end, so only the
  // offset checks remain per item.
  while (in_end - in >= kDecodeFastInput && out_end - out >= kDecodeFastOutput) {
    uint32_t control = static_cast<uint32_t>(in[0] | (in[1] << 8));
    in += 2;
    // control | (control - 1) sets every bit below the lowest copy item, so
    // all 16 bits are set exactly when the group is a literal run, possibly
    // empty, then only copies (every group of a zero page, say; about a
    // quarter of kv_zipf's). The run moves at once, if there is one, then the
    // copies decode back to back.
    if ((control | (control - 1)) == 0xFFFFu) {
      const int run = std::countr_zero(control);
      if (run != 0) {
        std::memcpy(out, in, kItemsPerGroup);
        in += run;
        out += run;
      }
      for (int item = run; item < static_cast<int>(kItemsPerGroup); ++item) {
        if (!FastCopyItem(in, out, out_begin)) {
          return false;
        }
      }
      continue;
    }
    // Each literal run moves at once: one 16-byte move covers any run, and
    // the bytes past it are rewritten by later items before the stream can be
    // accepted. Bit 16 is a sentinel that ends the last run; once the shift
    // passes it the group is done.
    control |= 1u << kItemsPerGroup;
    while (true) {
      const int run = std::countr_zero(control);
      std::memcpy(out, in, kItemsPerGroup);
      in += run;
      out += run;
      control >>= run + 1;  // the run, then the copy item (or the sentinel)
      if (control == 0) {
        break;
      }
      if (!FastCopyItem(in, out, out_begin)) {
        return false;
      }
    }
  }
  // Tail: the reference loop, every item checked against both ends.
  while (out < out_end) {
    if (in + 2 > in_end) {
      return false;  // truncated control word
    }
    const uint16_t control = static_cast<uint16_t>(in[0] | (in[1] << 8));
    in += 2;
    for (size_t item = 0; item < kItemsPerGroup && out < out_end; ++item) {
      if (control & (1u << item)) {
        if (in + 2 > in_end) {
          return false;  // truncated copy item
        }
        const uint32_t b0 = *in++;
        const uint32_t b1 = *in++;
        const size_t offset = ((b0 & 0xF0u) << 4) | b1;
        const size_t len = (b0 & 0x0Fu) + kLzrwMinMatch;
        if (offset < 1 || out - out_begin < static_cast<ptrdiff_t>(offset) || out + len > out_end) {
          return false;  // offset before start of output, or copy past its end
        }
        const uint8_t* from = out - offset;
        for (size_t i = 0; i < len; ++i) {  // byte-wise: offset may be < len
          *out++ = *from++;
        }
      } else {
        if (in >= in_end) {
          return false;  // truncated literal
        }
        *out++ = *in++;
      }
    }
  }
  return in == in_end;  // trailing garbage is also corruption
}

size_t LzrwDecode(std::span<const uint8_t> src, std::span<uint8_t> dst) {
  const bool ok = LzrwTryDecode(src, dst);
  CC_ASSERT(ok && "corrupt LZRW stream");
  return dst.size();
}

}  // namespace compcache
