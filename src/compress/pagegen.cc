#include "compress/pagegen.h"

#include <array>
#include <cstring>

#include "compress/lzrw1.h"
#include "util/assert.h"

namespace compcache {

namespace {

// A compact English-like word pool. Word frequency follows a Zipf-ish pattern via
// the skewed index draw in PickWord().
constexpr std::string_view kWords[] = {
    "the",      "of",       "and",      "to",        "in",       "that",    "is",
    "was",      "for",      "with",     "memory",    "page",     "cache",   "disk",
    "system",   "process",  "kernel",   "compress",  "store",    "block",   "file",
    "segment",  "virtual",  "physical", "bandwidth", "latency",  "buffer",  "fault",
    "thrash",   "cluster",  "fragment", "swap",      "backing",  "network", "mobile",
    "computer", "sprite",   "unix",     "workload",  "locality", "random",  "access",
    "pattern",  "ratio",    "speed",    "overhead",  "penalty",  "daemon",  "clean",
    "dirty",    "quarterly","rendezvous","ubiquitous","peripheral","asymmetric",
    "heuristic","threshold","algorithm","dictionary","sequential","magnitude",
    "executable","decompress","hierarchy","granularity",
};
constexpr size_t kNumWords = sizeof(kWords) / sizeof(kWords[0]);

// Each word padded with spaces to kWordStore bytes, so the word stream can
// write a word and its separator with one fixed-size store (see
// AppendWordStream).
constexpr size_t kWordStore = 16;

struct PaddedWord {
  char bytes[kWordStore];
  uint8_t size;  // the word's own length, without padding
};

constexpr std::array<PaddedWord, kNumWords> MakePaddedWords() {
  std::array<PaddedWord, kNumWords> table{};
  for (size_t i = 0; i < kNumWords; ++i) {
    for (size_t j = 0; j < kWordStore; ++j) {
      table[i].bytes[j] = j < kWords[i].size() ? kWords[i][j] : ' ';
    }
    table[i].size = static_cast<uint8_t>(kWords[i].size());
  }
  return table;
}

constexpr bool EveryWordAndSeparatorFit() {
  for (const std::string_view w : kWords) {
    if (w.size() + 1 > kWordStore) {
      return false;
    }
  }
  return true;
}
static_assert(EveryWordAndSeparatorFit(), "a padded store must cover word + separator");

constexpr std::array<PaddedWord, kNumWords> kPaddedWords = MakePaddedWords();

// The recent-word window of kRepetitiveText.
constexpr size_t kMaxRepeatWindow = 4;

// Index of a word drawn with Zipf-ish frequency: squaring a uniform draw skews
// toward low indices (frequent words).
size_t PickWord(Rng& rng) {
  const double u = rng.NextDouble();
  const auto idx = static_cast<size_t>(u * u * static_cast<double>(kNumWords));
  return idx < kNumWords ? idx : kNumWords - 1;
}

// Writes a space-separated word stream over all of `page`. With
// repeat_window > 0, each word after the first repeats one of the last
// `repeat_window` freshly picked words with probability 0.6.
//
// While a whole padded word fits (pos + kWordStore <= size), each word and its
// separator go out in one kWordStore-byte store; the padding past the
// separator lands inside the page and is overwritten by the words after it,
// since every later byte up to the end is written again. The last words
// take the bytewise loop, which truncates the final word at the page end and
// writes its separator only if there is room. Both loops draw from `rng` in
// the same order, so the bytes and the stream match a bytewise fill exactly.
void AppendWordStream(std::span<uint8_t> page, Rng& rng, size_t repeat_window) {
  CC_EXPECTS(repeat_window <= kMaxRepeatWindow);
  uint8_t* const out = page.data();
  const size_t n = page.size();
  size_t recent[kMaxRepeatWindow] = {};
  size_t recent_count = 0;
  const auto next_word = [&]() -> const PaddedWord& {
    if (recent_count > 0 && rng.Chance(0.6)) {
      return kPaddedWords[recent[rng.Below(recent_count)]];  // repeat a recent word
    }
    const size_t w = PickWord(rng);
    if (repeat_window > 0) {
      if (recent_count == repeat_window) {
        // Full: drop the oldest, as the window slides.
        for (size_t i = 1; i < recent_count; ++i) {
          recent[i - 1] = recent[i];
        }
        --recent_count;
      }
      recent[recent_count++] = w;
    }
    return kPaddedWords[w];
  };

  size_t pos = 0;
  while (pos + kWordStore <= n) {
    const PaddedWord& w = next_word();
    std::memcpy(out + pos, w.bytes, kWordStore);
    pos += w.size + size_t{1};
  }
  while (pos < n) {
    const PaddedWord& w = next_word();
    for (size_t i = 0; i < w.size; ++i) {
      if (pos >= n) {
        return;
      }
      out[pos++] = static_cast<uint8_t>(w.bytes[i]);
    }
    if (pos < n) {
      out[pos++] = ' ';
    }
  }
}

}  // namespace

std::vector<ContentClass> AllContentClasses() {
  return {ContentClass::kZero,          ContentClass::kSparseNumeric,
          ContentClass::kRepetitiveText, ContentClass::kText,
          ContentClass::kShuffledWords,  ContentClass::kPointerArray,
          ContentClass::kRandom};
}

std::string_view ContentClassName(ContentClass c) {
  switch (c) {
    case ContentClass::kZero:
      return "zero";
    case ContentClass::kSparseNumeric:
      return "sparse_numeric";
    case ContentClass::kRepetitiveText:
      return "repetitive_text";
    case ContentClass::kText:
      return "text";
    case ContentClass::kShuffledWords:
      return "shuffled_words";
    case ContentClass::kPointerArray:
      return "pointer_array";
    case ContentClass::kRandom:
      return "random";
  }
  return "unknown";
}

void FillPage(std::span<uint8_t> page, ContentClass cls, Rng& rng) {
  switch (cls) {
    case ContentClass::kZero:
      std::memset(page.data(), 0, page.size());
      return;
    case ContentClass::kSparseNumeric: {
      std::memset(page.data(), 0, page.size());
      // Scatter small int32 values over ~1/4 of the slots.
      const size_t slots = page.size() / 4;
      for (size_t i = 0; i < slots; ++i) {
        if (rng.Chance(0.25)) {
          const auto v = static_cast<uint32_t>(rng.Below(4096));
          std::memcpy(page.data() + i * 4, &v, sizeof(v));
        }
      }
      return;
    }
    case ContentClass::kRepetitiveText:
      AppendWordStream(page, rng, /*repeat_window=*/kMaxRepeatWindow);
      return;
    case ContentClass::kText:
      AppendWordStream(page, rng, /*repeat_window=*/0);
      return;
    case ContentClass::kShuffledWords: {
      // Distinct word-like strings of near-random letters emulate the unsorted
      // many-distinct-strings regime of the paper's `sort random` input, where 98%
      // of pages fell below the 4:3 threshold: text-shaped (lowercase words with
      // separators) but with almost no within-page string repetition for LZRW1's
      // single-probe matcher to find.
      size_t pos = 0;
      while (pos < page.size()) {
        const size_t len = 4 + rng.Below(8);
        for (size_t i = 0; i < len && pos < page.size(); ++i) {
          page[pos++] = static_cast<uint8_t>('a' + rng.Below(26));
        }
        if (pos < page.size()) {
          page[pos++] = ' ';
        }
      }
      return;
    }
    case ContentClass::kPointerArray: {
      // Word-aligned addresses into a 16 KB hot structure (a linked data
      // structure's page as the VM sees it): upper bits cluster, low bits vary.
      const uint32_t base = 0x10000000u + static_cast<uint32_t>(rng.Below(1 << 20)) * 4096;
      for (size_t w = 0; w + 4 <= page.size(); w += 4) {
        const uint32_t pointer = base + static_cast<uint32_t>(rng.Below(1 << 14));
        std::memcpy(page.data() + w, &pointer, 4);
      }
      for (size_t i = page.size() & ~size_t{3}; i < page.size(); ++i) {
        page[i] = 0;
      }
      return;
    }
    case ContentClass::kRandom:
      for (auto& b : page) {
        b = static_cast<uint8_t>(rng.Next());
      }
      return;
  }
}

double MeasureLzrw1Ratio(std::span<const uint8_t> data) {
  CC_EXPECTS(!data.empty());
  Lzrw1 codec;
  std::vector<uint8_t> out(codec.MaxCompressedSize(data.size()));
  const size_t c = codec.Compress(data, out);
  return static_cast<double>(data.size()) / static_cast<double>(c);
}

}  // namespace compcache
