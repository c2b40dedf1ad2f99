#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "compress/adaptive.h"
#include "compress/codec.h"
#include "compress/lzrw1.h"
#include "compress/lzrw1a.h"
#include "compress/pagegen.h"
#include "compress/registry.h"
#include "compress/rle.h"
#include "compress/store.h"
#include "compress/wk.h"
#include "compress/threshold.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/units.h"

namespace compcache {
namespace {

std::vector<uint8_t> RoundTrip(Codec& codec, const std::vector<uint8_t>& input) {
  std::vector<uint8_t> compressed(codec.MaxCompressedSize(input.size()));
  const size_t c = codec.Compress(input, compressed);
  EXPECT_LE(c, codec.MaxCompressedSize(input.size()));
  compressed.resize(c);
  std::vector<uint8_t> output(input.size());
  const size_t d = codec.Decompress(compressed, output);
  EXPECT_EQ(d, input.size());
  return output;
}

// ---------- parameterized round-trip sweep: codec x content x size ----------

using RoundTripParam = std::tuple<std::string, ContentClass, size_t>;

class CodecRoundTripTest : public ::testing::TestWithParam<RoundTripParam> {};

TEST_P(CodecRoundTripTest, LosslessRoundTrip) {
  const auto& [codec_name, content, size] = GetParam();
  auto codec = MakeCodec(codec_name);
  Rng rng(static_cast<uint64_t>(size) * 31 + static_cast<uint64_t>(content));
  std::vector<uint8_t> input(size);
  if (!input.empty()) {
    FillPage(input, content, rng);
  }
  EXPECT_EQ(RoundTrip(*codec, input), input);
}

std::vector<RoundTripParam> AllRoundTripParams() {
  std::vector<RoundTripParam> params;
  for (const auto& name : KnownCodecNames()) {
    for (const ContentClass content : AllContentClasses()) {
      for (const size_t size : {size_t{1}, size_t{2}, size_t{3}, size_t{15}, size_t{16},
                                size_t{17}, size_t{100}, size_t{1024}, size_t{4096},
                                size_t{4097}, size_t{16384}}) {
        params.emplace_back(name, content, size);
      }
    }
  }
  return params;
}

std::string RoundTripParamName(const ::testing::TestParamInfo<RoundTripParam>& info) {
  const auto& [name, content, size] = info.param;
  return name + "_" + std::string(ContentClassName(content)) + "_" + std::to_string(size);
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecRoundTripTest,
                         ::testing::ValuesIn(AllRoundTripParams()), RoundTripParamName);

// ---------- expansion bound ----------

class CodecBoundTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CodecBoundTest, NeverExceedsMaxCompressedSize) {
  auto codec = MakeCodec(GetParam());
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t size = 1 + rng.Below(8192);
    std::vector<uint8_t> input(size);
    for (auto& b : input) {
      b = static_cast<uint8_t>(rng.Next());
    }
    std::vector<uint8_t> out(codec->MaxCompressedSize(size));
    const size_t c = codec->Compress(input, out);
    EXPECT_LE(c, codec->MaxCompressedSize(size));
    // Random data must fall back to the raw container: at most size + 1 bytes.
    EXPECT_LE(c, size + 1);
  }
}

TEST_P(CodecBoundTest, EmptyInput) {
  auto codec = MakeCodec(GetParam());
  std::vector<uint8_t> out(codec->MaxCompressedSize(0));
  const size_t c = codec->Compress({}, out);
  EXPECT_GE(c, 1u);
  std::vector<uint8_t> empty;
  EXPECT_EQ(codec->Decompress(std::span<const uint8_t>(out.data(), c), empty), 0u);
}

std::string BoundParamName(const ::testing::TestParamInfo<std::string>& info) {
  return info.param;
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecBoundTest, ::testing::ValuesIn(KnownCodecNames()),
                         BoundParamName);

// ---------- zero-page fast-path properties ----------

// Edge-content round trips the fast-path work leans on: all-zero pages (the
// fast path itself), single-value pages (near-degenerate codec input), and
// incompressible pages (raw-container fallback) across every codec.
class CodecEdgeContentTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CodecEdgeContentTest, ZeroSingleValueAndIncompressiblePagesRoundTrip) {
  auto codec = MakeCodec(GetParam());
  std::vector<std::vector<uint8_t>> pages;
  pages.emplace_back(kPageSize, uint8_t{0});
  for (const uint8_t value : {uint8_t{0x01}, uint8_t{0xAB}, uint8_t{0xFF}}) {
    pages.emplace_back(kPageSize, value);
  }
  Rng rng(2026);
  std::vector<uint8_t> random_page(kPageSize);
  FillPage(random_page, ContentClass::kRandom, rng);
  pages.push_back(std::move(random_page));
  for (const auto& page : pages) {
    EXPECT_EQ(RoundTrip(*codec, page), page) << "first byte " << int(page[0]);
  }
}

// Every codec must accept the one-byte zero-page marker, whatever backing
// store it was read back from, and reproduce the all-zero page.
TEST_P(CodecEdgeContentTest, AcceptsZeroPageMarker) {
  auto codec = MakeCodec(GetParam());
  const uint8_t marker[] = {kContainerZeroPage};
  std::vector<uint8_t> out(kPageSize, 0xCD);  // poisoned: must be overwritten
  ASSERT_TRUE(codec->TryDecompress(marker, out));
  EXPECT_EQ(out, std::vector<uint8_t>(kPageSize, 0));
}

// Ratio classes on the content shapes the fixed-factor codecs are built
// around. Every codec must round trip all three pages; the BDI/FPC/dict
// assertions pin which *class* of output size each produces — catching a codec
// that silently degrades to its fallback on the pattern it exists to exploit,
// or one that claims compression on content it cannot represent.
TEST_P(CodecEdgeContentTest, RatioClassesOnStructuredPatterns) {
  const std::string name = GetParam();
  auto codec = MakeCodec(name);
  const auto compressed_size = [&](const std::vector<uint8_t>& page) {
    std::vector<uint8_t> buf(codec->MaxCompressedSize(page.size()));
    buf.resize(codec->Compress(page, buf));
    std::vector<uint8_t> out(page.size());
    EXPECT_TRUE(codec->TryDecompress(buf, out));
    EXPECT_EQ(out, page);
    return buf.size();
  };

  // One 32-bit word everywhere: a one-entry dictionary, BDI's repeated-word
  // chunks. FPC has no repeated-arbitrary-word class (only repeated bytes), so
  // this page forces its raw fallback.
  std::vector<uint8_t> same_word(kPageSize);
  for (size_t i = 0; i < kPageSize; i += 4) {
    const uint32_t w = 0x12345678u;
    std::memcpy(same_word.data() + i, &w, 4);
  }
  const size_t same = compressed_size(same_word);
  if (name == "bdi" || name == "dict" || name == "adaptive") {
    EXPECT_LE(same, kPageSize / 7) << name << " should crush a single-word page";
  } else if (name == "fpc") {
    EXPECT_EQ(same, kPageSize + 1) << "no FPC class covers a repeated arbitrary word";
  }

  // Alternating small positive / small negative words: FPC's sign-extended
  // 8-bit class (11 bits per word); viewed as 64-bit words the page is one
  // repeated value (BDI's repeated-word class), and as a dictionary it has two
  // entries.
  std::vector<uint8_t> alternating(kPageSize);
  for (size_t i = 0; i < kPageSize; i += 4) {
    const uint32_t w = (i % 8 == 0) ? 0x00000012u : 0xFFFFFFEDu;  // +18 / -19
    std::memcpy(alternating.data() + i, &w, 4);
  }
  const size_t alternating_size = compressed_size(alternating);
  if (name == "fpc") {
    EXPECT_LE(alternating_size, kPageSize * 2 / 5)
        << "alternating small values fit FPC's 8-bit sign-extended class";
  } else if (name == "bdi" || name == "dict" || name == "adaptive") {
    EXPECT_LE(alternating_size, kPageSize / 7) << name;
  }

  // Near-incompressible random bytes: the fixed-factor codecs have no partial
  // wins to offer, so they must land exactly on the raw fallback (n + 1);
  // every codec is bounded by it.
  Rng rng(0xED6E);
  std::vector<uint8_t> random_page(kPageSize);
  FillPage(random_page, ContentClass::kRandom, rng);
  const size_t random_size = compressed_size(random_page);
  EXPECT_LE(random_size, kPageSize + 1);
  if (name == "bdi" || name == "fpc" || name == "dict" || name == "adaptive" ||
      name == "store" || name == "zero") {
    EXPECT_EQ(random_size, kPageSize + 1)
        << name << " should fall back to raw on random content";
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecEdgeContentTest,
                         ::testing::ValuesIn(KnownCodecNames()), BoundParamName);

TEST(ZeroPageScanTest, DetectsZeroPagesAtAnyAlignment) {
  std::vector<uint8_t> page(kPageSize, 0);
  EXPECT_TRUE(IsZeroPage(page));
  for (size_t head = 1; head <= 8; ++head) {
    EXPECT_TRUE(IsZeroPage(std::span<const uint8_t>(page).subspan(head)));
    EXPECT_TRUE(IsZeroPage(std::span<const uint8_t>(page).subspan(0, kPageSize - head)));
  }
  EXPECT_TRUE(IsZeroPage({}));
}

TEST(ZeroPageScanTest, AnySingleNonZeroByteIsDetected) {
  std::vector<uint8_t> page(kPageSize);
  const size_t positions[] = {0, 1, 7, 8, 63, kPageSize / 2, kPageSize - 9, kPageSize - 1};
  for (const size_t pos : positions) {
    page.assign(kPageSize, 0);
    page[pos] = 1;
    EXPECT_FALSE(IsZeroPage(page)) << pos;
  }
}

TEST(ZeroPageScanTest, MarkerPredicate) {
  const std::vector<uint8_t> marker = {kContainerZeroPage};
  EXPECT_TRUE(IsZeroPageMarker(marker));
  EXPECT_FALSE(IsZeroPageMarker(std::vector<uint8_t>{kContainerRaw}));
  EXPECT_FALSE(IsZeroPageMarker(std::vector<uint8_t>{kContainerZeroPage, 0}));
  EXPECT_FALSE(IsZeroPageMarker({}));
}

// ---------- compression-quality expectations ----------

TEST(Lzrw1Test, ZeroPageCompressesExtremely) {
  std::vector<uint8_t> page(kPageSize, 0);
  Lzrw1 codec;
  std::vector<uint8_t> out(codec.MaxCompressedSize(page.size()));
  const size_t c = codec.Compress(page, out);
  EXPECT_LT(c, kPageSize / 8);  // far better than 8:1
}

TEST(Lzrw1Test, RandomPageStoredRaw) {
  Rng rng(1);
  std::vector<uint8_t> page(kPageSize);
  FillPage(page, ContentClass::kRandom, rng);
  Lzrw1 codec;
  std::vector<uint8_t> out(codec.MaxCompressedSize(page.size()));
  const size_t c = codec.Compress(page, out);
  EXPECT_EQ(c, kPageSize + 1);  // raw container
  EXPECT_EQ(out[0], kContainerRaw);
}

TEST(Lzrw1Test, RepetitiveTextBeatsThreePerFour) {
  Rng rng(2);
  std::vector<uint8_t> page(kPageSize);
  FillPage(page, ContentClass::kRepetitiveText, rng);
  Lzrw1 codec;
  std::vector<uint8_t> out(codec.MaxCompressedSize(page.size()));
  const size_t c = codec.Compress(page, out);
  // Must pass the paper's 4:3 threshold comfortably.
  EXPECT_LT(c, kPageSize * 3 / 4);
}

TEST(Lzrw1Test, SparseNumericRoughlyFourToOne) {
  Rng rng(3);
  RunningStats ratio;
  for (int i = 0; i < 32; ++i) {
    std::vector<uint8_t> page(kPageSize);
    FillPage(page, ContentClass::kSparseNumeric, rng);
    ratio.Add(MeasureLzrw1Ratio(page));
  }
  // The paper's thrasher pages compressed "roughly 4:1".
  EXPECT_GT(ratio.mean(), 2.5);
  EXPECT_LT(ratio.mean(), 8.0);
}

TEST(Lzrw1Test, ShuffledWordsFailThreshold) {
  Rng rng(4);
  const CompressionThreshold threshold;  // 4:3
  int below = 0;
  const int n = 64;
  for (int i = 0; i < n; ++i) {
    std::vector<uint8_t> page(kPageSize);
    FillPage(page, ContentClass::kShuffledWords, rng);
    Lzrw1 codec;
    std::vector<uint8_t> out(codec.MaxCompressedSize(page.size()));
    const size_t c = codec.Compress(page, out);
    if (!threshold.KeepCompressed(kPageSize, c)) {
      ++below;
    }
  }
  // The paper saw ~98% of sort-random pages below 4:3; require a strong majority.
  EXPECT_GT(below, n * 3 / 4);
}

TEST(Lzrw1Test, LargerHashTableCompressesNoWorse) {
  Rng rng(5);
  std::vector<uint8_t> page(kPageSize);
  FillPage(page, ContentClass::kText, rng);
  Lzrw1 small(10);
  Lzrw1 large(16);
  std::vector<uint8_t> out_small(small.MaxCompressedSize(page.size()));
  std::vector<uint8_t> out_large(large.MaxCompressedSize(page.size()));
  const size_t cs = small.Compress(page, out_small);
  const size_t cl = large.Compress(page, out_large);
  EXPECT_LE(cl, cs + 64);  // a larger table should not be much worse
}

TEST(Lzrw1Test, HashTableBytesMatchesPaperDefault) {
  Lzrw1 codec(12);
  EXPECT_EQ(codec.hash_table_bytes(), 16u * 1024);  // the paper's 16 KB
}

TEST(Lzrw1aTest, NoWorseThanLzrw1OnText) {
  Rng rng(6);
  uint64_t total1 = 0;
  uint64_t total1a = 0;
  for (int i = 0; i < 16; ++i) {
    std::vector<uint8_t> page(kPageSize);
    FillPage(page, ContentClass::kText, rng);
    Lzrw1 c1;
    Lzrw1a c1a;
    std::vector<uint8_t> out(c1.MaxCompressedSize(page.size()));
    total1 += c1.Compress(page, out);
    total1a += c1a.Compress(page, out);
  }
  EXPECT_LE(total1a, total1);  // the two-way bucket must pay off on average
}

TEST(Lzrw1aTest, BitstreamDecodableByLzrw1) {
  Rng rng(8);
  std::vector<uint8_t> page(kPageSize);
  FillPage(page, ContentClass::kRepetitiveText, rng);
  Lzrw1a enc;
  std::vector<uint8_t> compressed(enc.MaxCompressedSize(page.size()));
  const size_t c = enc.Compress(page, compressed);
  Lzrw1 dec;
  std::vector<uint8_t> out(page.size());
  dec.Decompress(std::span<const uint8_t>(compressed.data(), c), out);
  EXPECT_EQ(out, page);
}

TEST(RleTest, RunsCollapse) {
  std::vector<uint8_t> input(1000, 0xAB);
  RleCodec codec;
  std::vector<uint8_t> out(codec.MaxCompressedSize(input.size()));
  const size_t c = codec.Compress(input, out);
  EXPECT_LT(c, 32u);
}

TEST(RleTest, AlternatingBytesFallBackRaw) {
  std::vector<uint8_t> input(1000);
  for (size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<uint8_t>(i & 1);
  }
  RleCodec codec;
  std::vector<uint8_t> out(codec.MaxCompressedSize(input.size()));
  const size_t c = codec.Compress(input, out);
  EXPECT_EQ(c, input.size() + 1);
}

TEST(StoreTest, AlwaysRaw) {
  std::vector<uint8_t> input{1, 2, 3};
  StoreCodec codec;
  std::vector<uint8_t> out(codec.MaxCompressedSize(input.size()));
  EXPECT_EQ(codec.Compress(input, out), 4u);
  EXPECT_EQ(out[0], kContainerRaw);
}


// ---------- WK word codec ----------

TEST(WkTest, PointerPagesBeatLzrw1) {
  // A page of word-aligned "pointers" into a small region — sort's index pages,
  // gold's postings. LZRW1 sees near-random bytes; the word model sees partial
  // dictionary matches.
  Rng rng(21);
  std::vector<uint8_t> page(kPageSize);
  for (size_t w = 0; w < kPageSize / 4; ++w) {
    // Pointers into a 16 KB hot structure: upper 22 bits take ~16 values (the
    // dictionary covers them); low 10 bits vary freely.
    const uint32_t pointer = 0x10000000u + static_cast<uint32_t>(rng.Below(1 << 14));
    std::memcpy(page.data() + w * 4, &pointer, 4);
  }
  WkCodec wk;
  Lzrw1 lz;
  std::vector<uint8_t> out(wk.MaxCompressedSize(page.size()));
  std::vector<uint8_t> out2(lz.MaxCompressedSize(page.size()));
  const size_t wk_size = wk.Compress(page, out);
  const size_t lz_size = lz.Compress(page, out2);
  EXPECT_LT(wk_size, lz_size);
  EXPECT_LT(wk_size, kPageSize * 3 / 4);  // wk passes the paper's 4:3 threshold...
  EXPECT_GT(lz_size, kPageSize * 3 / 4);  // ...where LZRW1 fails it
}

TEST(WkTest, ZeroPageNearOptimal) {
  std::vector<uint8_t> page(kPageSize, 0);
  WkCodec wk;
  std::vector<uint8_t> out(wk.MaxCompressedSize(page.size()));
  const size_t c = wk.Compress(page, out);
  // 2 bits per word plus headers: ~260 bytes for a 4 KB page.
  EXPECT_LT(c, 300u);
}

TEST(WkTest, UnalignedTailPreserved) {
  Rng rng(22);
  for (const size_t n : {17u, 33u, 1001u, 4095u}) {
    std::vector<uint8_t> input(n);
    FillPage(input, ContentClass::kSparseNumeric, rng);
    WkCodec wk;
    std::vector<uint8_t> out(wk.MaxCompressedSize(n));
    const size_t c = wk.Compress(input, out);
    std::vector<uint8_t> back(n);
    wk.Decompress(std::span<const uint8_t>(out.data(), c), back);
    EXPECT_EQ(back, input) << n;
  }
}

TEST(WkTest, RandomWordsFallBackRaw) {
  Rng rng(23);
  std::vector<uint8_t> page(kPageSize);
  FillPage(page, ContentClass::kRandom, rng);
  WkCodec wk;
  std::vector<uint8_t> out(wk.MaxCompressedSize(page.size()));
  const size_t c = wk.Compress(page, out);
  EXPECT_EQ(c, kPageSize + 1);
  EXPECT_EQ(out[0], kContainerRaw);
}

// ---------- decompression matches across hash-table sizes ----------

class HashBitsTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(HashBitsTest, RoundTripAtAnyTableSize) {
  Lzrw1 codec(GetParam());
  Rng rng(17);
  std::vector<uint8_t> page(kPageSize);
  FillPage(page, ContentClass::kText, rng);
  EXPECT_EQ(RoundTrip(codec, page), page);
}

INSTANTIATE_TEST_SUITE_P(TableSizes, HashBitsTest, ::testing::Values(8u, 10u, 12u, 14u, 18u));

// ---------- threshold ----------

TEST(ThresholdTest, PaperDefault) {
  const CompressionThreshold t;  // 4:3
  EXPECT_TRUE(t.KeepCompressed(4096, 3072));
  EXPECT_FALSE(t.KeepCompressed(4096, 3073));
  EXPECT_EQ(t.MaxAcceptable(4096), 3072u);
}

TEST(ThresholdTest, TwoToOne) {
  const CompressionThreshold t(2, 1);
  EXPECT_TRUE(t.KeepCompressed(4096, 2048));
  EXPECT_FALSE(t.KeepCompressed(4096, 2049));
}

TEST(ThresholdTest, OneToOneKeepsEverythingNotExpanded) {
  const CompressionThreshold t(1, 1);
  EXPECT_TRUE(t.KeepCompressed(4096, 4096));
  EXPECT_FALSE(t.KeepCompressed(4096, 4097));
}

// ---------- registry ----------

TEST(RegistryTest, KnownNamesConstruct) {
  for (const auto& name : KnownCodecNames()) {
    auto codec = MakeCodec(name);
    ASSERT_NE(codec, nullptr);
    EXPECT_EQ(codec->name(), name);
  }
}

// ---------- pagegen ----------

TEST(PagegenTest, DeterministicGivenSeed) {
  Rng a(42);
  Rng b(42);
  std::vector<uint8_t> pa(kPageSize);
  std::vector<uint8_t> pb(kPageSize);
  for (const ContentClass c : AllContentClasses()) {
    FillPage(pa, c, a);
    FillPage(pb, c, b);
    EXPECT_EQ(pa, pb) << ContentClassName(c);
  }
}

TEST(PagegenTest, CompressibilityOrdering) {
  // zero <= sparse <= repetitive <= text <= shuffled <= random, in compressed size.
  Rng rng(77);
  std::vector<double> sizes;
  for (const ContentClass c :
       {ContentClass::kZero, ContentClass::kSparseNumeric, ContentClass::kRepetitiveText,
        ContentClass::kText, ContentClass::kShuffledWords, ContentClass::kRandom}) {
    double total = 0;
    for (int i = 0; i < 8; ++i) {
      std::vector<uint8_t> page(kPageSize);
      FillPage(page, c, rng);
      total += 1.0 / MeasureLzrw1Ratio(page);
    }
    sizes.push_back(total);
  }
  for (size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_LE(sizes[i - 1], sizes[i] * 1.05) << "class order " << i;
  }
}

// ---------- corruption fuzz: malformed input must never crash a decoder ----------

// Seeded fuzz over every codec: valid compressed images are bit-flipped,
// truncated, extended, and replaced with garbage, then fed to TryDecompress.
// The only acceptable outcomes are `false` (rejected) or `true` with the output
// span filled — never a crash, hang, or out-of-bounds access (ASan/UBSan run
// this suite in CI).
class CodecFuzzTest : public ::testing::TestWithParam<std::string> {};

// CC_FUZZ_ROUNDS overrides the per-codec round count (default 200): the
// nightly CI workflow runs this suite with a much larger budget than the
// push-gated jobs can afford.
int FuzzRounds() {
  const char* env = std::getenv("CC_FUZZ_ROUNDS");
  if (env == nullptr) {
    return 200;
  }
  const int rounds = std::atoi(env);
  return rounds > 0 ? rounds : 200;
}

// One fuzz mutation of a valid image: bit flips, truncation, trailing
// garbage, or pure garbage.
std::vector<uint8_t> MutateImage(const std::vector<uint8_t>& image, Rng& rng) {
  std::vector<uint8_t> mutated = image;
  const double kind = rng.NextDouble();
  if (kind < 0.4) {
    // Flip 1-16 bits anywhere, including the container byte.
    const uint64_t flips = 1 + rng.Below(16);
    for (uint64_t i = 0; i < flips && !mutated.empty(); ++i) {
      const uint64_t bit = rng.Below(mutated.size() * 8);
      mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
  } else if (kind < 0.6) {
    mutated.resize(rng.Below(mutated.size() + 1));  // truncate, possibly to empty
  } else if (kind < 0.8) {
    const uint64_t extra = 1 + rng.Below(64);  // trailing garbage
    for (uint64_t i = 0; i < extra; ++i) {
      mutated.push_back(static_cast<uint8_t>(rng.Next()));
    }
  } else {
    mutated.resize(1 + rng.Below(2 * kPageSize));  // pure garbage
    for (auto& b : mutated) {
      b = static_cast<uint8_t>(rng.Next());
    }
  }
  return mutated;
}

TEST_P(CodecFuzzTest, MutatedImagesNeverCrashDecoder) {
  auto codec = MakeCodec(GetParam());
  Rng rng(0xC0DECu);
  std::vector<uint8_t> page(kPageSize);
  std::vector<uint8_t> out(kPageSize);

  const int rounds = FuzzRounds();
  for (int round = 0; round < rounds; ++round) {
    const ContentClass content =
        AllContentClasses()[rng.Below(AllContentClasses().size())];
    FillPage(page, content, rng);
    std::vector<uint8_t> compressed(codec->MaxCompressedSize(page.size()));
    compressed.resize(codec->Compress(page, compressed));

    const std::vector<uint8_t> mutated = MutateImage(compressed, rng);
    std::fill(out.begin(), out.end(), 0xEE);
    (void)codec->TryDecompress(mutated, out);  // may fail; must not crash

    // The decoder must stay usable for the next (valid) image.
    ASSERT_TRUE(codec->TryDecompress(compressed, out)) << "round " << round;
    ASSERT_EQ(0, std::memcmp(out.data(), page.data(), page.size())) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecFuzzTest, ::testing::ValuesIn(KnownCodecNames()),
                         [](const auto& param_info) { return param_info.param; });

// Exhaustive truncation of the adaptive 0x03 wrapper: a short image must fail
// closed at *every* length — the wrapper dispatches to a member codec, and no
// member may accept an image whose tail was cut off by a torn write.
TEST(AdaptiveWrapperTruncation, EveryShortImageFailsClosed) {
  auto codec = MakeCodec("adaptive");
  Rng rng(0xADA97u);
  std::vector<uint8_t> page(kPageSize);
  std::vector<uint8_t> out(kPageSize);

  int wrapped_images = 0;
  for (const ContentClass content : AllContentClasses()) {
    for (int round = 0; round < 4; ++round) {
      FillPage(page, content, rng);
      std::vector<uint8_t> compressed(codec->MaxCompressedSize(page.size()));
      compressed.resize(codec->Compress(page, compressed));
      if (compressed.empty() || compressed[0] != kContainerAdaptive) {
        continue;  // zero marker or raw fallback: no wrapper to truncate
      }
      ++wrapped_images;
      for (size_t len = 0; len < compressed.size(); ++len) {
        std::fill(out.begin(), out.end(), 0xEE);
        const bool ok = codec->TryDecompress(
            std::span<const uint8_t>(compressed.data(), len), out);
        ASSERT_FALSE(ok) << ContentClassName(content) << " accepted a "
                         << len << "-byte prefix of a " << compressed.size()
                         << "-byte wrapper image";
      }
      // The untruncated image still round-trips after the rejection sweep.
      ASSERT_TRUE(codec->TryDecompress(compressed, out));
      ASSERT_EQ(0, std::memcmp(out.data(), page.data(), page.size()));
    }
  }
  EXPECT_GT(wrapped_images, 0) << "no content class produced a wrapped image";
}

// ---------- LZRW1 byte-exact oracle ----------

// The bytewise LZRW1 encoder and decoder as they stood before the fast-path
// kernels, kept verbatim as the oracle: Lzrw1::Compress must produce the same
// image on every input, and LzrwTryDecode must give the same verdict on every
// input (and, when it accepts, the same output bytes).
class RefLzrw1 {
 public:
  explicit RefLzrw1(unsigned hash_bits) : hash_bits_(hash_bits) {
    table_.assign(size_t{1} << hash_bits_, 0);
  }

  static size_t MaxCompressedSize(size_t n) { return 1 + n + 2 * ((n + 15) / 16); }

  size_t Compress(std::span<const uint8_t> src, std::span<uint8_t> dst) {
    const size_t n = src.size();
    if (n == 0) {
      dst[0] = kContainerRaw;
      return 1;
    }
    if (n > kPosMask - 1 || epoch_ == kMaxEpoch) {
      std::memset(table_.data(), 0, table_.size() * sizeof(uint32_t));
      epoch_ = 0;
    } else {
      ++epoch_;
    }
    const uint32_t epoch_tag = epoch_ << kPosBits;

    uint8_t* const out_begin = dst.data();
    uint8_t* out = out_begin + 1;
    const uint8_t* const in = src.data();

    size_t pos = 0;
    while (pos < n) {
      uint8_t* const control_at = out;
      out += 2;
      uint16_t control = 0;

      for (size_t item = 0; item < 16 && pos < n; ++item) {
        bool emitted_copy = false;
        if (pos + kLzrwMinMatch <= n) {
          const uint32_t h = Hash(in + pos);
          const uint32_t entry = table_[h];
          const uint32_t prev_plus1 = (entry & ~kPosMask) == epoch_tag ? (entry & kPosMask) : 0;
          table_[h] = epoch_tag | (static_cast<uint32_t>(pos) + 1);
          if (prev_plus1 != 0) {
            const size_t prev = prev_plus1 - 1;
            const size_t offset = pos - prev;
            if (offset >= 1 && offset <= kLzrwMaxOffset && in[prev] == in[pos] &&
                in[prev + 1] == in[pos + 1] && in[prev + 2] == in[pos + 2]) {
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
      dst[0] = kContainerRaw;
      std::memcpy(dst.data() + 1, in, n);
      return n + 1;
    }
    dst[0] = kContainerCompressed;
    return compressed_size;
  }

 private:
  uint32_t Hash(const uint8_t* p) const {
    const uint32_t key =
        (static_cast<uint32_t>(p[0]) << 16) | (static_cast<uint32_t>(p[1]) << 8) | p[2];
    return (key * 40543u) >> (24 - hash_bits_) & ((1u << hash_bits_) - 1);
  }

  static constexpr uint32_t kPosBits = 20;
  static constexpr uint32_t kPosMask = (1u << kPosBits) - 1;
  static constexpr uint32_t kMaxEpoch = (1u << (32 - kPosBits)) - 1;
  unsigned hash_bits_;
  std::vector<uint32_t> table_;
  uint32_t epoch_ = 0;
};

bool RefLzrwTryDecode(std::span<const uint8_t> src, std::span<uint8_t> dst) {
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
    if (n > 0) {
      std::memcpy(dst.data(), in, n);
    }
    return true;
  }
  if (src[0] != kContainerCompressed) {
    return false;
  }

  uint8_t* out = dst.data();
  uint8_t* const out_end = out + n;
  while (out < out_end) {
    if (in + 2 > in_end) {
      return false;
    }
    const uint16_t control = static_cast<uint16_t>(in[0] | (in[1] << 8));
    in += 2;
    for (size_t item = 0; item < 16 && out < out_end; ++item) {
      if (control & (1u << item)) {
        if (in + 2 > in_end) {
          return false;
        }
        const uint32_t b0 = *in++;
        const uint32_t b1 = *in++;
        const size_t offset = ((b0 & 0xF0u) << 4) | b1;
        const size_t len = (b0 & 0x0Fu) + kLzrwMinMatch;
        if (offset < 1 || out - dst.data() < static_cast<ptrdiff_t>(offset) ||
            out + len > out_end) {
          return false;
        }
        const uint8_t* from = out - offset;
        for (size_t i = 0; i < len; ++i) {
          *out++ = *from++;
        }
      } else {
        if (in >= in_end) {
          return false;
        }
        *out++ = *in++;
      }
    }
  }
  return in == in_end;
}

std::vector<uint8_t> CompressWith(Lzrw1& codec, std::span<const uint8_t> input) {
  std::vector<uint8_t> image(codec.MaxCompressedSize(input.size()));
  image.resize(codec.Compress(input, image));
  return image;
}

std::vector<uint8_t> CompressWith(RefLzrw1& ref, std::span<const uint8_t> input) {
  std::vector<uint8_t> image(RefLzrw1::MaxCompressedSize(input.size()));
  image.resize(ref.Compress(input, image));
  return image;
}

// Decodes `image` into an `out_size`-byte buffer with both decoders and
// checks they agree: same verdict, and the same bytes whenever they accept
// (dst is unspecified on rejection). Returns the verdict. The image is copied
// into a buffer of exactly its size, so under ASan a read past its end is
// caught rather than landing in the caller's larger buffer. Callers name the
// case with SCOPED_TRACE.
bool ExpectSameDecode(std::span<const uint8_t> image, size_t out_size) {
  const std::vector<uint8_t> exact(image.begin(), image.end());
  std::vector<uint8_t> fast(out_size, 0xEE);
  std::vector<uint8_t> ref(out_size, 0xEE);
  const bool fast_ok = LzrwTryDecode(exact, fast);
  const bool ref_ok = RefLzrwTryDecode(exact, ref);
  EXPECT_EQ(fast_ok, ref_ok);
  if (fast_ok && ref_ok) {
    EXPECT_EQ(fast, ref);
  }
  return ref_ok;
}

// Compresses `input` with the codec under test and the oracle, expects
// identical images, and checks both decoders round-trip the image. The input
// is copied to an exactly-sized buffer for the same reason as above.
void ExpectSameImage(Lzrw1& codec, RefLzrw1& ref, std::span<const uint8_t> input) {
  const std::vector<uint8_t> exact(input.begin(), input.end());
  const std::vector<uint8_t> image = CompressWith(codec, exact);
  ASSERT_EQ(image, CompressWith(ref, input));
  std::vector<uint8_t> out(input.size(), 0xEE);
  ASSERT_TRUE(LzrwTryDecode(image, out));
  ASSERT_TRUE(std::equal(out.begin(), out.end(), input.begin(), input.end()));
  ASSERT_TRUE(ExpectSameDecode(image, input.size()));
}

// Two pages of each content class, plus short-period patterns so that copies
// with offsets below 8 (the decoder's byte-wise case) occur.
std::vector<std::vector<uint8_t>> OracleSources(Rng& rng) {
  std::vector<std::vector<uint8_t>> sources;
  for (const ContentClass content : AllContentClasses()) {
    std::vector<uint8_t> page(2 * kPageSize + 8);
    FillPage(std::span<uint8_t>(page).first(kPageSize), content, rng);
    FillPage(std::span<uint8_t>(page).subspan(kPageSize, kPageSize), content, rng);
    sources.push_back(std::move(page));
  }
  for (const size_t period : {2, 3, 5, 7}) {
    std::vector<uint8_t> page(2 * kPageSize + 8);
    for (size_t i = 0; i < page.size(); ++i) {
      page[i] = static_cast<uint8_t>(i % period == 0 ? rng.Below(4) : i % period);
    }
    sources.push_back(std::move(page));
  }
  return sources;
}

TEST(Lzrw1OracleTest, ContentClassesAtEveryHashSize) {
  for (const unsigned hash_bits : {8u, 12u, 16u, 22u}) {
    SCOPED_TRACE(::testing::Message() << "hash_bits " << hash_bits);
    Lzrw1 codec(hash_bits);
    RefLzrw1 ref(hash_bits);
    Rng rng(0x0AC1Eu + hash_bits);
    std::vector<uint8_t> page(kPageSize);
    for (const ContentClass content : AllContentClasses()) {
      for (int round = 0; round < 8; ++round) {
        SCOPED_TRACE(::testing::Message() << ContentClassName(content) << " round " << round);
        FillPage(page, content, rng);
        ExpectSameImage(codec, ref, page);
      }
    }
  }
}

// The encoder's fast groups run while 16 * 18 + 24 input bytes remain and the
// decoder's while 34 input / 16 * 18 output bytes remain; every length up to 700,
// plus lengths on both sides of a few later group boundaries, puts that
// switch-over at every position relative to a group.
TEST(Lzrw1OracleTest, EveryLengthAcrossTheFastTailBoundary) {
  Rng rng(0x1E9C7u);
  const std::vector<std::vector<uint8_t>> sources = OracleSources(rng);
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 700; ++len) {
    lengths.push_back(len);
  }
  for (const size_t base : {1024, 2048, 3786, 4096, 4410, 8192}) {
    lengths.insert(lengths.end(), {base - 3, base - 1, base, base + 1});
  }
  for (size_t s = 0; s < sources.size(); ++s) {
    Lzrw1 codec;
    RefLzrw1 ref(12);
    for (const size_t len : lengths) {
      SCOPED_TRACE(::testing::Message() << "source " << s << " length " << len);
      ExpectSameImage(codec, ref, std::span<const uint8_t>(sources[s]).first(len));
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
}

// Thousands of calls on one codec object cross the epoch-tag wrap (every
// 4095 calls) with stale entries from earlier inputs still in the table; the
// images must match both a long-lived oracle and a fresh-table oracle.
TEST(Lzrw1OracleTest, LongLivedCodecMatchesFreshTable) {
  Rng rng(0xE90C5u);
  const std::vector<std::vector<uint8_t>> sources = OracleSources(rng);
  Lzrw1 codec;
  RefLzrw1 long_lived(12);
  for (int call = 0; call < 5000; ++call) {
    const std::vector<uint8_t>& source = sources[rng.Below(sources.size())];
    const size_t start = rng.Below(kPageSize);
    const size_t len = 1 + rng.Below(kPageSize);
    const std::vector<uint8_t> input(source.begin() + start, source.begin() + start + len);
    const std::vector<uint8_t> image = CompressWith(codec, input);
    ASSERT_EQ(image, CompressWith(long_lived, input)) << "call " << call;
    RefLzrw1 fresh(12);
    ASSERT_EQ(image, CompressWith(fresh, input)) << "call " << call;
  }
}

// Inputs past 2^20 - 1 bytes do not fit the packed position field: the table
// is cleared on every call and positions past the field never match.
TEST(Lzrw1OracleTest, InputsPastThePackedPositionField) {
  Rng rng(0xB16u);
  const std::vector<std::vector<uint8_t>> sources = OracleSources(rng);
  std::vector<uint8_t> big;
  while (big.size() < (size_t{1} << 20) + 2 * kPageSize) {
    const std::vector<uint8_t>& source = sources[rng.Below(sources.size())];
    big.insert(big.end(), source.begin(), source.begin() + kPageSize);
  }
  Lzrw1 codec;
  RefLzrw1 ref(12);
  for (const size_t len : {(size_t{1} << 20) - 2, (size_t{1} << 20) + 4097, big.size()}) {
    SCOPED_TRACE(::testing::Message() << "length " << len);
    ExpectSameImage(codec, ref, std::span<const uint8_t>(big).first(len));
    // A page-sized call after the big one reuses the table.
    ExpectSameImage(codec, ref, std::span<const uint8_t>(big).first(kPageSize));
  }
}

TEST(Lzrw1OracleTest, MutatedImagesGetTheSameVerdict) {
  Lzrw1 codec;
  Rng rng(0xC0DE5u);
  std::vector<uint8_t> page(kPageSize);
  int accepted = 0;
  int rejected = 0;
  const int rounds = 10 * FuzzRounds();
  for (int round = 0; round < rounds; ++round) {
    const ContentClass content = AllContentClasses()[rng.Below(AllContentClasses().size())];
    FillPage(page, content, rng);
    const std::vector<uint8_t> mutated = MutateImage(CompressWith(codec, page), rng);
    SCOPED_TRACE(::testing::Message() << "round " << round);
    ++(ExpectSameDecode(mutated, page.size()) ? accepted : rejected);
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(Lzrw1OracleTest, EveryTruncationGetsTheSameVerdict) {
  Lzrw1 codec;
  Rng rng(0x7A0C8u);
  std::vector<uint8_t> page(kPageSize);
  for (const ContentClass content : AllContentClasses()) {
    SCOPED_TRACE(ContentClassName(content));
    FillPage(page, content, rng);
    const std::vector<uint8_t> image = CompressWith(codec, page);
    for (size_t len = 0; len <= image.size(); ++len) {
      SCOPED_TRACE(::testing::Message() << "prefix " << len);
      const std::span<const uint8_t> prefix = std::span<const uint8_t>(image).first(len);
      EXPECT_EQ(ExpectSameDecode(prefix, page.size()), len == image.size());
    }
    // A wrong output size must be rejected the same way too.
    for (const size_t out_size : {kPageSize - 1, kPageSize + 1, kPageSize + 300}) {
      SCOPED_TRACE(::testing::Message() << "out_size " << out_size);
      ExpectSameDecode(image, out_size);
    }
  }
}

TEST(Lzrw1OracleTest, Lzrw1aImagesDecodeIdentically) {
  Lzrw1a codec;
  Rng rng(0x1A1Au);
  const std::vector<std::vector<uint8_t>> sources = OracleSources(rng);
  for (size_t s = 0; s < sources.size(); ++s) {
    for (const size_t len : {1, 17, 311, 313, 700, 4096, 8192}) {
      SCOPED_TRACE(::testing::Message() << "source " << s << " length " << len);
      const std::span<const uint8_t> input = std::span<const uint8_t>(sources[s]).first(len);
      std::vector<uint8_t> image(codec.MaxCompressedSize(len));
      image.resize(codec.Compress(input, image));
      ASSERT_TRUE(ExpectSameDecode(image, len));
      std::vector<uint8_t> out(len);
      ASSERT_TRUE(LzrwTryDecode(image, out));
      ASSERT_TRUE(std::equal(out.begin(), out.end(), input.begin(), input.end()));
    }
  }
}

}  // namespace
}  // namespace compcache
