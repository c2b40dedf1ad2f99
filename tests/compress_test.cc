#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <utility>
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
#include "util/checksum.h"
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

// Golden output of FillPage, recorded from the bytewise generator: for each
// class, seed and length, the CRC-32C of the filled bytes and the Rng's next
// Next() after the fill. A generator kernel must write the same bytes and
// consume the same draws. The lengths straddle the word stream's 16-byte store
// (15, 16, 17, 31, 2031, 2032) and end a page mid-word and mid-slot.
struct GoldenFill {
  ContentClass cls;
  uint64_t seed;
  size_t length;
  uint32_t crc;
  uint64_t next_draw;
};

constexpr GoldenFill kGoldenFills[] = {
    {ContentClass::kZero, 1, 0, 0x00000001u, 0xb3f2af6d0fc710c5ull},
    {ContentClass::kZero, 1, 1, 0x527d5351u, 0xb3f2af6d0fc710c5ull},
    {ContentClass::kZero, 1, 15, 0x530ed410u, 0xb3f2af6d0fc710c5ull},
    {ContentClass::kZero, 1, 16, 0x42709aeau, 0xb3f2af6d0fc710c5ull},
    {ContentClass::kZero, 1, 17, 0xdaeda3e9u, 0xb3f2af6d0fc710c5ull},
    {ContentClass::kZero, 1, 31, 0x1ed37c4bu, 0xb3f2af6d0fc710c5ull},
    {ContentClass::kZero, 1, 777, 0x828d8833u, 0xb3f2af6d0fc710c5ull},
    {ContentClass::kZero, 1, 2031, 0x3d902ed6u, 0xb3f2af6d0fc710c5ull},
    {ContentClass::kZero, 1, 2032, 0xa732c53cu, 0xb3f2af6d0fc710c5ull},
    {ContentClass::kZero, 1, 4095, 0x23bbddb9u, 0xb3f2af6d0fc710c5ull},
    {ContentClass::kZero, 1, 4096, 0x98f94189u, 0xb3f2af6d0fc710c5ull},
    {ContentClass::kZero, 42, 0, 0x00000001u, 0x15780b2e0c2ec716ull},
    {ContentClass::kZero, 42, 1, 0x527d5351u, 0x15780b2e0c2ec716ull},
    {ContentClass::kZero, 42, 15, 0x530ed410u, 0x15780b2e0c2ec716ull},
    {ContentClass::kZero, 42, 16, 0x42709aeau, 0x15780b2e0c2ec716ull},
    {ContentClass::kZero, 42, 17, 0xdaeda3e9u, 0x15780b2e0c2ec716ull},
    {ContentClass::kZero, 42, 31, 0x1ed37c4bu, 0x15780b2e0c2ec716ull},
    {ContentClass::kZero, 42, 777, 0x828d8833u, 0x15780b2e0c2ec716ull},
    {ContentClass::kZero, 42, 2031, 0x3d902ed6u, 0x15780b2e0c2ec716ull},
    {ContentClass::kZero, 42, 2032, 0xa732c53cu, 0x15780b2e0c2ec716ull},
    {ContentClass::kZero, 42, 4095, 0x23bbddb9u, 0x15780b2e0c2ec716ull},
    {ContentClass::kZero, 42, 4096, 0x98f94189u, 0x15780b2e0c2ec716ull},
    {ContentClass::kZero, 1993, 0, 0x00000001u, 0x47a58c9b019d6c1eull},
    {ContentClass::kZero, 1993, 1, 0x527d5351u, 0x47a58c9b019d6c1eull},
    {ContentClass::kZero, 1993, 15, 0x530ed410u, 0x47a58c9b019d6c1eull},
    {ContentClass::kZero, 1993, 16, 0x42709aeau, 0x47a58c9b019d6c1eull},
    {ContentClass::kZero, 1993, 17, 0xdaeda3e9u, 0x47a58c9b019d6c1eull},
    {ContentClass::kZero, 1993, 31, 0x1ed37c4bu, 0x47a58c9b019d6c1eull},
    {ContentClass::kZero, 1993, 777, 0x828d8833u, 0x47a58c9b019d6c1eull},
    {ContentClass::kZero, 1993, 2031, 0x3d902ed6u, 0x47a58c9b019d6c1eull},
    {ContentClass::kZero, 1993, 2032, 0xa732c53cu, 0x47a58c9b019d6c1eull},
    {ContentClass::kZero, 1993, 4095, 0x23bbddb9u, 0x47a58c9b019d6c1eull},
    {ContentClass::kZero, 1993, 4096, 0x98f94189u, 0x47a58c9b019d6c1eull},
    {ContentClass::kSparseNumeric, 1, 0, 0x00000001u, 0xb3f2af6d0fc710c5ull},
    {ContentClass::kSparseNumeric, 1, 1, 0x527d5351u, 0xb3f2af6d0fc710c5ull},
    {ContentClass::kSparseNumeric, 1, 15, 0x530ed410u, 0x642e1c7bc266a3a7ull},
    {ContentClass::kSparseNumeric, 1, 16, 0x42709aeau, 0xb27a48e29a233673ull},
    {ContentClass::kSparseNumeric, 1, 17, 0xdaeda3e9u, 0xb27a48e29a233673ull},
    {ContentClass::kSparseNumeric, 1, 31, 0xd2da138eu, 0xddfdb48ab9ed4a21ull},
    {ContentClass::kSparseNumeric, 1, 777, 0x6ba7f61eu, 0x8cf09a8e36e14f6cull},
    {ContentClass::kSparseNumeric, 1, 2031, 0x210e4da7u, 0x09013f154a2173abull},
    {ContentClass::kSparseNumeric, 1, 2032, 0x5af9de86u, 0xd4d037b8451d120eull},
    {ContentClass::kSparseNumeric, 1, 4095, 0xcedb2627u, 0xeb8113ac05e6d161ull},
    {ContentClass::kSparseNumeric, 1, 4096, 0xa6c46242u, 0x8b1c04195a8a8b79ull},
    {ContentClass::kSparseNumeric, 42, 0, 0x00000001u, 0x15780b2e0c2ec716ull},
    {ContentClass::kSparseNumeric, 42, 1, 0x527d5351u, 0x15780b2e0c2ec716ull},
    {ContentClass::kSparseNumeric, 42, 15, 0xca77bb43u, 0xfde6dc7fe2ec5e64ull},
    {ContentClass::kSparseNumeric, 42, 16, 0x009ccaa2u, 0xc50da53101795238ull},
    {ContentClass::kSparseNumeric, 42, 17, 0x110d0acau, 0xc50da53101795238ull},
    {ContentClass::kSparseNumeric, 42, 31, 0xf0bbb27au, 0xc2e96e726e97647eull},
    {ContentClass::kSparseNumeric, 42, 777, 0xa5f0a176u, 0xc90469b55ef22636ull},
    {ContentClass::kSparseNumeric, 42, 2031, 0xfb08728fu, 0x053a9c2feb038cbdull},
    {ContentClass::kSparseNumeric, 42, 2032, 0x96aaa469u, 0xd0799f508afae3dfull},
    {ContentClass::kSparseNumeric, 42, 4095, 0x8ad4909cu, 0x8deaab716c115e69ull},
    {ContentClass::kSparseNumeric, 42, 4096, 0x8d1cb406u, 0x594530973238ebfdull},
    {ContentClass::kSparseNumeric, 1993, 0, 0x00000001u, 0x47a58c9b019d6c1eull},
    {ContentClass::kSparseNumeric, 1993, 1, 0x527d5351u, 0x47a58c9b019d6c1eull},
    {ContentClass::kSparseNumeric, 1993, 15, 0x530ed410u, 0x6b53d94ab435a327ull},
    {ContentClass::kSparseNumeric, 1993, 16, 0x42709aeau, 0x44185ee8a9ab4d87ull},
    {ContentClass::kSparseNumeric, 1993, 17, 0xdaeda3e9u, 0x44185ee8a9ab4d87ull},
    {ContentClass::kSparseNumeric, 1993, 31, 0x1ed37c4bu, 0x7dfbf2f35758525eull},
    {ContentClass::kSparseNumeric, 1993, 777, 0x624ce3a2u, 0xbc30ec5cbecc906full},
    {ContentClass::kSparseNumeric, 1993, 2031, 0xc3885b8eu, 0xd8b94e14717c6506ull},
    {ContentClass::kSparseNumeric, 1993, 2032, 0x7c305f55u, 0xc08141cab86edf71ull},
    {ContentClass::kSparseNumeric, 1993, 4095, 0x83e47556u, 0x328949642c4cf3b7ull},
    {ContentClass::kSparseNumeric, 1993, 4096, 0x848c9aa9u, 0x1f418eb320f26791ull},
    {ContentClass::kRepetitiveText, 1, 0, 0x00000001u, 0xb3f2af6d0fc710c5ull},
    {ContentClass::kRepetitiveText, 1, 1, 0xd280b0c4u, 0x853b559647364ceaull},
    {ContentClass::kRepetitiveText, 1, 15, 0x7d8548c6u, 0x642e1c7bc266a3a7ull},
    {ContentClass::kRepetitiveText, 1, 16, 0x979199ebu, 0x642e1c7bc266a3a7ull},
    {ContentClass::kRepetitiveText, 1, 17, 0xa8ae227cu, 0x24c123126ffda722ull},
    {ContentClass::kRepetitiveText, 1, 31, 0xc9b18396u, 0x61954dcc47b1e89dull},
    {ContentClass::kRepetitiveText, 1, 777, 0x3a8071c4u, 0x35d814a63763779aull},
    {ContentClass::kRepetitiveText, 1, 2031, 0x343f0537u, 0x33d65bda30b3ae52ull},
    {ContentClass::kRepetitiveText, 1, 2032, 0x5d7f8aa3u, 0x33d65bda30b3ae52ull},
    {ContentClass::kRepetitiveText, 1, 4095, 0xac87fb0fu, 0x3afb3280b491ef21ull},
    {ContentClass::kRepetitiveText, 1, 4096, 0x2c7f6650u, 0x3afb3280b491ef21ull},
    {ContentClass::kRepetitiveText, 42, 0, 0x00000001u, 0x15780b2e0c2ec716ull},
    {ContentClass::kRepetitiveText, 42, 1, 0xe47f9043u, 0x6104d9866d113a7eull},
    {ContentClass::kRepetitiveText, 42, 15, 0x7b54f217u, 0xc50da53101795238ull},
    {ContentClass::kRepetitiveText, 42, 16, 0x7d8d6f8au, 0xc50da53101795238ull},
    {ContentClass::kRepetitiveText, 42, 17, 0xb23e42bfu, 0xc50da53101795238ull},
    {ContentClass::kRepetitiveText, 42, 31, 0x9b3269e9u, 0x9556615f775fbc3dull},
    {ContentClass::kRepetitiveText, 42, 777, 0xda757cbdu, 0x96e22dc8bda3add8ull},
    {ContentClass::kRepetitiveText, 42, 2031, 0x8c679e64u, 0x1a0805f1224855dbull},
    {ContentClass::kRepetitiveText, 42, 2032, 0xedd9781cu, 0x1a0805f1224855dbull},
    {ContentClass::kRepetitiveText, 42, 4095, 0xe452b455u, 0xe6d6f9d3e6d6e135ull},
    {ContentClass::kRepetitiveText, 42, 4096, 0x16f041f4u, 0xe6d6f9d3e6d6e135ull},
    {ContentClass::kRepetitiveText, 1993, 0, 0x00000001u, 0x47a58c9b019d6c1eull},
    {ContentClass::kRepetitiveText, 1993, 1, 0xe47f9043u, 0xfeb820c7da181539ull},
    {ContentClass::kRepetitiveText, 1993, 15, 0x3ec32beau, 0xcd1ea7983c4ab35dull},
    {ContentClass::kRepetitiveText, 1993, 16, 0x318edbf5u, 0xcd1ea7983c4ab35dull},
    {ContentClass::kRepetitiveText, 1993, 17, 0x077eb682u, 0xcd1ea7983c4ab35dull},
    {ContentClass::kRepetitiveText, 1993, 31, 0x48c8810bu, 0xfbc40b058c29794cull},
    {ContentClass::kRepetitiveText, 1993, 777, 0x5757d265u, 0x8a6e994e2129da48ull},
    {ContentClass::kRepetitiveText, 1993, 2031, 0xd1c99825u, 0x43bb324bd3220071ull},
    {ContentClass::kRepetitiveText, 1993, 2032, 0xacffcba6u, 0x43bb324bd3220071ull},
    {ContentClass::kRepetitiveText, 1993, 4095, 0xdc4a575au, 0x026207a3aafb7321ull},
    {ContentClass::kRepetitiveText, 1993, 4096, 0x48db6533u, 0x026207a3aafb7321ull},
    {ContentClass::kText, 1, 0, 0x00000001u, 0xb3f2af6d0fc710c5ull},
    {ContentClass::kText, 1, 1, 0xd280b0c4u, 0x853b559647364ceaull},
    {ContentClass::kText, 1, 15, 0xe8116253u, 0x92f89756082a4514ull},
    {ContentClass::kText, 1, 16, 0x7228ccedu, 0x92f89756082a4514ull},
    {ContentClass::kText, 1, 17, 0x2eaa118au, 0x92f89756082a4514ull},
    {ContentClass::kText, 1, 31, 0x7f50f4bau, 0x24c123126ffda722ull},
    {ContentClass::kText, 1, 777, 0xc611d5e5u, 0x7aaa89a3ce7ed856ull},
    {ContentClass::kText, 1, 2031, 0x7c2fdf8fu, 0xc5b72e8afd93e37aull},
    {ContentClass::kText, 1, 2032, 0x1d496bb3u, 0xc5b72e8afd93e37aull},
    {ContentClass::kText, 1, 4095, 0x676e57d8u, 0x0fef1dea2f6cfaf4ull},
    {ContentClass::kText, 1, 4096, 0xbd124770u, 0x0fef1dea2f6cfaf4ull},
    {ContentClass::kText, 42, 0, 0x00000001u, 0x15780b2e0c2ec716ull},
    {ContentClass::kText, 42, 1, 0xe47f9043u, 0x6104d9866d113a7eull},
    {ContentClass::kText, 42, 15, 0x8419cef4u, 0xecb8ad4703b360a1ull},
    {ContentClass::kText, 42, 16, 0xabb39eb0u, 0xecb8ad4703b360a1ull},
    {ContentClass::kText, 42, 17, 0x56c15114u, 0xecb8ad4703b360a1ull},
    {ContentClass::kText, 42, 31, 0xd534e10fu, 0xc50da53101795238ull},
    {ContentClass::kText, 42, 777, 0x46c8b041u, 0xcada6911826c7b15ull},
    {ContentClass::kText, 42, 2031, 0xdc5aee95u, 0x519fb48b9a4691e3ull},
    {ContentClass::kText, 42, 2032, 0x3846cdf1u, 0x519fb48b9a4691e3ull},
    {ContentClass::kText, 42, 4095, 0x6b14b634u, 0xde432f7b8eadf0f4ull},
    {ContentClass::kText, 42, 4096, 0x68d1b50cu, 0xde432f7b8eadf0f4ull},
    {ContentClass::kText, 1993, 0, 0x00000001u, 0x47a58c9b019d6c1eull},
    {ContentClass::kText, 1993, 1, 0xe47f9043u, 0xfeb820c7da181539ull},
    {ContentClass::kText, 1993, 15, 0x7d852372u, 0xc87838de7c35927cull},
    {ContentClass::kText, 1993, 16, 0xcb897d49u, 0xc87838de7c35927cull},
    {ContentClass::kText, 1993, 17, 0x4bc29282u, 0xc87838de7c35927cull},
    {ContentClass::kText, 1993, 31, 0x92d50c0bu, 0x44185ee8a9ab4d87ull},
    {ContentClass::kText, 1993, 777, 0xfbea1bcau, 0xec4e3e6177fe7eadull},
    {ContentClass::kText, 1993, 2031, 0xdf91db4au, 0x7036dd5cd012d3b4ull},
    {ContentClass::kText, 1993, 2032, 0xce39341cu, 0x7036dd5cd012d3b4ull},
    {ContentClass::kText, 1993, 4095, 0xb821aff1u, 0xdcc7c737eb13aea3ull},
    {ContentClass::kText, 1993, 4096, 0x2156fe1eu, 0xdcc7c737eb13aea3ull},
    {ContentClass::kShuffledWords, 1, 0, 0x00000001u, 0xb3f2af6d0fc710c5ull},
    {ContentClass::kShuffledWords, 1, 1, 0x9fc37f14u, 0x92f89756082a4514ull},
    {ContentClass::kShuffledWords, 1, 15, 0x4160ca4au, 0x1498c2c122087c87ull},
    {ContentClass::kShuffledWords, 1, 16, 0x0a336689u, 0x7dc9c3c6cd31382full},
    {ContentClass::kShuffledWords, 1, 17, 0x76dd5f32u, 0x0bbadedec37361c0ull},
    {ContentClass::kShuffledWords, 1, 31, 0xd7ef6d8bu, 0xe1995e69b98a91ecull},
    {ContentClass::kShuffledWords, 1, 777, 0xb49e860au, 0xf02a65b278524465ull},
    {ContentClass::kShuffledWords, 1, 2031, 0x4c4d9585u, 0x7cdcc90d5bde5699ull},
    {ContentClass::kShuffledWords, 1, 2032, 0x3bd8ee11u, 0x0692e8be2bff11ceull},
    {ContentClass::kShuffledWords, 1, 4095, 0xc017b073u, 0x378a801ea385ce09ull},
    {ContentClass::kShuffledWords, 1, 4096, 0x77129792u, 0xab696a089739ef7eull},
    {ContentClass::kShuffledWords, 42, 0, 0x00000001u, 0x15780b2e0c2ec716ull},
    {ContentClass::kShuffledWords, 42, 1, 0x5859e80bu, 0xae17533239e499a1ull},
    {ContentClass::kShuffledWords, 42, 15, 0x88df378eu, 0x9de4159eda9cef95ull},
    {ContentClass::kShuffledWords, 42, 16, 0x5cc686e7u, 0x9de4159eda9cef95ull},
    {ContentClass::kShuffledWords, 42, 17, 0xc08969c0u, 0xb5215f43ed431a77ull},
    {ContentClass::kShuffledWords, 42, 31, 0xd4f4e546u, 0xdcf83ab9a2b09168ull},
    {ContentClass::kShuffledWords, 42, 777, 0xa395f04cu, 0x08cb8dace96a23d0ull},
    {ContentClass::kShuffledWords, 42, 2031, 0x09ef2193u, 0x50791e24ac4ade89ull},
    {ContentClass::kShuffledWords, 42, 2032, 0xcaf8fb3du, 0x44a0f713ddee30c4ull},
    {ContentClass::kShuffledWords, 42, 4095, 0x93721ab7u, 0xcb5a8f9650a14fddull},
    {ContentClass::kShuffledWords, 42, 4096, 0x70587778u, 0x3ec9bee56b8c8f6full},
    {ContentClass::kShuffledWords, 1993, 0, 0x00000001u, 0x47a58c9b019d6c1eull},
    {ContentClass::kShuffledWords, 1993, 1, 0x48072f64u, 0xc87838de7c35927cull},
    {ContentClass::kShuffledWords, 1993, 15, 0xc1c83ddbu, 0x888c04274ffdbe36ull},
    {ContentClass::kShuffledWords, 1993, 16, 0x4cd15682u, 0x6f9f90f2feb47d1bull},
    {ContentClass::kShuffledWords, 1993, 17, 0x1d79953au, 0xb5d5f91b5b0a9eefull},
    {ContentClass::kShuffledWords, 1993, 31, 0xede33ce6u, 0xb3dec018b7c03949ull},
    {ContentClass::kShuffledWords, 1993, 777, 0xfe4fff36u, 0x8972dde298450b31ull},
    {ContentClass::kShuffledWords, 1993, 2031, 0xd6efbd7eu, 0xf052f402e6a00a5eull},
    {ContentClass::kShuffledWords, 1993, 2032, 0x8661d807u, 0x9f9eedce6a58ab02ull},
    {ContentClass::kShuffledWords, 1993, 4095, 0x8e97a479u, 0xdfb2ef10fa8fbed6ull},
    {ContentClass::kShuffledWords, 1993, 4096, 0xfe8b7bd2u, 0x110b171924293bd2ull},
    {ContentClass::kPointerArray, 1, 0, 0x00000001u, 0x853b559647364ceaull},
    {ContentClass::kPointerArray, 1, 1, 0x527d5351u, 0x853b559647364ceaull},
    {ContentClass::kPointerArray, 1, 15, 0xede92964u, 0xb27a48e29a233673ull},
    {ContentClass::kPointerArray, 1, 16, 0x24c61176u, 0x24c123126ffda722ull},
    {ContentClass::kPointerArray, 1, 17, 0x056026a5u, 0x24c123126ffda722ull},
    {ContentClass::kPointerArray, 1, 31, 0xa7c48142u, 0xddfdb48ab9ed4a21ull},
    {ContentClass::kPointerArray, 1, 777, 0x637fccbau, 0xe666ef4badc31569ull},
    {ContentClass::kPointerArray, 1, 2031, 0xca08aeeeu, 0x7017884799222b2dull},
    {ContentClass::kPointerArray, 1, 2032, 0xb4d4772bu, 0xff5d686ffeccee38ull},
    {ContentClass::kPointerArray, 1, 4095, 0x514a664eu, 0x56707a467c2afea7ull},
    {ContentClass::kPointerArray, 1, 4096, 0x1bd19da2u, 0x440ce5cab21a6b28ull},
    {ContentClass::kPointerArray, 42, 0, 0x00000001u, 0x6104d9866d113a7eull},
    {ContentClass::kPointerArray, 42, 1, 0x527d5351u, 0x6104d9866d113a7eull},
    {ContentClass::kPointerArray, 42, 15, 0xa3986a27u, 0xfde6dc7fe2ec5e64ull},
    {ContentClass::kPointerArray, 42, 16, 0xf20943ceu, 0xc50da53101795238ull},
    {ContentClass::kPointerArray, 42, 17, 0x3d7ac3f1u, 0xc50da53101795238ull},
    {ContentClass::kPointerArray, 42, 31, 0x61baa814u, 0xc2e96e726e97647eull},
    {ContentClass::kPointerArray, 42, 777, 0x6ab67f41u, 0xc0ef7475b2d23126ull},
    {ContentClass::kPointerArray, 42, 2031, 0x278e078au, 0x93aa6f5b852e61d6ull},
    {ContentClass::kPointerArray, 42, 2032, 0x94d5ded1u, 0xbe93fcd025b8f2ffull},
    {ContentClass::kPointerArray, 42, 4095, 0x59f002e7u, 0x006aea883bcc0b80ull},
    {ContentClass::kPointerArray, 42, 4096, 0xf2981305u, 0x94645fb5fabf4e58ull},
    {ContentClass::kPointerArray, 1993, 0, 0x00000001u, 0xfeb820c7da181539ull},
    {ContentClass::kPointerArray, 1993, 1, 0x527d5351u, 0xfeb820c7da181539ull},
    {ContentClass::kPointerArray, 1993, 15, 0x6da019cbu, 0x44185ee8a9ab4d87ull},
    {ContentClass::kPointerArray, 1993, 16, 0xce1aaa1au, 0xcd1ea7983c4ab35dull},
    {ContentClass::kPointerArray, 1993, 17, 0x290fa6acu, 0xcd1ea7983c4ab35dull},
    {ContentClass::kPointerArray, 1993, 31, 0xd093ed86u, 0xeea3c468a3681e7bull},
    {ContentClass::kPointerArray, 1993, 777, 0xe0fc45fau, 0x20064cc414c5d737ull},
    {ContentClass::kPointerArray, 1993, 2031, 0x55ae84f5u, 0x4a75303cf03c9da0ull},
    {ContentClass::kPointerArray, 1993, 2032, 0x973500bfu, 0xa3e4a28ae5868ce8ull},
    {ContentClass::kPointerArray, 1993, 4095, 0x4a645017u, 0x30c92e51f2286cf0ull},
    {ContentClass::kPointerArray, 1993, 4096, 0x66a2a146u, 0x04b5c3af4329b12full},
    {ContentClass::kRandom, 1, 0, 0x00000001u, 0xb3f2af6d0fc710c5ull},
    {ContentClass::kRandom, 1, 1, 0xa4016189u, 0x853b559647364ceaull},
    {ContentClass::kRandom, 1, 15, 0x15337247u, 0xe3fa941b05219325ull},
    {ContentClass::kRandom, 1, 16, 0xd29583b6u, 0x1498c2c122087c87ull},
    {ContentClass::kRandom, 1, 17, 0x90270c60u, 0x7dc9c3c6cd31382full},
    {ContentClass::kRandom, 1, 31, 0xa7136d1du, 0xe1995e69b98a91ecull},
    {ContentClass::kRandom, 1, 777, 0xdde4980au, 0x2106baabb20db884ull},
    {ContentClass::kRandom, 1, 2031, 0x60a42351u, 0x7101387667503d70ull},
    {ContentClass::kRandom, 1, 2032, 0x80cbfaafu, 0x7cdcc90d5bde5699ull},
    {ContentClass::kRandom, 1, 4095, 0x6beef490u, 0x46e3d001fcbcd506ull},
    {ContentClass::kRandom, 1, 4096, 0xe61fa65au, 0x378a801ea385ce09ull},
    {ContentClass::kRandom, 42, 0, 0x00000001u, 0x15780b2e0c2ec716ull},
    {ContentClass::kRandom, 42, 1, 0x648273d6u, 0x6104d9866d113a7eull},
    {ContentClass::kRandom, 42, 15, 0x8d6a635fu, 0xe0b55a68b96677faull},
    {ContentClass::kRandom, 42, 16, 0xc54a9888u, 0x9de4159eda9cef95ull},
    {ContentClass::kRandom, 42, 17, 0xfdce9275u, 0xd9f4b354ec3844d4ull},
    {ContentClass::kRandom, 42, 31, 0x6d7acfeeu, 0x9f6b51d30d502b3aull},
    {ContentClass::kRandom, 42, 777, 0x99da6828u, 0x08cb8dace96a23d0ull},
    {ContentClass::kRandom, 42, 2031, 0x742d5821u, 0x8cd40eddb4f0821eull},
    {ContentClass::kRandom, 42, 2032, 0x3cf90b9cu, 0x50791e24ac4ade89ull},
    {ContentClass::kRandom, 42, 4095, 0xf0888606u, 0x8e689beb974281b9ull},
    {ContentClass::kRandom, 42, 4096, 0xbe8b953au, 0xcb5a8f9650a14fddull},
    {ContentClass::kRandom, 1993, 0, 0x00000001u, 0x47a58c9b019d6c1eull},
    {ContentClass::kRandom, 1993, 1, 0xee5b2b19u, 0xfeb820c7da181539ull},
    {ContentClass::kRandom, 1993, 15, 0x3c803349u, 0x888c04274ffdbe36ull},
    {ContentClass::kRandom, 1993, 16, 0x7dcabb4bu, 0x2fa7f1b2e4642a4aull},
    {ContentClass::kRandom, 1993, 17, 0xa06b1ae9u, 0x6f9f90f2feb47d1bull},
    {ContentClass::kRandom, 1993, 31, 0x7d72d812u, 0x0d5a00002f9e9a1full},
    {ContentClass::kRandom, 1993, 777, 0x987c0c10u, 0x81b3def030fc20a4ull},
    {ContentClass::kRandom, 1993, 2031, 0xc773c129u, 0xdb47ac08bd0a2608ull},
    {ContentClass::kRandom, 1993, 2032, 0x806c2d4du, 0xf052f402e6a00a5eull},
    {ContentClass::kRandom, 1993, 4095, 0xf56cb0a4u, 0x00a07fed2ec45bedull},
    {ContentClass::kRandom, 1993, 4096, 0x6b41f991u, 0xdfb2ef10fa8fbed6ull},
};

TEST(PagegenGoldenTest, EveryClassWritesTheRecordedBytesAndDraws) {
  EXPECT_EQ(std::size(kGoldenFills), AllContentClasses().size() * 3 * 11);
  for (const GoldenFill& g : kGoldenFills) {
    // An exact-size heap buffer, never null, so a sanitizer build catches a
    // store past the end of the span.
    const auto buffer = std::make_unique<uint8_t[]>(g.length);
    const std::span<uint8_t> page(buffer.get(), g.length);
    Rng rng(g.seed);
    FillPage(page, g.cls, rng);
    EXPECT_EQ(Crc32(page), g.crc)
        << ContentClassName(g.cls) << " seed " << g.seed << " length " << g.length;
    EXPECT_EQ(rng.Next(), g.next_draw)
        << ContentClassName(g.cls) << " seed " << g.seed << " length " << g.length;
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
// decoder's while 49 input and 16 * 18 output bytes remain; every length up
// to 700,
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

// One item of a hand-built LZRW stream: a literal byte, or a copy.
struct LzrwItem {
  bool copy = false;
  uint8_t literal = 0;
  uint32_t offset = 0;
  uint32_t len = 0;
};

LzrwItem Literal(uint8_t byte) { return LzrwItem{.literal = byte}; }

LzrwItem Copy(uint32_t offset, uint32_t len) {
  return LzrwItem{.copy = true, .offset = offset, .len = len};
}

// Encodes `items` as a compressed LZRW container, 16 items per control word,
// and returns the image with the size of the output it decodes to.
std::pair<std::vector<uint8_t>, size_t> EncodeItems(const std::vector<LzrwItem>& items) {
  std::vector<uint8_t> image = {kContainerCompressed};
  size_t out_size = 0;
  for (size_t group = 0; group < items.size(); group += 16) {
    const size_t control_at = image.size();
    image.insert(image.end(), {0, 0});
    uint32_t control = 0;
    for (size_t k = 0; k < 16 && group + k < items.size(); ++k) {
      const LzrwItem& item = items[group + k];
      if (item.copy) {
        control |= 1u << k;
        const uint32_t b0 = ((item.offset >> 4) & 0xF0u) | (item.len - kLzrwMinMatch);
        image.push_back(static_cast<uint8_t>(b0));
        image.push_back(static_cast<uint8_t>(item.offset & 0xFFu));
        out_size += item.len;
      } else {
        image.push_back(item.literal);
        ++out_size;
      }
    }
    image[control_at] = static_cast<uint8_t>(control & 0xFFu);
    image[control_at + 1] = static_cast<uint8_t>(control >> 8);
  }
  return {image, out_size};
}

// The decoder's fast groups move each literal run 16 bytes at once. A group
// holding literals needs 2 + 31 + 16 input bytes (the move after its last
// copy reads furthest); a group of copies after a literal run needs 2 + 32.
// Each edge group below follows 32 literals and precedes three groups of
// copies, so its output room never ends the fast path. Every truncation that
// ends the input up to 70 bytes past the edge group's start puts that group on
// both sides of both input bounds; ExpectSameDecode decodes from an exact-size
// buffer, so under ASan a move past the end of input is caught.
TEST(Lzrw1OracleTest, LiteralRunsAtTheFastPathEdges) {
  Rng rng(0x11E7u);
  std::vector<std::vector<bool>> patterns;  // per item of the edge group: is a copy
  patterns.push_back(std::vector<bool>(16, true));
  for (size_t k = 0; k < 16; ++k) {
    std::vector<bool> run_to_end(16, false);  // copies, then literals from item k on
    std::fill(run_to_end.begin(), run_to_end.begin() + static_cast<ptrdiff_t>(k), true);
    std::vector<bool> one_literal(16, true);  // a one-literal run at item k
    one_literal[k] = false;
    std::vector<bool> one_copy(16, false);  // literal runs around a copy at item k
    one_copy[k] = true;
    patterns.insert(patterns.end(), {run_to_end, one_literal, one_copy});
  }
  constexpr size_t kEdgeStart = 1 + 2 * (2 + 16);  // container byte, two literal groups
  for (size_t p = 0; p < patterns.size(); ++p) {
    std::vector<LzrwItem> items;
    for (int i = 0; i < 32; ++i) {
      items.push_back(Literal(static_cast<uint8_t>(rng.Below(256))));
    }
    for (size_t k = 0; k < 16; ++k) {
      if (patterns[p][k]) {  // offsets 1..32 reach both the byte-wise and word copies
        const auto offset = 1 + static_cast<uint32_t>(rng.Below(32));
        const auto len = kLzrwMinMatch + static_cast<uint32_t>(rng.Below(16));
        items.push_back(Copy(offset, len));
      } else {
        items.push_back(Literal(static_cast<uint8_t>(rng.Below(256))));
      }
    }
    for (int i = 0; i < 48; ++i) {
      items.push_back(Copy(18, kLzrwMaxMatch));
    }
    const auto [image, out_size] = EncodeItems(items);
    SCOPED_TRACE(::testing::Message() << "pattern " << p);
    ASSERT_TRUE(ExpectSameDecode(image, out_size));
    for (size_t len = kEdgeStart; len <= kEdgeStart + 70; ++len) {
      SCOPED_TRACE(::testing::Message() << "input ends at edge group + " << len - kEdgeStart);
      EXPECT_FALSE(ExpectSameDecode(std::span<const uint8_t>(image).first(len), out_size));
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
