// Synthetic page-content generators spanning the compressibility spectrum the
// paper encountered: roughly 4:1 for the thrasher's pages, ~3:1 for compare/isca,
// ~2:1 for gold's index, and ~1:1 for randomly ordered text. Tests and benchmarks
// draw page images from these classes so that the codecs are always exercised on
// realistic data rather than canned strings.
#ifndef COMPCACHE_COMPRESS_PAGEGEN_H_
#define COMPCACHE_COMPRESS_PAGEGEN_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace compcache {

enum class ContentClass {
  kZero,            // zero-filled (fresh heap): compresses extremely well
  kSparseNumeric,   // int32 array, mostly zeros and small values: ~4:1
  kRepetitiveText,  // text with heavy within-page word repetition: ~3:1
  kText,            // ordinary English-like text: ~2:1
  kShuffledWords,   // dictionary words in random order, little repetition: near 1:1 under LZRW1
  kPointerArray,    // word-aligned pointers into a hot region: poor under LZRW1, good under WK
  kRandom,          // PRNG bytes: incompressible
};

// All classes, for parameterized tests.
std::vector<ContentClass> AllContentClasses();
std::string_view ContentClassName(ContentClass c);

// Fills `page` with content of the given class. Deterministic given the Rng
// state: the bytes written and the draws consumed depend only on the class,
// the page length and the stream, and are pinned by a golden table in
// compress_test. The text classes store each word padded to 16 bytes with one
// fixed-size copy while a whole padded word fits, then finish bytewise, and
// never write outside `page`; sparse-numeric pages draw their 25% slot
// occupancy with Rng::Chance's folded integer threshold.
void FillPage(std::span<uint8_t> page, ContentClass cls, Rng& rng);

// Measures the LZRW1 compression ratio (original/compressed) of a buffer.
double MeasureLzrw1Ratio(std::span<const uint8_t> data);

}  // namespace compcache

#endif  // COMPCACHE_COMPRESS_PAGEGEN_H_
