// Encoding tests: roundtrips for every (encoding x type) combination in
// both decoded representations, heuristic encoding choice, varint/zigzag
// edges, a FOR width x tail sweep, pinned on-disk bytes, and corruption
// detection on truncated and crafted payloads.
#include "storage/encoding.h"

#include <gtest/gtest.h>

#include <set>

#include "util/random.h"

namespace pdtstore {
namespace {

ColumnVector Ints(std::vector<int64_t> v) {
  ColumnVector c(TypeId::kInt64);
  c.ints() = std::move(v);
  return c;
}
ColumnVector Doubles(std::vector<double> v) {
  ColumnVector c(TypeId::kDouble);
  c.doubles() = std::move(v);
  return c;
}
ColumnVector Strings(std::vector<std::string> v) {
  ColumnVector c(TypeId::kString);
  c.strings() = std::move(v);
  return c;
}

// Row count after each run of equal values in `col`.
std::vector<uint32_t> RunEnds(const ColumnVector& col) {
  std::vector<uint32_t> ends;
  for (size_t i = 1; i <= col.size(); ++i) {
    if (i == col.size() || col.CompareAt(i, col, i - 1) != 0) {
      ends.push_back(static_cast<uint32_t>(i));
    }
  }
  return ends;
}

// Decodes `col` encoded with `enc` both plain and with keep_encoded. Both
// must reproduce the values; the keep_encoded form must carry the
// representation its encoding promises: DICT and RLE string chunks decode
// to codes over a unique, hash-precomputed dictionary, and RLE chunks carry
// run ends that match the column's runs.
void ExpectRoundtrip(const ColumnVector& col, Encoding enc) {
  std::string bytes;
  ASSERT_TRUE(EncodeColumn(col, enc, &bytes).ok());
  for (bool keep_encoded : {false, true}) {
    SCOPED_TRACE(keep_encoded ? "keep_encoded" : "plain");
    ColumnVector decoded;
    ASSERT_TRUE(DecodeColumn(bytes, col.type(), enc, col.size(), &decoded,
                             keep_encoded)
                    .ok());
    ASSERT_EQ(decoded.size(), col.size());
    for (size_t i = 0; i < col.size(); ++i) {
      EXPECT_EQ(decoded.GetValue(i), col.GetValue(i)) << "at " << i;
    }
    const bool dict_form =
        keep_encoded && col.type() == TypeId::kString &&
        (enc == Encoding::kDict || (enc == Encoding::kRle && !col.empty()));
    ASSERT_EQ(decoded.is_dict(), dict_form);
    if (dict_form) {
      const StringDict& d = *decoded.dict();
      ASSERT_EQ(d.hashes.size(), d.values.size());
      std::set<std::string> distinct(d.values.begin(), d.values.end());
      EXPECT_EQ(distinct.size(), d.values.size()) << "duplicate dict entry";
      for (size_t c = 0; c < d.values.size(); ++c) {
        EXPECT_EQ(d.hashes[c], HashBytes(d.values[c].data(),
                                         d.values[c].size()));
      }
    }
    const bool has_runs =
        keep_encoded && enc == Encoding::kRle && !col.empty();
    ASSERT_EQ(decoded.rle_runs() != nullptr, has_runs);
    if (has_runs) {
      EXPECT_EQ(decoded.rle_runs()->ends, RunEnds(col));
    }
  }
}

TEST(VarintTest, RoundtripsBoundaryValues) {
  for (uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL,
                     (1ULL << 32), ~0ULL}) {
    std::string buf;
    PutVarint64(&buf, v);
    size_t pos = 0;
    uint64_t out;
    ASSERT_TRUE(GetVarint64(buf, &pos, &out).ok());
    EXPECT_EQ(out, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(VarintTest, TruncationDetected) {
  std::string buf;
  PutVarint64(&buf, 1ULL << 60);
  buf.resize(buf.size() - 1);
  size_t pos = 0;
  uint64_t out;
  EXPECT_EQ(GetVarint64(buf, &pos, &out).code(), StatusCode::kCorruption);
}

TEST(ZigZagTest, SymmetricAroundZero) {
  for (int64_t v : std::vector<int64_t>{0, 1, -1, 123456789, -123456789,
                                        INT64_MAX, INT64_MIN}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
}

TEST(PlainEncodingTest, AllTypes) {
  ExpectRoundtrip(Ints({1, -5, 0, INT64_MAX, INT64_MIN}), Encoding::kPlain);
  ExpectRoundtrip(Doubles({0.0, -1.5, 3.14, 1e300}), Encoding::kPlain);
  ExpectRoundtrip(Strings({"", "a", "hello world", std::string(1000, 'x')}),
                  Encoding::kPlain);
}

TEST(RleEncodingTest, RunsCompress) {
  ColumnVector col = Ints(std::vector<int64_t>(1000, 42));
  std::string rle, plain;
  ASSERT_TRUE(EncodeColumn(col, Encoding::kRle, &rle).ok());
  ASSERT_TRUE(EncodeColumn(col, Encoding::kPlain, &plain).ok());
  EXPECT_LT(rle.size() * 50, plain.size());
  ExpectRoundtrip(col, Encoding::kRle);
  ExpectRoundtrip(Strings({"a", "a", "b", "b", "b", "c"}), Encoding::kRle);
  ExpectRoundtrip(Doubles({1.0, 1.0, 2.0}), Encoding::kRle);
  // Degenerate: all-distinct values still roundtrip.
  ExpectRoundtrip(Ints({1, 2, 3, 4, 5}), Encoding::kRle);
}

// With keep_encoded, an RLE string chunk decodes to one code per row over
// the distinct run values (the DICT form), far smaller than plain strings.
TEST(RleEncodingTest, StringRunsDecodeToDictionaryCodes) {
  std::vector<std::string> vals;
  for (int i = 0; i < 4096; ++i) vals.push_back(i / 100 % 2 ? "O" : "F");
  ColumnVector col = Strings(vals);
  ExpectRoundtrip(col, Encoding::kRle);
  std::string bytes;
  ASSERT_TRUE(EncodeColumn(col, Encoding::kRle, &bytes).ok());
  ColumnVector plain, coded;
  ASSERT_TRUE(DecodeColumn(bytes, TypeId::kString, Encoding::kRle,
                           col.size(), &plain)
                  .ok());
  ASSERT_TRUE(DecodeColumn(bytes, TypeId::kString, Encoding::kRle,
                           col.size(), &coded, /*keep_encoded=*/true)
                  .ok());
  ASSERT_TRUE(coded.is_dict());
  EXPECT_EQ(coded.dict()->values, (std::vector<std::string>{"F", "O"}));
  EXPECT_LT(coded.ByteSize() * 4, plain.ByteSize());
}

TEST(DeltaEncodingTest, SortedKeysCompressWell) {
  std::vector<int64_t> sorted;
  for (int64_t i = 0; i < 10000; ++i) sorted.push_back(i * 4);
  ColumnVector col = Ints(sorted);
  std::string delta, plain;
  ASSERT_TRUE(EncodeColumn(col, Encoding::kDeltaVarint, &delta).ok());
  ASSERT_TRUE(EncodeColumn(col, Encoding::kPlain, &plain).ok());
  EXPECT_LT(delta.size() * 4, plain.size());
  ExpectRoundtrip(col, Encoding::kDeltaVarint);
  // Negative deltas (unsorted input) still roundtrip via zigzag.
  ExpectRoundtrip(Ints({100, 5, 700, -3}), Encoding::kDeltaVarint);
}

TEST(DeltaEncodingTest, RejectsNonInt) {
  std::string bytes;
  EXPECT_FALSE(
      EncodeColumn(Doubles({1.0}), Encoding::kDeltaVarint, &bytes).ok());
}

TEST(DictEncodingTest, LowCardinalityStrings) {
  std::vector<std::string> vals;
  for (int i = 0; i < 5000; ++i) vals.push_back(i % 2 ? "yes" : "no");
  ColumnVector col = Strings(vals);
  std::string dict, plain;
  ASSERT_TRUE(EncodeColumn(col, Encoding::kDict, &dict).ok());
  ASSERT_TRUE(EncodeColumn(col, Encoding::kPlain, &plain).ok());
  EXPECT_LT(dict.size() * 2, plain.size());
  ExpectRoundtrip(col, Encoding::kDict);
}

TEST(DictEncodingTest, RejectsNonString) {
  std::string bytes;
  EXPECT_FALSE(EncodeColumn(Ints({1}), Encoding::kDict, &bytes).ok());
}

TEST(ChooseEncodingTest, Heuristics) {
  // Compression off: always plain.
  EXPECT_EQ(ChooseEncoding(Ints({1, 2, 3, 4, 5, 6, 7, 8, 9}), false),
            Encoding::kPlain);
  // Sorted ints: delta.
  EXPECT_EQ(ChooseEncoding(Ints({1, 2, 3, 4, 5, 6, 7, 8, 9}), true),
            Encoding::kDeltaVarint);
  // Heavy runs: RLE.
  EXPECT_EQ(ChooseEncoding(Ints(std::vector<int64_t>(100, 7)), true),
            Encoding::kRle);
  // Low-cardinality strings: dict.
  std::vector<std::string> flags;
  for (int i = 0; i < 100; ++i) flags.push_back(i % 3 == 0 ? "A" : "B");
  // interleaved so runs are short
  EXPECT_EQ(ChooseEncoding(Strings(flags), true), Encoding::kDict);
  // High-cardinality unsorted: plain.
  Random rng(1);
  std::vector<int64_t> noise;
  for (int i = 0; i < 100; ++i) {
    noise.push_back(static_cast<int64_t>(rng.Next()));
  }
  EXPECT_EQ(ChooseEncoding(Ints(noise), true), Encoding::kPlain);
  // Tiny columns stay plain.
  EXPECT_EQ(ChooseEncoding(Ints({1, 2}), true), Encoding::kPlain);
}

TEST(CorruptionTest, TruncatedPayloadsRejected) {
  ColumnVector col = Strings({"hello", "world"});
  std::string bytes;
  ASSERT_TRUE(EncodeColumn(col, Encoding::kPlain, &bytes).ok());
  bytes.resize(bytes.size() / 2);
  ColumnVector out;
  EXPECT_EQ(
      DecodeColumn(bytes, TypeId::kString, Encoding::kPlain, 2, &out).code(),
      StatusCode::kCorruption);

  ColumnVector ints = Ints({1, 2, 3, 4, 5, 6, 7, 8});
  ASSERT_TRUE(EncodeColumn(ints, Encoding::kDeltaVarint, &bytes).ok());
  bytes.resize(2);
  EXPECT_FALSE(
      DecodeColumn(bytes, TypeId::kInt64, Encoding::kDeltaVarint, 8, &out)
          .ok());
}

// Payload bytes come from outside the program (checkpoint images), so
// length and run fields may be crafted to wrap a naive `pos + len` or
// `produced + run` bound. Each case must come back as Corruption.
TEST(CorruptionTest, CraftedLengthsRejected) {
  ColumnVector out;
  // A string whose varint length is 2^64 - 1.
  std::string bytes;
  PutVarint64(&bytes, ~0ULL);
  bytes.append("abc");
  for (bool keep_encoded : {false, true}) {
    EXPECT_EQ(DecodeColumn(bytes, TypeId::kString, Encoding::kPlain, 1, &out,
                           keep_encoded)
                  .code(),
              StatusCode::kCorruption);
  }
  // The same length on a dictionary entry.
  bytes.clear();
  PutVarint64(&bytes, 1);
  PutVarint64(&bytes, ~0ULL);
  bytes.append("abc");
  EXPECT_EQ(DecodeColumn(bytes, TypeId::kString, Encoding::kDict, 1, &out)
                .code(),
            StatusCode::kCorruption);
  // An RLE run of 1 followed by a run of 2^64 - 1: the second run wraps
  // `produced + run` back to 0.
  for (TypeId type : {TypeId::kInt64, TypeId::kDouble, TypeId::kString}) {
    bytes.clear();
    for (uint64_t run : {1ULL, ~0ULL}) {
      PutVarint64(&bytes, run);
      if (type == TypeId::kString) {
        PutVarint64(&bytes, 1);
        bytes.push_back('x');
      } else {
        PutFixed64(&bytes, 7);
      }
    }
    for (bool keep_encoded : {false, true}) {
      EXPECT_EQ(DecodeColumn(bytes, type, Encoding::kRle, 4, &out,
                             keep_encoded)
                    .code(),
                StatusCode::kCorruption)
          << TypeIdToString(type);
    }
  }
  // A zero-length run.
  bytes.clear();
  PutVarint64(&bytes, 0);
  PutFixed64(&bytes, 7);
  EXPECT_EQ(
      DecodeColumn(bytes, TypeId::kInt64, Encoding::kRle, 1, &out).code(),
      StatusCode::kCorruption);
  // A dictionary code past the dictionary.
  bytes.clear();
  PutVarint64(&bytes, 1);
  PutVarint64(&bytes, 1);
  bytes.push_back('x');
  PutVarint64(&bytes, 1);
  for (bool keep_encoded : {false, true}) {
    EXPECT_EQ(DecodeColumn(bytes, TypeId::kString, Encoding::kDict, 1, &out,
                           keep_encoded)
                  .code(),
              StatusCode::kCorruption);
  }
  // A row count far beyond what the payload can hold fails before any
  // allocation is sized from it.
  bytes.assign(16, '\0');
  const size_t huge = size_t{1} << 62;
  for (Encoding enc : {Encoding::kPlain, Encoding::kDeltaVarint,
                       Encoding::kForBitPack}) {
    EXPECT_EQ(DecodeColumn(bytes, TypeId::kInt64, enc, huge, &out).code(),
              StatusCode::kCorruption)
        << EncodingToString(enc);
  }
  EXPECT_EQ(
      DecodeColumn(bytes, TypeId::kString, Encoding::kPlain, huge, &out)
          .code(),
      StatusCode::kCorruption);
}

// Randomly damaged payloads of every encoding decode to either the full
// row count or Corruption, never past the buffer (the ASan and UBSan CI
// stages run this).
TEST(CorruptionTest, MutatedPayloadsAreContained) {
  Random rng(11);
  std::vector<int64_t> ints;
  std::vector<std::string> strs;
  for (int i = 0; i < 200; ++i) {
    ints.push_back(i / 5 * 3 + rng.UniformRange(0, 2));
    strs.push_back(std::string(1 + i / 50, static_cast<char>('a' + i / 40)));
  }
  const std::pair<ColumnVector, Encoding> cases[] = {
      {Ints(ints), Encoding::kPlain},       {Ints(ints), Encoding::kRle},
      {Ints(ints), Encoding::kDeltaVarint}, {Ints(ints), Encoding::kForBitPack},
      {Strings(strs), Encoding::kPlain},    {Strings(strs), Encoding::kRle},
      {Strings(strs), Encoding::kDict},
  };
  for (const auto& [col, enc] : cases) {
    std::string good;
    ASSERT_TRUE(EncodeColumn(col, enc, &good).ok());
    for (int m = 0; m < 300; ++m) {
      std::string bad = good;
      if (m % 3 == 0) {
        bad.resize(rng.Uniform(bad.size()));
      } else {
        bad[rng.Uniform(bad.size())] = static_cast<char>(rng.Next());
      }
      for (bool keep_encoded : {false, true}) {
        ColumnVector out;
        Status st = DecodeColumn(bad, col.type(), enc, col.size(), &out,
                                 keep_encoded);
        if (st.ok()) {
          EXPECT_EQ(out.size(), col.size());
        } else {
          EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
        }
      }
    }
  }
}

// The on-disk bytes of every encoding are pinned: a decoder rewrite must
// not move the format.
TEST(FormatTest, EncodedBytesArePinned) {
  auto hex = [](const std::string& b) {
    static const char* kDigits = "0123456789abcdef";
    std::string h;
    for (char c : b) {
      h.push_back(kDigits[static_cast<uint8_t>(c) >> 4]);
      h.push_back(kDigits[static_cast<uint8_t>(c) & 15]);
    }
    return h;
  };
  auto encoded = [&](const ColumnVector& col, Encoding enc) {
    std::string bytes;
    EXPECT_TRUE(EncodeColumn(col, enc, &bytes).ok());
    return hex(bytes);
  };
  EXPECT_EQ(encoded(Ints({1, -2}), Encoding::kPlain),
            "0100000000000000feffffffffffffff");
  EXPECT_EQ(encoded(Doubles({1.5}), Encoding::kPlain), "000000000000f83f");
  EXPECT_EQ(encoded(Strings({"ab", ""}), Encoding::kPlain), "02616200");
  EXPECT_EQ(encoded(Ints({7, 7, 7, 9}), Encoding::kRle),
            "030700000000000000010900000000000000");
  EXPECT_EQ(encoded(Strings({"x", "x", "y"}), Encoding::kRle), "020178010179");
  EXPECT_EQ(encoded(Ints({INT64_MIN, INT64_MAX, 0, -1}),
                    Encoding::kDeltaVarint),
            "ffffffffffffffffff01"  // INT64_MIN - 0
            "01"                    // INT64_MAX - INT64_MIN wraps to -1
            "fdffffffffffffffff01"  // 0 - INT64_MAX
            "01");                  // -1 - 0
  EXPECT_EQ(encoded(Strings({"no", "yes", "no"}), Encoding::kDict),
            "02026e6f03796573000100");
  EXPECT_EQ(encoded(Ints({-3, 0, 4}), Encoding::kForBitPack), "0503d801");
}


TEST(ForBitPackTest, RoundtripsNarrowRanges) {
  ExpectRoundtrip(Ints({5, 9, 7, 5, 8, 6}), Encoding::kForBitPack);
  ExpectRoundtrip(Ints({-100, -50, -75}), Encoding::kForBitPack);
  ExpectRoundtrip(Ints({1000000, 1000001, 1000050}), Encoding::kForBitPack);
  ExpectRoundtrip(Ints(std::vector<int64_t>(100, 7)),
                  Encoding::kForBitPack);  // constant -> 1-bit
  // Width exactly at byte boundaries.
  ExpectRoundtrip(Ints({0, 255}), Encoding::kForBitPack);
  ExpectRoundtrip(Ints({0, 256}), Encoding::kForBitPack);
  ExpectRoundtrip(Ints({0, 65535, 12345}), Encoding::kForBitPack);
}

// Every bit width the encoder emits, at counts straddling the 8-byte word
// boundary, so both the word-load path and the byte-wise tail of the
// decoder see every bit alignment.
TEST(ForBitPackTest, WidthAndTailSweep) {
  Random rng(7);
  for (int width = 1; width <= 56; ++width) {
    const uint64_t max_off = (1ULL << width) - 1;
    for (size_t count : {1, 7, 8, 9, 63, 64, 65, 16384}) {
      SCOPED_TRACE("width " + std::to_string(width) + " count " +
                   std::to_string(count));
      const int64_t base = -12345;
      std::vector<int64_t> vals;
      for (size_t i = 0; i < count; ++i) {
        vals.push_back(base + static_cast<int64_t>(rng.Next() & max_off));
      }
      // Pin the range so the encoder picks exactly `width` bits (a lone
      // value has range 0 and packs into 1 bit).
      vals[0] = base;
      size_t payload_bits = count;
      if (count >= 2) {
        vals[count - 1] = base + static_cast<int64_t>(max_off);
        payload_bits = count * width;
      }
      ColumnVector col = Ints(vals);
      std::string bytes;
      ASSERT_TRUE(EncodeColumn(col, Encoding::kForBitPack, &bytes).ok());
      std::string header;
      PutVarint64(&header, ZigZagEncode(base));
      ASSERT_EQ(bytes.size(), header.size() + 1 + (payload_bits + 7) / 8);
      ExpectRoundtrip(col, Encoding::kForBitPack);
      // One byte short of the payload is truncation.
      bytes.pop_back();
      ColumnVector out;
      EXPECT_EQ(DecodeColumn(bytes, TypeId::kInt64, Encoding::kForBitPack,
                             count, &out)
                    .code(),
                StatusCode::kCorruption);
    }
  }
}

TEST(ForBitPackTest, CompressesNarrowColumns) {
  Random rng(5);
  std::vector<int64_t> qty;
  for (int i = 0; i < 10000; ++i) qty.push_back(rng.UniformRange(1, 50));
  ColumnVector col = Ints(qty);
  std::string packed, plain;
  ASSERT_TRUE(EncodeColumn(col, Encoding::kForBitPack, &packed).ok());
  ASSERT_TRUE(EncodeColumn(col, Encoding::kPlain, &plain).ok());
  // 6 bits/value vs 64 bits/value: ~10x.
  EXPECT_LT(packed.size() * 8, plain.size());
  ExpectRoundtrip(col, Encoding::kForBitPack);
}

TEST(ForBitPackTest, RejectsWideRangesAndNonInts) {
  std::string bytes;
  EXPECT_FALSE(EncodeColumn(Ints({0, INT64_MAX}), Encoding::kForBitPack,
                            &bytes)
                   .ok());
  EXPECT_FALSE(
      EncodeColumn(Doubles({1.0}), Encoding::kForBitPack, &bytes).ok());
}

TEST(ForBitPackTest, ChosenForNarrowUnsortedInts) {
  Random rng(6);
  std::vector<int64_t> vals;
  for (int i = 0; i < 200; ++i) vals.push_back(rng.UniformRange(0, 1000));
  EXPECT_EQ(ChooseEncoding(Ints(vals), true), Encoding::kForBitPack);
}

TEST(ForBitPackTest, TruncationDetected) {
  ColumnVector col = Ints({1, 2, 3, 4, 5, 6, 7, 8});
  std::string bytes;
  ASSERT_TRUE(EncodeColumn(col, Encoding::kForBitPack, &bytes).ok());
  bytes.resize(2);
  ColumnVector out;
  EXPECT_FALSE(
      DecodeColumn(bytes, TypeId::kInt64, Encoding::kForBitPack, 8, &out)
          .ok());
}

class EncodingRandomTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(EncodingRandomTest, RandomRoundtrips) {
  auto [enc_int, seed] = GetParam();
  Random rng(seed);
  Encoding enc = static_cast<Encoding>(enc_int);
  // Random int columns for every encoding that supports ints.
  if (enc != Encoding::kDict) {
    std::vector<int64_t> vals;
    for (int i = 0; i < 500; ++i) {
      // FOR cannot represent full-width ranges; keep its input narrow.
      vals.push_back(enc == Encoding::kForBitPack
                         ? rng.UniformRange(-100000, 100000)
                         : (rng.Bernoulli(0.5)
                                ? rng.UniformRange(-5, 5)
                                : static_cast<int64_t>(rng.Next())));
    }
    ExpectRoundtrip(Ints(vals), enc);
  }
  if (enc == Encoding::kPlain || enc == Encoding::kRle ||
      enc == Encoding::kDict) {
    std::vector<std::string> vals;
    for (int i = 0; i < 300; ++i) {
      vals.push_back(rng.NextString(rng.Uniform(12)));
    }
    ExpectRoundtrip(Strings(vals), enc);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EncodingRandomTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                       ::testing::Values(101, 102, 103)));

}  // namespace
}  // namespace pdtstore
