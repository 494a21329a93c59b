#include "storage/encoding.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace pdtstore {

const char* EncodingToString(Encoding e) {
  switch (e) {
    case Encoding::kPlain:
      return "PLAIN";
    case Encoding::kRle:
      return "RLE";
    case Encoding::kDeltaVarint:
      return "DELTA";
    case Encoding::kDict:
      return "DICT";
    case Encoding::kForBitPack:
      return "FOR";
  }
  return "UNKNOWN";
}

namespace {

// Multi-byte tail of ReadVarint. False on truncation (or a varint longer
// than ten bytes); *pos has then moved past the bytes consumed.
bool ReadVarintSlow(const char* p, size_t n, size_t* pos, uint64_t* v) {
  uint64_t result = 0;
  int shift = 0;
  while (*pos < n && shift <= 63) {
    uint8_t byte = static_cast<uint8_t>(p[*pos]);
    ++*pos;
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return true;
    }
    shift += 7;
  }
  return false;
}

// Reads the varint at *pos of p[0, n), advancing *pos. One-byte varints
// (most dict codes, run lengths and sorted-key deltas) take the inline
// path; callers turn `false` into Corruption once, outside the hot loop.
inline bool ReadVarint(const char* p, size_t n, size_t* pos, uint64_t* v) {
  if (*pos < n && static_cast<uint8_t>(p[*pos]) < 0x80) {
    *v = static_cast<uint8_t>(p[(*pos)++]);
    return true;
  }
  return ReadVarintSlow(p, n, pos, v);
}

}  // namespace

void PutVarint64(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

Status GetVarint64(const std::string& in, size_t* pos, uint64_t* v) {
  if (ReadVarint(in.data(), in.size(), pos, v)) return Status::OK();
  return Status::Corruption("truncated varint");
}

namespace {

void PutLengthPrefixed(std::string* out, const std::string& s) {
  PutVarint64(out, s.size());
  out->append(s);
}

// The per-value readers below return nullptr on success or the
// Corruption message, so hot loops build a Status only on failure.

// Reads a length-prefixed string at *pos of p[0, n) as a view.
inline const char* ReadLengthPrefixed(const char* p, size_t n, size_t* pos,
                                      std::string_view* s) {
  uint64_t len;
  if (!ReadVarint(p, n, pos, &len)) return "truncated varint";
  // *pos <= n here, so the subtraction cannot wrap (a sum could, for a
  // huge crafted length).
  if (len > n - *pos) return "truncated string";
  *s = std::string_view(p + *pos, len);
  *pos += len;
  return nullptr;
}

// Reads an RLE run length: non-zero and no longer than the `remaining`
// rows the chunk still owes. Compared as `run > remaining` so a crafted
// 2^64-1 run cannot wrap the bound.
inline const char* ReadRunLength(const char* p, size_t n, size_t* pos,
                                 size_t remaining, uint64_t* run) {
  if (!ReadVarint(p, n, pos, run)) return "truncated varint";
  if (*run == 0) return "empty RLE run";
  if (*run > remaining) return "RLE overrun";
  return nullptr;
}

// Appends one value of `col[i]` in plain form. Reads through the
// representation-resolving spans: checkpoint hands us columns that may be
// borrowed from pool chunks or still carrying dictionary codes.
void PutOnePlain(std::string* out, const ColumnVector& col, size_t i) {
  switch (col.type()) {
    case TypeId::kInt64:
      PutFixed64(out, static_cast<uint64_t>(col.ints_data()[i]));
      break;
    case TypeId::kDouble: {
      uint64_t bits;
      double d = col.doubles_data()[i];
      std::memcpy(&bits, &d, 8);
      PutFixed64(out, bits);
      break;
    }
    case TypeId::kString:
      PutLengthPrefixed(out, col.StringAt(i));
      break;
  }
}

bool ValuesEqualAt(const ColumnVector& col, size_t i, size_t j) {
  return col.CompareAt(i, col, j) == 0;
}

Status EncodePlain(const ColumnVector& col, std::string* out) {
  for (size_t i = 0; i < col.size(); ++i) PutOnePlain(out, col, i);
  return Status::OK();
}

Status EncodeRle(const ColumnVector& col, std::string* out) {
  size_t i = 0;
  while (i < col.size()) {
    size_t j = i + 1;
    while (j < col.size() && ValuesEqualAt(col, j, i)) ++j;
    PutVarint64(out, j - i);
    PutOnePlain(out, col, i);
    i = j;
  }
  return Status::OK();
}

Status EncodeDeltaVarint(const ColumnVector& col, std::string* out) {
  if (col.type() != TypeId::kInt64) {
    return Status::InvalidArgument("delta encoding requires INT64");
  }
  // Deltas wrap modulo 2^64 (no signed overflow for far-apart values);
  // the decoder's wrapping sum restores every value exactly.
  uint64_t prev = 0;
  const int64_t* vals = col.ints_data();
  for (size_t i = 0; i < col.size(); ++i) {
    const uint64_t v = static_cast<uint64_t>(vals[i]);
    PutVarint64(out, ZigZagEncode(static_cast<int64_t>(v - prev)));
    prev = v;
  }
  return Status::OK();
}

Status EncodeDict(const ColumnVector& col, std::string* out) {
  if (col.type() != TypeId::kString) {
    return Status::InvalidArgument("dict encoding requires STRING");
  }
  std::unordered_map<std::string, uint64_t> dict;
  std::vector<const std::string*> order;
  std::vector<uint64_t> codes;
  codes.reserve(col.size());
  for (size_t i = 0; i < col.size(); ++i) {
    auto [it, inserted] = dict.emplace(col.StringAt(i), dict.size());
    if (inserted) order.push_back(&it->first);
    codes.push_back(it->second);
  }
  PutVarint64(out, order.size());
  for (const auto* s : order) PutLengthPrefixed(out, *s);
  for (uint64_t c : codes) PutVarint64(out, c);
  return Status::OK();
}

// Frame-of-reference + bit packing: store min(v) and the bit width of
// max(v - min), then pack each offset into `width` bits. The workhorse
// encoding for narrow-range integer columns (quantities, small codes) in
// columnar systems like the paper's.
Status EncodeForBitPack(const ColumnVector& col, std::string* out) {
  if (col.type() != TypeId::kInt64) {
    return Status::InvalidArgument("FOR encoding requires INT64");
  }
  const int64_t* v = col.ints_data();
  const size_t n = col.size();
  int64_t min_v = n == 0 ? 0 : v[0];
  int64_t max_v = min_v;
  for (size_t i = 0; i < n; ++i) {
    min_v = std::min(min_v, v[i]);
    max_v = std::max(max_v, v[i]);
  }
  uint64_t range = static_cast<uint64_t>(max_v) - static_cast<uint64_t>(min_v);
  int width = 1;
  while (width < 64 && (range >> width) != 0) ++width;
  if (width > 56) {
    // The accumulator scheme below keeps acc_bits < 8 between values, so
    // widths beyond 56 bits could overflow a shift; such columns gain
    // nothing from FOR anyway.
    return Status::InvalidArgument("FOR range too wide; use plain");
  }
  PutVarint64(out, ZigZagEncode(min_v));
  out->push_back(static_cast<char>(width));
  uint64_t acc = 0;
  int acc_bits = 0;  // < 8 between values
  for (size_t i = 0; i < n; ++i) {
    uint64_t off = static_cast<uint64_t>(v[i]) - static_cast<uint64_t>(min_v);
    acc |= off << acc_bits;
    acc_bits += width;
    while (acc_bits >= 8) {
      out->push_back(static_cast<char>(acc & 0xff));
      acc >>= 8;
      acc_bits -= 8;
    }
  }
  if (acc_bits > 0) out->push_back(static_cast<char>(acc & 0xff));
  return Status::OK();
}

// --- decoders ---
// Each decoder proves the payload long enough once per chunk (fixed-width
// layouts) or once per run / value header (variable-width ones), then
// writes straight into the output's typed storage: no per-value Status,
// bounds check or accessor call on the fixed-width paths. This is the
// cache-resident, branch-light decompression of Zukowski et al.,
// "Super-Scalar RAM-CPU Cache Compression" (ICDE 2006).

// Fixed-width PLAIN: one length check, then one bulk copy of the
// little-endian words (a memcpy on little-endian hosts).
template <typename T>
Status DecodePlainFixed(const std::string& in, size_t count,
                        std::vector<T>* out) {
  static_assert(sizeof(T) == 8);
  if (count > in.size() / 8) return Status::Corruption("truncated fixed64");
  out->resize(count);
  if (count == 0) return Status::OK();  // data() may be null
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out->data(), in.data(), count * 8);
  } else {
    for (size_t i = 0; i < count; ++i) {
      (*out)[i] = std::bit_cast<T>(DecodeFixed64(in.data() + 8 * i));
    }
  }
  return Status::OK();
}

Status DecodePlain(const std::string& in, size_t count, ColumnVector* out) {
  switch (out->type()) {
    case TypeId::kInt64:
      return DecodePlainFixed(in, count, &out->ints());
    case TypeId::kDouble:
      return DecodePlainFixed(in, count, &out->doubles());
    case TypeId::kString: {
      // Every value carries at least a one-byte length prefix.
      if (count > in.size()) return Status::Corruption("truncated string");
      std::vector<std::string>& v = out->strings();
      v.resize(count);
      size_t pos = 0;
      for (std::string& s : v) {
        std::string_view sv;
        if (const char* err =
                ReadLengthPrefixed(in.data(), in.size(), &pos, &sv)) {
          return Status::Corruption(err);
        }
        s.assign(sv);
      }
      return Status::OK();
    }
  }
  return Status::Internal("bad type");
}

// Fixed-width RLE: one typed fill per run. `ends` (optional) receives the
// row count after each run.
template <typename T>
Status DecodeRleFixed(const std::string& in, size_t count,
                      std::vector<T>* out, std::vector<uint32_t>* ends) {
  const char* p = in.data();
  const size_t n = in.size();
  out->resize(count);
  T* o = out->data();
  size_t pos = 0;
  size_t produced = 0;
  while (produced < count) {
    uint64_t run;
    if (const char* err = ReadRunLength(p, n, &pos, count - produced, &run)) {
      return Status::Corruption(err);
    }
    if (8 > n - pos) return Status::Corruption("truncated fixed64");
    std::fill_n(o + produced, run, std::bit_cast<T>(DecodeFixed64(p + pos)));
    pos += 8;
    produced += run;
    if (ends) ends->push_back(static_cast<uint32_t>(produced));
  }
  return Status::OK();
}

// String RLE. Plain output copies each run value into its rows. With
// `ends`, the chunk instead decodes to the DICT form (codes + a shared
// StringDict of the distinct run values, appearance-ordered and unique)
// and `ends` receives the run layout.
Status DecodeRleStrings(const std::string& in, size_t count,
                        ColumnVector* out, std::vector<uint32_t>* ends) {
  const char* p = in.data();
  const size_t n = in.size();
  std::vector<std::string>* plain = ends ? nullptr : &out->strings();
  std::shared_ptr<StringDict> dict;
  std::vector<uint32_t> codes;
  if (plain) {
    plain->reserve(count);
  } else {
    dict = std::make_shared<StringDict>();
    codes.resize(count);
  }
  std::unordered_map<std::string_view, uint32_t> code_of;
  size_t pos = 0;
  size_t produced = 0;
  while (produced < count) {
    uint64_t run;
    std::string_view value;
    const char* err = ReadRunLength(p, n, &pos, count - produced, &run);
    if (!err) err = ReadLengthPrefixed(p, n, &pos, &value);
    if (err) return Status::Corruption(err);
    if (plain) {
      plain->insert(plain->end(), run, std::string(value));
    } else {
      // Values are views into `in`, so the map keys stay valid.
      auto [it, inserted] = code_of.try_emplace(
          value, static_cast<uint32_t>(dict->values.size()));
      if (inserted) {
        dict->values.emplace_back(value);
        dict->hashes.push_back(HashBytes(value.data(), value.size()));
      }
      std::fill_n(codes.data() + produced, run, it->second);
    }
    produced += run;
    if (ends) ends->push_back(static_cast<uint32_t>(produced));
  }
  if (dict) {
    out->AdoptDict(std::move(dict));
    out->codes() = std::move(codes);
  }
  return Status::OK();
}

Status DecodeRle(const std::string& in, size_t count, ColumnVector* out,
                 bool keep_encoded) {
  // With keep_encoded the run layout is additionally recorded as an
  // RleRuns sidecar so predicate kernels can evaluate one compare per run.
  const bool keep_runs = keep_encoded && count > 0 && count <= UINT32_MAX;
  std::vector<uint32_t> ends;
  std::vector<uint32_t>* ends_out = keep_runs ? &ends : nullptr;
  switch (out->type()) {
    case TypeId::kInt64:
      PDT_RETURN_NOT_OK(DecodeRleFixed(in, count, &out->ints(), ends_out));
      break;
    case TypeId::kDouble:
      PDT_RETURN_NOT_OK(DecodeRleFixed(in, count, &out->doubles(), ends_out));
      break;
    case TypeId::kString:
      PDT_RETURN_NOT_OK(DecodeRleStrings(in, count, out, ends_out));
      break;
  }
  if (keep_runs) {
    auto runs = std::make_shared<RleRuns>();
    runs->ends = std::move(ends);
    out->SetRleRuns(std::move(runs));
  }
  return Status::OK();
}

Status DecodeDeltaVarint(const std::string& in, size_t count,
                         ColumnVector* out) {
  // Every delta takes at least one byte.
  if (count > in.size()) return Status::Corruption("truncated varint");
  std::vector<int64_t>& v = out->ints();
  v.resize(count);
  int64_t* o = v.data();
  const char* p = in.data();
  const size_t n = in.size();
  size_t pos = 0;
  uint64_t prev = 0;  // wraps like the encoder's deltas
  for (size_t i = 0; i < count; ++i) {
    uint64_t zz;
    if (!ReadVarint(p, n, &pos, &zz)) {
      return Status::Corruption("truncated varint");
    }
    prev += static_cast<uint64_t>(ZigZagDecode(zz));
    o[i] = static_cast<int64_t>(prev);
  }
  return Status::OK();
}

Status DecodeDict(const std::string& in, size_t count, ColumnVector* out,
                  bool keep_encoded) {
  size_t pos = 0;
  uint64_t dict_size;
  PDT_RETURN_NOT_OK(GetVarint64(in, &pos, &dict_size));
  if (dict_size > in.size()) return Status::Corruption("dict size overflow");
  const char* p = in.data();
  const size_t n = in.size();
  std::vector<std::string> dict(dict_size);
  for (auto& s : dict) {
    std::string_view sv;
    if (const char* err = ReadLengthPrefixed(p, n, &pos, &sv)) {
      return Status::Corruption(err);
    }
    s.assign(sv);
  }
  // Every code takes at least one byte.
  if (count > n - pos) return Status::Corruption("truncated varint");
  std::vector<uint32_t> codes(count);
  for (uint32_t& code : codes) {
    uint64_t c;
    if (!ReadVarint(p, n, &pos, &c)) {
      return Status::Corruption("truncated varint");
    }
    if (c >= dict.size()) return Status::Corruption("dict code overflow");
    code = static_cast<uint32_t>(c);
  }
  if (keep_encoded) {
    // Keep the dictionary live: the column becomes a uint32 code vector
    // plus a shared StringDict with per-entry hashes precomputed once
    // here, so every downstream group-by/join over this chunk hashes by
    // array lookup.
    auto shared = std::make_shared<StringDict>();
    shared->hashes.reserve(dict.size());
    for (const auto& s : dict) {
      shared->hashes.push_back(HashBytes(s.data(), s.size()));
    }
    shared->values = std::move(dict);
    out->AdoptDict(std::move(shared));
    out->codes() = std::move(codes);
    return Status::OK();
  }
  std::vector<std::string>& v = out->strings();
  v.reserve(count);
  for (uint32_t code : codes) v.push_back(dict[code]);
  return Status::OK();
}

Status DecodeForBitPack(const std::string& in, size_t count,
                        ColumnVector* out) {
  size_t pos = 0;
  uint64_t zz;
  PDT_RETURN_NOT_OK(GetVarint64(in, &pos, &zz));
  const uint64_t min_v = static_cast<uint64_t>(ZigZagDecode(zz));
  if (pos >= in.size()) return Status::Corruption("truncated FOR header");
  const int width = static_cast<uint8_t>(in[pos]);
  ++pos;
  if (width <= 0 || width > 56) {
    return Status::Corruption("bad FOR bit width");
  }
  // The packed offsets take ceil(count * width / 8) bytes, i.e. need
  // count * width <= 8 * avail bits (checked without the product).
  const char* data = in.data() + pos;
  const size_t avail = in.size() - pos;
  if (count > avail * 8 / width) {
    return Status::Corruption("truncated FOR data");
  }
  std::vector<int64_t>& v = out->ints();
  v.resize(count);
  int64_t* o = v.data();
  const uint64_t mask = (1ULL << width) - 1;
  // Value i spans bits [i*width, (i+1)*width): at most 7 + 56 = 63 bits
  // past byte i*width/8, so one 8-byte word load at that byte covers it
  // whenever the word lies inside the payload, i.e. for
  // i*width <= 8 * (avail - 8).
  const size_t word_vals =
      avail < 8 ? 0 : std::min(count, (avail - 8) * 8 / width + 1);
  size_t i = 0;
  uint64_t bit = 0;
  for (; i < word_vals; ++i, bit += width) {
    const uint64_t word = DecodeFixed64(data + (bit >> 3));
    o[i] = static_cast<int64_t>(min_v + ((word >> (bit & 7)) & mask));
  }
  // The last few values sit in the final < 8 bytes: gather byte-wise.
  for (; i < count; ++i, bit += width) {
    const size_t byte = bit >> 3;
    uint64_t word = 0;
    for (size_t b = 0; b < 8 && byte + b < avail; ++b) {
      word |= static_cast<uint64_t>(static_cast<uint8_t>(data[byte + b]))
              << (8 * b);
    }
    o[i] = static_cast<int64_t>(min_v + ((word >> (bit & 7)) & mask));
  }
  return Status::OK();
}

}  // namespace

Status EncodeColumn(const ColumnVector& col, Encoding encoding,
                    std::string* out) {
  out->clear();
  switch (encoding) {
    case Encoding::kPlain:
      return EncodePlain(col, out);
    case Encoding::kRle:
      return EncodeRle(col, out);
    case Encoding::kDeltaVarint:
      return EncodeDeltaVarint(col, out);
    case Encoding::kDict:
      return EncodeDict(col, out);
    case Encoding::kForBitPack:
      return EncodeForBitPack(col, out);
  }
  return Status::InvalidArgument("unknown encoding");
}

Status DecodeColumn(const std::string& bytes, TypeId type, Encoding encoding,
                    size_t count, ColumnVector* out, bool keep_encoded) {
  *out = ColumnVector(type);
  switch (encoding) {
    case Encoding::kPlain:
      return DecodePlain(bytes, count, out);
    case Encoding::kRle:
      return DecodeRle(bytes, count, out, keep_encoded);
    case Encoding::kDeltaVarint:
      if (type != TypeId::kInt64) {
        return Status::InvalidArgument("delta decoding requires INT64");
      }
      return DecodeDeltaVarint(bytes, count, out);
    case Encoding::kDict:
      if (type != TypeId::kString) {
        return Status::InvalidArgument("dict decoding requires STRING");
      }
      return DecodeDict(bytes, count, out, keep_encoded);
    case Encoding::kForBitPack:
      if (type != TypeId::kInt64) {
        return Status::InvalidArgument("FOR decoding requires INT64");
      }
      return DecodeForBitPack(bytes, count, out);
  }
  return Status::InvalidArgument("unknown encoding");
}

Encoding ChooseEncoding(const ColumnVector& col, bool compression_enabled) {
  if (!compression_enabled || col.size() < 8) return Encoding::kPlain;
  const size_t n = col.size();
  // Count runs and (for ints) sortedness over a bounded sample scan.
  size_t runs = 1;
  bool sorted = true;
  for (size_t i = 1; i < n; ++i) {
    int c = col.CompareAt(i - 1, col, i);
    if (c != 0) ++runs;
    if (c > 0) sorted = false;
  }
  if (runs <= n / 4) return Encoding::kRle;
  if (col.type() == TypeId::kInt64 && sorted) return Encoding::kDeltaVarint;
  if (col.type() == TypeId::kInt64) {
    // Narrow-range unsorted integers: frame-of-reference bit packing.
    const int64_t* v = col.ints_data();
    int64_t min_v = v[0], max_v = min_v;
    for (size_t i = 0; i < n; ++i) {
      min_v = std::min(min_v, v[i]);
      max_v = std::max(max_v, v[i]);
    }
    uint64_t range =
        static_cast<uint64_t>(max_v) - static_cast<uint64_t>(min_v);
    int width = 1;
    while (width < 64 && (range >> width) != 0) ++width;
    if (width <= 32) return Encoding::kForBitPack;
  }
  if (col.type() == TypeId::kString) {
    // A column still in dictionary representation is dictionary-friendly
    // by construction.
    if (col.is_dict() && col.dict()->values.size() <= n / 4) {
      return Encoding::kDict;
    }
    std::unordered_map<std::string, int> distinct;
    for (size_t i = 0; i < n && distinct.size() <= n / 4; ++i) {
      distinct.emplace(col.StringAt(i), 0);
    }
    if (distinct.size() <= n / 4) return Encoding::kDict;
  }
  return Encoding::kPlain;
}

}  // namespace pdtstore
