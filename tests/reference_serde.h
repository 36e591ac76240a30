#ifndef SWIFT_TESTS_REFERENCE_SERDE_H_
#define SWIFT_TESTS_REFERENCE_SERDE_H_

// Test-only reference writer for the shuffle wire format ("SWF2", see
// exec/serde.h): the row-at-a-time two-pass encoder the columnar
// SerializeColumnBatch is checked against, byte for byte. Pass one
// sizes both candidate encodings of every column and marks a column
// tagged as soon as one non-null cell's type differs from its field's;
// pass two writes the exact-size buffer row-major. It shares no code
// with the production encoder beyond the CRC.

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "exec/schema.h"
#include "exec/value.h"

namespace swift {
namespace ref {

namespace serde_detail {

constexpr uint32_t kMagic = 0x53574632;  // "SWF2"
constexpr uint8_t kColTyped = 0;
constexpr uint8_t kColTagged = 1;

inline std::size_t VarintSize(uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

inline void PutVarint(char*& p, uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
}

inline void PutString(char*& p, const std::string& s) {
  PutVarint(p, s.size());
  std::memcpy(p, s.data(), s.size());
  p += s.size();
}

struct ColMeta {
  uint8_t mode = kColTyped;      ///< kColTyped unless a cell deviates
  std::size_t typed_bytes = 0;   ///< typed payload bytes (excl. bitmap)
  std::size_t tagged_bytes = 0;  ///< tagged payload bytes (incl. tags)
};

}  // namespace serde_detail

/// \brief Encodes a uniform row batch (every row one cell per field).
inline std::string SerializeBatch(const Batch& batch) {
  using namespace serde_detail;
  const std::size_t nfields = batch.schema.num_fields();
  const std::size_t nrows = batch.rows.size();
  const std::size_t bitmap_len = (nrows + 7) / 8;
  // Pass one: per column, the size of both encodings and the mode.
  std::vector<ColMeta> cols(nfields);
  for (const Row& row : batch.rows) {
    for (std::size_t c = 0; c < nfields; ++c) {
      const Value& v = row[c];
      ColMeta& m = cols[c];
      if (v.is_null()) {
        m.tagged_bytes += 1;
        continue;
      }
      if (v.type() != batch.schema.field(c).type) m.mode = kColTagged;
      const std::size_t enc =
          v.is_string() ? VarintSize(v.str_unchecked().size()) +
                              v.str_unchecked().size()
                        : 8;
      m.typed_bytes += enc;
      m.tagged_bytes += 1 + enc;
    }
  }
  std::size_t size = 4 + VarintSize(nfields) + VarintSize(nrows) + 4;
  for (const Field& f : batch.schema.fields()) {
    size += VarintSize(f.name.size()) + f.name.size() + 1;
  }
  for (const ColMeta& m : cols) {
    size += 1 + (m.mode == kColTyped ? bitmap_len + m.typed_bytes
                                     : m.tagged_bytes);
  }
  // Pass two: header, then column extents filled row-major.
  std::string out(size, '\0');
  char* p = out.data();
  std::memcpy(p, &kMagic, 4);
  p += 4;
  PutVarint(p, nfields);
  for (const Field& f : batch.schema.fields()) {
    PutString(p, f.name);
    *p++ = static_cast<char>(f.type);
  }
  PutVarint(p, nrows);
  std::vector<char*> bitmap(nfields);
  std::vector<char*> cur(nfields);
  for (std::size_t c = 0; c < nfields; ++c) {
    *p++ = static_cast<char>(cols[c].mode);
    if (cols[c].mode == kColTyped) {
      bitmap[c] = p;
      cur[c] = p + bitmap_len;
      p += bitmap_len + cols[c].typed_bytes;
    } else {
      cur[c] = p;
      p += cols[c].tagged_bytes;
    }
  }
  for (std::size_t r = 0; r < nrows; ++r) {
    for (std::size_t c = 0; c < nfields; ++c) {
      const Value& v = batch.rows[r][c];
      char*& q = cur[c];
      if (cols[c].mode == kColTyped) {
        if (v.is_null()) continue;
        bitmap[c][r >> 3] |= static_cast<char>(1u << (r & 7));
      } else {
        *q++ = static_cast<char>(v.type());
        if (v.is_null()) continue;
      }
      if (v.is_string()) {
        PutString(q, v.str_unchecked());
        continue;
      }
      const uint64_t bits =
          v.is_int64() ? static_cast<uint64_t>(v.int64_unchecked())
                       : std::bit_cast<uint64_t>(v.float64_unchecked());
      std::memcpy(q, &bits, 8);
      q += 8;
    }
  }
  const uint32_t crc = Crc32(std::string_view(out.data(), size - 4));
  std::memcpy(out.data() + size - 4, &crc, 4);
  return out;
}

}  // namespace ref
}  // namespace swift

#endif  // SWIFT_TESTS_REFERENCE_SERDE_H_
