#include "exec/serde.h"

#include <bit>
#include <cassert>
#include <cstring>

#include "common/compress.h"
#include "common/crc32.h"
#include "common/macros.h"
#include "common/string_util.h"

namespace swift {

// The wire format stores multi-byte integers little-endian and the
// fixed-width codecs below memcpy them directly.
static_assert(std::endian::native == std::endian::little,
              "shuffle wire format assumes a little-endian host");

namespace {

/// "SWF2": schema written once; per-column validity bitmaps; value
/// encoding implied by the schema; varint lengths/counts; CRC32 footer.
constexpr uint32_t kMagic = 0x53574632;

/// Per-column encodings.
constexpr uint8_t kColTyped = 0;   ///< bitmap + schema-typed values
constexpr uint8_t kColTagged = 1;  ///< per-value type tags (mixed column)

std::size_t VarintSize(uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Bounds-checked cursor over a borrowed buffer. All reads — including
/// strings — return views into the buffer; nothing is copied until a
/// value lands in a column.
class Reader {
 public:
  explicit Reader(std::string_view buf) : buf_(buf) {}

  Result<uint8_t> U8() {
    if (buf_.size() - pos_ < 1) return Truncated();
    return static_cast<uint8_t>(buf_[pos_++]);
  }
  Result<uint32_t> U32() {
    if (buf_.size() - pos_ < 4) return Truncated();
    uint32_t v;
    std::memcpy(&v, buf_.data() + pos_, sizeof(v));
    pos_ += 4;
    return v;
  }
  Result<uint64_t> U64() {
    if (buf_.size() - pos_ < 8) return Truncated();
    uint64_t v;
    std::memcpy(&v, buf_.data() + pos_, sizeof(v));
    pos_ += 8;
    return v;
  }
  Result<uint64_t> Varint() {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos_ >= buf_.size()) return Truncated();
      const uint8_t byte = static_cast<uint8_t>(buf_[pos_++]);
      v |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return v;
    }
    return Status::IOError(
        StrFormat("varint overruns 64 bits at offset %zu", pos_));
  }
  Result<std::string_view> Bytes(std::size_t n) {
    if (buf_.size() - pos_ < n) return Truncated();
    std::string_view s = buf_.substr(pos_, n);
    pos_ += n;
    return s;
  }
  /// String with a varint length prefix.
  Result<std::string_view> Str() {
    SWIFT_ASSIGN_OR_RETURN(uint64_t len, Varint());
    if (len > buf_.size() - pos_) return Truncated();
    return Bytes(static_cast<std::size_t>(len));
  }
  bool AtEnd() const { return pos_ == buf_.size(); }
  std::size_t Remaining() const { return buf_.size() - pos_; }

 private:
  Status Truncated() const {
    return Status::IOError(
        StrFormat("truncated batch buffer at offset %zu", pos_));
  }
  std::string_view buf_;
  std::size_t pos_ = 0;
};

void PutVarintAt(char*& p, uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
}

char* WriteHeader(const Schema& schema, std::size_t nrows, char* p) {
  std::memcpy(p, &kMagic, 4);
  p += 4;
  PutVarintAt(p, schema.num_fields());
  for (const Field& f : schema.fields()) {
    PutVarintAt(p, f.name.size());
    std::memcpy(p, f.name.data(), f.name.size());
    p += f.name.size();
    *p++ = static_cast<char>(f.type);
  }
  PutVarintAt(p, nrows);
  return p;
}

std::size_t HeaderSize(const Schema& schema, std::size_t nrows) {
  std::size_t n = 4 + VarintSize(schema.num_fields());
  for (const Field& f : schema.fields()) {
    n += VarintSize(f.name.size()) + f.name.size() + 1;
  }
  return n + VarintSize(nrows);
}

// ---- Cells of a column whose representation deviates from its field ----
// (kBoxed, or a typed rep under another field type). These go cell by
// cell; conforming columns take the bulk paths in SerializeColumnBatch.

/// Type of cell i's value; kNull for a NULL cell.
DataType CellType(const ColumnVector& col, std::size_t i) {
  if (col.IsNull(i)) return DataType::kNull;
  return col.rep() == ColumnRep::kBoxed ? col.BoxedAt(i).type()
                                        : static_cast<DataType>(col.rep());
}

/// String value of non-null cell i (pre: CellType is kString).
std::string_view CellStr(const ColumnVector& col, std::size_t i) {
  return col.rep() == ColumnRep::kBoxed
             ? std::string_view(col.BoxedAt(i).str_unchecked())
             : col.StrAt(i);
}

/// Untagged wire size of non-null cell i of type t.
std::size_t CellSize(const ColumnVector& col, std::size_t i, DataType t) {
  if (t != DataType::kString) return 8;
  const std::size_t len = CellStr(col, i).size();
  return VarintSize(len) + len;
}

/// Writes non-null cell i of type t, untagged.
void PutCell(const ColumnVector& col, std::size_t i, DataType t, char*& p) {
  if (t == DataType::kString) {
    const std::string_view s = CellStr(col, i);
    PutVarintAt(p, s.size());
    std::memcpy(p, s.data(), s.size());
    p += s.size();
    return;
  }
  const bool boxed = col.rep() == ColumnRep::kBoxed;
  const uint64_t bits =
      t == DataType::kInt64
          ? static_cast<uint64_t>(boxed ? col.BoxedAt(i).int64_unchecked()
                                        : col.Int64At(i))
          : std::bit_cast<uint64_t>(boxed ? col.BoxedAt(i).float64_unchecked()
                                          : col.Float64At(i));
  std::memcpy(p, &bits, 8);
  p += 8;
}

/// How one column goes on the wire. A column is typed when every
/// non-null logical cell has its field's type, else tagged; `payload`
/// counts the bytes after the mode byte and (typed) bitmap.
struct ColPlan {
  bool conforms = false;  ///< rep == field type: the bulk paths apply
  uint8_t mode = kColTyped;
  std::size_t payload = 0;
};

ColPlan PlanColumn(const ColumnVector& col, DataType ft, std::size_t nrows,
                   const uint32_t* sel) {
  ColPlan plan;
  plan.conforms = static_cast<uint8_t>(col.rep()) == static_cast<uint8_t>(ft);
  if (plan.conforms) {
    switch (col.rep()) {
      case ColumnRep::kNull:
      case ColumnRep::kBoxed:  // never conforms
        break;
      case ColumnRep::kInt64:
      case ColumnRep::kFloat64: {
        std::size_t nonnull = nrows;
        if (col.has_nulls()) {
          nonnull = 0;
          for (std::size_t j = 0; j < nrows; ++j) {
            nonnull += col.IsNull(sel ? sel[j] : j) ? 0 : 1;
          }
        }
        plan.payload = 8 * nonnull;
        break;
      }
      case ColumnRep::kString:
        for (std::size_t j = 0; j < nrows; ++j) {
          const std::size_t i = sel ? sel[j] : j;
          if (col.IsNull(i)) continue;
          const std::size_t len = col.StrAt(i).size();
          plan.payload += VarintSize(len) + len;
        }
        break;
    }
    return plan;
  }
  std::size_t typed = 0;
  std::size_t tagged = 0;
  for (std::size_t j = 0; j < nrows; ++j) {
    const std::size_t i = sel ? sel[j] : j;
    const DataType t = CellType(col, i);
    if (t == DataType::kNull) {
      tagged += 1;
      continue;
    }
    if (t != ft) plan.mode = kColTagged;
    const std::size_t n = CellSize(col, i, t);
    typed += n;
    tagged += 1 + n;
  }
  plan.payload = plan.mode == kColTyped ? typed : tagged;
  return plan;
}

/// Writes a conforming column's bitmap (at `bitmap`, pre-zeroed) and
/// payload (at p) straight from its typed storage.
void WriteConformingColumn(const ColumnVector& col, std::size_t nrows,
                           const uint32_t* sel, char* bitmap, char*& p) {
  const std::size_t bitmap_len = (nrows + 7) / 8;
  const bool dense = sel == nullptr && !col.has_nulls();
  if (dense && bitmap_len != 0 && col.rep() != ColumnRep::kNull) {
    std::memset(bitmap, 0xFF, bitmap_len);
    if ((nrows & 7) != 0) {
      bitmap[bitmap_len - 1] = static_cast<char>((1u << (nrows & 7)) - 1);
    }
  }
  switch (col.rep()) {
    case ColumnRep::kNull:
    case ColumnRep::kBoxed:
      break;  // all-zero bitmap, no payload
    case ColumnRep::kInt64:
    case ColumnRep::kFloat64: {
      const char* data =
          col.rep() == ColumnRep::kInt64
              ? reinterpret_cast<const char*>(col.Int64Data())
              : reinterpret_cast<const char*>(col.Float64Data());
      if (dense) {
        // The near-memcpy fast path: contiguous host storage is already
        // the wire encoding (an empty column owns no storage, and
        // memcpy's pointers must be valid even for 0 bytes).
        if (nrows != 0) std::memcpy(p, data, 8 * nrows);
        p += 8 * nrows;
        break;
      }
      for (std::size_t j = 0; j < nrows; ++j) {
        const std::size_t i = sel ? sel[j] : j;
        if (col.IsNull(i)) continue;
        bitmap[j >> 3] |= static_cast<char>(1u << (j & 7));
        std::memcpy(p, data + 8 * i, 8);
        p += 8;
      }
      break;
    }
    case ColumnRep::kString:
      for (std::size_t j = 0; j < nrows; ++j) {
        const std::size_t i = sel ? sel[j] : j;
        if (col.IsNull(i)) continue;
        if (!dense) bitmap[j >> 3] |= static_cast<char>(1u << (j & 7));
        const std::string_view s = col.StrAt(i);
        PutVarintAt(p, s.size());
        std::memcpy(p, s.data(), s.size());
        p += s.size();
      }
      break;
  }
}

}  // namespace

// GCC 12 reports a spurious -Wmaybe-uninitialized inside std::variant's
// move machinery when Value temporaries are appended to a boxed column
// (GCC PR 105593 family); the values are fully constructed.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

Result<ColumnBatch> DeserializeColumnBatch(std::string_view bytes) {
  if (IsCompressedFrame(bytes)) {
    // Lazy decompression: the compressed bytes are the shared zero-copy
    // buffer all the way from the writer; this decode is the one
    // accounted copy. The inner payload must be a plain batch — a
    // nested frame is rejected, so corrupt input cannot recurse.
    SWIFT_ASSIGN_OR_RETURN(std::string raw, DecompressFrame(bytes));
    if (IsCompressedFrame(raw)) {
      return Status::IOError("nested compressed frame");
    }
    return DeserializeColumnBatch(raw);
  }
  SWIFT_ASSIGN_OR_RETURN(uint32_t magic, Reader(bytes).U32());
  if (magic != kMagic) return Status::IOError("bad batch magic");
  if (bytes.size() < 8) {
    return Status::IOError("v2 batch buffer shorter than magic + CRC");
  }
  // Verify the footer before trusting any decoded count: corruption is
  // caught here, so the size guards below only defend against the
  // astronomically unlikely CRC collision.
  uint32_t stored_crc;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - 4, 4);
  const uint32_t actual_crc = Crc32(bytes.substr(0, bytes.size() - 4));
  if (stored_crc != actual_crc) {
    return Status::IOError(
        StrFormat("batch CRC32 mismatch (stored %08x, computed %08x)",
                  stored_crc, actual_crc));
  }
  Reader rd(bytes.substr(4, bytes.size() - 8));  // body: magic..footer
  SWIFT_ASSIGN_OR_RETURN(uint64_t nfields64, rd.Varint());
  // Every field needs at least 2 bytes (name length + type tag).
  if (nfields64 > rd.Remaining() / 2) {
    return Status::IOError("field count exceeds buffer");
  }
  const std::size_t nfields = static_cast<std::size_t>(nfields64);
  std::vector<Field> fields;
  fields.reserve(nfields);
  for (std::size_t i = 0; i < nfields; ++i) {
    Field f;
    SWIFT_ASSIGN_OR_RETURN(std::string_view name, rd.Str());
    f.name = std::string(name);
    SWIFT_ASSIGN_OR_RETURN(uint8_t t, rd.U8());
    if (t > static_cast<uint8_t>(DataType::kString)) {
      return Status::IOError("bad field type tag");
    }
    f.type = static_cast<DataType>(t);
    fields.push_back(std::move(f));
  }
  SWIFT_ASSIGN_OR_RETURN(uint64_t nrows64, rd.Varint());
  // Plausibility: each column carries at least a bitmap bit per row, and
  // a zero-column batch should not claim an absurd row count.
  if (nfields > 0 && nrows64 / 8 > rd.Remaining() / nfields + 1) {
    return Status::IOError("row count exceeds buffer");
  }
  if (nfields == 0 && nrows64 > (1u << 28)) {
    return Status::IOError("row count exceeds buffer");
  }
  const std::size_t nrows = static_cast<std::size_t>(nrows64);
  ColumnBatch out;
  out.schema = Schema(std::move(fields));
  out.physical_rows = nrows;
  out.columns.reserve(nfields);
  for (std::size_t c = 0; c < nfields; ++c) {
    const DataType ft = out.schema.field(c).type;
    SWIFT_ASSIGN_OR_RETURN(uint8_t mode, rd.U8());
    if (mode == kColTyped) {
      SWIFT_ASSIGN_OR_RETURN(std::string_view bitmap,
                             rd.Bytes((nrows + 7) / 8));
      const uint8_t* bits = reinterpret_cast<const uint8_t*>(bitmap.data());
      std::size_t nonnull = 0;
      for (const char b : bitmap) {
        nonnull +=
            std::popcount(static_cast<unsigned>(static_cast<uint8_t>(b)));
      }
      if ((nrows & 7) != 0 && !bitmap.empty() &&
          (static_cast<uint8_t>(bitmap.back()) >> (nrows & 7)) != 0) {
        return Status::IOError("bitmap padding bits set");
      }
      switch (ft) {
        case DataType::kNull:
          if (nonnull != 0) {
            return Status::IOError("non-null cell in null-typed column");
          }
          out.columns.push_back(ColumnVector::MakeNull(nrows));
          break;
        case DataType::kInt64:
        case DataType::kFloat64: {
          // One bounds check covers the whole fixed-width column.
          SWIFT_ASSIGN_OR_RETURN(std::string_view data,
                                 rd.Bytes(nonnull * 8));
          ColumnVector col;
          col.ResizeFixedWidth(ft == DataType::kInt64 ? ColumnRep::kInt64
                                                      : ColumnRep::kFloat64,
                               nrows);
          char* dst = ft == DataType::kInt64
                          ? reinterpret_cast<char*>(col.MutableInt64Data())
                          : reinterpret_cast<char*>(col.MutableFloat64Data());
          if (nonnull == nrows) {
            // memcpy's pointers must be valid even for 0 bytes, and an
            // empty column owns no storage.
            if (nrows != 0) std::memcpy(dst, data.data(), 8 * nrows);
          } else {
            const char* src = data.data();
            for (std::size_t r = 0; r < nrows; ++r) {
              if ((bits[r >> 3] >> (r & 7)) & 1) {
                std::memcpy(dst + 8 * r, src, 8);
                src += 8;
              }
            }
            col.SetValidity(std::vector<uint8_t>(bits, bits + bitmap.size()),
                            nrows - nonnull);
          }
          out.columns.push_back(std::move(col));
          break;
        }
        case DataType::kString: {
          ColumnVector col = ColumnVector::OfType(DataType::kString);
          col.Reserve(nrows);
          for (std::size_t r = 0; r < nrows; ++r) {
            if ((bits[r >> 3] >> (r & 7)) & 1) {
              SWIFT_ASSIGN_OR_RETURN(std::string_view s, rd.Str());
              col.AppendString(s);
            } else {
              col.AppendNull();
            }
          }
          out.columns.push_back(std::move(col));
          break;
        }
      }
    } else if (mode == kColTagged) {
      ColumnVector col = ColumnVector::OfRep(ColumnRep::kBoxed);
      col.Reserve(nrows);
      for (std::size_t r = 0; r < nrows; ++r) {
        SWIFT_ASSIGN_OR_RETURN(uint8_t tag, rd.U8());
        switch (static_cast<DataType>(tag)) {
          case DataType::kNull:
            col.AppendNull();
            break;
          case DataType::kInt64: {
            SWIFT_ASSIGN_OR_RETURN(uint64_t v, rd.U64());
            col.Append(Value(static_cast<int64_t>(v)));
            break;
          }
          case DataType::kFloat64: {
            SWIFT_ASSIGN_OR_RETURN(uint64_t vbits, rd.U64());
            double d;
            std::memcpy(&d, &vbits, sizeof(d));
            col.Append(Value(d));
            break;
          }
          case DataType::kString: {
            SWIFT_ASSIGN_OR_RETURN(std::string_view s, rd.Str());
            col.Append(Value(std::string(s)));
            break;
          }
          default:
            return Status::IOError("bad value type tag");
        }
      }
      out.columns.push_back(std::move(col));
    } else {
      return Status::IOError("bad column mode");
    }
  }
  if (!rd.AtEnd()) {
    return Status::IOError("trailing bytes after batch");
  }
  return out;
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

std::string SerializeColumnBatch(const ColumnBatch& batch) {
  assert(batch.columns.size() == batch.schema.num_fields());
  const std::size_t nfields = batch.schema.num_fields();
  const std::size_t nrows = batch.num_rows();
  const std::size_t bitmap_len = (nrows + 7) / 8;
  const uint32_t* sel = batch.selection ? batch.selection->data() : nullptr;
  // Sizing pass: header + per column (mode byte + bitmap when typed +
  // payload) + CRC.
  std::vector<ColPlan> plans(nfields);
  std::size_t total = HeaderSize(batch.schema, nrows) + 4;
  for (std::size_t c = 0; c < nfields; ++c) {
    plans[c] = PlanColumn(batch.columns[c], batch.schema.field(c).type,
                          nrows, sel);
    total += 1 + (plans[c].mode == kColTyped ? bitmap_len : 0) +
             plans[c].payload;
  }
  std::string out(total, '\0');
  char* const base = out.data();
  char* p = WriteHeader(batch.schema, nrows, base);
  for (std::size_t c = 0; c < nfields; ++c) {
    const ColumnVector& col = batch.columns[c];
    const ColPlan& plan = plans[c];
    *p++ = static_cast<char>(plan.mode);
    if (plan.mode == kColTagged) {
      for (std::size_t j = 0; j < nrows; ++j) {
        const std::size_t i = sel ? sel[j] : j;
        const DataType t = CellType(col, i);
        *p++ = static_cast<char>(t);
        if (t != DataType::kNull) PutCell(col, i, t, p);
      }
      continue;
    }
    char* const bitmap = p;  // pre-zeroed by the string fill
    p += bitmap_len;
    if (plan.conforms) {
      WriteConformingColumn(col, nrows, sel, bitmap, p);
      continue;
    }
    for (std::size_t j = 0; j < nrows; ++j) {
      const std::size_t i = sel ? sel[j] : j;
      const DataType t = CellType(col, i);
      if (t == DataType::kNull) continue;
      bitmap[j >> 3] |= static_cast<char>(1u << (j & 7));
      PutCell(col, i, t, p);
    }
  }
  const uint32_t crc = Crc32(std::string_view(base, total - 4));
  std::memcpy(base + total - 4, &crc, 4);
  return out;
}

}  // namespace swift
