#ifndef SWIFT_EXEC_SERDE_H_
#define SWIFT_EXEC_SERDE_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "exec/column_batch.h"

namespace swift {

/// \brief Encodes a ColumnBatch in the shuffle wire format ("SWF2":
/// schema written once, per-column mode byte, null bitmaps instead of
/// per-value type tags, varint lengths/counts, CRC32 footer), gathering
/// through its selection vector. Typed columns are written straight
/// from their contiguous storage (a dense fixed-width column is one
/// memcpy). A column whose representation deviates from its schema
/// field (kBoxed, or a retyped column) is encoded cell by cell: typed
/// when every non-null cell has the field's type, else with a type tag
/// per value. Deterministic: equal logical contents give equal bytes.
/// Pre: one column per schema field.
std::string SerializeColumnBatch(const ColumnBatch& batch);

/// \brief Decodes a shuffle buffer straight into columnar form: a
/// fixed-width column with no nulls lands with a single memcpy, one
/// with nulls scatters through the validity bitmap, and a tagged
/// column decodes to kBoxed. Verifies the CRC32 footer before trusting
/// any decoded count, and rejects truncated, corrupt or trailing-byte
/// buffers and any other magic with IOError. Buffers wrapped in a
/// compressed frame (common/compress.h, "SWZ1" magic, written by the
/// shuffle plane for large barrier edges and spills) are CRC-checked
/// and decompressed first; nested frames are rejected. Readers never
/// need to know what the writer negotiated.
Result<ColumnBatch> DeserializeColumnBatch(std::string_view bytes);

}  // namespace swift

#endif  // SWIFT_EXEC_SERDE_H_
