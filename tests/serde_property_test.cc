// Property tests: random batches — mixed-type cells under every field
// type, so typed, retyped and kBoxed columns all reach the encoder —
// must round-trip through the shuffle wire codec byte-exactly, and
// corrupt input (truncations, byte flips, random garbage) must never
// crash or OOM the decoder. The format carries a CRC32 footer, so any
// byte flip past the magic must come back as IOError.

#include <gtest/gtest.h>

#include "common/compress.h"
#include "common/rng.h"
#include "exec/serde.h"
#include "reference_serde.h"

namespace swift {
namespace {

Batch RandomBatch(uint64_t seed) {
  Rng rng(seed);
  const int ncols = static_cast<int>(rng.UniformInt(1, 6));
  std::vector<Field> fields;
  for (int c = 0; c < ncols; ++c) {
    fields.push_back(Field{
        "c" + std::to_string(c),
        static_cast<DataType>(rng.UniformInt(0, 3))});
  }
  Batch b;
  b.schema = Schema(std::move(fields));
  const int nrows = static_cast<int>(rng.UniformInt(0, 200));
  for (int r = 0; r < nrows; ++r) {
    Row row;
    for (int c = 0; c < ncols; ++c) {
      switch (rng.UniformInt(0, 3)) {
        case 0:
          row.push_back(Value::Null());
          break;
        case 1:
          row.push_back(Value(static_cast<int64_t>(rng.Next())));
          break;
        case 2:
          row.push_back(Value(rng.Uniform(-1e12, 1e12)));
          break;
        default: {
          std::string s(static_cast<std::size_t>(rng.UniformInt(0, 64)),
                        'x');
          for (char& ch : s) {
            ch = static_cast<char>(rng.UniformInt(0, 255));
          }
          row.push_back(Value(std::move(s)));
        }
      }
    }
    b.rows.push_back(std::move(row));
  }
  return b;
}

std::string Encode(const Batch& b) {
  Result<ColumnBatch> cb = ToColumnBatch(b);
  EXPECT_TRUE(cb.ok()) << cb.status().ToString();
  return cb.ok() ? SerializeColumnBatch(*cb) : std::string();
}

class SerdePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerdePropertyTest, RoundTripExact) {
  Batch b = RandomBatch(GetParam());
  const std::string bytes = Encode(b);
  EXPECT_EQ(bytes, ref::SerializeBatch(b));
  auto decoded = DeserializeColumnBatch(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const Batch back = ToRowBatch(*decoded);
  ASSERT_EQ(back.schema, b.schema);
  ASSERT_EQ(back.num_rows(), b.num_rows());
  for (std::size_t r = 0; r < b.rows.size(); ++r) {
    for (std::size_t c = 0; c < b.rows[r].size(); ++c) {
      EXPECT_EQ(back.rows[r][c].type(), b.rows[r][c].type());
      EXPECT_EQ(back.rows[r][c].Compare(b.rows[r][c]), 0);
    }
  }
  // Serialization is deterministic.
  EXPECT_EQ(SerializeColumnBatch(*decoded), bytes);
}

TEST_P(SerdePropertyTest, SingleByteCorruptionNeverCrashes) {
  const std::string bytes = Encode(RandomBatch(GetParam()));
  if (bytes.empty()) return;
  Rng rng(GetParam() ^ 0xC0FFEE);
  for (int trial = 0; trial < 32; ++trial) {
    std::string corrupt = bytes;
    const std::size_t pos = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<int64_t>(bytes.size()) - 1));
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 + rng.UniformInt(0, 254)));
    auto result = DeserializeColumnBatch(corrupt);  // must not crash or hang
    (void)result;
  }
}

TEST_P(SerdePropertyTest, TruncationAlwaysErrors) {
  const std::string bytes = Encode(RandomBatch(GetParam()));
  Rng rng(GetParam() ^ 0xBEEF);
  for (int trial = 0; trial < 16; ++trial) {
    const std::size_t cut = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<int64_t>(bytes.size()) - 1));
    EXPECT_FALSE(DeserializeColumnBatch(bytes.substr(0, cut)).ok())
        << "cut at " << cut << " of " << bytes.size();
  }
}

TEST_P(SerdePropertyTest, V2ByteFlipAlwaysIOError) {
  const std::string bytes = Encode(RandomBatch(GetParam()));
  Rng rng(GetParam() ^ 0xD00F);
  // Any flip past the 4-byte magic leaves the magic intact, so the
  // CRC32 footer must reject the buffer before parsing.
  for (int trial = 0; trial < 32; ++trial) {
    std::string corrupt = bytes;
    const std::size_t pos = static_cast<std::size_t>(
        rng.UniformInt(4, static_cast<int64_t>(bytes.size()) - 1));
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 + rng.UniformInt(0, 254)));
    auto result = DeserializeColumnBatch(corrupt);
    ASSERT_FALSE(result.ok()) << "flip at " << pos;
    EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  }
}

TEST_P(SerdePropertyTest, V2MultiByteCorruptionAlwaysIOError) {
  const std::string bytes = Encode(RandomBatch(GetParam()));
  Rng rng(GetParam() ^ 0xABCD);
  for (int trial = 0; trial < 16; ++trial) {
    std::string corrupt = bytes;
    const int flips = static_cast<int>(rng.UniformInt(2, 8));
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos = static_cast<std::size_t>(
          rng.UniformInt(4, static_cast<int64_t>(bytes.size()) - 1));
      corrupt[pos] =
          static_cast<char>(corrupt[pos] ^ (1 + rng.UniformInt(0, 254)));
    }
    if (corrupt == bytes) continue;  // flips cancelled out
    auto result = DeserializeColumnBatch(corrupt);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  }
}

TEST_P(SerdePropertyTest, RandomGarbageNeverCrashes) {
  Rng rng(GetParam() ^ 0x6A4BA6E);
  for (int trial = 0; trial < 16; ++trial) {
    std::string garbage(static_cast<std::size_t>(rng.UniformInt(0, 512)), '\0');
    for (char& ch : garbage) {
      ch = static_cast<char>(rng.UniformInt(0, 255));
    }
    if (trial % 4 == 0 && garbage.size() >= 4) {
      // Bias some trials onto the decode path, and onto the retired v1
      // magic, which must be rejected up front.
      const char* magic = (trial % 8 == 0) ? "SWFT" : "SWF2";
      garbage[0] = magic[3];  // little-endian u32
      garbage[1] = magic[2];
      garbage[2] = magic[1];
      garbage[3] = magic[0];
    }
    auto result = DeserializeColumnBatch(garbage);  // must not crash or OOM
    (void)result;
  }
}

TEST_P(SerdePropertyTest, CompressedFrameRoundTripExact) {
  // The shuffle writer may wrap a payload in a compressed frame
  // (common/compress.h); the decoder must hand back the exact batch
  // with no caller-side negotiation.
  const std::string bytes = Encode(RandomBatch(GetParam()));
  auto back = DeserializeColumnBatch(CompressFrame(bytes));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(SerializeColumnBatch(*back), bytes);
}

TEST_P(SerdePropertyTest, CompressedFrameByteFlipFailsClosed) {
  const std::string frame = CompressFrame(Encode(RandomBatch(GetParam())));
  Rng rng(GetParam() ^ 0xF4A3E);
  // Any flip past the frame magic must surface as IOError: header
  // validation, the frame CRC over stored bytes, or (for a flip the
  // frame layer cannot see) the inner CRC footer.
  for (int trial = 0; trial < 32; ++trial) {
    std::string corrupt = frame;
    const std::size_t pos = static_cast<std::size_t>(
        rng.UniformInt(4, static_cast<int64_t>(frame.size()) - 1));
    corrupt[pos] =
        static_cast<char>(corrupt[pos] ^ (1 + rng.UniformInt(0, 254)));
    auto result = DeserializeColumnBatch(corrupt);
    ASSERT_FALSE(result.ok()) << "flip at " << pos;
    EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  }
}

TEST_P(SerdePropertyTest, CompressedFrameTruncationFailsClosed) {
  const std::string frame = CompressFrame(Encode(RandomBatch(GetParam())));
  Rng rng(GetParam() ^ 0x7C07);
  for (int trial = 0; trial < 16; ++trial) {
    const std::size_t cut = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<int64_t>(frame.size()) - 1));
    EXPECT_FALSE(DeserializeColumnBatch(frame.substr(0, cut)).ok())
        << "cut at " << cut << " of " << frame.size();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerdePropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace swift
