#include "exec/serde.h"

#include <gtest/gtest.h>

#include "common/macros.h"

namespace swift {
namespace {

Batch SampleBatch() {
  Batch b;
  b.schema = Schema({{"id", DataType::kInt64},
                     {"price", DataType::kFloat64},
                     {"name", DataType::kString},
                     {"opt", DataType::kNull}});
  b.rows = {{Value(int64_t{1}), Value(3.25), Value("widget"), Value::Null()},
            {Value(int64_t{-7}), Value(-0.5), Value(""), Value(int64_t{9})}};
  return b;
}

std::string Encode(const Batch& b) {
  Result<ColumnBatch> cb = ToColumnBatch(b);
  EXPECT_TRUE(cb.ok()) << cb.status().ToString();
  return cb.ok() ? SerializeColumnBatch(*cb) : std::string();
}

Result<Batch> Decode(std::string_view bytes) {
  SWIFT_ASSIGN_OR_RETURN(ColumnBatch cb, DeserializeColumnBatch(bytes));
  return ToRowBatch(cb);
}

TEST(SerdeTest, RoundTripPreservesEverything) {
  Batch b = SampleBatch();
  std::string bytes = Encode(b);
  auto r = Decode(bytes);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->schema, b.schema);
  ASSERT_EQ(r->num_rows(), b.num_rows());
  for (std::size_t i = 0; i < b.rows.size(); ++i) {
    ASSERT_EQ(r->rows[i].size(), b.rows[i].size());
    for (std::size_t c = 0; c < b.rows[i].size(); ++c) {
      EXPECT_EQ(r->rows[i][c].Compare(b.rows[i][c]), 0)
          << "row " << i << " col " << c;
      EXPECT_EQ(r->rows[i][c].type(), b.rows[i][c].type());
    }
  }
}

TEST(SerdeTest, EmptyBatch) {
  Batch b;
  b.schema = Schema({{"x", DataType::kInt64}});
  auto r = Decode(Encode(b));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 0u);
  EXPECT_EQ(r->schema.num_fields(), 1u);
}

TEST(SerdeTest, RejectsBadMagic) {
  std::string bytes = Encode(SampleBatch());
  bytes[0] = 'X';
  EXPECT_EQ(DeserializeColumnBatch(bytes).status().code(),
            StatusCode::kIOError);
}

TEST(SerdeTest, RejectsRetiredV1Magic) {
  // The row-shaped v1 format ("SWFT") is no longer read: its buffers
  // fail as an unknown magic, never as a decode of some other shape.
  std::string bytes = Encode(SampleBatch());
  bytes[0] = 'T';  // little-endian u32 0x53574654
  auto r = DeserializeColumnBatch(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_NE(r.status().ToString().find("bad batch magic"), std::string::npos)
      << r.status().ToString();
}

TEST(SerdeTest, RejectsTruncation) {
  std::string bytes = Encode(SampleBatch());
  for (std::size_t cut : {bytes.size() - 1, bytes.size() / 2, std::size_t{5}}) {
    EXPECT_FALSE(DeserializeColumnBatch(bytes.substr(0, cut)).ok())
        << "cut at " << cut;
  }
}

TEST(SerdeTest, RejectsTrailingGarbage) {
  std::string bytes = Encode(SampleBatch()) + "junk";
  EXPECT_EQ(DeserializeColumnBatch(bytes).status().code(),
            StatusCode::kIOError);
}

TEST(SerdeTest, V2CrcDetectsEveryByteFlip) {
  const std::string bytes = Encode(SampleBatch());
  for (std::size_t pos = 4; pos < bytes.size(); ++pos) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x5A);
    auto r = DeserializeColumnBatch(corrupt);
    EXPECT_FALSE(r.ok()) << "flip at " << pos;
    EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  }
}

TEST(SerdeTest, MixedTypeColumnRoundTrips) {
  // A column whose cells deviate from the schema type is written with
  // per-value tags; values and types survive exactly.
  Batch b;
  b.schema = Schema({{"x", DataType::kInt64}});
  b.rows = {{Value(int64_t{1})}, {Value("not an int")}, {Value::Null()},
            {Value(2.5)}};
  auto r = Decode(Encode(b));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 4u);
  EXPECT_EQ(r->rows[0][0].int64(), 1);
  EXPECT_EQ(r->rows[1][0].str(), "not an int");
  EXPECT_TRUE(r->rows[2][0].is_null());
  EXPECT_EQ(r->rows[3][0].float64(), 2.5);
}

TEST(SerdeTest, AllNullTypedColumnRoundTrips) {
  Batch b;
  b.schema = Schema({{"opt", DataType::kNull}, {"v", DataType::kInt64}});
  b.rows = {{Value::Null(), Value(int64_t{1})},
            {Value::Null(), Value::Null()}};
  auto r = Decode(Encode(b));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->rows[0][0].is_null());
  EXPECT_TRUE(r->rows[1][1].is_null());
  EXPECT_EQ(r->rows[0][1].int64(), 1);
}

TEST(SerdeTest, LargeBatchRoundTrip) {
  Batch b;
  b.schema = Schema({{"k", DataType::kInt64}, {"s", DataType::kString}});
  for (int64_t i = 0; i < 5000; ++i) {
    b.rows.push_back({Value(i), Value(std::string(i % 40, 'a'))});
  }
  auto r = Decode(Encode(b));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 5000u);
  EXPECT_EQ(r->rows[4999][0].int64(), 4999);
}

}  // namespace
}  // namespace swift
