// Value / Row / Schema / serde tests, plus the message-envelope contract
// (every MsgType named, control/data classification total).

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "src/common/random.h"
#include "src/net/message.h"
#include "src/tuple/row.h"
#include "src/tuple/schema.h"
#include "src/tuple/serde.h"

namespace ajoin {
namespace {

TEST(Value, TypesAndAccessors) {
  Value i(int64_t{42});
  Value d(3.5);
  Value s(std::string("hi"));
  EXPECT_EQ(i.type(), ValueType::kInt64);
  EXPECT_EQ(d.type(), ValueType::kDouble);
  EXPECT_EQ(s.type(), ValueType::kString);
  EXPECT_EQ(i.AsInt64(), 42);
  EXPECT_DOUBLE_EQ(d.AsDouble(), 3.5);
  EXPECT_EQ(s.AsString(), "hi");
  EXPECT_DOUBLE_EQ(i.AsNumeric(), 42.0);
}

TEST(Value, OrderingAndEquality) {
  EXPECT_TRUE(Value(int64_t{1}) < Value(int64_t{2}));
  EXPECT_TRUE(Value(1.5) < Value(int64_t{2}));  // mixed numeric
  EXPECT_TRUE(Value("abc") < Value("abd"));
  EXPECT_EQ(Value(int64_t{7}), Value(int64_t{7}));
  EXPECT_NE(Value(int64_t{7}), Value(7.0));  // type-sensitive equality
}

TEST(Value, ByteSize) {
  EXPECT_EQ(Value(int64_t{1}).ByteSize(), 8u);
  EXPECT_EQ(Value(1.0).ByteSize(), 8u);
  EXPECT_EQ(Value("abcd").ByteSize(), 8u);  // 4 length + 4 chars
}

TEST(Schema, IndexOf) {
  Schema schema({{"a", ValueType::kInt64}, {"b", ValueType::kString}});
  EXPECT_EQ(schema.num_columns(), 2u);
  EXPECT_EQ(schema.IndexOf("b"), 1);
  EXPECT_EQ(schema.IndexOf("zz"), -1);
  EXPECT_EQ(schema.ToString(), "(a:int64, b:string)");
}

TEST(Row, BasicOps) {
  Row row;
  row.Append(Value(int64_t{5}));
  row.Append(Value("xyz"));
  row.Append(Value(2.25));
  EXPECT_EQ(row.num_values(), 3u);
  EXPECT_EQ(row.Int64(0), 5);
  EXPECT_EQ(row.String(1), "xyz");
  EXPECT_DOUBLE_EQ(row.Double(2), 2.25);
  EXPECT_EQ(row.ToString(), "[5, xyz, 2.25]");
}

TEST(Serde, RoundTripMixedRows) {
  Rng rng(17);
  std::vector<uint8_t> buf;
  std::vector<Row> rows;
  for (int i = 0; i < 200; ++i) {
    Row row;
    row.Append(Value(static_cast<int64_t>(rng.Next())));
    row.Append(Value(rng.NextDouble()));
    std::string s(rng.Uniform(50), 'a' + static_cast<char>(rng.Uniform(26)));
    row.Append(Value(s));
    SerializeRow(row, &buf);
    rows.push_back(std::move(row));
  }
  size_t offset = 0;
  for (int i = 0; i < 200; ++i) {
    auto got = DeserializeRow(buf, &offset);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), rows[static_cast<size_t>(i)]);
  }
  EXPECT_EQ(offset, buf.size());
}

TEST(Serde, TruncatedBufferFailsCleanly) {
  Row row;
  row.Append(Value(int64_t{1}));
  row.Append(Value("hello world"));
  std::vector<uint8_t> buf;
  SerializeRow(row, &buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    std::vector<uint8_t> truncated(buf.begin(),
                                   buf.begin() + static_cast<long>(cut));
    size_t offset = 0;
    auto got = DeserializeRow(truncated, &offset);
    EXPECT_FALSE(got.ok()) << "cut at " << cut;
  }
}

TEST(Serde, FuzzRandomBytesNeverCrash) {
  // Deserialization of arbitrary bytes must fail cleanly, never crash or
  // over-read.
  Rng rng(23);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> junk(rng.Uniform(64));
    for (auto& b : junk) b = static_cast<uint8_t>(rng.Uniform(256));
    size_t offset = 0;
    auto result = DeserializeRow(junk, &offset);
    if (result.ok()) {
      EXPECT_LE(offset, junk.size());
    }
  }
}

TEST(Message, EveryMsgTypeIsNamed) {
  // Every value in [0, kNumMsgTypes) must have a real name, and the value
  // just past the end must hit the switch fallback — so adding an enum
  // value without a MsgTypeName case (or without bumping kNumMsgTypes)
  // fails here instead of shipping an unnamed type.
  for (uint8_t v = 0; v < kNumMsgTypes; ++v) {
    const char* name = MsgTypeName(static_cast<MsgType>(v));
    EXPECT_STRNE(name, "?") << "unnamed MsgType value " << int{v};
    EXPECT_GT(std::strlen(name), 0u) << "empty name for value " << int{v};
  }
  EXPECT_STREQ(MsgTypeName(static_cast<MsgType>(kNumMsgTypes)), "?");
}

TEST(Message, NamesAreDistinct) {
  for (uint8_t a = 0; a < kNumMsgTypes; ++a) {
    for (uint8_t b = static_cast<uint8_t>(a + 1); b < kNumMsgTypes; ++b) {
      EXPECT_STRNE(MsgTypeName(static_cast<MsgType>(a)),
                   MsgTypeName(static_cast<MsgType>(b)))
          << int{a} << " vs " << int{b};
    }
  }
}

TEST(Message, ControlDataClassification) {
  // The egress plane depends on kResult being data (it must batch and ride
  // SendRun); the migration protocol depends on its markers being control.
  EXPECT_FALSE(IsControlMsg(MsgType::kInput));
  EXPECT_FALSE(IsControlMsg(MsgType::kData));
  EXPECT_FALSE(IsControlMsg(MsgType::kMigrate));
  EXPECT_FALSE(IsControlMsg(MsgType::kResult));
  EXPECT_TRUE(IsControlMsg(MsgType::kMigEnd));
  EXPECT_TRUE(IsControlMsg(MsgType::kEpochChange));
  EXPECT_TRUE(IsControlMsg(MsgType::kReshufSignal));
  EXPECT_TRUE(IsControlMsg(MsgType::kMigAck));
  EXPECT_TRUE(IsControlMsg(MsgType::kEos));
  EXPECT_TRUE(IsControlMsg(MsgType::kCheckpoint));
}

TEST(Serde, EmptyRow) {
  Row row;
  std::vector<uint8_t> buf;
  SerializeRow(row, &buf);
  size_t offset = 0;
  auto got = DeserializeRow(buf, &offset);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().num_values(), 0u);
}

}  // namespace
}  // namespace ajoin
