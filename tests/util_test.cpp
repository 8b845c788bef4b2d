// Unit tests for util: contracts, strong ids, byte codec.
#include <gtest/gtest.h>

#include <sstream>
#include <unordered_set>

#include "util/bytes.hpp"
#include "util/contracts.hpp"
#include "util/strong_id.hpp"
#include "sim/random.hpp"

namespace svs::util {
namespace {

TEST(Contracts, RequireThrowsContractViolation) {
  EXPECT_THROW(SVS_REQUIRE(false, "boom"), ContractViolation);
  EXPECT_NO_THROW(SVS_REQUIRE(true, "fine"));
}

TEST(Contracts, AssertThrowsLogicViolation) {
  EXPECT_THROW(SVS_ASSERT(false, "boom"), LogicViolation);
  EXPECT_NO_THROW(SVS_ASSERT(true, "fine"));
}

TEST(Contracts, MessagesCarryContext) {
  try {
    SVS_REQUIRE(1 == 2, "the message");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("the message"), std::string::npos);
    EXPECT_NE(what.find("util_test.cpp"), std::string::npos);
  }
}

TEST(Contracts, UnreachableThrows) {
  EXPECT_THROW(SVS_UNREACHABLE("nope"), LogicViolation);
}

struct FooTag {
  static constexpr const char* prefix() { return "f"; }
};
struct BarTag {
  static constexpr const char* prefix() { return "b"; }
};
using FooId = StrongId<FooTag, std::uint32_t>;
using BarId = StrongId<BarTag, std::uint32_t>;

TEST(StrongId, ComparesAndOrders) {
  EXPECT_EQ(FooId(3), FooId(3));
  EXPECT_NE(FooId(3), FooId(4));
  EXPECT_LT(FooId(3), FooId(4));
  EXPECT_EQ(FooId(3).next(), FooId(4));
}

TEST(StrongId, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<FooId, BarId>);
  static_assert(!std::is_convertible_v<FooId, BarId>);
}

TEST(StrongId, Streams) {
  std::ostringstream os;
  os << FooId(42);
  EXPECT_EQ(os.str(), "f42");
}

TEST(StrongId, Hashable) {
  std::unordered_set<FooId> s;
  s.insert(FooId(1));
  s.insert(FooId(1));
  s.insert(FooId(2));
  EXPECT_EQ(s.size(), 2u);
}

TEST(Bytes, VarintRoundTrip) {
  ByteWriter w;
  const std::uint64_t values[] = {0,    1,    127,        128,
                                  300,  16383, 16384,     0xFFFFFFFFULL,
                                  ~0ULL};
  for (const auto v : values) w.u64(v);
  ByteReader r(w.data());
  for (const auto v : values) EXPECT_EQ(r.u64(), v);
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, VarintSizeMatchesEncoding) {
  for (const std::uint64_t v :
       {0ULL, 127ULL, 128ULL, 16384ULL, 1ULL << 40, ~0ULL}) {
    ByteWriter w;
    w.u64(v);
    EXPECT_EQ(w.size(), varint_size(v)) << v;
  }
}

TEST(Bytes, CountingWriterCountsWhatAWriterAppends) {
  const auto write_all = [](ByteWriter& w) {
    w.u8(7);
    w.u32(300);
    w.u64(~0ULL);
    w.fixed64(1);
    w.str("counted, not stored");
    w.zeros(5);
  };
  ByteWriter real;
  write_all(real);
  ByteWriter counting = ByteWriter::counting();
  write_all(counting);
  EXPECT_TRUE(counting.counts_only());
  EXPECT_EQ(counting.size(), real.size());
  EXPECT_TRUE(counting.data().empty());
}

TEST(Bytes, Fixed64RoundTrip) {
  ByteWriter w;
  w.fixed64(0x0123456789ABCDEFULL);
  EXPECT_EQ(w.size(), 8u);
  ByteReader r(w.data());
  EXPECT_EQ(r.fixed64(), 0x0123456789ABCDEFULL);
}

TEST(Bytes, StringRoundTrip) {
  ByteWriter w;
  w.str("hello");
  w.str("");
  w.str(std::string("\0binary\xff", 8));
  ByteReader r(w.data());
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), std::string("\0binary\xff", 8));
}

TEST(Bytes, UnderrunThrows) {
  ByteWriter w;
  w.u8(0x80);  // truncated varint
  ByteReader r(w.data());
  EXPECT_THROW(r.u64(), ContractViolation);
}

TEST(Bytes, OverlongVarintRejected) {
  // Ten bytes whose tail would set bits above 63: the value cannot be
  // represented, so the decoder must throw instead of silently wrapping.
  Bytes buf(9, 0x80);
  buf.push_back(0x7F);
  ByteReader r(buf);
  EXPECT_THROW(r.u64(), ContractViolation);

  // The canonical 10-byte encoding of ~0 (final byte 0x01) stays valid.
  ByteWriter w;
  w.u64(~0ULL);
  EXPECT_EQ(w.size(), 10u);
  ByteReader r2(w.data());
  EXPECT_EQ(r2.u64(), ~0ULL);
}

TEST(Bytes, U32OverflowRejected) {
  ByteWriter w;
  w.u64(1ULL << 33);
  ByteReader r(w.data());
  EXPECT_THROW(r.u32(), ContractViolation);
}

TEST(Bytes, EmptyReaderIsExhausted) {
  Bytes empty;
  ByteReader r(empty);
  EXPECT_TRUE(r.exhausted());
  EXPECT_THROW(r.u8(), ContractViolation);
}

TEST(Bytes, SkipBoundsChecked) {
  ByteWriter w;
  w.u64(300);
  ByteReader r(w.data());
  r.skip(1);
  EXPECT_EQ(r.position(), 1u);
  EXPECT_THROW(r.skip(5), ContractViolation);
  r.skip(r.remaining());
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, ReaderFuzzNeverMisbehaves) {
  // Deterministic byte-level fuzz of the primitive decoders: on arbitrary
  // buffers every read either returns a value or throws ContractViolation —
  // no UB, no LogicViolation, and the position never runs past the end.
  // (The message-level mutation fuzz lives in codec_test.cpp; the ASan +
  // UBSan CI job runs both under sanitizers.)
  svs::sim::Rng rng(0x0ddba11ULL);
  const auto next_random = [&rng] { return rng.next_u64(); };
  for (int round = 0; round < 2000; ++round) {
    Bytes buf(next_random() % 24);
    for (auto& b : buf) b = static_cast<std::uint8_t>(next_random());
    ByteReader r(buf);
    while (!r.exhausted()) {
      const std::size_t before = r.position();
      try {
        switch (next_random() % 5) {
          case 0: (void)r.u8(); break;
          case 1: (void)r.u32(); break;
          case 2: (void)r.u64(); break;
          case 3: (void)r.fixed64(); break;
          default: (void)r.str(); break;
        }
      } catch (const ContractViolation&) {
        break;  // malformed from here on; this buffer is done
      }
      ASSERT_GT(r.position(), before) << "reads must consume";
      ASSERT_LE(r.position(), buf.size());
    }
  }
}

}  // namespace
}  // namespace svs::util
