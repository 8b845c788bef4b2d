#include "util/bytes.hpp"

#include "util/contracts.hpp"

namespace svs::util {

ByteWriter ByteWriter::counting() {
  ByteWriter w;
  w.counting_ = true;
  return w;
}

void ByteWriter::u8(std::uint8_t v) {
  if (counting_) {
    ++counted_;
    return;
  }
  buf_.push_back(v);
}

void ByteWriter::u64(std::uint64_t v) {
  if (counting_) {
    counted_ += varint_size(v);
    return;
  }
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80U);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::u32(std::uint32_t v) { u64(v); }

void ByteWriter::fixed64(std::uint64_t v) {
  if (counting_) {
    counted_ += 8;
    return;
  }
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void ByteWriter::bytes(const std::uint8_t* data, std::size_t n) {
  if (counting_) {
    counted_ += n;
    return;
  }
  buf_.insert(buf_.end(), data, data + n);
}

void ByteWriter::zeros(std::size_t n) {
  if (counting_) {
    counted_ += n;
    return;
  }
  buf_.resize(buf_.size() + n, 0);
}

void ByteWriter::str(const std::string& s) {
  u64(s.size());
  bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

std::uint8_t ByteReader::u8() {
  SVS_REQUIRE(pos_ < size_, "byte buffer underrun");
  return data_[pos_++];
}

std::uint64_t ByteReader::u64() {
  std::uint64_t result = 0;
  int shift = 0;
  for (;;) {
    SVS_REQUIRE(pos_ < size_, "varint truncated");
    SVS_REQUIRE(shift < 64, "varint too long");
    const std::uint8_t byte = data_[pos_++];
    // The 10th byte holds bit 63 only: anything above would be silently
    // shifted out, so an over-long encoding must be rejected, not wrapped.
    SVS_REQUIRE(shift < 63 || byte <= 1, "varint overflows 64 bits");
    result |= static_cast<std::uint64_t>(byte & 0x7FU) << shift;
    if ((byte & 0x80U) == 0) return result;
    shift += 7;
  }
}

std::uint32_t ByteReader::u32() {
  const std::uint64_t v = u64();
  SVS_REQUIRE(v <= 0xFFFFFFFFULL, "u32 overflow");
  return static_cast<std::uint32_t>(v);
}

std::uint64_t ByteReader::fixed64() {
  SVS_REQUIRE(remaining() >= 8, "fixed64 truncated");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  }
  return v;
}

void ByteReader::skip(std::size_t n) {
  SVS_REQUIRE(remaining() >= n, "skip past end of buffer");
  pos_ += n;
}

std::string ByteReader::str() {
  const std::uint64_t n = u64();
  SVS_REQUIRE(remaining() >= n, "string truncated");
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

}  // namespace svs::util
