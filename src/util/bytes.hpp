// Minimal byte-oriented encoder/decoder.
//
// The simulator passes messages in memory, but §4.2 of the paper argues about
// the *wire compactness* of the obsolescence representations.  net::Codec
// writes every message through ByteWriter (varint-based, like a typical GCS
// transport); a counting() writer runs the same writes without storing a
// byte, which is how a message is sized where nothing is encoded.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace svs::util {

using Bytes = std::vector<std::uint8_t>;

/// Appends primitive values to a byte buffer (LEB128 varints for integers).
class ByteWriter {
 public:
  /// A writer that stores nothing: every write only advances size(), so
  /// size() is the byte count the same writes would have appended.
  [[nodiscard]] static ByteWriter counting();

  void u8(std::uint8_t v);
  void u32(std::uint32_t v);   // varint
  void u64(std::uint64_t v);   // varint
  void fixed64(std::uint64_t v);
  void bytes(const std::uint8_t* data, std::size_t n);
  void zeros(std::size_t n);
  void str(const std::string& s);

  /// True for a counting() writer (its data() stays empty).
  [[nodiscard]] bool counts_only() const { return counting_; }
  [[nodiscard]] const Bytes& data() const { return buf_; }
  [[nodiscard]] std::size_t size() const {
    return counting_ ? counted_ : buf_.size();
  }
  Bytes take() { return std::move(buf_); }

 private:
  Bytes buf_;
  std::size_t counted_ = 0;
  bool counting_ = false;
};

/// Reads values written by ByteWriter; throws ContractViolation on underrun
/// or malformed varints.  Non-owning: views either a Bytes buffer or a raw
/// span (the UDP receive path decodes straight out of its pooled datagram
/// rings without copying into a Bytes first).
class ByteReader {
 public:
  explicit ByteReader(const Bytes& buf) : data_(buf.data()), size_(buf.size()) {}
  explicit ByteReader(std::span<const std::uint8_t> buf)
      : data_(buf.data()), size_(buf.size()) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::uint64_t fixed64();
  std::string str();

  /// Skips `n` bytes; throws ContractViolation on underrun.
  void skip(std::size_t n);

  [[nodiscard]] bool exhausted() const { return pos_ == size_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  /// Bytes consumed so far (length-framed decoders verify consumption).
  [[nodiscard]] std::size_t position() const { return pos_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_{0};
};

/// Number of bytes a varint encoding of v occupies.
[[nodiscard]] std::size_t varint_size(std::uint64_t v);

}  // namespace svs::util
