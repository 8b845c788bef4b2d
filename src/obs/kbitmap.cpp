#include "obs/kbitmap.hpp"

#include <algorithm>
#include <bit>

#include "util/contracts.hpp"

namespace svs::obs {

KBitmap::KBitmap(std::size_t k)
    : k_(k), words_((k + kWordBits - 1) / kWordBits, 0) {}

void KBitmap::set(std::size_t distance) {
  SVS_REQUIRE(distance >= 1 && distance <= k_,
              "distance outside the bitmap horizon");
  const std::size_t bit = distance - 1;
  words_[bit / kWordBits] |= std::uint64_t{1} << (bit % kWordBits);
}

bool KBitmap::test(std::size_t distance) const {
  if (distance < 1 || distance > k_) return false;
  const std::size_t bit = distance - 1;
  return (words_[bit / kWordBits] >> (bit % kWordBits)) & 1U;
}

void KBitmap::compose(const KBitmap& predecessor, std::size_t distance) {
  SVS_REQUIRE(distance >= 1, "predecessor distance must be >= 1");
  if (distance > k_) return;  // beyond the horizon: nothing representable
  set(distance);
  // this |= predecessor << distance, clipped at the horizon — pure word
  // shifts and ORs, which is the efficiency argument of §4.2.
  const std::size_t word_shift = distance / kWordBits;
  const std::size_t bit_shift = distance % kWordBits;
  for (std::size_t i = words_.size(); i-- > word_shift;) {
    const std::size_t src = i - word_shift;
    std::uint64_t v = 0;
    if (src < predecessor.words_.size()) {
      v = predecessor.words_[src] << bit_shift;
    }
    if (bit_shift != 0 && src >= 1 && src - 1 < predecessor.words_.size()) {
      v |= predecessor.words_[src - 1] >> (kWordBits - bit_shift);
    }
    words_[i] |= v;
  }
  clear_tail();
}

void KBitmap::merge(const KBitmap& other) {
  const std::size_t n = std::min(words_.size(), other.words_.size());
  for (std::size_t i = 0; i < n; ++i) words_[i] |= other.words_[i];
  clear_tail();
}

void KBitmap::clear_tail() {
  if (words_.empty()) return;
  const std::size_t used = k_ % kWordBits;
  if (used != 0) {
    words_.back() &= (std::uint64_t{1} << used) - 1;
  }
}

bool KBitmap::empty() const {
  for (const auto w : words_) {
    if (w != 0) return false;
  }
  return true;
}

std::size_t KBitmap::popcount() const {
  std::size_t n = 0;
  for (const auto w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

std::vector<std::size_t> KBitmap::set_distances() const {
  std::vector<std::size_t> out;
  for (std::size_t d = 1; d <= k_; ++d) {
    if (test(d)) out.push_back(d);
  }
  return out;
}

std::size_t KBitmap::wire_size() const {
  return util::varint_size(k_) + (k_ + 7) / 8;
}

void KBitmap::encode(util::ByteWriter& writer) const {
  writer.u64(k_);
  // Bit d-1 of the words is distance d and the bits past k stay clear, so
  // the wire bytes are the words' bytes, least significant first.
  for (std::size_t byte = 0; byte < (k_ + 7) / 8; ++byte) {
    const std::uint64_t word = words_[byte / 8];
    writer.u8(static_cast<std::uint8_t>(word >> (8 * (byte % 8))));
  }
}

KBitmap KBitmap::decode(util::ByteReader& reader) {
  const std::uint64_t k = reader.u64();
  // The payload is ceil(k/8) bytes; a horizon the buffer cannot possibly
  // hold is malformed input, not a gigabyte allocation.
  SVS_REQUIRE(k <= 8 * static_cast<std::uint64_t>(reader.remaining()),
              "bitmap horizon longer than the buffer");
  KBitmap bm(static_cast<std::size_t>(k));
  for (std::size_t byte = 0; byte < (k + 7) / 8; ++byte) {
    const std::uint8_t b = reader.u8();
    for (std::size_t i = 0; i < 8; ++i) {
      const std::size_t d = byte * 8 + i + 1;
      if (d <= k && ((b >> i) & 1U) != 0) bm.set(d);
    }
  }
  return bm;
}

}  // namespace svs::obs
