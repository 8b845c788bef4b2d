#include "obs/annotation.hpp"

#include <algorithm>
#include <utility>

#include "util/contracts.hpp"

namespace svs::obs {

Annotation Annotation::item(std::uint64_t tag) {
  Annotation a;
  a.kind_ = AnnotationKind::item_tag;
  a.tag_ = tag;
  return a;
}

Annotation Annotation::enumerate(std::vector<std::uint64_t> seqs) {
  Annotation a;
  a.kind_ = AnnotationKind::enumeration;
  std::sort(seqs.begin(), seqs.end());
  seqs.erase(std::unique(seqs.begin(), seqs.end()), seqs.end());
  a.enumerated_ = std::move(seqs);
  return a;
}

Annotation Annotation::kenum(KBitmap bitmap) {
  Annotation a;
  a.kind_ = AnnotationKind::k_enum;
  a.bitmap_ = std::move(bitmap);
  return a;
}

std::uint64_t Annotation::tag() const {
  SVS_REQUIRE(kind_ == AnnotationKind::item_tag, "not an item-tag annotation");
  return tag_;
}

const std::vector<std::uint64_t>& Annotation::enumerated() const {
  SVS_REQUIRE(kind_ == AnnotationKind::enumeration,
              "not an enumeration annotation");
  return enumerated_;
}

const KBitmap& Annotation::bitmap() const {
  SVS_REQUIRE(kind_ == AnnotationKind::k_enum, "not a k-enum annotation");
  return bitmap_;
}

bool Annotation::names_predecessor() const {
  switch (kind_) {
    case AnnotationKind::none:
      return false;
    case AnnotationKind::item_tag:
      return true;
    case AnnotationKind::enumeration:
      return !enumerated_.empty();
    case AnnotationKind::k_enum:
      return !bitmap_.empty();
  }
  return false;
}

std::size_t Annotation::wire_size() const {
  switch (kind_) {
    case AnnotationKind::none:
      return 1;
    case AnnotationKind::item_tag:
      return 1 + util::varint_size(tag_);
    case AnnotationKind::enumeration: {
      // Delta encoding between sorted seqs, as a real implementation would.
      std::size_t n = 1 + util::varint_size(enumerated_.size());
      std::uint64_t prev = 0;
      for (const auto s : enumerated_) {
        n += util::varint_size(s - prev);
        prev = s;
      }
      return n;
    }
    case AnnotationKind::k_enum:
      return 1 + bitmap_.wire_size();
  }
  SVS_UNREACHABLE("invalid annotation kind");
}

void Annotation::encode(util::ByteWriter& writer) const {
  writer.u8(static_cast<std::uint8_t>(kind_));
  switch (kind_) {
    case AnnotationKind::none:
      break;
    case AnnotationKind::item_tag:
      writer.u64(tag_);
      break;
    case AnnotationKind::enumeration: {
      writer.u64(enumerated_.size());
      std::uint64_t prev = 0;
      for (const auto s : enumerated_) {
        writer.u64(s - prev);
        prev = s;
      }
      break;
    }
    case AnnotationKind::k_enum:
      bitmap_.encode(writer);
      break;
  }
}

Annotation Annotation::decode(util::ByteReader& reader) {
  const std::uint8_t kind_raw = reader.u8();
  // Wire-facing: a bad tag is malformed input (ContractViolation), never UB.
  SVS_REQUIRE(kind_raw <= static_cast<std::uint8_t>(AnnotationKind::k_enum),
              "bad annotation kind on the wire");
  switch (static_cast<AnnotationKind>(kind_raw)) {
    case AnnotationKind::none:
      return none();
    case AnnotationKind::item_tag:
      return item(reader.u64());
    case AnnotationKind::enumeration: {
      const std::uint64_t n = reader.u64();
      // Each delta is at least one byte: bounds the allocation below.
      SVS_REQUIRE(n <= reader.remaining(),
                  "enumeration longer than the buffer");
      std::vector<std::uint64_t> seqs;
      seqs.reserve(n);
      std::uint64_t prev = 0;
      for (std::uint64_t i = 0; i < n; ++i) {
        prev += reader.u64();
        seqs.push_back(prev);
      }
      return enumerate(std::move(seqs));
    }
    case AnnotationKind::k_enum:
      return kenum(KBitmap::decode(reader));
  }
  SVS_UNREACHABLE("kind range checked above");
}

}  // namespace svs::obs
