// Obsolescence annotations: how a multicast message tells the protocol which
// earlier messages it makes obsolete (§4.2).
//
// "we prefer to let the application supply this information to the protocol
//  as an extra parameter of the multicast operation"
//
// Three representation techniques from the paper plus the trivial empty one:
//   - none:         the message obsoletes nothing (also: reliable baseline)
//   - item_tag:     integer tag; same sender + same tag + higher seq covers
//   - enumeration:  explicit list of obsoleted predecessor seqs (transitive
//                   closure included by the producer)
//   - k_enum:       distance bitmap over the k preceding messages
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "obs/kbitmap.hpp"
#include "util/bytes.hpp"

namespace svs::obs {

enum class AnnotationKind : std::uint8_t {
  none = 0,
  item_tag = 1,
  enumeration = 2,
  k_enum = 3,
};

/// Value object attached to each multicast.  Exactly one representation is
/// active, selected by kind().
class Annotation {
 public:
  /// Obsoletes nothing.
  Annotation() = default;

  [[nodiscard]] static Annotation none() { return Annotation(); }

  /// Item-tagging: this message updates the item identified by `tag`.
  [[nodiscard]] static Annotation item(std::uint64_t tag);

  /// Message enumeration: explicit absolute sequence numbers (same sender)
  /// of every message this one obsoletes, transitive closure included.
  [[nodiscard]] static Annotation enumerate(std::vector<std::uint64_t> seqs);

  /// k-enumeration: distance bitmap.
  [[nodiscard]] static Annotation kenum(KBitmap bitmap);

  [[nodiscard]] AnnotationKind kind() const { return kind_; }

  /// Valid only for kind() == item_tag.
  [[nodiscard]] std::uint64_t tag() const;

  /// Valid only for kind() == enumeration (sorted ascending).
  [[nodiscard]] const std::vector<std::uint64_t>& enumerated() const;

  /// Valid only for kind() == k_enum.
  [[nodiscard]] const KBitmap& bitmap() const;

  /// True when the annotation names an earlier message: any item tag (it
  /// may overwrite an earlier write of its item), a non-empty enumeration
  /// or a non-empty k-enum bitmap.
  [[nodiscard]] bool names_predecessor() const;

  /// Encoded size of the annotation as carried in a message header.
  [[nodiscard]] std::size_t wire_size() const;
  void encode(util::ByteWriter& writer) const;
  static Annotation decode(util::ByteReader& reader);

  friend bool operator==(const Annotation&, const Annotation&) = default;

 private:
  AnnotationKind kind_ = AnnotationKind::none;
  std::uint64_t tag_ = 0;
  std::vector<std::uint64_t> enumerated_;
  KBitmap bitmap_{0};
};

}  // namespace svs::obs
