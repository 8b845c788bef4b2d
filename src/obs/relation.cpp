#include "obs/relation.hpp"

#include <algorithm>
#include <vector>

#include "util/contracts.hpp"

namespace svs::obs {

bool ItemTagRelation::covers(const MessageRef& newer,
                             const MessageRef& older) const {
  SVS_REQUIRE(newer.annotation != nullptr && older.annotation != nullptr,
              "relation queried without annotations");
  if (newer.sender != older.sender) return false;
  if (newer.seq <= older.seq) return false;
  if (newer.annotation->kind() != AnnotationKind::item_tag ||
      older.annotation->kind() != AnnotationKind::item_tag) {
    return false;
  }
  return newer.annotation->tag() == older.annotation->tag();
}

bool EnumerationRelation::covers(const MessageRef& newer,
                                 const MessageRef& older) const {
  SVS_REQUIRE(newer.annotation != nullptr && older.annotation != nullptr,
              "relation queried without annotations");
  if (newer.sender != older.sender) return false;
  if (newer.seq <= older.seq) return false;
  if (newer.annotation->kind() != AnnotationKind::enumeration) return false;
  const auto& seqs = newer.annotation->enumerated();
  return std::binary_search(seqs.begin(), seqs.end(), older.seq);
}

bool KEnumRelation::covers(const MessageRef& newer,
                           const MessageRef& older) const {
  SVS_REQUIRE(newer.annotation != nullptr && older.annotation != nullptr,
              "relation queried without annotations");
  if (newer.sender != older.sender) return false;
  if (newer.seq <= older.seq) return false;
  if (newer.annotation->kind() != AnnotationKind::k_enum) return false;
  const std::uint64_t distance = newer.seq - older.seq;
  return newer.annotation->bitmap().test(static_cast<std::size_t>(distance));
}

std::uint64_t EnumerationRelation::coverage_floor(
    const MessageRef& newer) const {
  if (newer.annotation == nullptr ||
      newer.annotation->kind() != AnnotationKind::enumeration) {
    return newer.seq;  // covers nothing
  }
  const auto& seqs = newer.annotation->enumerated();
  return seqs.empty() ? newer.seq : seqs.front();  // sorted ascending
}

std::uint64_t KEnumRelation::coverage_floor(const MessageRef& newer) const {
  if (newer.annotation == nullptr ||
      newer.annotation->kind() != AnnotationKind::k_enum) {
    return newer.seq;  // covers nothing
  }
  const std::uint64_t k = newer.annotation->bitmap().k();
  return newer.seq > k ? newer.seq - k : 0;
}

void ExplicitRelation::add(net::ProcessId obsolete_sender,
                           std::uint64_t obsolete_seq,
                           net::ProcessId newer_sender,
                           std::uint64_t newer_seq) {
  SVS_REQUIRE(obsolete_sender == newer_sender && obsolete_seq < newer_seq,
              "obsolescence relates a message only to earlier messages of "
              "the same sender");
  const Key older{obsolete_sender.value(), obsolete_seq};
  const Key newer{newer_sender.value(), newer_seq};

  // Insert and re-close transitively: everything that reaches `older`
  // now also reaches everything reachable from `newer`.
  std::vector<Key> into_older{older};
  std::vector<Key> from_newer{newer};
  for (const auto& [a, b] : edges_) {
    if (b == older) into_older.push_back(a);
    if (a == newer) from_newer.push_back(b);
  }
  for (const auto& a : into_older) {
    for (const auto& b : from_newer) edges_.emplace(a, b);
  }
}

bool ExplicitRelation::has_edge(const Key& older, const Key& newer) const {
  return edges_.contains({older, newer});
}

bool ExplicitRelation::covers(const MessageRef& newer,
                              const MessageRef& older) const {
  return has_edge(Key{older.sender.value(), older.seq},
                  Key{newer.sender.value(), newer.seq});
}

}  // namespace svs::obs
