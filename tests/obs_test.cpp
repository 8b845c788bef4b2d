// Unit tests for obsolescence representations (§4).
#include <gtest/gtest.h>

#include "net/types.hpp"
#include "obs/annotation.hpp"
#include "obs/batch.hpp"
#include "obs/kbitmap.hpp"
#include "obs/relation.hpp"
#include "util/bytes.hpp"
#include "util/contracts.hpp"

namespace svs::obs {
namespace {

using net::ProcessId;

TEST(KBitmap, SetAndTest) {
  KBitmap bm(16);
  bm.set(1);
  bm.set(16);
  EXPECT_TRUE(bm.test(1));
  EXPECT_TRUE(bm.test(16));
  EXPECT_FALSE(bm.test(2));
  EXPECT_FALSE(bm.test(17));  // out of horizon: never marked
  EXPECT_FALSE(bm.test(0));
  EXPECT_THROW(bm.set(0), util::ContractViolation);
  EXPECT_THROW(bm.set(17), util::ContractViolation);
}

TEST(KBitmap, WordBoundaries) {
  KBitmap bm(130);
  for (const std::size_t d : {63u, 64u, 65u, 127u, 128u, 129u, 130u}) {
    bm.set(d);
  }
  for (const std::size_t d : {63u, 64u, 65u, 127u, 128u, 129u, 130u}) {
    EXPECT_TRUE(bm.test(d)) << d;
  }
  EXPECT_FALSE(bm.test(62));
  EXPECT_FALSE(bm.test(126));
}

TEST(KBitmap, ComposeShiftsAndInherits) {
  // pred obsoletes its predecessor at distance 2; we obsolete pred at
  // distance 3 => we obsolete {3, 5} (transitivity via shift/or).
  KBitmap pred(16);
  pred.set(2);
  KBitmap bm(16);
  bm.compose(pred, 3);
  EXPECT_TRUE(bm.test(3));
  EXPECT_TRUE(bm.test(5));
  EXPECT_FALSE(bm.test(2));
  EXPECT_EQ(bm.popcount(), 2u);
}

TEST(KBitmap, ComposeAcrossWordBoundary) {
  KBitmap pred(128);
  pred.set(60);
  pred.set(64);
  KBitmap bm(128);
  bm.compose(pred, 10);
  EXPECT_TRUE(bm.test(10));
  EXPECT_TRUE(bm.test(70));
  EXPECT_TRUE(bm.test(74));
}

TEST(KBitmap, ComposeClipsAtHorizon) {
  KBitmap pred(8);
  pred.set(6);
  KBitmap bm(8);
  bm.compose(pred, 4);  // 6+4 = 10 > 8: inherited bit dropped
  EXPECT_TRUE(bm.test(4));
  EXPECT_FALSE(bm.test(8));
  EXPECT_EQ(bm.popcount(), 1u);

  KBitmap far(8);
  far.compose(pred, 9);  // distance beyond horizon entirely: no-op
  EXPECT_TRUE(far.empty());
}

TEST(KBitmap, ComposeEquivalentToNaive) {
  // Word-wise compose must match the bit-by-bit definition.
  for (const std::size_t k : {7u, 64u, 65u, 200u}) {
    KBitmap pred(k);
    for (std::size_t d = 1; d <= k; d += 3) pred.set(d);
    for (const std::size_t dist : {1u, 5u, 63u, 64u, 65u}) {
      if (dist > k) continue;
      KBitmap fast(k);
      fast.compose(pred, dist);
      KBitmap slow(k);
      slow.set(dist);
      for (std::size_t d = 1; d <= k; ++d) {
        if (pred.test(d) && d + dist <= k) slow.set(d + dist);
      }
      EXPECT_EQ(fast, slow) << "k=" << k << " dist=" << dist;
    }
  }
}

TEST(KBitmap, MergeOrsBits) {
  KBitmap a(16), b(16);
  a.set(1);
  b.set(2);
  b.set(16);
  a.merge(b);
  EXPECT_TRUE(a.test(1));
  EXPECT_TRUE(a.test(2));
  EXPECT_TRUE(a.test(16));
  EXPECT_EQ(a.popcount(), 3u);
}

TEST(KBitmap, SetDistancesSorted) {
  KBitmap bm(32);
  bm.set(17);
  bm.set(3);
  bm.set(32);
  EXPECT_EQ(bm.set_distances(), (std::vector<std::size_t>{3, 17, 32}));
}

TEST(KBitmap, EncodeDecodeRoundTrip) {
  for (const std::size_t k : {0u, 1u, 8u, 9u, 64u, 100u}) {
    KBitmap bm(k);
    for (std::size_t d = 1; d <= k; d += 2) bm.set(d);
    util::ByteWriter w;
    bm.encode(w);
    EXPECT_EQ(w.size(), bm.wire_size());
    util::ByteReader r(w.data());
    EXPECT_EQ(KBitmap::decode(r), bm) << k;
  }
}

TEST(KBitmap, WireSizeIsCompact) {
  // §4.2: "extremely compact" — 32 bits of horizon in 5 bytes.
  EXPECT_EQ(KBitmap(32).wire_size(), 1u + 4u);
}

TEST(Annotation, Factories) {
  EXPECT_EQ(Annotation::none().kind(), AnnotationKind::none);
  EXPECT_EQ(Annotation::item(9).kind(), AnnotationKind::item_tag);
  EXPECT_EQ(Annotation::item(9).tag(), 9u);
  const auto e = Annotation::enumerate({5, 3, 5, 1});
  EXPECT_EQ(e.enumerated(), (std::vector<std::uint64_t>{1, 3, 5}));  // sorted+deduped
  KBitmap bm(8);
  bm.set(2);
  EXPECT_TRUE(Annotation::kenum(bm).bitmap().test(2));
}

TEST(Annotation, WrongAccessorRejected) {
  EXPECT_THROW((void)Annotation::none().tag(), util::ContractViolation);
  EXPECT_THROW((void)Annotation::item(1).enumerated(),
               util::ContractViolation);
  EXPECT_THROW((void)Annotation::enumerate({1}).bitmap(),
               util::ContractViolation);
}

TEST(Annotation, EncodeDecodeRoundTrip) {
  KBitmap bm(20);
  bm.set(4);
  bm.set(19);
  const Annotation cases[] = {
      Annotation::none(), Annotation::item(77),
      Annotation::enumerate({2, 9, 1000}), Annotation::kenum(bm)};
  for (const auto& a : cases) {
    util::ByteWriter w;
    a.encode(w);
    EXPECT_EQ(w.size(), a.wire_size());
    util::ByteReader r(w.data());
    EXPECT_EQ(Annotation::decode(r), a);
  }
}

// ---------------------------------------------------------------------------
// Relations
// ---------------------------------------------------------------------------

MessageRef ref(ProcessId sender, std::uint64_t seq, const Annotation& a) {
  return MessageRef{sender, seq, &a};
}

TEST(ItemTagRelation, SameTagHigherSeqCovers) {
  ItemTagRelation rel;
  const auto a7 = Annotation::item(7);
  const auto b7 = Annotation::item(7);
  const auto c9 = Annotation::item(9);
  EXPECT_TRUE(rel.covers(ref(ProcessId(1), 5, a7), ref(ProcessId(1), 3, b7)));
  EXPECT_FALSE(rel.covers(ref(ProcessId(1), 3, b7), ref(ProcessId(1), 5, a7)));
  EXPECT_FALSE(rel.covers(ref(ProcessId(1), 5, a7), ref(ProcessId(1), 3, c9)));
  EXPECT_FALSE(rel.covers(ref(ProcessId(2), 5, a7), ref(ProcessId(1), 3, b7)));
  EXPECT_FALSE(rel.covers(ref(ProcessId(1), 5, a7), ref(ProcessId(1), 5, b7)));
}

TEST(ItemTagRelation, IsTransitiveByConstruction) {
  ItemTagRelation rel;
  const auto t = Annotation::item(1);
  // seq 1 < 2 < 3, all same tag: every forward pair covers.
  EXPECT_TRUE(rel.covers(ref(ProcessId(0), 3, t), ref(ProcessId(0), 1, t)));
}

TEST(EnumerationRelation, ListedSeqsCover) {
  EnumerationRelation rel;
  const auto e = Annotation::enumerate({3, 5});
  const auto none = Annotation::none();
  EXPECT_TRUE(rel.covers(ref(ProcessId(0), 9, e), ref(ProcessId(0), 3, none)));
  EXPECT_TRUE(rel.covers(ref(ProcessId(0), 9, e), ref(ProcessId(0), 5, none)));
  EXPECT_FALSE(rel.covers(ref(ProcessId(0), 9, e), ref(ProcessId(0), 4, none)));
  EXPECT_FALSE(rel.covers(ref(ProcessId(1), 9, e), ref(ProcessId(0), 3, none)));
  // A listed seq >= own seq is ignored (defensive against bad encoders).
  const auto weird = Annotation::enumerate({9});
  EXPECT_FALSE(
      rel.covers(ref(ProcessId(0), 9, weird), ref(ProcessId(0), 9, none)));
}

TEST(KEnumRelation, DistanceRule) {
  KEnumRelation rel;
  KBitmap bm(4);
  bm.set(1);
  bm.set(4);
  const auto a = Annotation::kenum(bm);
  const auto none = Annotation::none();
  // m'.sn = 10: covers 9 (d=1) and 6 (d=4), not 8/7, nothing below sn-k.
  EXPECT_TRUE(rel.covers(ref(ProcessId(0), 10, a), ref(ProcessId(0), 9, none)));
  EXPECT_TRUE(rel.covers(ref(ProcessId(0), 10, a), ref(ProcessId(0), 6, none)));
  EXPECT_FALSE(rel.covers(ref(ProcessId(0), 10, a), ref(ProcessId(0), 8, none)));
  EXPECT_FALSE(rel.covers(ref(ProcessId(0), 10, a), ref(ProcessId(0), 5, none)));
  EXPECT_FALSE(rel.covers(ref(ProcessId(0), 10, a), ref(ProcessId(0), 11, none)));
  EXPECT_FALSE(rel.covers(ref(ProcessId(1), 10, a), ref(ProcessId(0), 9, none)));
}

TEST(EmptyRelation, NeverCovers) {
  EmptyRelation rel;
  const auto t = Annotation::item(1);
  EXPECT_FALSE(rel.covers(ref(ProcessId(0), 2, t), ref(ProcessId(0), 1, t)));
}

TEST(ExplicitRelation, ClosureAndCycleRejection) {
  ExplicitRelation rel;
  const auto none = Annotation::none();
  rel.add(ProcessId(0), 1, ProcessId(0), 2);
  rel.add(ProcessId(0), 2, ProcessId(0), 3);
  // Transitive closure: 1 < 3 without explicit edge.
  EXPECT_TRUE(rel.covers(ref(ProcessId(0), 3, none), ref(ProcessId(0), 1, none)));
  // Antisymmetry: inserting the reverse edge must fail.
  EXPECT_THROW(rel.add(ProcessId(0), 3, ProcessId(0), 1),
               util::ContractViolation);
  // Irreflexivity.
  EXPECT_THROW(rel.add(ProcessId(0), 4, ProcessId(0), 4),
               util::ContractViolation);
}

TEST(ExplicitRelation, CrossSenderEdgesRejected) {
  // Obsolescence is per-sender (Relation::covers' contract): an edge
  // between two senders' messages is refused, whatever their seqs.
  ExplicitRelation rel;
  const auto none = Annotation::none();
  EXPECT_THROW(rel.add(ProcessId(0), 1, ProcessId(1), 1),
               util::ContractViolation);
  EXPECT_THROW(rel.add(ProcessId(0), 1, ProcessId(1), 2),
               util::ContractViolation);
  EXPECT_FALSE(
      rel.covers(ref(ProcessId(1), 2, none), ref(ProcessId(0), 1, none)));
}

// ---------------------------------------------------------------------------
// BatchComposer (§4.1, Figure 2)
// ---------------------------------------------------------------------------

TEST(BatchComposer, SingleItemChain) {
  BatchComposer c({AnnotationKind::k_enum, 8, 0});
  KEnumRelation rel;
  const auto a1 = c.single(7, 1);
  const auto a2 = c.single(7, 2);
  const auto a3 = c.single(7, 5);
  EXPECT_TRUE(a1.bitmap().empty());  // first update: nothing to obsolete
  // 2 covers 1 (d=1); 5 covers 2 (d=3) and, transitively, 1 (d=4).
  EXPECT_TRUE(rel.covers(ref(ProcessId(0), 2, a2), ref(ProcessId(0), 1, a1)));
  EXPECT_TRUE(rel.covers(ref(ProcessId(0), 5, a3), ref(ProcessId(0), 2, a2)));
  EXPECT_TRUE(rel.covers(ref(ProcessId(0), 5, a3), ref(ProcessId(0), 1, a1)));
}

TEST(BatchComposer, FigureTwoScenario) {
  // U(a,1) U(b,1) C(1) | U(b,2) U(c,2) C(2): C(2) — not U(b,2) — makes
  // U(b,1) obsolete.
  BatchComposer c({AnnotationKind::k_enum, 16, 0});
  KEnumRelation rel;

  c.begin();
  c.add_item(100);  // a
  c.add_item(101);  // b
  c.add_item(102);  // c = carrier of batch 1 (the commit C(1))
  c.note_update_seq(100, 1);
  c.note_update_seq(101, 2);
  const auto c1 = c.commit(3, 102);
  EXPECT_TRUE(c1.bitmap().empty());  // nothing before batch 1

  c.begin();
  c.add_item(101);  // b again
  c.add_item(103);  // d = carrier (the commit C(2))
  c.note_update_seq(101, 4);
  const auto c2 = c.commit(5, 103);

  const auto none = Annotation::none();
  // The update U(b,2) (seq 4) carries no obsolescence.
  EXPECT_FALSE(rel.covers(ref(ProcessId(0), 4, none), ref(ProcessId(0), 2, none)));
  // The commit C(2) (seq 5) obsoletes U(b,1) (seq 2)...
  EXPECT_TRUE(rel.covers(ref(ProcessId(0), 5, c2), ref(ProcessId(0), 2, none)));
  // ...but not U(a,1) (seq 1) nor C(1) (seq 3): batch 2 is not a super-set
  // of batch 1.
  EXPECT_FALSE(rel.covers(ref(ProcessId(0), 5, c2), ref(ProcessId(0), 1, none)));
  EXPECT_FALSE(rel.covers(ref(ProcessId(0), 5, c2), ref(ProcessId(0), 3, c1)));
}

TEST(BatchComposer, SupersetBatchCoversOldCarrier) {
  BatchComposer c({AnnotationKind::k_enum, 16, 0});
  KEnumRelation rel;
  c.begin();
  c.add_item(1);
  c.add_item(2);
  c.note_update_seq(1, 1);
  const auto c1 = c.commit(2, 2);  // carrier of {1,2} at seq 2

  c.begin();
  c.add_item(1);
  c.add_item(2);
  c.add_item(3);
  c.note_update_seq(1, 3);
  c.note_update_seq(2, 4);
  const auto c2 = c.commit(5, 3);  // {1,2,3} ⊇ {1,2}

  // The super-set commit covers the old carrier and both old updates.
  EXPECT_TRUE(rel.covers(ref(ProcessId(0), 5, c2), ref(ProcessId(0), 2, c1)));
  const auto none = Annotation::none();
  EXPECT_TRUE(rel.covers(ref(ProcessId(0), 5, c2), ref(ProcessId(0), 1, none)));
}

TEST(BatchComposer, SingletonCarrierDegeneratesToPlainUpdate) {
  BatchComposer c({AnnotationKind::k_enum, 8, 0});
  KEnumRelation rel;
  const auto a1 = c.single(7, 1);  // singleton batch carrier
  c.begin();
  c.add_item(7);
  c.add_item(8);
  c.note_update_seq(7, 2);
  const auto c2 = c.commit(3, 8);  // multi-item batch including 7
  // The singleton carrier is coverable like any update.
  EXPECT_TRUE(rel.covers(ref(ProcessId(0), 3, c2), ref(ProcessId(0), 1, a1)));
}

TEST(BatchComposer, HorizonClippingDropsFarPredecessors) {
  BatchComposer c({AnnotationKind::k_enum, 4, 0});
  KEnumRelation rel;
  const auto a1 = c.single(7, 1);
  (void)a1;
  const auto a2 = c.single(7, 10);  // distance 9 > k=4
  EXPECT_TRUE(a2.bitmap().empty());
  const auto none = Annotation::none();
  EXPECT_FALSE(rel.covers(ref(ProcessId(0), 10, a2), ref(ProcessId(0), 1, none)));
}

TEST(BatchComposer, EnumerationRepresentation) {
  BatchComposer c({AnnotationKind::enumeration, 0, 0});
  EnumerationRelation rel;
  const auto a1 = c.single(7, 1);
  const auto a2 = c.single(7, 4);
  const auto a3 = c.single(7, 9);
  EXPECT_TRUE(a1.enumerated().empty());
  EXPECT_EQ(a2.enumerated(), (std::vector<std::uint64_t>{1}));
  // Transitive closure carried explicitly.
  EXPECT_EQ(a3.enumerated(), (std::vector<std::uint64_t>{1, 4}));
  EXPECT_TRUE(rel.covers(ref(ProcessId(0), 9, a3), ref(ProcessId(0), 1, a1)));
}

TEST(BatchComposer, EnumerationWindowTruncates) {
  BatchComposer c({AnnotationKind::enumeration, 0, 5});
  const auto a1 = c.single(7, 1);
  (void)a1;
  const auto a2 = c.single(7, 10);
  EXPECT_TRUE(a2.enumerated().empty());  // 1 < 10-5: dropped
}

TEST(BatchComposer, ItemTagRepresentation) {
  BatchComposer c({AnnotationKind::item_tag, 0, 0});
  const auto a = c.single(7, 1);
  EXPECT_EQ(a.kind(), AnnotationKind::item_tag);
  EXPECT_EQ(a.tag(), 7u);
  // Multi-item batches are not expressible with tags (§4.2).
  c.begin();
  c.add_item(1);
  c.add_item(2);
  c.note_update_seq(1, 2);
  EXPECT_THROW(c.commit(3, 2), util::ContractViolation);
}

TEST(BatchComposer, ApiMisuseRejected) {
  BatchComposer c({AnnotationKind::k_enum, 8, 0});
  EXPECT_THROW(c.add_item(1), util::ContractViolation);       // no batch
  EXPECT_THROW(c.commit(1, 1), util::ContractViolation);      // no batch
  c.begin();
  EXPECT_THROW(c.begin(), util::ContractViolation);           // nested
  c.add_item(1);
  EXPECT_THROW(c.note_update_seq(2, 1), util::ContractViolation);
  c.add_item(2);
  // carrier not in batch:
  EXPECT_THROW(c.commit(9, 5), util::ContractViolation);
  // non-carrier item without noted seq:
  EXPECT_THROW(c.commit(9, 1), util::ContractViolation);
}

}  // namespace
}  // namespace svs::obs
