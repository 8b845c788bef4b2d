// §4.2: cost of the obsolescence-representation techniques.
//
// "The k-enumeration is not only extremely compact to be stored and
//  transmitted over the network but also makes it very easy to compute the
//  representation of transitive obsolescence relations using only shift and
//  binary 'or' operators."
//
// Measured here: covers() queries, transitive composition, batch commits
// and encoded sizes for item tagging, message enumeration and
// k-enumeration.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/json.hpp"
#include "core/message.hpp"
#include "net/codec.hpp"
#include "obs/annotation.hpp"
#include "obs/batch.hpp"
#include "obs/kbitmap.hpp"
#include "obs/relation.hpp"
#include "util/bytes.hpp"
#include "workload/item_op.hpp"

namespace {

using namespace svs;

void BM_KEnum_Covers(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  obs::KBitmap bm(k);
  for (std::size_t d = 1; d <= k; d += 3) bm.set(d);
  const auto newer = obs::Annotation::kenum(bm);
  const auto older = obs::Annotation::none();
  const obs::KEnumRelation rel;
  std::uint64_t seq = 1000;
  for (auto _ : state) {
    const obs::MessageRef n{net::ProcessId(1), seq, &newer};
    const obs::MessageRef o{net::ProcessId(1), seq - (seq % k) - 1, &older};
    benchmark::DoNotOptimize(rel.covers(n, o));
    ++seq;
  }
}
BENCHMARK(BM_KEnum_Covers)->Arg(32)->Arg(64)->Arg(256);

void BM_Enumeration_Covers(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> seqs;
  for (std::size_t i = 0; i < n; ++i) seqs.push_back(2 * i + 1);
  const auto newer = obs::Annotation::enumerate(seqs);
  const auto older = obs::Annotation::none();
  const obs::EnumerationRelation rel;
  std::uint64_t probe = 0;
  for (auto _ : state) {
    const obs::MessageRef ne{net::ProcessId(1), 10'000, &newer};
    const obs::MessageRef ol{net::ProcessId(1), probe % 9'000, &older};
    benchmark::DoNotOptimize(rel.covers(ne, ol));
    ++probe;
  }
}
BENCHMARK(BM_Enumeration_Covers)->Arg(8)->Arg(64)->Arg(512);

void BM_ItemTag_Covers(benchmark::State& state) {
  const auto a = obs::Annotation::item(7);
  const auto b = obs::Annotation::item(7);
  const obs::ItemTagRelation rel;
  std::uint64_t seq = 2;
  for (auto _ : state) {
    const obs::MessageRef n{net::ProcessId(1), seq, &a};
    const obs::MessageRef o{net::ProcessId(1), seq - 1, &b};
    benchmark::DoNotOptimize(rel.covers(n, o));
    ++seq;
  }
}
BENCHMARK(BM_ItemTag_Covers);

void BM_KEnum_Compose(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  obs::KBitmap pred(k);
  for (std::size_t d = 1; d <= k; d += 2) pred.set(d);
  for (auto _ : state) {
    obs::KBitmap bm(k);
    bm.compose(pred, 5);
    benchmark::DoNotOptimize(bm);
  }
}
BENCHMARK(BM_KEnum_Compose)->Arg(32)->Arg(64)->Arg(256)->Arg(1024);

void BM_BatchCommit(benchmark::State& state) {
  // A steady stream of 3-item batches over 100 items.
  const auto repr = static_cast<obs::AnnotationKind>(state.range(0));
  obs::BatchComposer composer({repr, 64, 128});
  std::uint64_t seq = 1;
  std::uint64_t item = 0;
  for (auto _ : state) {
    composer.begin();
    const std::uint64_t a = item % 100, b = (item + 37) % 100,
                        c = (item + 61) % 100;
    composer.add_item(a);
    composer.add_item(b);
    composer.add_item(c);
    composer.note_update_seq(a, seq++);
    composer.note_update_seq(b, seq++);
    benchmark::DoNotOptimize(composer.commit(seq++, c));
    ++item;
  }
}
BENCHMARK(BM_BatchCommit)
    ->Arg(static_cast<int>(obs::AnnotationKind::k_enum))
    ->Arg(static_cast<int>(obs::AnnotationKind::enumeration));

void BM_Annotation_EncodedBytes(benchmark::State& state) {
  // Not a timing benchmark: reports the §4.2 wire-size comparison as
  // counters (bytes per annotation after a realistic commit stream).
  obs::BatchComposer kenum({obs::AnnotationKind::k_enum, 64, 0});
  obs::BatchComposer enumeration({obs::AnnotationKind::enumeration, 0, 128});
  obs::BatchComposer tag({obs::AnnotationKind::item_tag, 0, 0});
  std::uint64_t seq = 1;
  double kenum_bytes = 0, enum_bytes = 0, tag_bytes = 0;
  std::size_t count = 0;
  for (auto _ : state) {
    const std::uint64_t item = seq % 40;
    kenum_bytes += static_cast<double>(kenum.single(item, seq).wire_size());
    enum_bytes +=
        static_cast<double>(enumeration.single(item, seq).wire_size());
    tag_bytes += static_cast<double>(tag.single(item, seq).wire_size());
    ++seq;
    ++count;
  }
  state.counters["kenum_B"] =
      benchmark::Counter(kenum_bytes / static_cast<double>(count));
  state.counters["enum_B"] =
      benchmark::Counter(enum_bytes / static_cast<double>(count));
  state.counters["tag_B"] =
      benchmark::Counter(tag_bytes / static_cast<double>(count));
}
BENCHMARK(BM_Annotation_EncodedBytes);

void BM_Annotation_EncodeDecode(benchmark::State& state) {
  obs::KBitmap bm(64);
  for (std::size_t d = 1; d <= 64; d += 5) bm.set(d);
  const auto ann = obs::Annotation::kenum(bm);
  for (auto _ : state) {
    util::ByteWriter w;
    ann.encode(w);
    util::ByteReader r(w.data());
    benchmark::DoNotOptimize(obs::Annotation::decode(r));
  }
}
BENCHMARK(BM_Annotation_EncodeDecode);

/// The §4.2 wire-size comparison over a realistic commit stream, as JSON.
/// Measured: every annotation is actually encoded and the buffer length
/// counted (obs_test pins Annotation::wire_size() to that length, so the
/// two agree).
svs::bench::JsonObject annotation_sizes() {
  obs::BatchComposer kenum({obs::AnnotationKind::k_enum, 64, 0});
  obs::BatchComposer enumeration({obs::AnnotationKind::enumeration, 0, 128});
  obs::BatchComposer tag({obs::AnnotationKind::item_tag, 0, 0});
  const auto measured = [](const obs::Annotation& a) {
    util::ByteWriter w;
    a.encode(w);
    return static_cast<double>(w.size());
  };
  double kenum_bytes = 0, enum_bytes = 0, tag_bytes = 0;
  constexpr int kMessages = 10'000;
  for (std::uint64_t seq = 1; seq <= kMessages; ++seq) {
    const std::uint64_t item = seq % 40;
    kenum_bytes += measured(kenum.single(item, seq));
    enum_bytes += measured(enumeration.single(item, seq));
    tag_bytes += measured(tag.single(item, seq));
  }
  svs::bench::JsonObject o;
  o.add("messages", static_cast<double>(kMessages))
      .add("kenum_bytes_per_msg", kenum_bytes / kMessages)
      .add("enumeration_bytes_per_msg", enum_bytes / kMessages)
      .add("item_tag_bytes_per_msg", tag_bytes / kMessages);
  return o;
}

/// Full-message wire cost per representation: the same commit stream as
/// complete DATA messages (header + annotation + ItemOp payload) encoded
/// through net::Codec, bytes counted on the actual buffers.  This is the
/// §4.2 comparison as it lands on the wire, annotation overhead amortized
/// against the rest of the message.
svs::bench::JsonObject measured_message_bytes() {
  struct Rep {
    const char* name;
    obs::BatchComposer composer;
  };
  Rep reps[] = {
      {"kenum", obs::BatchComposer({obs::AnnotationKind::k_enum, 64, 0})},
      {"enumeration",
       obs::BatchComposer({obs::AnnotationKind::enumeration, 0, 128})},
      {"item_tag", obs::BatchComposer({obs::AnnotationKind::item_tag, 0, 0})},
  };
  constexpr int kMessages = 10'000;
  svs::bench::JsonObject o;
  o.add("messages", static_cast<double>(kMessages));
  for (auto& rep : reps) {
    std::uint64_t bytes = 0;
    for (std::uint64_t seq = 1; seq <= kMessages; ++seq) {
      const std::uint64_t item = seq % 40;
      const core::DataMessage m(
          net::ProcessId(1), seq, core::ViewId(1),
          rep.composer.single(item, seq),
          std::make_shared<workload::ItemOp>(workload::OpKind::update, item,
                                             seq * 7, seq, true));
      const util::Bytes frame = net::Codec::encode(m);
      bytes += frame.size();
    }
    o.add(std::string(rep.name) + "_total_bytes", static_cast<double>(bytes))
        .add(std::string(rep.name) + "_bytes_per_msg",
             static_cast<double>(bytes) / kMessages);
  }
  return o;
}

/// Wire cost of the stability gossip's purge-debt sections: the same
/// StabilityMessage encoded through net::Codec with growing debt ledgers,
/// bytes counted on the actual buffers.  This is the price of making
/// purges wire facts — what the unified GC costs the control lane.
svs::bench::JsonObject stability_debt_bytes() {
  const core::StabilityReport::Seen seen{{net::ProcessId(0), 900},
                                         {net::ProcessId(1), 850},
                                         {net::ProcessId(2), 910},
                                         {net::ProcessId(3), 899}};
  svs::bench::JsonArray rows;
  for (const std::size_t debts : {0u, 2u, 8u, 32u, 128u}) {
    core::StabilityReport::Debts ledger;
    ledger.reserve(debts);
    // Realistic shape: purged seqs trail the frontier, covers a few ahead.
    for (std::size_t i = 0; i < debts; ++i) {
      const std::uint64_t seq = 700 + i * 3;
      ledger.push_back(core::PurgeDebt{seq, seq + 2 + i % 5});
    }
    const core::StabilityMessage m(core::ViewId(3), 640, {seen, ledger});
    const util::Bytes frame = net::Codec::encode(m);
    rows.push(svs::bench::JsonObject()
                  .add("debt_entries", static_cast<double>(debts))
                  .add("message_bytes", static_cast<double>(frame.size()))
                  .add("bytes_per_debt",
                       debts == 0 ? 0.0
                                  : static_cast<double>(
                                        frame.size() -
                                        core::StabilityMessage(
                                            core::ViewId(3), 640, {seen, {}})
                                            .wire_size()) /
                                        static_cast<double>(debts)));
  }
  svs::bench::JsonObject o;
  o.raw("rows", rows.render());
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const svs::bench::WallClock wall;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  svs::bench::JsonObject payload;
  payload.add("bench", "representations")
      .raw("annotation_sizes", annotation_sizes().render())
      .raw("measured_message_bytes", measured_message_bytes().render())
      .raw("stability_debt", stability_debt_bytes().render())
      .add("wall_seconds", wall.seconds());
  svs::bench::write_bench_json("representations", payload);
  return 0;
}
