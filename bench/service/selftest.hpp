// bench_service --selftest: the measurement machinery checked against
// references, in well under five seconds.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "histogram.hpp"
#include "report.hpp"
#include "result.hpp"
#include "schedule.hpp"
#include "sim/random.hpp"
#include "sim_run.hpp"
#include "wire.hpp"

namespace svs::bench_service {

inline int run_selftest() {
  int failures = 0;
  const auto check = [&](bool ok, const std::string& what) {
    if (ok) return;
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  };

  // Histogram percentiles against a sorted reference, for a small-integer,
  // an exponential and a heavy-tailed distribution; merging two halves
  // must give the same answers, and so must a pack/unpack round trip.
  sim::Rng rng(42);
  for (int dist = 0; dist < 3; ++dist) {
    Histogram whole, odd, even;
    std::vector<std::int64_t> ref;
    double sum = 0.0;
    for (int k = 0; k < 20'000; ++k) {
      const std::int64_t v =
          dist == 0   ? rng.between(0, 1000)
          : dist == 1 ? static_cast<std::int64_t>(rng.exponential(1e6))
                      : static_cast<std::int64_t>(std::exp(rng.uniform(0.0, 30.0)));
      ref.push_back(v);
      sum += static_cast<double>(v);
      whole.record(v);
      (k % 2 != 0 ? odd : even).record(v);
    }
    std::sort(ref.begin(), ref.end());
    odd.merge(even);
    Histogram copy;
    unpack(pack(whole), copy);
    const std::string name = "distribution " + std::to_string(dist);
    for (const double p : {0.0, 0.1, 1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
      const auto rank = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::ceil(p / 100.0 * ref.size())));
      const std::int64_t want = ref[rank - 1];
      const double got = whole.percentile(p);
      check(std::abs(got - static_cast<double>(want)) <=
                Histogram::resolution_at(static_cast<std::uint64_t>(want)),
            name + ": p" + number(p) + " = " + number(got) + ", sorted reference " +
                std::to_string(want));
      check(odd.percentile(p) == got, name + ": merged halves disagree at p" + number(p));
      check(copy.percentile(p) == got, name + ": round trip changed p" + number(p));
    }
    check(std::abs(whole.mean() - sum / ref.size()) <= 1e-9 * (sum / ref.size()),
          name + ": mean is not exact");
  }

  // Visibility on a synthetic schedule whose intermediate puts are purged:
  // keys A=0, B=1; put i is due at 10*i ns.
  {
    Schedule s(1, 2, false);
    for (const std::uint32_t key : {0u, 1u, 0u, 0u, 1u, 0u}) {
      s.add(static_cast<std::int64_t>(10 * s.size()), key);
    }
    Visibility v(s, 0);
    v.on_apply(1, 100);  // B: put 1
    v.on_apply(3, 200);  // A: puts 0 and 2 were purged, visible with 3
    v.on_apply(5, 300);  // A: put 5
    v.on_apply(2, 310);  // A going backwards: an order error
    check(v.visible() == 5 && v.order_errors() == 1, "visibility counts");
    check(v.invisible() == std::vector<std::uint32_t>{4}, "put 4 must be invisible");
    const Histogram& h = v.windows().at(0);  // 90, 200, 180, 170, 250
    check(h.percentile(0) == 90 && h.percentile(50) == 180 &&
              h.percentile(100) == 250 && h.mean() == 178.0,
          "visibility latencies of purged puts");
    v.on_apply(4, 400);
    check(v.all_visible() && h.percentile(100) == 360, "late put of key B");
  }

  // Stage split: contiguous stamps sum to exactly the visible latency,
  // whether the multicast returned inside put() or from the outbox.
  for (int k = 0; k < 1000; ++k) {
    const auto step = [&] { return rng.between(0, 5'000'000); };
    Stamps p{}, b{};
    p[0] = 1'000'000'000 + step();
    p[1] = p[0] + step();
    if (k % 2 == 0) {
      p[3] = p[1] + step();
      p[2] = p[3] + step();
    } else {
      p[2] = p[1] + step();
      p[3] = p[2] + step();
    }
    b[0] = p[3] + step();
    for (int i = 1; i < 4; ++i) b[i] = b[i - 1] + step();
    const auto stages = split_stages(p, b);
    std::int64_t total = 0;
    bool non_negative = true;
    for (const auto d : *stages) {
      total += d;
      non_negative = non_negative && d >= 0;
    }
    check(total == b[3] - p[0] && non_negative, "stage split sum");
    b[k % 4] = 0;
    check(!split_stages(p, b).has_value(), "missing stamp must not split");
  }

  // A run's result, member reports included, survives the pipe encoding.
  {
    RunResult run;
    run.setup_s = {0.25, 0.5};
    run.closed_loop = true;
    run.attempted = 12;
    run.failures = {"one", ""};
    MemberReport& r = run.members.emplace_back();
    r.id = 3;
    r.visible.resize(2);
    r.visible[1].record(1234567);
    r.invisible = {7, 9};
    r.install_digests = {{1, 11}, {2, 22}};
    r.node.refused_data = 5;
    r.probe.at_primary[64] = {1, 2, 3, 4};
    r.probe.bytes[1] = 99;
    RunResult back_run;
    unpack(pack(run), back_run);
    check(back_run.setup_s == run.setup_s && back_run.closed_loop &&
              back_run.attempted == 12 && back_run.failures == run.failures &&
              back_run.members.size() == 1,
          "run result round trip");
    const MemberReport& back = back_run.members.at(0);
    check(back.id == 3 && back.visible.size() == 2 && back.visible[1].count() == 1 && back.invisible == r.invisible &&
              back.install_digests == r.install_digests &&
              back.node.refused_data == 5 && back.probe.at_primary == r.probe.at_primary &&
              back.probe.bytes[1] == 99,
          "member report round trip");
  }

  // A short traced closed-loop run: every sampled put's stages sum to the
  // latency the visibility bookkeeping recorded for it.
  {
    const RunResult r = run_sim(*find_workload("kv_flood_sim"), 7, 0.3, true);
    for (const auto& f : r.failures) check(false, "traced sim run: " + f);
    const StageSummary st = summarize_stages(r);
    check(st.visible.count() > 0, "traced sim run staged no sampled put");
    check(st.mismatches == 0, "stage sums differ from visible latency");
  }

  std::printf("selftest %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace svs::bench_service
