// Tests for the metrics toolkit.
#include <gtest/gtest.h>

#include <sstream>

#include "metrics/stats.hpp"
#include "metrics/table.hpp"
#include "util/contracts.hpp"

namespace svs::metrics {
namespace {

TEST(TimeWeightedMean, WeightsByDuration) {
  TimeWeightedMean m(sim::TimePoint::origin());
  // Value 10 held for 1ms, then value 0 held for 3ms: mean = 2.5.
  m.record(sim::TimePoint::origin() + sim::Duration::millis(1), 10.0);
  m.record(sim::TimePoint::origin() + sim::Duration::millis(4), 0.0);
  EXPECT_DOUBLE_EQ(m.mean(), 2.5);
  EXPECT_DOUBLE_EQ(m.max(), 10.0);
}

TEST(TimeWeightedMean, RejectsTimeTravel) {
  TimeWeightedMean m(sim::TimePoint::origin() + sim::Duration::millis(5));
  EXPECT_THROW(m.record(sim::TimePoint::origin(), 1.0),
               util::ContractViolation);
}

TEST(PeriodicSampler, SamplesAtPeriod) {
  sim::Simulator sim;
  double value = 4.0;
  PeriodicSampler sampler(sim, sim::Duration::millis(10),
                          [&value] { return value; });
  sampler.start();
  sim.run_until(sim::TimePoint::origin() + sim::Duration::millis(55));
  value = 8.0;
  sim.run_until(sim::TimePoint::origin() + sim::Duration::millis(105));
  sampler.stop();
  sim.run();
  // Half the time at 4, half at 8 (within quantisation of the period).
  EXPECT_NEAR(sampler.series().mean(), 6.0, 0.5);
  EXPECT_DOUBLE_EQ(sampler.series().max(), 8.0);
}

TEST(Table, FormatsAlignedColumns) {
  Table t({"a", "long-header", "c"});
  t.row({"1", "2", "3"}).row({"xxxx", "y", "zz"});
  std::ostringstream os;
  t.print(os);
  const auto s = os.str();
  EXPECT_NE(s.find("long-header"), std::string::npos);
  EXPECT_NE(s.find("xxxx"), std::string::npos);
  // header + separator + 2 rows = 4 lines
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(Table, RowWidthChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.row({"only-one"}), util::ContractViolation);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(std::uint64_t{42}), "42");
}

}  // namespace
}  // namespace svs::metrics
