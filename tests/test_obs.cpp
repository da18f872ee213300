// Telemetry layer semantics: counter/timer/histogram recording, the
// runtime enable gate, registry identity, the span ring, JSON snapshot
// shape, and the disabled-mode no-op guarantees.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/telemetry.hpp"

namespace {

namespace obs = si::obs;

/// Enables telemetry for one test and restores the disabled default.
class ObsEnabled {
 public:
  ObsEnabled() { obs::set_enabled(true); }
  ~ObsEnabled() { obs::set_enabled(false); }
};

TEST(Obs, CounterRecordsOnlyWhenEnabled) {
  ObsEnabled on;
  obs::Counter& c = obs::counter("test.counter_gate");
  c.reset();
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);

  obs::set_enabled(false);
  c.add(100);
  EXPECT_EQ(c.value(), 5u) << "disabled counter must not record";
  obs::set_enabled(true);
  c.add();
  EXPECT_EQ(c.value(), 6u);
}

TEST(Obs, RegistryReturnsTheSameInstrumentForTheSameName) {
  EXPECT_EQ(&obs::counter("test.same"), &obs::counter("test.same"));
  EXPECT_NE(&obs::counter("test.same"), &obs::counter("test.other"));
  EXPECT_EQ(&obs::timer("test.same_t"), &obs::timer("test.same_t"));
  EXPECT_EQ(&obs::histogram("test.same_h"), &obs::histogram("test.same_h"));
}

TEST(Obs, ScopedTimerAccumulatesIntervals) {
  ObsEnabled on;
  obs::Timer& t = obs::timer("test.scoped_timer");
  t.reset();
  for (int i = 0; i < 3; ++i) {
    obs::ScopedTimer timed(t);
    // Do a little measurable work.
    volatile double acc = 0.0;
    for (int k = 0; k < 1000; ++k) acc = acc + k;
  }
  EXPECT_EQ(t.count(), 3u);
  EXPECT_GT(t.total_ns(), 0u);
}

TEST(Obs, TimerIgnoredWhenDisabled) {
  obs::set_enabled(false);
  obs::Timer& t = obs::timer("test.disabled_timer");
  t.reset();
  {
    obs::ScopedTimer timed(t);
  }
  t.record_ns(12345);
  EXPECT_EQ(t.count(), 0u);
  EXPECT_EQ(t.total_ns(), 0u);
}

TEST(Obs, HistogramTracksMomentsAndPowerOfTwoBins) {
  ObsEnabled on;
  obs::Histogram& h = obs::histogram("test.hist");
  h.reset();
  EXPECT_EQ(h.min(), 0.0);  // empty histogram reports zeros, not sentinels
  EXPECT_EQ(h.max(), 0.0);
  h.record(1e-9);
  h.record(2e-9);
  h.record(4e-9);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), 1e-9);
  EXPECT_DOUBLE_EQ(h.max(), 4e-9);
  EXPECT_NEAR(h.sum(), 7e-9, 1e-20);
  // Each value lands in a bin whose [lo, 2*lo) range contains it.
  std::uint64_t binned = 0;
  for (int k = 0; k < obs::Histogram::kBins; ++k) {
    const std::uint64_t n = h.bin(k);
    binned += n;
    if (n) {
      EXPECT_LE(obs::Histogram::bin_lo(k), 4e-9);
      EXPECT_GT(2.0 * obs::Histogram::bin_lo(k), 1e-9);
    }
  }
  EXPECT_EQ(binned, 3u);
}

TEST(Obs, HistogramIsThreadSafe) {
  ObsEnabled on;
  obs::Histogram& h = obs::histogram("test.hist_mt");
  h.reset();
  constexpr int kThreads = 4;
  constexpr int kPer = 1000;
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i)
    ts.emplace_back([&h] {
      for (int k = 1; k <= kPer; ++k) h.record(static_cast<double>(k));
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads * kPer));
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), static_cast<double>(kPer));
  EXPECT_NEAR(h.sum(), kThreads * (kPer * (kPer + 1) / 2.0), 1e-6);
}

TEST(Obs, TraceRingKeepsTheNewestEvents) {
  ObsEnabled on;
  obs::reset();
  const std::size_t overfill = obs::kTraceRingCapacity + 37;
  for (std::size_t i = 0; i < overfill; ++i) {
    obs::TraceSpan span("test.span");
  }
  const auto events = obs::trace_events();
  ASSERT_EQ(events.size(), obs::kTraceRingCapacity);
  // Oldest retained event is the one that displaced nothing yet.
  EXPECT_EQ(events.front().seq, overfill - obs::kTraceRingCapacity);
  EXPECT_EQ(events.back().seq, overfill - 1);
  EXPECT_STREQ(events.back().name, "test.span");
}

TEST(Obs, SpansNotRecordedWhenDisabled) {
  ObsEnabled on;
  obs::reset();
  obs::set_enabled(false);
  {
    obs::TraceSpan span("test.dark_span");
  }
  EXPECT_TRUE(obs::trace_events().empty());
}

TEST(Obs, JsonSnapshotGolden) {
  ObsEnabled on;
  obs::reset();
  obs::counter("zz_golden.alpha").add(3);
  obs::counter("zz_golden.beta").add(7);
  obs::timer("zz_golden.t").record_ns(1500);
  obs::histogram("zz_golden.h").record(2.0);

  const std::string js = obs::snapshot_json();
  EXPECT_NE(js.find("\"compiled\": true"), std::string::npos);
  EXPECT_NE(js.find("\"enabled\": true"), std::string::npos);
  EXPECT_NE(js.find("\"zz_golden.alpha\": 3"), std::string::npos);
  EXPECT_NE(js.find("\"zz_golden.beta\": 7"), std::string::npos);
  EXPECT_NE(js.find("\"zz_golden.t\": {\"count\": 1, \"total_ns\": 1500, "
                    "\"mean_ns\": 1500}"),
            std::string::npos);
  EXPECT_NE(js.find("\"zz_golden.h\": {\"count\": 1, \"min\": 2, \"max\": 2, "
                    "\"mean\": 2, \"bins\": [{\"lo\": 2, \"count\": 1}]}"),
            std::string::npos);
  // Registry maps are ordered: alpha serializes before beta.
  EXPECT_LT(js.find("zz_golden.alpha"), js.find("zz_golden.beta"));
  // Structurally a JSON object with the four sections.
  EXPECT_EQ(js.front(), '{');
  EXPECT_EQ(js.back(), '}');
  for (const char* key : {"\"counters\": {", "\"timers\": {",
                          "\"histograms\": {", "\"spans\": ["})
    EXPECT_NE(js.find(key), std::string::npos) << key;
}

TEST(Obs, TableSnapshotListsInstruments) {
  ObsEnabled on;
  obs::reset();
  obs::counter("zz_table.n").add(42);
  const std::string table = obs::snapshot_table();
  EXPECT_NE(table.find("zz_table.n"), std::string::npos);
  EXPECT_NE(table.find("42"), std::string::npos);
}

TEST(Obs, ResetZeroesInstrumentsAndRing) {
  ObsEnabled on;
  obs::Counter& c = obs::counter("test.reset_me");
  c.add(9);
  obs::timer("test.reset_t").record_ns(10);
  obs::histogram("test.reset_h").record(1.0);
  {
    obs::TraceSpan span("test.reset_span");
  }
  obs::reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(obs::timer("test.reset_t").count(), 0u);
  EXPECT_EQ(obs::histogram("test.reset_h").count(), 0u);
  EXPECT_TRUE(obs::trace_events().empty());
}

}  // namespace
