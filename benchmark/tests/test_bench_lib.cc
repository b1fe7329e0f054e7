// Self-tests of the benchmark's accounting rules: which percentile a
// sample supports, due-time latency and lateness, windowed statistics,
// the seeded arrival schedule and request streams, and stats-op deltas.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "bench_lib.h"
#include "common/stats.h"
#include "workloads.h"

using namespace tabench;

TEST(SupportedPercentile, NeedsTenSamplesBeyond)
{
    EXPECT_DOUBLE_EQ(supportedPercentile(1000), 99.0);
    EXPECT_DOUBLE_EQ(supportedPercentile(100000), 99.0); // capped
    EXPECT_DOUBLE_EQ(supportedPercentile(500), 98.0);
    EXPECT_DOUBLE_EQ(supportedPercentile(810), 98.7);
    EXPECT_DOUBLE_EQ(supportedPercentile(40), 75.0);
    EXPECT_DOUBLE_EQ(supportedPercentile(20), 50.0);
    // Too few samples for any tail: the median.
    EXPECT_DOUBLE_EQ(supportedPercentile(19), 50.0);
    EXPECT_DOUBLE_EQ(supportedPercentile(0), 50.0);
    // The reported percentile really has >= 10 samples above it.
    for (size_t n : {20u, 37u, 400u, 999u, 1001u}) {
        const double q = supportedPercentile(n);
        EXPECT_GE(n * (1.0 - q / 100.0), 10.0 - 1e-9) << n;
    }
}

TEST(OpenLoop, LatencyCountsFromDueTime)
{
    // Due at 1.000 s, sent 10 ms late, answered 5 ms after sending:
    // the request waited 15 ms from when it was due.
    const OpenLoopSummary s =
        summarizeOpenLoop({{1.000, 1.010, 1.015, true}}, 100.0);
    ASSERT_EQ(s.latencyMs.size(), 1u);
    EXPECT_NEAR(s.latencyMs[0], 15.0, 1e-9);
    EXPECT_NEAR(s.p50Ms, 15.0, 1e-9);
    EXPECT_NEAR(s.lateP99Ms, 10.0, 1e-9);
}

TEST(OpenLoop, TailIsTheHighestSupportedPercentile)
{
    // 500 answered requests support p98 (10 beyond), not p99.
    std::vector<OpenLoopRecord> recs;
    for (int i = 0; i < 500; ++i)
        recs.push_back({0.0, 0.0, (i + 1) / 1000.0, true});
    const OpenLoopSummary s = summarizeOpenLoop(recs, 1000.0);
    EXPECT_DOUBLE_EQ(s.tailPct, 98.0);
    EXPECT_NEAR(s.tailMs, ta::percentileOf(s.latencyMs, 98.0), 1e-9);
}

TEST(OpenLoop, FailuresAndLostRequestsMissTheLimit)
{
    const std::vector<OpenLoopRecord> recs = {
        {0.0, 0.0, 0.004, true},  // within 5 ms
        {0.0, 0.0, 0.009, true},  // OK but beyond the limit
        {0.0, 0.0, 0.001, false}, // error or shed response
        {0.0, 0.0, -1, false},    // never answered
    };
    const OpenLoopSummary s = summarizeOpenLoop(recs, 5.0);
    EXPECT_EQ(s.sent, 4u);
    EXPECT_EQ(s.ok, 2u);
    EXPECT_EQ(s.latencyMs.size(), 2u);
    EXPECT_DOUBLE_EQ(s.sloAttainment, 0.25);
    EXPECT_DOUBLE_EQ(s.lateP99Ms, 0.0);
}

TEST(Windowed, RateIsTheMedianSlice)
{
    // 10 events/s for 5 s, except one slice stalled to 2 events.
    std::vector<double> t;
    for (int s = 0; s < 5; ++s)
        for (int i = 0; i < (s == 2 ? 2 : 10); ++i)
            t.push_back(100.0 + s + i / 10.0);
    EXPECT_DOUBLE_EQ(windowedRate(t, 100.0, 105.0, 5), 10.0);
    // Events outside [start, end) do not count.
    t.push_back(99.0);
    t.push_back(105.0);
    EXPECT_DOUBLE_EQ(windowedRate(t, 100.0, 105.0, 1), 42.0 / 5.0);
    EXPECT_DOUBLE_EQ(windowedRate(t, 100.0, 100.0, 5), 0.0);
}

TEST(Windowed, PercentilePerWindowThenMedian)
{
    // Three windows of 1000; one carries a burst of 50 slow samples.
    std::vector<double> v(3000, 1.0);
    for (int i = 0; i < 50; ++i)
        v[1000 + i] = 100.0;
    EXPECT_DOUBLE_EQ(windowedPercentile(v, 99, 1000), 1.0);
    // Over the whole sample the burst would set the p99.
    EXPECT_DOUBLE_EQ(ta::percentileOf(v, 99), 100.0);
    // Fewer than two windows: the plain percentile.
    const std::vector<double> small(v.begin() + 1000, v.begin() + 1999);
    EXPECT_DOUBLE_EQ(windowedPercentile(small, 99, 1000),
                     ta::percentileOf(small, 99));
}

TEST(PoissonSchedule, DeterministicPerSeed)
{
    const std::vector<double> a = poissonSchedule(7, 500.0, 4.0);
    EXPECT_EQ(a, poissonSchedule(7, 500.0, 4.0));
    EXPECT_NE(a, poissonSchedule(8, 500.0, 4.0));
    ASSERT_FALSE(a.empty());
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
    EXPECT_GT(a.front(), 0.0);
    EXPECT_LT(a.back(), 4.0);
    // 2000 expected arrivals; a Poisson count stays within 5 sigma.
    EXPECT_NEAR(static_cast<double>(a.size()), 2000.0,
                5 * std::sqrt(2000.0));
    EXPECT_TRUE(poissonSchedule(7, 0.0, 4.0).empty());
}

TEST(RequestStream, SameSeedSameRequests)
{
    for (const WorkloadSpec &w : allWorkloads()) {
        if (w.kind == WorkloadKind::Offline)
            continue;
        const RequestStream a(w, 3), b(w, 3), c(w, 4);
        bool differs = false;
        for (uint64_t i = 0; i < 64; ++i) {
            EXPECT_EQ(requestKey(a.at(Phase::Closed, i)),
                      requestKey(b.at(Phase::Closed, i)))
                << w.name;
            differs |= requestKey(a.at(Phase::Closed, i)) !=
                       requestKey(c.at(Phase::Closed, i));
        }
        EXPECT_TRUE(differs) << w.name;
    }
}

TEST(RequestStream, MixedSynthMixIsStratified)
{
    // Every block of 24 holds the same mix: 8 per suite, wbits 8/6/4
    // at 1/4, 1/4, 1/2, and 3 static-scoreboard requests.
    const RequestStream s(*findWorkload("mixed_synth"), 5);
    for (uint64_t block = 0; block < 4; ++block) {
        std::map<uint64_t, int> by_k;
        std::map<int, int> by_bits;
        int statics = 0;
        for (uint64_t i = block * 24; i < block * 24 + 24; ++i) {
            const ta::ServiceRequest r = s.at(Phase::Open, i);
            ++by_k[r.shape.k == 4096 ? 0 : r.shape.k == 128 ? 1 : 2];
            ++by_bits[r.wbits];
            statics += r.useStatic;
        }
        EXPECT_EQ(by_k, (std::map<uint64_t, int>{{0, 8}, {1, 8}, {2, 8}}));
        EXPECT_EQ(by_bits, (std::map<int, int>{{4, 12}, {6, 6}, {8, 6}}));
        EXPECT_EQ(statics, 3);
    }
}

TEST(Stats, ParseAndDelta)
{
    Stats before, after;
    ASSERT_TRUE(parseStats("{\"id\":3,\"ok\":1,\"served\":10,"
                           "\"cache_hit_rate\":0.5,"
                           "\"scheduler\":\"planned\"}",
                           before));
    EXPECT_DOUBLE_EQ(before.at("served"), 10.0);
    EXPECT_DOUBLE_EQ(before.at("cache_hit_rate"), 0.5);
    EXPECT_EQ(before.count("scheduler"), 0u);
    ASSERT_TRUE(parseStats("{\"id\":4,\"ok\":1,\"served\":25,"
                           "\"router_retried\":2}",
                           after));
    EXPECT_DOUBLE_EQ(statDelta(before, after, "served"), 15.0);
    EXPECT_DOUBLE_EQ(statDelta(before, after, "router_retried"), 2.0);
    EXPECT_DOUBLE_EQ(statDelta(before, after, "absent"), 0.0);

    Stats err;
    EXPECT_FALSE(parseStats("{\"id\":5,\"ok\":0,\"error\":\"x\"}", err));
    EXPECT_FALSE(parseStats("not json", err));
}

TEST(Stats, HistogramPercentileOfTheDelta)
{
    const Stats before = {{"service_ms_le_1", 40},
                          {"service_ms_le_2", 40},
                          {"service_ms_le_4", 40},
                          {"service_ms_le_inf", 40}};
    // 50 new observations <= 1 ms, 50 in (1, 2] ms.
    const Stats after = {{"service_ms_le_1", 90},
                         {"service_ms_le_2", 140},
                         {"service_ms_le_4", 140},
                         {"service_ms_le_inf", 140}};
    EXPECT_DOUBLE_EQ(histogramPercentile(before, after, "service_ms", 50),
                     1.0);
    EXPECT_DOUBLE_EQ(histogramPercentile(before, after, "service_ms", 75),
                     1.5);
    EXPECT_DOUBLE_EQ(histogramPercentile(before, after, "service_ms", 25),
                     0.5);
    EXPECT_DOUBLE_EQ(histogramPercentile(before, before, "service_ms", 50),
                     0.0);
    // Overflow observations report the last finite edge.
    const Stats over = {{"service_ms_le_1", 40},
                        {"service_ms_le_2", 40},
                        {"service_ms_le_4", 40},
                        {"service_ms_le_inf", 50}};
    EXPECT_DOUBLE_EQ(histogramPercentile(before, over, "service_ms", 99),
                     4.0);
}
