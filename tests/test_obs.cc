/**
 * @file
 * The observability layer's contracts: trace-id wire format (strict
 * parse, round-trip, never zero), the lock-free span tracer (ring
 * registration, concurrent recording, drop-newest overflow, Chrome
 * JSON flush), the typed metrics registry (handle stability, fixed
 * histogram bucket edges, snapshot order) and the shared stats-key
 * aggregation table that keeps the router from mis-summing per-process
 * keys.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_set>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ta {
namespace obs {
namespace {

// ---- trace-id wire format -------------------------------------------------

TEST(TraceId, MintedIdsAreNonzeroAndDistinct)
{
    const uint64_t a = mintTraceId(1);
    const uint64_t b = mintTraceId(1);
    const uint64_t c = mintTraceId(999);
    EXPECT_NE(a, 0u);
    EXPECT_NE(b, 0u);
    EXPECT_NE(c, 0u);
    EXPECT_NE(a, b);
    EXPECT_NE(b, c);
}

TEST(TraceId, InterleavedSaltsNeverCollide)
{
    // Two connections' sequential request ids, interleaved, salt the
    // mint the way Router::submit does; every id must be distinct.
    std::unordered_set<uint64_t> seen;
    for (uint64_t i = 0; i < 200000; ++i)
        seen.insert(mintTraceId(i % 2 == 0 ? i / 2 : 1000 + i / 2));
    EXPECT_EQ(seen.size(), 200000u);
}

TEST(TraceId, HexRoundTrip)
{
    for (const uint64_t id :
         std::initializer_list<uint64_t>{
             1, 0xdeadbeef, 0xffffffffffffffff, mintTraceId(42)}) {
        const std::string hex = traceIdHex(id);
        uint64_t back = 0;
        ASSERT_TRUE(parseTraceId(hex, back)) << hex;
        EXPECT_EQ(back, id);
    }
}

TEST(TraceId, ParseIsStrict)
{
    uint64_t out = 7;
    // Empty, zero, uppercase, non-hex, 0x prefix, too long.
    EXPECT_FALSE(parseTraceId("", out));
    EXPECT_FALSE(parseTraceId("0", out));
    EXPECT_FALSE(parseTraceId("00000", out));
    EXPECT_FALSE(parseTraceId("DEAD", out));
    EXPECT_FALSE(parseTraceId("xyz", out));
    EXPECT_FALSE(parseTraceId("0xab", out));
    EXPECT_FALSE(parseTraceId("12 4", out));
    EXPECT_FALSE(parseTraceId("-abc", out));
    EXPECT_FALSE(parseTraceId("11112222333344445", out)); // 17 digits
    EXPECT_EQ(out, 7u) << "failed parse must leave out untouched";

    EXPECT_TRUE(parseTraceId("a", out));
    EXPECT_EQ(out, 0xaull);
    EXPECT_TRUE(parseTraceId("ffffffffffffffff", out));
    EXPECT_EQ(out, ~0ull);
}

// ---- span scope with the tracer disabled ----------------------------------

// Runs before any test enables the process-global tracer (gtest runs
// tests in declaration order within a file).
TEST(SpanScopeTest, DisabledTracerRecordsNothing)
{
    ASSERT_FALSE(Tracer::instance().enabled());
    SpanScope scope(mintTraceId(1), "noop");
    EXPECT_FALSE(scope.recording());
    EXPECT_EQ(scope.id(), 0u);
    scope.finish();
    EXPECT_EQ(Tracer::instance().spanCount(), 0u);
}

// ---- tracer record / flush ------------------------------------------------

TEST(TracerTest, ConcurrentRecordAndChromeJsonFlush)
{
    Tracer &tracer = Tracer::instance();
    const std::string path = "test_obs_trace.json";
    tracer.enable(path, "test_obs");
    ASSERT_TRUE(tracer.enabled());

    const uint64_t before = tracer.spanCount();
    constexpr int kThreads = 4;
    constexpr int kPerThread = 100;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&tracer, t] {
            for (int i = 0; i < kPerThread; ++i) {
                const uint64_t trace_id =
                    mintTraceId(static_cast<uint64_t>(t));
                SpanScope parent(trace_id, "outer");
                SpanScope child(trace_id, "inner", parent.id());
                child.setArg("window", static_cast<uint64_t>(i));
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(tracer.spanCount() - before,
              static_cast<uint64_t>(kThreads * kPerThread * 2));
    EXPECT_EQ(tracer.dropped(), 0u);
    ASSERT_TRUE(tracer.flush());
    EXPECT_GT(tracer.flushedBytes(), 0u);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    EXPECT_EQ(text.size(), tracer.flushedBytes());
    // Chrome trace-event shape: metadata first, X events, trailer.
    EXPECT_NE(text.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(text.find("\"process_name\""), std::string::npos);
    EXPECT_NE(text.find("\"name\":\"test_obs\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(text.find("\"name\":\"outer\""), std::string::npos);
    EXPECT_NE(text.find("\"name\":\"inner\""), std::string::npos);
    EXPECT_NE(text.find("\"window\":\""), std::string::npos);
    EXPECT_NE(text.find("\"otherData\""), std::string::npos);
    // Count the X events — one per recorded span.
    size_t x_events = 0;
    const std::string needle = "\"ph\":\"X\"";
    for (size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + needle.size()))
        ++x_events;
    EXPECT_EQ(x_events, tracer.spanCount());
    std::remove(path.c_str());
}

TEST(TracerTest, SpanScopeParentsStayWithinProcess)
{
    Tracer &tracer = Tracer::instance();
    ASSERT_TRUE(tracer.enabled()); // enabled by the previous test
    const uint64_t trace_id = mintTraceId(5);
    SpanScope parent(trace_id, "parent");
    ASSERT_TRUE(parent.recording());
    const uint64_t parent_id = parent.id();
    EXPECT_NE(parent_id, 0u);
    SpanScope child(trace_id, "child", parent_id);
    EXPECT_NE(child.id(), parent_id);
}

TEST(TracerTest, ZeroTraceIdNeverRecords)
{
    Tracer &tracer = Tracer::instance();
    ASSERT_TRUE(tracer.enabled());
    const uint64_t before = tracer.spanCount();
    SpanScope scope(0, "untraced");
    EXPECT_FALSE(scope.recording());
    scope.finish();
    EXPECT_EQ(tracer.spanCount(), before);
}

// ---- metrics --------------------------------------------------------------

TEST(MetricsTest, CounterAndGaugeSemantics)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("served");
    c.add();
    c.add(9);
    EXPECT_EQ(c.value(), 10u);

    Gauge &g = reg.gauge("queue_depth");
    g.set(5);
    g.add(3);
    g.add(-2);
    EXPECT_EQ(g.value(), 6u);
    g.max(4);
    EXPECT_EQ(g.value(), 6u) << "max() never lowers";
    g.max(11);
    EXPECT_EQ(g.value(), 11u);
}

TEST(MetricsTest, RegistryHandlesAreStable)
{
    MetricsRegistry reg;
    Counter &a = reg.counter("hits");
    Counter &b = reg.counter("hits");
    EXPECT_EQ(&a, &b) << "same name must return the same cell";
    a.add(3);
    EXPECT_EQ(b.value(), 3u);
    // Registering more metrics must not invalidate earlier handles.
    for (int i = 0; i < 64; ++i)
        reg.counter("filler_" + std::to_string(i));
    EXPECT_EQ(a.value(), 3u);
}

TEST(MetricsTest, HistogramBucketEdgesAreFixedPowersOfTwo)
{
    EXPECT_EQ(Histogram::kNumEdges, 14);
    EXPECT_EQ(Histogram::edgeMs(0), 1u);
    EXPECT_EQ(Histogram::edgeMs(1), 2u);
    EXPECT_EQ(Histogram::edgeMs(13), 8192u);
}

TEST(MetricsTest, HistogramCumulativeCounts)
{
    Histogram h;
    h.observe(0.5);  // <= 1 ms
    h.observe(1.0);  // <= 1 ms (edge inclusive)
    h.observe(1.5);  // <= 2 ms
    h.observe(100);  // <= 128 ms
    h.observe(1e9);  // overflow bucket
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.cumulative(0), 2u);
    EXPECT_EQ(h.cumulative(1), 3u);
    EXPECT_EQ(h.cumulative(6), 3u);  // <= 64 ms
    EXPECT_EQ(h.cumulative(7), 4u);  // <= 128 ms
    EXPECT_EQ(h.cumulative(Histogram::kNumEdges - 1), 4u);
    EXPECT_GE(h.sumUs(), 102000u + 1000000000u);
}

TEST(MetricsTest, SnapshotRendersRegistrationOrderAndFlatBuckets)
{
    MetricsRegistry reg;
    reg.counter("served").add(7);
    reg.gauge("queue_depth").set(3);
    reg.histogram("service_ms").observe(5.0);

    const std::vector<MetricSample> snap = reg.snapshot();
    ASSERT_GE(snap.size(),
              static_cast<size_t>(2 + Histogram::kNumEdges + 1));
    EXPECT_EQ(snap[0].name, "served");
    EXPECT_EQ(snap[0].value, 7u);
    EXPECT_EQ(snap[1].name, "queue_depth");
    EXPECT_EQ(snap[1].value, 3u);
    // Histogram flattens to cumulative <name>_le_<edge> counters.
    bool saw_le_4 = false, saw_le_inf = false;
    for (const MetricSample &s : snap) {
        if (s.name == "service_ms_le_4") {
            saw_le_4 = true;
            EXPECT_EQ(s.value, 0u);
        }
        if (s.name == "service_ms_le_8") {
            EXPECT_EQ(s.value, 1u);
        }
        if (s.name == "service_ms_le_inf") {
            saw_le_inf = true;
            EXPECT_EQ(s.value, 1u);
        }
    }
    EXPECT_TRUE(saw_le_4);
    EXPECT_TRUE(saw_le_inf);
}

// ---- shared stats-key aggregation table -----------------------------------

TEST(StatsKeyAggTest, CountersSum)
{
    for (const char *key :
         {"served", "errors", "windows", "batched_requests",
          "cache_hits", "cache_misses", "shed_unmeetable",
          "deadline_met", "buffer_hits", "storage_bytes_mapped",
          "queue_depth", "inflight_windows"})
        EXPECT_EQ(statsKeyAgg(key), MetricAgg::Sum) << key;
}

TEST(StatsKeyAggTest, PerProcessGaugesMax)
{
    for (const char *key : {"peak_queue_depth", "max_window",
                            "uptime_ms", "catalog_models"})
        EXPECT_EQ(statsKeyAgg(key), MetricAgg::Max) << key;
}

TEST(StatsKeyAggTest, DerivedAndUnknownAreNeverSummed)
{
    for (const char *key :
         {"cache_hit_rate", "service_ms_p50", "service_ms_p95",
          "service_ms_p99", "some_future_key_nobody_registered"})
        EXPECT_EQ(statsKeyAgg(key), MetricAgg::Derived) << key;
}

TEST(StatsKeyAggTest, HistogramBucketsSumBucketWise)
{
    EXPECT_EQ(statsKeyAgg("service_ms_le_1"), MetricAgg::Sum);
    EXPECT_EQ(statsKeyAgg("service_ms_le_8192"), MetricAgg::Sum);
    EXPECT_EQ(statsKeyAgg("service_ms_le_inf"), MetricAgg::Sum);
    EXPECT_EQ(statsKeyKind("service_ms_le_16"), MetricKind::Counter);
}

} // namespace
} // namespace obs
} // namespace ta
