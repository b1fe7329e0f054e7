/**
 * @file
 * Unit tests for the adversarial scenario library: the canonical
 * scenario list, per-scenario spec well-formedness (trace/arrival
 * shape invariants, fault schedules, autoscaling bounds), seeded
 * determinism of trace generation, the Zipf popularity skew, and the
 * CI gate evaluation in checkScenarioGates — each gate must trip
 * individually and `allowShed` must be the only thing that excuses
 * shedding. Pure library tests: no processes are spawned.
 */

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "cluster/scenarios.h"

namespace ta {
namespace {

bool
sameRequest(const ServiceRequest &a, const ServiceRequest &b)
{
    return a.shape.n == b.shape.n && a.shape.k == b.shape.k &&
           a.shape.m == b.shape.m && a.wbits == b.wbits &&
           a.seed == b.seed && a.priority == b.priority &&
           a.maxdist == b.maxdist && a.useStatic == b.useStatic &&
           a.samples == b.samples;
}

TEST(ScenarioLibrary, CanonicalNamesInOrder)
{
    const std::vector<std::string> names = scenarioNames();
    const std::vector<std::string> expect = {
        "diurnal",      "burst",
        "zipf_engines", "crash_storm",
        "slow_client",  "cache_cold_stampede",
        "corrupt_cache_restart"};
    EXPECT_EQ(names, expect);
}

TEST(ScenarioLibrary, EverySpecIsWellFormed)
{
    for (const std::string &name : scenarioNames()) {
        for (const bool quick : {true, false}) {
            ScenarioSpec spec;
            std::string err;
            ASSERT_TRUE(buildScenario(name, 42, quick, spec, err))
                << name << ": " << err;
            EXPECT_EQ(spec.name, name);
            EXPECT_FALSE(spec.description.empty()) << name;
            EXPECT_GE(spec.replicas, 1) << name;
            EXPECT_FALSE(spec.trace.empty()) << name;
            EXPECT_GT(spec.p99BoundMs, 0) << name;
            EXPECT_GE(spec.maxRedispatch, 1) << name;
            EXPECT_GT(spec.requestTimeoutMs, 0) << name;

            if (spec.openLoop) {
                // Open loop: one arrival offset per request, starting
                // at zero and never going backwards.
                ASSERT_EQ(spec.arrivalSec.size(), spec.trace.size())
                    << name;
                EXPECT_DOUBLE_EQ(spec.arrivalSec.front(), 0.0)
                    << name;
                for (size_t i = 1; i < spec.arrivalSec.size(); ++i)
                    EXPECT_GE(spec.arrivalSec[i],
                              spec.arrivalSec[i - 1])
                        << name << " arrival " << i;
            } else {
                EXPECT_GE(spec.concurrency, 1u) << name;
                EXPECT_TRUE(spec.arrivalSec.empty()) << name;
            }
            if (spec.maxReplicas != 0)
                EXPECT_GT(spec.maxReplicas, spec.replicas) << name;
            if (spec.slowClients > 0) {
                EXPECT_GT(spec.stallReadMs, 0) << name;
                EXPECT_GT(spec.slowClientRequests, 0u) << name;
            }
            if (spec.needsCacheFiles)
                EXPECT_GT(spec.cacheSaveIntervalSec, 0) << name;
            for (const FaultEvent &ev : spec.faults.events)
                EXPECT_LT(ev.atRequest, spec.trace.size())
                    << name << ": fault beyond trace end";
        }
    }
}

TEST(ScenarioLibrary, UnknownNameRejected)
{
    ScenarioSpec spec;
    std::string err;
    EXPECT_FALSE(buildScenario("meteor_strike", 1, true, spec, err));
    EXPECT_FALSE(err.empty());
}

TEST(ScenarioLibrary, TracesAreSeedDeterministic)
{
    for (const std::string &name : scenarioNames()) {
        ScenarioSpec a, b;
        std::string err;
        ASSERT_TRUE(buildScenario(name, 7, true, a, err)) << err;
        ASSERT_TRUE(buildScenario(name, 7, true, b, err)) << err;
        ASSERT_EQ(a.trace.size(), b.trace.size()) << name;
        for (size_t i = 0; i < a.trace.size(); ++i)
            EXPECT_TRUE(sameRequest(a.trace[i], b.trace[i]))
                << name << " request " << i;
        EXPECT_EQ(a.arrivalSec, b.arrivalSec) << name;
    }
    // A different seed must change the trace somewhere.
    ScenarioSpec a, b;
    std::string err;
    ASSERT_TRUE(buildScenario("zipf_engines", 7, true, a, err));
    ASSERT_TRUE(buildScenario("zipf_engines", 8, true, b, err));
    bool differs = false;
    for (size_t i = 0; i < a.trace.size() && !differs; ++i)
        differs = !sameRequest(a.trace[i], b.trace[i]);
    EXPECT_TRUE(differs);
}

TEST(ScenarioLibrary, ZipfTraceSkewsEnginePopularity)
{
    const std::vector<ServiceRequest> skewed =
        scenarioTrace(11, 2000, true, /*enginePool=*/12,
                      /*zipfS=*/1.1);
    // Engines are distinguished by the variant knobs the affinity
    // policy hashes; count picks per (maxdist, static, samples).
    std::map<std::tuple<int, bool, uint64_t>, size_t> counts;
    for (const ServiceRequest &r : skewed)
        ++counts[{r.maxdist, r.useStatic, r.samples}];
    ASSERT_GT(counts.size(), 1u);
    size_t max_count = 0, min_count = skewed.size();
    for (const auto &kv : counts) {
        max_count = std::max(max_count, kv.second);
        min_count = std::min(min_count, kv.second);
    }
    // Zipf(1.1) over 12 variants: the hottest engine must dominate
    // the coldest by a wide margin (the head holds ~30% of mass, the
    // tail ~2-3%).
    EXPECT_GT(max_count, 4 * min_count);
}

TEST(ScenarioLibrary, CrashStormKillsHalfTheCluster)
{
    ScenarioSpec spec;
    std::string err;
    ASSERT_TRUE(buildScenario("crash_storm", 3, true, spec, err));
    ASSERT_EQ(spec.faults.events.size(), 1u);
    const FaultEvent &ev = spec.faults.events[0];
    EXPECT_EQ(ev.kind, FaultKind::Kill);
    EXPECT_EQ(ev.count, (spec.replicas + 1) / 2);
    EXPECT_GE(spec.minRestarts, 1u);
    EXPECT_GT(spec.maxReplicas, spec.replicas); // autoscaling armed
}

TEST(ScenarioLibrary, BurstDeclaresOverloadAndBoundsQueues)
{
    ScenarioSpec spec;
    std::string err;
    ASSERT_TRUE(buildScenario("burst", 3, true, spec, err));
    EXPECT_TRUE(spec.allowShed);
    EXPECT_GT(spec.queueCap, 0u);
    EXPECT_TRUE(spec.openLoop);
}

TEST(ScenarioLibrary, CorruptCacheRestartTargetsPersistedFile)
{
    ScenarioSpec spec;
    std::string err;
    ASSERT_TRUE(
        buildScenario("corrupt_cache_restart", 3, true, spec, err));
    EXPECT_TRUE(spec.needsCacheFiles);
    ASSERT_EQ(spec.faults.events.size(), 1u);
    EXPECT_EQ(spec.faults.events[0].kind, FaultKind::CorruptCache);
    EXPECT_GE(spec.minRestarts, 1u);
}

// ---- gate evaluation ------------------------------------------------------

ScenarioOutcome
cleanOutcome()
{
    ScenarioOutcome o;
    o.requests = 100;
    o.served = 100;
    o.p99Ms = 50;
    return o;
}

TEST(ScenarioGates, CleanOutcomePasses)
{
    ScenarioSpec spec;
    spec.p99BoundMs = 1000;
    ScenarioOutcome o = cleanOutcome();
    EXPECT_TRUE(checkScenarioGates(spec, o));
    EXPECT_TRUE(o.pass);
    EXPECT_TRUE(o.failures.empty());
}

TEST(ScenarioGates, EachGateTripsIndividually)
{
    ScenarioSpec spec;
    spec.p99BoundMs = 1000;
    spec.minRestarts = 0;

    struct Case
    {
        const char *what;
        void (*mutate)(ScenarioSpec &, ScenarioOutcome &);
    };
    const Case cases[] = {
        {"lost",
         [](ScenarioSpec &, ScenarioOutcome &o) { o.lost = 1; }},
        {"duplicated",
         [](ScenarioSpec &, ScenarioOutcome &o) {
             o.duplicated = 1;
         }},
        {"mismatches",
         [](ScenarioSpec &, ScenarioOutcome &o) {
             o.mismatches = 1;
         }},
        {"shed without allowShed",
         [](ScenarioSpec &, ScenarioOutcome &o) {
             o.served = 99;
             o.shed = 1;
         }},
        {"errors",
         [](ScenarioSpec &, ScenarioOutcome &o) { o.errors = 1; }},
        {"served + shed over requests",
         [](ScenarioSpec &s, ScenarioOutcome &o) {
             s.allowShed = true;
             o.shed = 1;
         }},
        {"p99 over bound",
         [](ScenarioSpec &, ScenarioOutcome &o) { o.p99Ms = 5000; }},
        {"missing restarts",
         [](ScenarioSpec &s, ScenarioOutcome &) {
             s.minRestarts = 2;
         }},
        {"abandoned slot",
         [](ScenarioSpec &, ScenarioOutcome &o) { o.abandoned = 1; }},
    };
    for (const Case &c : cases) {
        ScenarioSpec s = spec;
        ScenarioOutcome o = cleanOutcome();
        c.mutate(s, o);
        EXPECT_FALSE(checkScenarioGates(s, o)) << c.what;
        EXPECT_FALSE(o.pass) << c.what;
        ASSERT_EQ(o.failures.size(), 1u) << c.what;
    }
}

TEST(ScenarioGates, AllowShedExcusesSheddingOnly)
{
    ScenarioSpec spec;
    spec.p99BoundMs = 1000;
    spec.allowShed = true;
    ScenarioOutcome o = cleanOutcome();
    o.shed = 10;
    o.served = 90;
    EXPECT_TRUE(checkScenarioGates(spec, o)) << "declared overload";

    // allowShed never excuses loss.
    ScenarioOutcome bad = cleanOutcome();
    bad.shed = 10;
    bad.lost = 1;
    EXPECT_FALSE(checkScenarioGates(spec, bad));
}

TEST(ScenarioGates, TailBoundSkippedWhenNothingServed)
{
    // p99 of zero served requests is meaningless; the gate must not
    // trip on the 0-sample placeholder (loss gates catch real
    // trouble).
    ScenarioSpec spec;
    spec.p99BoundMs = 1;
    spec.allowShed = true;
    ScenarioOutcome o;
    o.requests = 10;
    o.shed = 10;
    o.served = 0;
    o.p99Ms = 0;
    EXPECT_TRUE(checkScenarioGates(spec, o));
}

} // namespace
} // namespace ta
