/**
 * @file
 * The cluster subsystem's contracts: routing-policy unit behavior
 * (affinity hash stability, least-outstanding tie-breaks), and the
 * end-to-end determinism contract over real `ta_serve` replica
 * processes — routed responses are byte-identical to standalone
 * serial runs for every {replica count, policy, submit concurrency}
 * combination, a replica SIGKILLed mid-trace is restarted by the
 * ReplicaManager with no lost and no duplicated responses (the TSan
 * CI job runs the same tests against the router's internals), and
 * pipelined lines on a replica connection never wait on a delayed ACK.
 *
 * The replica binary is `./ta_serve` (tests run from the build
 * directory) unless TA_SERVE_BIN overrides it.
 */

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "cluster/fault_injector.h"
#include "cluster/net.h"
#include "cluster/router.h"
#include "obs/trace.h"
#include "service/protocol.h"

namespace ta {
namespace {

const char *
serveBin()
{
    const char *env = std::getenv("TA_SERVE_BIN");
    return env != nullptr && env[0] != '\0' ? env : "./ta_serve";
}

ReplicaProcessConfig
quickClusterConfig(int replicas)
{
    ReplicaProcessConfig cfg;
    cfg.serveBinary = serveBin();
    cfg.count = replicas;
    cfg.serveArgs = {"--window", "4", "--sessions", "2"};
    cfg.backoffInitialMs = 50;
    // Effectively disable periodic health probes: on an oversubscribed
    // ctest host a probe can time out against a perfectly healthy
    // replica and restart it mid-test, resetting the counters the
    // stats assertions check. Crash detection is waitpid-based and
    // unaffected; the probe path itself is exercised by the
    // ta_cluster_* ctest smokes' default 500 ms cadence.
    cfg.healthIntervalMs = 60 * 1000;
    return cfg;
}

/** Mixed engines (maxdist / static vary), tiny shapes. */
std::vector<ServiceRequest>
mixedClusterTrace()
{
    std::vector<ServiceRequest> trace;
    ServiceRequest r;
    r.samples = 8;
    for (int rep = 0; rep < 2; ++rep) {
        r.shape = {128, 128, 64};
        r.wbits = 4;
        r.seed = 21;
        r.maxdist = 4;
        r.useStatic = false;
        trace.push_back(r);
        r.shape = {96, 256, 64};
        r.wbits = 8;
        r.seed = 22;
        r.maxdist = 3; // second engine key
        trace.push_back(r);
        r.shape = {64, 128, 96};
        r.wbits = 6;
        r.seed = 23;
        r.maxdist = 5; // third engine key
        trace.push_back(r);
        r.shape = {128, 64, 64};
        r.wbits = 4;
        r.seed = 24;
        r.maxdist = 4;
        r.useStatic = true; // fourth engine key
        trace.push_back(r);
    }
    return trace;
}

/** One engine key only — the affinity crash test pins one slot. */
std::vector<ServiceRequest>
singleKeyTrace(size_t count)
{
    std::vector<ServiceRequest> trace;
    ServiceRequest r;
    r.samples = 8;
    for (size_t i = 0; i < count; ++i) {
        r.shape = {96 + 32 * (i % 3), 128, 64};
        r.wbits = i % 2 == 0 ? 4 : 8;
        r.seed = 100 + i;
        trace.push_back(r);
    }
    return trace;
}

/** Standalone serial oracle (fresh single-threaded engines). */
std::vector<std::string>
standaloneResponses(const std::vector<ServiceRequest> &trace)
{
    std::map<EngineKey, std::unique_ptr<TransArrayAccelerator>>
        engines;
    std::vector<std::string> out;
    for (const ServiceRequest &req : trace) {
        const EngineKey key = engineKeyOf(req);
        auto it = engines.find(key);
        if (it == engines.end())
            it = engines
                     .emplace(key,
                              std::make_unique<TransArrayAccelerator>(
                                  engineConfig(key, 1)))
                     .first;
        out.push_back(serializeResponse(
            req,
            it->second->runShape(req.shape, req.wbits, req.seed)));
    }
    return out;
}

/**
 * Route the whole trace from `concurrency` submitter threads, trace
 * index i as request id `first_id + i`. Returns the response line per
 * trace index and asserts exactly-once delivery.
 */
std::vector<std::string>
routeAll(Router &router, const std::vector<ServiceRequest> &trace,
         size_t concurrency, uint64_t first_id = 1)
{
    // Responders run on router reader threads and hold this state by
    // shared_ptr, so even a (buggy) late duplicate delivery could
    // never touch freed test-stack memory.
    struct State
    {
        explicit State(size_t n) : responses(n), done(n)
        {
            for (size_t i = 0; i < n; ++i)
                deliveries.push_back(
                    std::make_unique<std::atomic<int>>(0));
        }
        std::vector<std::string> responses;
        std::vector<std::unique_ptr<std::atomic<int>>> deliveries;
        std::vector<std::promise<void>> done;
    };
    auto state = std::make_shared<State>(trace.size());
    std::atomic<size_t> next{0};
    std::vector<std::thread> submitters;
    for (size_t c = 0; c < concurrency; ++c) {
        submitters.emplace_back([&router, &trace, &next, first_id, state] {
            while (true) {
                const size_t i = next.fetch_add(1);
                if (i >= trace.size())
                    return;
                ServiceRequest req = trace[i];
                req.id = first_id + i;
                router.submit(
                    req, [state, i](const std::string &line) {
                        if (state->deliveries[i]->fetch_add(1) == 0) {
                            state->responses[i] = line;
                            state->done[i].set_value();
                        }
                    });
            }
        });
    }
    for (std::thread &t : submitters)
        t.join();
    for (std::promise<void> &p : state->done)
        p.get_future().wait();
    for (size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(state->deliveries[i]->load(), 1)
            << "trace " << i << " delivered more than once";
    return state->responses;
}

/**
 * Route `trace` (ids 1..n, one engine key) while SIGKILLing `victim`,
 * the replica in affinity slot `home`, with work provably in flight on
 * it: the first requests complete, the victim is SIGSTOPped, the rest
 * are submitted, and it is killed once the router shows all of them
 * forwarded to `home`. Returns the responses in trace order once every
 * one is delivered and the manager has counted the restart (both waits
 * bounded).
 */
std::vector<std::string>
routeKillingHomeMidTrace(Router &router, ReplicaManager &manager,
                         int home, pid_t victim,
                         const std::vector<ServiceRequest> &trace)
{
    constexpr size_t kWarm = 6;
    std::vector<std::string> got = routeAll(
        router, {trace.begin(), trace.begin() + kWarm}, 8);
    EXPECT_EQ(::kill(victim, SIGSTOP), 0);

    bool forwarded = false;
    int kill_rc = -1;
    std::thread killer([&] {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(10);
        while (router.counters().perReplica[home] < trace.size() &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        forwarded = router.counters().perReplica[home] >= trace.size();
        kill_rc = ::kill(victim, SIGKILL);
    });
    const std::vector<std::string> rest = routeAll(
        router, {trace.begin() + kWarm, trace.end()}, 8, kWarm + 1);
    killer.join();
    EXPECT_TRUE(forwarded)
        << "the rest of the trace never reached the stopped victim";
    EXPECT_EQ(kill_rc, 0);
    got.insert(got.end(), rest.begin(), rest.end());

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (manager.restarts() < 1 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    return got;
}

// ---- policy units (no processes) ----------------------------------------

TEST(RouterPolicy, AffinityHashIsStableAndSpreads)
{
    const std::vector<ServiceRequest> trace = mixedClusterTrace();
    for (const ServiceRequest &req : trace) {
        const EngineKey key = engineKeyOf(req);
        // Pure function: identical on every call (and therefore
        // across replica restarts and router restarts).
        for (int n : {1, 2, 3, 4, 16}) {
            const int first = affinityIndexOf(key, n);
            EXPECT_EQ(first, affinityIndexOf(key, n));
            EXPECT_GE(first, 0);
            EXPECT_LT(first, n);
        }
    }
    // Distinct keys must not all collapse onto one slot of 4.
    std::vector<bool> used(4, false);
    for (const ServiceRequest &req : trace)
        used[affinityIndexOf(engineKeyOf(req), 4)] = true;
    int distinct = 0;
    for (bool u : used)
        distinct += u ? 1 : 0;
    EXPECT_GT(distinct, 1);
}

TEST(RouterPolicy, LeastOutstandingTieBreaksLowestIndex)
{
    // All idle: lowest index wins the tie.
    EXPECT_EQ(pickLeastOutstanding({0, 0, 0}, {true, true, true}), 0);
    // Strictly fewest outstanding wins.
    EXPECT_EQ(pickLeastOutstanding({2, 1, 5}, {true, true, true}), 1);
    // Ties inside a subset still break to the lowest index.
    EXPECT_EQ(pickLeastOutstanding({3, 1, 1}, {true, true, true}), 1);
    // Ineligible (down / full) slots are skipped even when idle.
    EXPECT_EQ(pickLeastOutstanding({0, 4, 2}, {false, true, true}),
              2);
    // Nothing eligible: no choice.
    EXPECT_EQ(pickLeastOutstanding({1, 1}, {false, false}), -1);
}

TEST(RouterPolicy, ParseAndName)
{
    RoutePolicy p;
    ASSERT_TRUE(parseRoutePolicy("round_robin", p));
    EXPECT_EQ(p, RoutePolicy::RoundRobin);
    ASSERT_TRUE(parseRoutePolicy("least_outstanding", p));
    EXPECT_EQ(p, RoutePolicy::LeastOutstanding);
    ASSERT_TRUE(parseRoutePolicy("affinity", p));
    EXPECT_EQ(p, RoutePolicy::Affinity);
    EXPECT_FALSE(parseRoutePolicy("random", p));
    EXPECT_STREQ(routePolicyName(RoutePolicy::Affinity), "affinity");
}

// ---- end-to-end determinism over real replicas --------------------------

TEST(ClusterDeterminism, ByteIdenticalAcrossReplicasPoliciesConcurrency)
{
    std::vector<ServiceRequest> trace = mixedClusterTrace();
    for (size_t i = 0; i < trace.size(); ++i)
        trace[i].id = i + 1;
    const std::vector<std::string> expect =
        standaloneResponses(trace);

    for (const int replicas : {1, 2, 4}) {
        ReplicaManager manager(quickClusterConfig(replicas));
        ASSERT_TRUE(manager.start())
            << "replicas failed to start; is " << serveBin()
            << " built?";
        for (const RoutePolicy policy :
             {RoutePolicy::RoundRobin, RoutePolicy::LeastOutstanding,
              RoutePolicy::Affinity}) {
            RouterConfig rcfg;
            rcfg.policy = policy;
            Router router(rcfg, manager);
            router.start();
            for (const size_t concurrency : {size_t{1}, size_t{8}}) {
                const std::vector<std::string> got =
                    routeAll(router, trace, concurrency);
                for (size_t i = 0; i < trace.size(); ++i)
                    EXPECT_EQ(got[i], expect[i])
                        << "replicas " << replicas << " policy "
                        << routePolicyName(policy) << " concurrency "
                        << concurrency << " trace " << i;
            }
            router.stop();
        }
        manager.stop();
    }
}

// ---- transport -----------------------------------------------------------

TEST(ClusterTransport, PipelinedLinesDoNotWaitForDelayedAck)
{
    ReplicaManager manager(quickClusterConfig(1));
    ASSERT_TRUE(manager.start());
    const int fd = connectLoopback(manager.endpoint(0).port, 5000);
    ASSERT_GE(fd, 0);
    int nodelay = 0;
    socklen_t len = sizeof(nodelay);
    ASSERT_EQ(
        ::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len), 0);
    EXPECT_NE(nodelay, 0);

    // Two pings in one write: the replica's connection thread answers
    // with two back-to-back writes, and with Nagle on the second waits
    // for this end's delayed ACK of the first (40 ms on Linux).
    std::vector<double> rounds_ms;
    for (int round = 0; round < 20; ++round) {
        const auto t0 = std::chrono::steady_clock::now();
        ASSERT_TRUE(writeAll(fd, "{\"id\":1,\"op\":\"ping\"}\n"
                                 "{\"id\":2,\"op\":\"ping\"}\n"));
        std::string line;
        ASSERT_TRUE(readLineTimeout(fd, 5000, line));
        EXPECT_EQ(line, "{\"id\":1,\"ok\":1,\"pong\":1}");
        ASSERT_TRUE(readLineTimeout(fd, 5000, line));
        EXPECT_EQ(line, "{\"id\":2,\"ok\":1,\"pong\":1}");
        rounds_ms.push_back(std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
    }
    ::close(fd);
    std::sort(rounds_ms.begin(), rounds_ms.end());
    EXPECT_LT(rounds_ms[rounds_ms.size() / 2], 10.0)
        << "median pipelined round";
    manager.stop();
}

TEST(ClusterResilience, CrashedReplicaRestartsNoLostNoDuplicated)
{
    constexpr int kReplicas = 3;
    constexpr size_t kRequests = 32;
    std::vector<ServiceRequest> trace = singleKeyTrace(kRequests);
    for (size_t i = 0; i < trace.size(); ++i)
        trace[i].id = i + 1;
    const std::vector<std::string> expect =
        standaloneResponses(trace);
    const int home =
        affinityIndexOf(engineKeyOf(trace.front()), kReplicas);

    ReplicaManager manager(quickClusterConfig(kReplicas));
    ASSERT_TRUE(manager.start());
    RouterConfig rcfg;
    rcfg.policy = RoutePolicy::Affinity;
    Router router(rcfg, manager);
    router.start();

    const pid_t victim = manager.pidOf(home);
    ASSERT_GT(victim, 0);

    // SIGKILL the affinity home slot with requests in flight on it:
    // they must be re-dispatched, not lost, and the slot must come
    // back (bounded backoff) to serve them.
    const std::vector<std::string> got =
        routeKillingHomeMidTrace(router, manager, home, victim, trace);

    for (size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(got[i], expect[i]) << "trace " << i;
    EXPECT_GE(manager.restarts(), 1u);

    // Affinity stability across the restart: every request was
    // forwarded to the home slot (retries wait for its restart
    // instead of straying), so the other slots saw nothing.
    const RouterCounters counters = router.counters();
    EXPECT_EQ(counters.failed, 0u);
    for (int i = 0; i < kReplicas; ++i) {
        if (i == home)
            EXPECT_EQ(counters.perReplica[i], counters.forwarded);
        else
            EXPECT_EQ(counters.perReplica[i], 0u) << "slot " << i;
    }
    // The home slot restarted under a new pid.
    EXPECT_NE(manager.pidOf(home), victim);
    EXPECT_TRUE(manager.endpoint(home).up);

    router.stop();
    manager.stop();
}

TEST(ClusterStats, AggregatesAcrossReplicas)
{
    std::vector<ServiceRequest> trace = mixedClusterTrace();
    ReplicaManager manager(quickClusterConfig(2));
    ASSERT_TRUE(manager.start());
    RouterConfig rcfg;
    rcfg.policy = RoutePolicy::RoundRobin;
    Router router(rcfg, manager);
    router.start();

    routeAll(router, trace, 4);
    const std::string line = router.statsLine(77);
    std::vector<std::pair<std::string, std::string>> kvs;
    std::string err;
    ASSERT_TRUE(parseJsonFlat(line, kvs, err)) << err << ": " << line;
    std::map<std::string, std::string> stats(kvs.begin(), kvs.end());
    EXPECT_EQ(stats["id"], "77");
    EXPECT_EQ(stats["ok"], "1");
    EXPECT_EQ(stats["replicas"], "2");
    // The strict counter equalities assume no replica restarted
    // mid-test; an overloaded host can in principle provoke one, and
    // then the restarted replica's counters reset (delivery is still
    // exactly-once — the determinism tests pin that).
    if (manager.restarts() == 0) {
        EXPECT_EQ(stats["replicas_up"], "2");
        EXPECT_EQ(stats["replicas_replied"], "2");
        // Every request was served exactly once across the cluster.
        EXPECT_EQ(stats["served"], std::to_string(trace.size()));
        EXPECT_EQ(stats["router_forwarded"],
                  std::to_string(trace.size()));
        // Round-robin over 2 replicas touches both.
        const RouterCounters counters = router.counters();
        EXPECT_GT(counters.perReplica[0], 0u);
        EXPECT_GT(counters.perReplica[1], 0u);
    }

    router.stop();
    manager.stop();
}

// ---- degradation: timeouts, retry budgets, shedding ----------------------

TEST(ClusterDegradation, BlackholedReplicaTimesOutAndRedispatches)
{
    // A SIGSTOPped replica keeps its connection open, so only the
    // per-attempt timeout can recover requests stuck on it. The
    // FaultInjector stalls slot 0 for 800 ms; every request must
    // still complete exactly once (routeAll asserts) with
    // byte-identical responses, and the timeout/redispatch counters
    // must show the recovery actually took that path.
    std::vector<ServiceRequest> trace = mixedClusterTrace();
    for (size_t i = 0; i < trace.size(); ++i)
        trace[i].id = i + 1;
    const std::vector<std::string> expect =
        standaloneResponses(trace);

    ReplicaManager manager(quickClusterConfig(2));
    ASSERT_TRUE(manager.start());
    RouterConfig rcfg;
    rcfg.policy = RoutePolicy::LeastOutstanding;
    rcfg.requestTimeoutMs = 300;
    rcfg.maxRedispatch = 50; // generous: the stall ends, shed never
    Router router(rcfg, manager);
    router.start();

    FaultPlan plan;
    FaultEvent ev;
    ev.kind = FaultKind::Blackhole;
    ev.atRequest = 0;
    ev.slot = 0;
    ev.durationMs = 800;
    plan.events.push_back(ev);
    FaultInjector injector(manager, plan, /*seed=*/7);
    injector.onRequestIssued(0);

    const std::vector<std::string> got = routeAll(router, trace, 4);
    for (size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(got[i], expect[i]) << "trace " << i;

    const RouterCounters counters = router.counters();
    EXPECT_GE(counters.timedOut, 1u);
    EXPECT_GE(counters.retried, 1u);
    EXPECT_EQ(counters.failed, 0u);
    EXPECT_EQ(counters.shed, 0u);
    EXPECT_EQ(injector.counters().blackholes, 1u);

    router.stop();
    manager.stop();
}

TEST(ClusterDegradation, RetryBudgetExhaustionShedsInsteadOfHanging)
{
    // One replica, stalled for far longer than the budget can cover:
    // the request must come back as an explicit `overloaded` protocol
    // error within a bounded time — never a hang, never silence.
    ReplicaManager manager(quickClusterConfig(1));
    ASSERT_TRUE(manager.start());
    RouterConfig rcfg;
    rcfg.policy = RoutePolicy::Affinity;
    rcfg.requestTimeoutMs = 150;
    rcfg.maxRedispatch = 1;
    Router router(rcfg, manager);
    router.start();

    const pid_t victim = manager.pidOf(0);
    ASSERT_GT(victim, 0);
    ASSERT_EQ(::kill(victim, SIGSTOP), 0);

    ServiceRequest req = singleKeyTrace(1).front();
    req.id = 1;
    std::promise<std::string> prom;
    std::future<std::string> fut = prom.get_future();
    router.submit(req, [&prom](const std::string &line) {
        prom.set_value(line);
    });
    // Budget 1 = two attempts of 150 ms plus backoff; 20 s is pure
    // headroom for a loaded host, not an expected wait.
    ASSERT_EQ(fut.wait_for(std::chrono::seconds(20)),
              std::future_status::ready)
        << "request hung after retry budget exhaustion";
    const std::string line = fut.get();
    EXPECT_TRUE(isOverloadedLine(line)) << line;
    EXPECT_NE(line.find("retry budget"), std::string::npos) << line;

    const RouterCounters counters = router.counters();
    EXPECT_GE(counters.shed, 1u);
    EXPECT_GE(counters.timedOut, 2u);

    ASSERT_EQ(::kill(victim, SIGCONT), 0);
    router.stop();
    manager.stop();
}

TEST(ClusterDegradation, RetryBackoffIsSeededJitteredAndBounded)
{
    // Deterministic: same (base, attempt, seed, seq) → same delay.
    for (int attempt = 1; attempt <= 10; ++attempt)
        EXPECT_EQ(retryBackoffMs(10, attempt, 42, 7),
                  retryBackoffMs(10, attempt, 42, 7));
    // Jittered: different sequence numbers de-synchronize retries.
    bool differs = false;
    for (uint64_t seq = 0; seq < 32 && !differs; ++seq)
        differs = retryBackoffMs(10, 1, 42, seq) !=
                  retryBackoffMs(10, 1, 42, seq + 1);
    EXPECT_TRUE(differs);
    // Bounded: never negative, never beyond cap + jitter, and the
    // exponential component grows with the attempt.
    for (int attempt = 1; attempt <= 20; ++attempt) {
        const int ms = retryBackoffMs(10, attempt, 1, attempt);
        EXPECT_GE(ms, 10 << std::min(attempt - 1, 6));
        EXPECT_LE(ms, 2000 + 10);
    }
}

// ---- autoscaling ---------------------------------------------------------

TEST(ClusterAutoscale, ScalesUpUnderPressureAndBackDownWhenIdle)
{
    ReplicaProcessConfig cfg = quickClusterConfig(1);
    cfg.autoscale.maxReplicas = 2;
    cfg.autoscale.upDepthPerReplica = 2;
    cfg.autoscale.downDepthPerReplica = 1;
    cfg.autoscale.holdMs = 50;
    cfg.autoscale.cooldownMs = 100;
    ReplicaManager manager(cfg);
    ASSERT_TRUE(manager.start());
    // The slot array is fixed at maxReplicas; only activation moves.
    EXPECT_EQ(manager.count(), 2);
    EXPECT_EQ(manager.activeCount(), 1);
    EXPECT_TRUE(manager.endpoint(1).retired);

    const auto waitActive = [&](int want) {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(10);
        while (manager.activeCount() != want &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        return manager.activeCount() == want;
    };

    manager.reportQueuePressure(16); // far above 2 * active
    EXPECT_TRUE(waitActive(2)) << "no scale-up under pressure";
    EXPECT_GE(manager.scaleUps(), 1u);
    EXPECT_FALSE(manager.endpoint(1).retired);

    manager.reportQueuePressure(0);
    EXPECT_TRUE(waitActive(1)) << "no scale-down when idle";
    EXPECT_GE(manager.scaleDowns(), 1u);
    EXPECT_TRUE(manager.endpoint(1).retired);
    // Never below the configured floor.
    EXPECT_FALSE(manager.endpoint(0).retired);

    manager.stop();
}

// ---- abandonment reporting -----------------------------------------------

TEST(ClusterStats, ReportsAbandonedSlots)
{
    ReplicaProcessConfig cfg = quickClusterConfig(2);
    cfg.maxRestarts = 0; // first crash abandons the slot
    cfg.backoffInitialMs = 10;
    ReplicaManager manager(cfg);
    ASSERT_TRUE(manager.start());
    RouterConfig rcfg;
    rcfg.policy = RoutePolicy::RoundRobin;
    Router router(rcfg, manager);
    router.start();

    const pid_t victim = manager.pidOf(1);
    ASSERT_GT(victim, 0);
    ASSERT_EQ(::kill(victim, SIGKILL), 0);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(10);
    while (manager.abandonedCount() != 1 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_EQ(manager.abandonedCount(), 1);
    EXPECT_EQ(manager.activeCount(), 1);

    const std::string line = router.statsLine(9);
    std::vector<std::pair<std::string, std::string>> kvs;
    std::string err;
    ASSERT_TRUE(parseJsonFlat(line, kvs, err)) << err << ": " << line;
    std::map<std::string, std::string> stats(kvs.begin(), kvs.end());
    EXPECT_EQ(stats["replicas_abandoned"], "1");
    EXPECT_EQ(stats["replicas_active"], "1");

    // The surviving replica still serves.
    std::vector<ServiceRequest> trace = singleKeyTrace(4);
    for (size_t i = 0; i < trace.size(); ++i)
        trace[i].id = i + 1;
    const std::vector<std::string> expect =
        standaloneResponses(trace);
    const std::vector<std::string> got = routeAll(router, trace, 2);
    for (size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(got[i], expect[i]) << "trace " << i;

    router.stop();
    manager.stop();
}

// ---- trace propagation across redispatch ---------------------------------

/** Slurp a whole file; empty string when absent. */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    if (!in.good())
        return "";
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Trace-id hex of every `"name":"<name>"` event in a flushed trace
 *  file (the event's args follow its name field). */
std::vector<std::string>
traceIdsOfSpans(const std::string &text, const std::string &name)
{
    std::vector<std::string> ids;
    const std::string name_needle = "\"name\":\"" + name + "\"";
    const std::string trace_needle = "\"trace\":\"";
    for (size_t pos = text.find(name_needle);
         pos != std::string::npos;
         pos = text.find(name_needle, pos + name_needle.size())) {
        const size_t t = text.find(trace_needle, pos);
        if (t == std::string::npos)
            break;
        const size_t begin = t + trace_needle.size();
        ids.push_back(
            text.substr(begin, text.find('"', begin) - begin));
    }
    return ids;
}

// Declared last in this file: the process-global tracer is sticky
// (enable has no inverse), and every earlier test must run untraced.
TEST(ClusterTracing, TraceSurvivesSigkillRedispatchExactlyOnce)
{
    constexpr int kReplicas = 3;
    constexpr size_t kRequests = 32;
    std::vector<ServiceRequest> trace = singleKeyTrace(kRequests);
    std::set<std::string> minted;
    for (size_t i = 0; i < trace.size(); ++i) {
        trace[i].id = i + 1;
        trace[i].traceId = obs::mintTraceId(i + 1);
        minted.insert(obs::traceIdHex(trace[i].traceId));
    }
    // Trace context must be invisible in response bytes: the oracle
    // of the stamped trace is the oracle of the unstamped one.
    const std::vector<std::string> expect =
        standaloneResponses(trace);

    const std::string base = "test_cluster_trace.json";
    for (const std::string &path :
         {base + ".replica0.json", base + ".replica1.json",
          base + ".replica2.json", base + ".local.json"})
        std::remove(path.c_str());

    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.enable(base + ".local.json", "test_cluster");
    ASSERT_TRUE(tracer.enabled());
    const uint64_t spans_before = tracer.spanCount();

    ReplicaProcessConfig cfg = quickClusterConfig(kReplicas);
    cfg.traceOutBase = base; // replicas flush base.replica<i>.json
    ReplicaManager manager(cfg);
    ASSERT_TRUE(manager.start());
    RouterConfig rcfg;
    rcfg.policy = RoutePolicy::Affinity;
    Router router(rcfg, manager);
    router.start();

    const int home =
        affinityIndexOf(engineKeyOf(trace.front()), kReplicas);
    const pid_t victim = manager.pidOf(home);
    ASSERT_GT(victim, 0);

    const std::vector<std::string> got =
        routeKillingHomeMidTrace(router, manager, home, victim, trace);
    for (size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(got[i], expect[i]) << "trace " << i;
    EXPECT_GE(manager.restarts(), 1u);

    // The "route" span wraps the responder, so redispatch after the
    // SIGKILL must not duplicate it: exactly one span per request.
    EXPECT_EQ(tracer.spanCount() - spans_before, kRequests);

    router.stop();
    manager.stop(); // surviving replicas flush their trace files

    // Replica-side spans: every exec span carries one of the minted
    // trace ids (the context crossed the wire, including on the
    // re-dispatched requests), and no trace id executed twice among
    // the flushed files. The SIGKILLed process never flushed, so its
    // spans vanish rather than duplicate — the ids may be a subset.
    std::vector<std::string> exec_ids;
    for (int i = 0; i < kReplicas; ++i) {
        const std::string text =
            slurp(base + ".replica" + std::to_string(i) + ".json");
        const std::vector<std::string> ids =
            traceIdsOfSpans(text, "exec");
        exec_ids.insert(exec_ids.end(), ids.begin(), ids.end());
    }
    EXPECT_FALSE(exec_ids.empty());
    std::set<std::string> distinct;
    for (const std::string &id : exec_ids) {
        EXPECT_EQ(minted.count(id), 1u) << "foreign trace id " << id;
        EXPECT_TRUE(distinct.insert(id).second)
            << "trace id " << id << " executed twice after flush";
    }

    ASSERT_TRUE(tracer.flush());
    const std::vector<std::string> route_ids =
        traceIdsOfSpans(slurp(base + ".local.json"), "route");
    EXPECT_EQ(route_ids.size(), kRequests);
    for (const std::string &id : route_ids)
        EXPECT_EQ(minted.count(id), 1u) << "foreign trace id " << id;

    for (const std::string &path :
         {base + ".replica0.json", base + ".replica1.json",
          base + ".replica2.json", base + ".local.json"})
        std::remove(path.c_str());
}

} // namespace
} // namespace ta
