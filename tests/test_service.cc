/**
 * @file
 * The service front-end's contracts: protocol parse/serialize strictness,
 * RequestQueue admission control and same-engine coalescing, and the
 * cross-request determinism contract — responses from a ServiceScheduler
 * are byte-identical to standalone serial runs of the same requests for
 * every {threads, window, sessions, submission concurrency} combination
 * tested, including under plan-cache eviction churn (which the TSan CI
 * job additionally checks for races).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <future>
#include <map>
#include <mutex>
#include <thread>

#include "obs/metrics.h"
#include "service/protocol.h"
#include "service/request_queue.h"
#include "service/scheduler.h"

namespace ta {
namespace {

// ---- protocol -----------------------------------------------------------

TEST(ServiceProtocol, RequestRoundTrip)
{
    ServiceRequest req;
    req.id = 42;
    req.shape = {512, 256, 128};
    req.wbits = 8;
    req.useStatic = true;
    req.seed = 7;
    req.samples = 32;

    ServiceRequest parsed;
    std::string err;
    ASSERT_TRUE(parseRequestLine(serializeRequest(req), parsed, err))
        << err;
    EXPECT_EQ(parsed.id, req.id);
    EXPECT_EQ(parsed.shape.n, req.shape.n);
    EXPECT_EQ(parsed.shape.k, req.shape.k);
    EXPECT_EQ(parsed.shape.m, req.shape.m);
    EXPECT_EQ(parsed.wbits, req.wbits);
    EXPECT_EQ(parsed.useStatic, req.useStatic);
    EXPECT_EQ(parsed.seed, req.seed);
    EXPECT_EQ(parsed.samples, req.samples);
    EXPECT_EQ(engineKeyOf(parsed), engineKeyOf(req));
}

TEST(ServiceProtocol, DefaultsMatchTaSim)
{
    ServiceRequest req;
    std::string err;
    ASSERT_TRUE(parseRequestLine("{}", req, err)) << err;
    EXPECT_EQ(req.shape.n, 4096u);
    EXPECT_EQ(req.shape.k, 4096u);
    EXPECT_EQ(req.shape.m, 2048u);
    EXPECT_EQ(req.wbits, 4);
    EXPECT_EQ(req.abits, 8);
    EXPECT_EQ(req.tbits, 8);
    EXPECT_EQ(req.maxdist, 4);
    EXPECT_EQ(req.units, 6u);
    EXPECT_EQ(req.samples, 96u);
    EXPECT_EQ(req.seed, 1u);
    EXPECT_FALSE(req.useStatic);
}

TEST(ServiceProtocol, RejectsGarbage)
{
    ServiceRequest req;
    std::string err;
    EXPECT_FALSE(parseRequestLine("not json", req, err));
    EXPECT_FALSE(parseRequestLine("{\"wbits\":0}", req, err));
    EXPECT_FALSE(parseRequestLine("{\"wbits\":1}", req, err));
    EXPECT_FALSE(parseRequestLine("{\"wbits\":-1}", req, err));
    EXPECT_FALSE(parseRequestLine("{\"wbits\":\"four\"}", req, err));
    EXPECT_FALSE(parseRequestLine("{\"threads\":2}", req, err));
    EXPECT_FALSE(parseRequestLine("{\"n\":{}}", req, err));
    EXPECT_FALSE(parseRequestLine("{\"n\":1,\"n\":2}", req, err));
    EXPECT_FALSE(parseRequestLine("{\"op\":\"fly\"}", req, err));
    EXPECT_FALSE(parseRequestLine("{} trailing", req, err));
    // A failed request with a readable id still echoes it.
    EXPECT_FALSE(
        parseRequestLine("{\"id\":9,\"wbits\":99}", req, err));
    EXPECT_EQ(req.id, 9u);
}

TEST(ServiceProtocol, ResponseSerializationIsCanonical)
{
    LayerRun run;
    run.cycles = 100;
    run.computeCycles = 90;
    run.dramCycles = 100;
    run.dramBytes = 4096;
    run.subTiles = 7;
    ServiceRequest req;
    req.id = 3;
    const std::string line = serializeResponse(req, run);
    EXPECT_EQ(line.find("{\"id\":3,\"ok\":1,\"cycles\":100,"), 0u);
    // exec (host-volatile) must never leak into the response.
    EXPECT_EQ(line.find("exec"), std::string::npos);
    // Identical runs serialize identically (the byte contract).
    EXPECT_EQ(line, serializeResponse(req, run));
}

// ---- request queue ------------------------------------------------------

ServiceJob
jobWithKey(int abits, ServiceResponder respond = nullptr)
{
    ServiceJob job;
    job.request.abits = abits;
    job.key = engineKeyOf(job.request);
    job.respond = std::move(respond);
    job.enqueued = std::chrono::steady_clock::now();
    return job;
}

TEST(RequestQueueTest, AdmissionControlRejectsWhenFull)
{
    RequestQueue q(2);
    EXPECT_TRUE(q.submit(jobWithKey(8)));
    EXPECT_TRUE(q.submit(jobWithKey(8)));
    EXPECT_FALSE(q.submit(jobWithKey(8))); // full
    EXPECT_EQ(q.counters().admitted, 2u);
    EXPECT_EQ(q.counters().rejected, 1u);

    std::vector<ServiceJob> batch;
    EXPECT_TRUE(q.popBatch(8, batch));
    EXPECT_EQ(batch.size(), 2u);
    EXPECT_TRUE(q.submit(jobWithKey(8))); // capacity freed
}

TEST(RequestQueueTest, CoalescesSameEngineOnlyAndPreservesOrder)
{
    RequestQueue q(16);
    // a a b a b, window 8: first batch = the three a's, then the b's.
    ASSERT_TRUE(q.submit(jobWithKey(8)));
    ASSERT_TRUE(q.submit(jobWithKey(8)));
    ASSERT_TRUE(q.submit(jobWithKey(4)));
    ASSERT_TRUE(q.submit(jobWithKey(8)));
    ASSERT_TRUE(q.submit(jobWithKey(4)));

    std::vector<ServiceJob> batch;
    ASSERT_TRUE(q.popBatch(8, batch));
    ASSERT_EQ(batch.size(), 3u);
    for (const ServiceJob &j : batch)
        EXPECT_EQ(j.request.abits, 8);
    ASSERT_TRUE(q.popBatch(8, batch));
    ASSERT_EQ(batch.size(), 2u);
    for (const ServiceJob &j : batch)
        EXPECT_EQ(j.request.abits, 4);
}

TEST(RequestQueueTest, WindowBoundsTheBatch)
{
    RequestQueue q(16);
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(q.submit(jobWithKey(8)));
    std::vector<ServiceJob> batch;
    ASSERT_TRUE(q.popBatch(2, batch));
    EXPECT_EQ(batch.size(), 2u);
    ASSERT_TRUE(q.popBatch(2, batch));
    EXPECT_EQ(batch.size(), 2u);
    ASSERT_TRUE(q.popBatch(2, batch));
    EXPECT_EQ(batch.size(), 1u);
}

ServiceJob
jobWithPriority(int priority, int abits = 8)
{
    ServiceJob job = jobWithKey(abits);
    job.request.priority = priority;
    job.request.seed = static_cast<uint64_t>(priority) * 100 +
                       static_cast<uint64_t>(abits);
    return job;
}

TEST(RequestQueueTest, PriorityOrdersPopsFifoWithinClass)
{
    RequestQueue q(16);
    // Mixed classes, distinct engines so coalescing can't reorder:
    // submit (p, abits): (1,8) (0,7) (2,6) (1,5) (2,4) (0,3).
    ASSERT_TRUE(q.submit(jobWithPriority(1, 8)));
    ASSERT_TRUE(q.submit(jobWithPriority(0, 7)));
    ASSERT_TRUE(q.submit(jobWithPriority(2, 6)));
    ASSERT_TRUE(q.submit(jobWithPriority(1, 5)));
    ASSERT_TRUE(q.submit(jobWithPriority(2, 4)));
    ASSERT_TRUE(q.submit(jobWithPriority(0, 3)));

    // Pop order: class 2 FIFO (6, 4), class 1 FIFO (8, 5), class 0
    // FIFO (7, 3).
    const int expect_abits[] = {6, 4, 8, 5, 7, 3};
    std::vector<ServiceJob> batch;
    for (int expected : expect_abits) {
        ASSERT_TRUE(q.popBatch(1, batch));
        ASSERT_EQ(batch.size(), 1u);
        EXPECT_EQ(batch.front().request.abits, expected);
    }
    EXPECT_EQ(q.depth(), 0u);
}

TEST(RequestQueueTest, CoalescingSpansClassesHighestFirst)
{
    RequestQueue q(16);
    // Same engine key across all three classes plus one foreign key.
    ASSERT_TRUE(q.submit(jobWithPriority(0, 8)));
    ASSERT_TRUE(q.submit(jobWithPriority(1, 4))); // foreign engine
    ASSERT_TRUE(q.submit(jobWithPriority(1, 8)));
    ASSERT_TRUE(q.submit(jobWithPriority(2, 8)));

    std::vector<ServiceJob> batch;
    ASSERT_TRUE(q.popBatch(8, batch));
    // Lead job is the most urgent (p2), and the window coalesces the
    // same-engine p1 and p0 jobs, leaving the foreign engine behind.
    ASSERT_EQ(batch.size(), 3u);
    EXPECT_EQ(batch[0].request.priority, 2);
    EXPECT_EQ(batch[1].request.priority, 1);
    EXPECT_EQ(batch[2].request.priority, 0);
    for (const ServiceJob &j : batch)
        EXPECT_EQ(j.request.abits, 8);

    ASSERT_TRUE(q.popBatch(8, batch));
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch.front().request.abits, 4);
}

TEST(ServiceProtocol, PriorityParsedValidatedAndDefaulted)
{
    ServiceRequest req;
    std::string err;
    ASSERT_TRUE(parseRequestLine("{}", req, err)) << err;
    EXPECT_EQ(req.priority, 1); // default: normal
    ASSERT_TRUE(parseRequestLine("{\"priority\":2}", req, err)) << err;
    EXPECT_EQ(req.priority, 2);
    EXPECT_FALSE(parseRequestLine("{\"priority\":3}", req, err));
    EXPECT_FALSE(parseRequestLine("{\"priority\":-1}", req, err));
    // Round-trips through the canonical request line.
    ServiceRequest out;
    req.priority = 0;
    ASSERT_TRUE(parseRequestLine(serializeRequest(req), out, err))
        << err;
    EXPECT_EQ(out.priority, 0);
}

TEST(RequestQueueTest, CloseDrainsThenUnblocks)
{
    RequestQueue q(4);
    ASSERT_TRUE(q.submit(jobWithKey(8)));
    q.close();
    EXPECT_FALSE(q.submit(jobWithKey(8))); // closed
    std::vector<ServiceJob> batch;
    EXPECT_TRUE(q.popBatch(8, batch)); // drains the admitted job
    EXPECT_FALSE(q.popBatch(8, batch)); // then reports closed
}

// ---- cross-request determinism ------------------------------------------

/** The trace the determinism tests replay: mixed shapes, precisions,
 *  engines (static + dynamic) and repeated requests. */
std::vector<ServiceRequest>
mixedTrace()
{
    std::vector<ServiceRequest> trace;
    ServiceRequest r;
    r.samples = 16;
    for (int rep = 0; rep < 2; ++rep) {
        r.shape = {256, 256, 128};
        r.wbits = 4;
        r.seed = 9;
        r.useStatic = false;
        trace.push_back(r);
        r.shape = {128, 512, 64};
        r.wbits = 8;
        r.seed = 10;
        trace.push_back(r);
        r.shape = {96, 128, 196};
        r.wbits = 6;
        r.seed = 11;
        trace.push_back(r);
        r.shape = {192, 256, 0}; // degenerate layer must survive
        r.wbits = 4;
        r.seed = 12;
        trace.push_back(r);
        r.shape = {128, 128, 64};
        r.wbits = 4;
        r.seed = 13;
        r.useStatic = true; // second engine key
        trace.push_back(r);
    }
    return trace;
}

/** Standalone serial oracle (fresh single-threaded engines). */
std::vector<std::string>
standaloneResponses(const std::vector<ServiceRequest> &trace)
{
    std::map<EngineKey, std::unique_ptr<TransArrayAccelerator>> engines;
    std::vector<std::string> out;
    for (const ServiceRequest &req : trace) {
        const EngineKey key = engineKeyOf(req);
        auto it = engines.find(key);
        if (it == engines.end())
            it = engines
                     .emplace(
                         key,
                         std::make_unique<TransArrayAccelerator>(
                             engineConfig(key, 1)))
                     .first;
        out.push_back(serializeResponse(
            req, it->second->runShape(req.shape, req.wbits, req.seed)));
    }
    return out;
}

/** Replay `trace` through a scheduler from `concurrency` submitter
 *  threads; returns the response line per trace index. */
std::vector<std::string>
schedulerResponses(ServiceConfig cfg,
                   const std::vector<ServiceRequest> &trace,
                   size_t concurrency)
{
    ServiceScheduler sched(cfg);
    sched.start();
    std::vector<std::string> responses(trace.size());
    std::vector<std::promise<void>> done(trace.size());
    std::atomic<size_t> next{0};
    std::vector<std::thread> submitters;
    for (size_t c = 0; c < concurrency; ++c) {
        submitters.emplace_back([&] {
            while (true) {
                const size_t i = next.fetch_add(1);
                if (i >= trace.size())
                    return;
                ServiceRequest req = trace[i];
                req.id = i + 1;
                sched.submit(req, [&, i](const std::string &line) {
                    responses[i] = line;
                    done[i].set_value();
                });
            }
        });
    }
    for (std::thread &t : submitters)
        t.join();
    for (std::promise<void> &p : done)
        p.get_future().wait();
    sched.stop();
    return responses;
}

TEST(ServiceDeterminism, ByteIdenticalAcrossConcurrencyAndBatching)
{
    // Stamp the ids the scheduler will see, then compute the
    // standalone serial oracle once for all configurations.
    std::vector<ServiceRequest> stamped = mixedTrace();
    for (size_t i = 0; i < stamped.size(); ++i)
        stamped[i].id = i + 1;
    const std::vector<std::string> expect =
        standaloneResponses(stamped);

    // Batching off/on x threads x sessions x submit concurrency:
    // every response must equal the standalone serial line.
    struct Case
    {
        int threads;
        size_t window;
        int sessions;
        size_t concurrency;
    };
    const Case cases[] = {
        {1, 1, 1, 1}, // batching off, serial submit
        {1, 4, 1, 8}, // batching on, concurrent submit
        {2, 4, 2, 8}, // parallel engines + two sessions
        {2, 1, 2, 8}, // unbatched, same-key requests on two sessions
        {2, 16, 2, 1}, // window larger than trace
    };
    for (const Case &c : cases) {
        ServiceConfig cfg;
        cfg.threads = c.threads;
        cfg.window = c.window;
        cfg.sessions = c.sessions;
        const std::vector<std::string> got =
            schedulerResponses(cfg, stamped, c.concurrency);
        for (size_t i = 0; i < stamped.size(); ++i)
            EXPECT_EQ(got[i], expect[i])
                << "threads " << c.threads << " window " << c.window
                << " sessions " << c.sessions << " concurrency "
                << c.concurrency << " trace " << i;
    }
}

TEST(ServiceDeterminism, EvictionChurnKeepsResponsesIdentical)
{
    // A plan cache far smaller than the working set forces constant
    // concurrent insert/eviction from both sessions; responses must
    // not change (plans are pure), and the TSan CI job checks the
    // cache's internals stay race-free under this churn.
    const std::vector<ServiceRequest> trace = mixedTrace();
    std::vector<ServiceRequest> stamped = trace;
    for (size_t i = 0; i < stamped.size(); ++i)
        stamped[i].id = i + 1;
    const std::vector<std::string> expect =
        standaloneResponses(stamped);

    ServiceConfig cfg;
    cfg.threads = 2;
    cfg.window = 4;
    cfg.sessions = 2;
    cfg.planCacheCapacity = 8; // way below the working set
    const std::vector<std::string> got =
        schedulerResponses(cfg, stamped, 8);
    for (size_t i = 0; i < stamped.size(); ++i)
        EXPECT_EQ(got[i], expect[i]) << "trace " << i;

    ServiceConfig cfg_off = cfg;
    cfg_off.planCacheCapacity = 0; // cache disabled entirely
    const std::vector<std::string> got_off =
        schedulerResponses(cfg_off, stamped, 8);
    for (size_t i = 0; i < stamped.size(); ++i)
        EXPECT_EQ(got_off[i], expect[i]) << "trace " << i;
}

TEST(ServiceScheduler_, ThreadsPerKeyCapCountsEverySession)
{
    // Each session has its own engine per key, so the cap bounds the
    // product; 0 threads resolves through TA_THREADS like the executor.
    EXPECT_TRUE(threadsPerKeyFit(64, 4));
    EXPECT_TRUE(threadsPerKeyFit(1, kMaxThreadsPerKey));
    EXPECT_FALSE(threadsPerKeyFit(64, 8));
    EXPECT_FALSE(threadsPerKeyFit(2, kMaxThreadsPerKey));
    EXPECT_EQ(threadsPerKeyFit(kMaxThreadsPerKey, 0),
              ParallelExecutor::defaultThreads() == 1);
}

TEST(ServiceScheduler_, RejectsWhenQueueFullAndReportsStats)
{
    // sessions block on a queue that admits 2: flood it and expect
    // some rejections, all well-formed error lines, and stats that
    // add up.
    ServiceConfig cfg;
    cfg.window = 1;
    cfg.sessions = 1;
    cfg.queueCapacity = 2;
    ServiceScheduler sched(cfg);
    sched.start();

    constexpr size_t kFlood = 64;
    std::mutex mu;
    std::condition_variable cv;
    size_t responded = 0;
    size_t rejected = 0;
    for (size_t i = 0; i < kFlood; ++i) {
        ServiceRequest req;
        req.id = i + 1;
        req.shape = {128, 128, 64};
        req.samples = 8;
        sched.submit(req, [&](const std::string &line) {
            std::lock_guard<std::mutex> lock(mu);
            ++responded;
            if (line.find("\"ok\":0") != std::string::npos) {
                ++rejected;
                EXPECT_NE(line.find("overloaded"), std::string::npos);
            }
            cv.notify_one();
        });
    }
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return responded == kFlood; });
    }
    sched.stop();
    const ServiceStats s = sched.stats();
    EXPECT_EQ(s.admitted + s.rejected, kFlood);
    EXPECT_EQ(s.served, s.admitted);
    EXPECT_EQ(s.rejected, rejected);
    EXPECT_GT(s.latencySamples, 0u);
}

// ---- deadlines: protocol ------------------------------------------------

TEST(ServiceProtocol, DeadlineParsedValidatedAndRoundTrips)
{
    ServiceRequest req;
    std::string err;
    ASSERT_TRUE(parseRequestLine("{}", req, err)) << err;
    EXPECT_EQ(req.deadlineMs, 0u); // default: no deadline

    ASSERT_TRUE(parseRequestLine("{\"deadline_ms\":250}", req, err))
        << err;
    EXPECT_EQ(req.deadlineMs, 250u);

    // Canonical serialization round-trips the field, and omits it
    // entirely for deadline-free requests (historical bytes).
    ServiceRequest out;
    ASSERT_TRUE(parseRequestLine(serializeRequest(req), out, err))
        << err;
    EXPECT_EQ(out.deadlineMs, 250u);
    req.deadlineMs = 0;
    EXPECT_EQ(serializeRequest(req).find("deadline_ms"),
              std::string::npos);
}

TEST(ServiceProtocol, MalformedDeadlineRejectedStrictly)
{
    ServiceRequest req;
    std::string err;
    // Every malformed variant is a hard parse error, never a silent
    // default: zero, negative, fractional, non-numeric, trailing
    // garbage, beyond the bound, and u64 overflow.
    EXPECT_FALSE(parseRequestLine("{\"deadline_ms\":0}", req, err));
    EXPECT_FALSE(parseRequestLine("{\"deadline_ms\":-5}", req, err));
    EXPECT_FALSE(parseRequestLine("{\"deadline_ms\":1.5}", req, err));
    EXPECT_FALSE(
        parseRequestLine("{\"deadline_ms\":\"abc\"}", req, err));
    EXPECT_FALSE(parseRequestLine("{\"deadline_ms\":1x}", req, err));
    EXPECT_FALSE(parseRequestLine("{\"deadline_ms\":+7}", req, err));
    const std::string over =
        "{\"deadline_ms\":" + std::to_string(kMaxDeadlineMs + 1) + "}";
    EXPECT_FALSE(parseRequestLine(over, req, err));
    EXPECT_FALSE(parseRequestLine(
        "{\"deadline_ms\":18446744073709551616}", req, err));
    // The bound itself is valid.
    const std::string max =
        "{\"deadline_ms\":" + std::to_string(kMaxDeadlineMs) + "}";
    EXPECT_TRUE(parseRequestLine(max, req, err)) << err;
    EXPECT_EQ(req.deadlineMs, kMaxDeadlineMs);
}

// ---- deadlines: queue ordering ------------------------------------------

ServiceJob
jobWithDeadline(double deadline_abs_ms, double predicted_ms,
                uint64_t tag, int priority = 1, int abits = 8)
{
    ServiceJob job = jobWithKey(abits);
    job.request.priority = priority;
    job.request.seed = tag;
    job.deadlineAbsMs = deadline_abs_ms;
    job.predictedMs = predicted_ms;
    return job;
}

TEST(RequestQueueTest, EdfOrdersWithinClassFifoForNoDeadline)
{
    RequestQueue q(16);
    const double now = 1000.0;
    ASSERT_TRUE(q.submit(jobWithDeadline(now + 4000, 1, 1)));
    ASSERT_TRUE(q.submit(jobWithDeadline(kNoDeadlineMs, 0, 2)));
    ASSERT_TRUE(q.submit(jobWithDeadline(now + 200, 1, 3)));
    ASSERT_TRUE(q.submit(jobWithDeadline(kNoDeadlineMs, 0, 4)));
    ASSERT_TRUE(q.submit(jobWithDeadline(now + 2000, 1, 5)));

    // EDF first (200, 2000, 4000), then the deadline-free jobs in
    // arrival order — the historical FIFO behavior is the deadline-
    // free special case, not a separate mode.
    const uint64_t expect[] = {3, 5, 1, 2, 4};
    std::vector<ServiceJob> batch;
    for (uint64_t tag : expect) {
        ASSERT_TRUE(q.popBatch(1, batch, now));
        ASSERT_EQ(batch.size(), 1u);
        EXPECT_EQ(batch.front().request.seed, tag);
    }
}

TEST(RequestQueueTest, ImminentLowerClassDeadlineIsNotStarved)
{
    // A high-priority stream must not park a lower class past its
    // own deadline: once slack <= kUrgencyFactor x predicted cost,
    // the lower-class job is promoted and leads the window.
    RequestQueue q(16);
    const double now = 1000.0;
    // Distinct engine keys so coalescing can't mask the ordering.
    ASSERT_TRUE(q.submit(jobWithDeadline(kNoDeadlineMs, 0, 1,
                                         /*priority=*/2,
                                         /*abits=*/8)));
    ASSERT_TRUE(q.submit(jobWithDeadline(now + 10, 8, 2,
                                         /*priority=*/0,
                                         /*abits=*/4)));

    std::vector<ServiceJob> batch;
    ASSERT_TRUE(q.popBatch(8, batch, now));
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch.front().request.seed, 2u) << "imminent class-0 "
                                                 "job must lead";
    ASSERT_TRUE(q.popBatch(8, batch, now));
    EXPECT_EQ(batch.front().request.seed, 1u);

    // Control: with ample slack the class order stands.
    ASSERT_TRUE(q.submit(jobWithDeadline(kNoDeadlineMs, 0, 3,
                                         /*priority=*/2,
                                         /*abits=*/8)));
    ASSERT_TRUE(q.submit(jobWithDeadline(now + 10000, 8, 4,
                                         /*priority=*/0,
                                         /*abits=*/4)));
    ASSERT_TRUE(q.popBatch(8, batch, now));
    EXPECT_EQ(batch.front().request.seed, 3u);
    ASSERT_TRUE(q.popBatch(8, batch, now));
    EXPECT_EQ(batch.front().request.seed, 4u);
}

TEST(RequestQueueTest, CoalescedWindowInheritsEarliestDeadline)
{
    // Merging a deadline-free or late-deadline request into an urgent
    // window must not launder the urgency away: the popped window
    // reports the earliest member deadline.
    RequestQueue q(16);
    const double now = 0.0;
    ASSERT_TRUE(q.submit(jobWithDeadline(500, 0, 1)));
    ASSERT_TRUE(q.submit(jobWithDeadline(100, 0, 2)));
    ASSERT_TRUE(q.submit(jobWithDeadline(300, 0, 3)));
    ASSERT_TRUE(q.submit(jobWithDeadline(kNoDeadlineMs, 0, 4)));

    std::vector<ServiceJob> batch;
    RequestQueue::PoppedWindow window;
    ASSERT_TRUE(q.popBatch(8, batch, now, &window));
    ASSERT_EQ(batch.size(), 4u);
    // Lead is EDF (100), then candidates in deadline order.
    EXPECT_EQ(batch[0].request.seed, 2u);
    EXPECT_EQ(batch[1].request.seed, 3u);
    EXPECT_EQ(batch[2].request.seed, 1u);
    EXPECT_EQ(batch[3].request.seed, 4u);
    EXPECT_EQ(window.deadlineAbsMs, 100.0);
}

TEST(RequestQueueTest, CostBoundedPackingRespectsMemberSlack)
{
    // The window executes as one dispatch barrier: a candidate may
    // join only while the cumulative predicted cost fits inside every
    // packed member's slack and its own. now = 0, so deadlineAbsMs is
    // the slack directly.
    RequestQueue q(16);
    ASSERT_TRUE(q.submit(jobWithDeadline(40, 10, 1)));
    ASSERT_TRUE(q.submit(jobWithDeadline(44, 10, 2)));
    ASSERT_TRUE(q.submit(jobWithDeadline(200, 50, 3)));
    ASSERT_TRUE(q.submit(jobWithDeadline(kNoDeadlineMs, 15, 4)));
    ASSERT_TRUE(q.submit(jobWithDeadline(42, 10, 5)));

    std::vector<ServiceJob> batch;
    RequestQueue::PoppedWindow window;
    // Lead = tag 1 (EDF, cum 10, window slack 40). Tag 2 packs
    // (cum 20 <= 40 and <= its own 44), tag 5 would push cum to 30 —
    // fine — but then tag 3 (cum 80) and finally... walk it: EDF
    // candidate order is 5 (42), 2 (44), 3 (200), 4 (inf).
    //   tag 5: cum 20 <= 40, <= 42 -> packed, min_slack 40
    //   tag 2: cum 30 <= 40, <= 44 -> packed
    //   tag 3: cum 80 > 40 -> left for a later window
    //   tag 4: cum 45 > 40 -> left (no deadline, but it would still
    //          push the packed members past theirs)
    ASSERT_TRUE(q.popBatch(8, batch, 0.0, &window));
    ASSERT_EQ(batch.size(), 3u);
    EXPECT_EQ(batch[0].request.seed, 1u);
    EXPECT_EQ(batch[1].request.seed, 5u);
    EXPECT_EQ(batch[2].request.seed, 2u);
    EXPECT_DOUBLE_EQ(window.predictedMs, 30.0);

    // Next window: tag 3 leads (EDF among the leftovers); tag 4's 15
    // ms would fit 200's slack (65 <= 150)... and does.
    ASSERT_TRUE(q.popBatch(8, batch, 0.0, &window));
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0].request.seed, 3u);
    EXPECT_EQ(batch[1].request.seed, 4u);

    // Zero predictions reproduce the historical greedy coalescing:
    // everything packs regardless of deadlines.
    ASSERT_TRUE(q.submit(jobWithDeadline(5, 0, 6)));
    ASSERT_TRUE(q.submit(jobWithDeadline(kNoDeadlineMs, 0, 7)));
    ASSERT_TRUE(q.submit(jobWithDeadline(1, 0, 8)));
    ASSERT_TRUE(q.popBatch(8, batch, 0.0, &window));
    EXPECT_EQ(batch.size(), 3u);
}

// ---- deadlines: scheduler shed + accounting -----------------------------

TEST(ServiceScheduler_, ShedsUnmeetableDeadlinesExplicitly)
{
    ServiceConfig cfg;
    cfg.window = 4;
    cfg.sessions = 1;
    ASSERT_TRUE(cfg.plannedScheduling); // the default
    ServiceScheduler sched(cfg);
    sched.start();

    std::mutex mu;
    std::condition_variable cv;
    size_t responded = 0;
    std::map<uint64_t, std::string> lines;
    auto respond = [&](uint64_t id) {
        return [&, id](const std::string &line) {
            std::lock_guard<std::mutex> lock(mu);
            lines[id] = line;
            ++responded;
            cv.notify_one();
        };
    };

    // Three meetable requests (generous deadline) and one provably
    // unmeetable one: a full-size layer against a 1 ms deadline. The
    // built-in cost model predicts tens of milliseconds for it, so
    // the planner must shed it at admission — explicitly, with
    // deadline_unmeetable, never by silent drop.
    ServiceRequest small;
    small.shape = {128, 128, 64};
    small.samples = 8;
    small.deadlineMs = 60000;
    for (uint64_t id = 1; id <= 3; ++id) {
        small.id = id;
        sched.submit(small, respond(id));
    }
    ServiceRequest doomed;
    doomed.id = 4;
    doomed.shape = {4096, 4096, 2048};
    doomed.samples = 96;
    doomed.deadlineMs = 1;
    const double predicted = sched.planner().predictMs(doomed);
    EXPECT_GT(predicted, 1.0) << "fixture must be unmeetable";
    sched.submit(doomed, respond(4));

    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return responded == 4; });
    }
    sched.stop();

    EXPECT_TRUE(isDeadlineUnmeetableLine(lines[4])) << lines[4];
    EXPECT_NE(lines[4].find("\"id\":4"), std::string::npos);
    for (uint64_t id = 1; id <= 3; ++id)
        EXPECT_NE(lines[id].find("\"ok\":1"), std::string::npos)
            << lines[id];

    // The ledger balances: every submitted request is admitted,
    // rejected, or explicitly shed — and sheds are counted.
    const ServiceStats s = sched.stats();
    EXPECT_EQ(s.shedUnmeetable, 1u);
    EXPECT_EQ(s.admitted + s.rejected + s.shedUnmeetable, 4u);
    EXPECT_EQ(s.served, 3u);
    EXPECT_EQ(s.deadlineMet, 3u);
    EXPECT_EQ(s.deadlineMisses, 0u);
    EXPECT_EQ(s.scheduler, "planned");
}

TEST(ServiceScheduler_, FifoModeNeverShedsOnDeadline)
{
    ServiceConfig cfg;
    cfg.window = 4;
    cfg.sessions = 1;
    cfg.plannedScheduling = false;
    ServiceScheduler sched(cfg);
    sched.start();

    // The same doomed request FIFO mode must execute (late), not
    // shed: deadlines are observed for miss accounting only.
    ServiceRequest doomed;
    doomed.id = 1;
    doomed.shape = {256, 256, 128};
    doomed.samples = 8;
    doomed.deadlineMs = 1;
    std::promise<std::string> done;
    sched.submit(doomed, [&](const std::string &line) {
        done.set_value(line);
    });
    const std::string line = done.get_future().get();
    sched.stop();

    EXPECT_NE(line.find("\"ok\":1"), std::string::npos) << line;
    const ServiceStats s = sched.stats();
    EXPECT_EQ(s.shedUnmeetable, 0u);
    EXPECT_EQ(s.served, 1u);
    EXPECT_EQ(s.deadlineMet + s.deadlineMisses, 1u);
    EXPECT_EQ(s.scheduler, "fifo");
}

// ---- deadlines: determinism across policies -----------------------------

TEST(ServiceDeterminism, DeadlinesKeepBytesIdenticalUnderBothPolicies)
{
    // Deadline-bearing requests must produce byte-identical responses
    // under planned and fifo scheduling, at every tested {threads,
    // window, sessions, concurrency}: scheduling (and shedding
    // decisions, which this trace never triggers) may change dispatch
    // order only, never a response byte.
    std::vector<ServiceRequest> stamped = mixedTrace();
    for (size_t i = 0; i < stamped.size(); ++i) {
        stamped[i].id = i + 1;
        stamped[i].deadlineMs = 60000; // generous: never shed
    }
    const std::vector<std::string> expect =
        standaloneResponses(stamped);

    struct Case
    {
        bool planned;
        int threads;
        size_t window;
        int sessions;
        size_t concurrency;
    };
    const Case cases[] = {
        {true, 1, 4, 1, 8},
        {true, 2, 4, 2, 8},
        {false, 1, 4, 1, 8},
        {false, 2, 4, 2, 8},
    };
    for (const Case &c : cases) {
        ServiceConfig cfg;
        cfg.plannedScheduling = c.planned;
        cfg.threads = c.threads;
        cfg.window = c.window;
        cfg.sessions = c.sessions;
        const std::vector<std::string> got =
            schedulerResponses(cfg, stamped, c.concurrency);
        for (size_t i = 0; i < stamped.size(); ++i)
            EXPECT_EQ(got[i], expect[i])
                << (c.planned ? "planned" : "fifo") << " threads "
                << c.threads << " sessions " << c.sessions
                << " trace " << i;
    }
}

// ---- shared plan cache --------------------------------------------------

TEST(SharedPlanCache, AcceleratorUsesExternalCache)
{
    PlanCache shared(4096);
    TransArrayAccelerator::Config cfg;
    cfg.sampleLimit = 16;
    cfg.sharedPlanCache = &shared;
    const TransArrayAccelerator a(cfg), b(cfg);

    const GemmShape shape{256, 256, 128};
    const LayerRun first = a.runShape(shape, 4, 5);
    EXPECT_GT(shared.size(), 0u);
    const uint64_t misses_after_first = shared.counters().misses;

    // The second engine sees the first engine's plans: same results,
    // no new misses for an identical layer.
    const LayerRun second = b.runShape(shape, 4, 5);
    EXPECT_EQ(first.cycles, second.cycles);
    EXPECT_EQ(shared.counters().misses, misses_after_first);
    EXPECT_GT(shared.counters().hits, 0u);
}

// ---- trace context ------------------------------------------------------

TEST(ServiceProtocol, TraceFieldParsedValidatedAndRoundTrips)
{
    ServiceRequest req;
    std::string err;
    ASSERT_TRUE(parseRequestLine("{}", req, err)) << err;
    EXPECT_EQ(req.traceId, 0u); // default: untraced

    ASSERT_TRUE(parseRequestLine("{\"trace\":\"ab12\"}", req, err))
        << err;
    EXPECT_EQ(req.traceId, 0xab12u);

    // serializeRequest round-trips the field (the router forwards the
    // trace context to replicas) and omits it entirely for untraced
    // requests, so pre-tracing fixtures stay valid byte for byte.
    ServiceRequest out;
    ASSERT_TRUE(parseRequestLine(serializeRequest(req), out, err))
        << err;
    EXPECT_EQ(out.traceId, 0xab12u);
    req.traceId = 0;
    EXPECT_EQ(serializeRequest(req).find("trace"), std::string::npos);
}

TEST(ServiceProtocol, MalformedTraceRejectedStrictly)
{
    ServiceRequest req;
    std::string err;
    // Strict wire format: 1..16 lowercase hex digits, nonzero. Every
    // malformed variant is a hard parse error, never a silent default.
    EXPECT_FALSE(parseRequestLine("{\"trace\":\"\"}", req, err));
    EXPECT_FALSE(parseRequestLine("{\"trace\":\"0\"}", req, err));
    EXPECT_FALSE(parseRequestLine("{\"trace\":\"0000\"}", req, err));
    EXPECT_FALSE(parseRequestLine("{\"trace\":\"ABC\"}", req, err));
    EXPECT_FALSE(parseRequestLine("{\"trace\":\"0xab\"}", req, err));
    EXPECT_FALSE(parseRequestLine("{\"trace\":\"12g4\"}", req, err));
    EXPECT_FALSE(parseRequestLine(
        "{\"trace\":\"11112222333344445\"}", req, err)); // 17 digits
    // The widest valid id round-trips.
    ASSERT_TRUE(parseRequestLine(
        "{\"trace\":\"ffffffffffffffff\"}", req, err))
        << err;
    EXPECT_EQ(req.traceId, ~0ull);
}

TEST(ServiceProtocol, TraceIdNeverEchoedInResponses)
{
    LayerRun run;
    run.cycles = 100;
    run.computeCycles = 90;
    run.dramCycles = 100;
    run.dramBytes = 4096;
    run.subTiles = 7;
    ServiceRequest req;
    req.id = 9;

    ServiceRequest traced = req;
    traced.traceId = 0xdeadbeefull;
    const std::string plain = serializeResponse(req, run);
    const std::string with_trace = serializeResponse(traced, run);
    EXPECT_EQ(plain, with_trace)
        << "the trace field must be invisible in response bytes";
    EXPECT_EQ(with_trace.find("trace"), std::string::npos);
}

TEST(ServiceDeterminism, TracedRequestsKeepBytesIdentical)
{
    // Responses are byte-identical whether requests carry trace
    // context or not — tracing observes, never perturbs.
    std::vector<ServiceRequest> stamped = mixedTrace();
    for (size_t i = 0; i < stamped.size(); ++i)
        stamped[i].id = i + 1;
    const std::vector<std::string> expect =
        standaloneResponses(stamped);

    std::vector<ServiceRequest> traced = stamped;
    for (size_t i = 0; i < traced.size(); i += 2)
        traced[i].traceId = 0x1000 + i;
    ServiceConfig cfg;
    cfg.window = 4;
    cfg.sessions = 2;
    const std::vector<std::string> got =
        schedulerResponses(cfg, traced, 4);
    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], expect[i]) << "trace " << i;
}

TEST(ServiceScheduler_, StatsExposeGaugesAndLatencyHistogram)
{
    ServiceConfig cfg;
    cfg.window = 2;
    ServiceScheduler sched(cfg);
    sched.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

    std::vector<ServiceRequest> trace = mixedTrace();
    std::vector<std::promise<void>> done(trace.size());
    for (size_t i = 0; i < trace.size(); ++i) {
        trace[i].id = i + 1;
        sched.submit(trace[i], [&done, i](const std::string &) {
            done[i].set_value();
        });
    }
    for (std::promise<void> &p : done)
        p.get_future().wait();
    // Responders fire before the window's closing bookkeeping (gauge
    // decrement, latency observe); give the worker a moment to settle.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(10);
    const auto settled = [&] {
        const ServiceStats s = sched.stats();
        return s.inflightWindows == 0 && s.served == trace.size() &&
               !s.latencyHist.empty() &&
               s.latencyHist.back().second == trace.size();
    };
    while (!settled() && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));

    const ServiceStats s = sched.stats();
    EXPECT_EQ(s.served, trace.size());
    EXPECT_EQ(s.inflightWindows, 0u) << "drained scheduler";
    EXPECT_GE(s.uptimeMs, 1u);
    // Fixed-edge latency buckets: kNumEdges finite edges + _le_inf,
    // cumulative (monotone), with the overflow total == observations.
    ASSERT_EQ(s.latencyHist.size(),
              static_cast<size_t>(obs::Histogram::kNumEdges + 1));
    EXPECT_EQ(s.latencyHist.front().first, "service_ms_le_1");
    EXPECT_EQ(s.latencyHist.back().first, "service_ms_le_inf");
    EXPECT_EQ(s.latencyHist.back().second, trace.size());
    for (size_t i = 1; i < s.latencyHist.size(); ++i)
        EXPECT_GE(s.latencyHist[i].second,
                  s.latencyHist[i - 1].second)
            << s.latencyHist[i].first;

    sched.stop();
}

} // namespace
} // namespace ta
