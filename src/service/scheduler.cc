#include "service/scheduler.h"

#include <algorithm>
#include <cstdio>
#include <exception>

#include "common/logging.h"
#include "obs/trace.h"

namespace ta {

namespace {

constexpr size_t kLatencyRingCapacity = 1 << 16;

/** The plan-relevant scoreboard fields (PlanCacheStore's section key). */
std::tuple<int, int, int, bool>
scoreboardKeyOf(const ScoreboardConfig &c)
{
    return {c.tBits, c.maxDistance, c.numLanes, c.balanceLanes};
}

} // namespace

bool
threadsPerKeyFit(long long sessions, long long threads)
{
    const long long width =
        threads > 0 ? threads : ParallelExecutor::defaultThreads();
    if (sessions * width <= kMaxThreadsPerKey)
        return true;
    std::fprintf(stderr,
                 "--sessions %lld x executor width %lld = %lld threads "
                 "per engine key, above the cap of %lld\n",
                 sessions, width, sessions * width, kMaxThreadsPerKey);
    return false;
}

std::string
WindowPlanner::admissionShed(const ServiceRequest &req) const
{
    if (req.deadlineMs == 0)
        return "";
    const double predicted = model_.predictMs(req);
    if (predicted <= static_cast<double>(req.deadlineMs))
        return "";
    return "deadline_unmeetable: predicted " + formatDouble(predicted) +
           " ms exceeds deadline " + std::to_string(req.deadlineMs) +
           " ms";
}

void
WindowPlanner::annotate(ServiceJob &job, double now_ms) const
{
    job.predictedMs = model_.predictMs(job.request);
    if (job.request.deadlineMs > 0)
        job.deadlineAbsMs =
            now_ms + static_cast<double>(job.request.deadlineMs);
}

ServiceScheduler::ServiceScheduler(ServiceConfig config)
    : config_(config),
      queue_(config.queueCapacity),
      served_(metrics_.counter("served")),
      errors_(metrics_.counter("errors")),
      windows_(metrics_.counter("windows")),
      batchedRequests_(metrics_.counter("batched_requests")),
      shedUnmeetable_(metrics_.counter("shed_unmeetable")),
      deadlineMet_(metrics_.counter("deadline_met")),
      deadlineMisses_(metrics_.counter("deadline_misses")),
      maxWindow_(metrics_.gauge("max_window")),
      inflightWindows_(metrics_.gauge("inflight_windows")),
      serviceHist_(metrics_.histogram("service_ms"))
{
    config_.window = std::max<size_t>(1, config_.window);
    config_.sessions = std::max(1, config_.sessions);
    latencyRing_.reserve(kLatencyRingCapacity);
}

ServiceScheduler::~ServiceScheduler()
{
    stop();
}

void
ServiceScheduler::start()
{
    if (started_)
        return;
    started_ = true;
    startedAt_ = std::chrono::steady_clock::now();
    if (!config_.costModelPath.empty()) {
        std::string err;
        if (planner_.loadCoefficients(config_.costModelPath, &err)) {
            logf(LogLevel::Info, "service",
                 "cost model loaded from %s",
                 config_.costModelPath.c_str());
        } else {
            // Strict wholesale rejection: the planner keeps its
            // built-in coefficients. ta_serve pre-validates the file
            // and exits instead of reaching this path.
            logf(LogLevel::Warn, "service",
                 "cost model rejected (%s); using built-in "
                 "coefficients",
                 err.c_str());
        }
    }
    if (!config_.catalogDir.empty()) {
        // Open-and-go cold start: mmap + validate every segment of the
        // catalog; no weight is synthesized or copied. ta_serve
        // pre-validates the directory and exits on failure, so this
        // path only logs.
        BufferManager::Config bc;
        bc.bufferPages = config_.bufferPages;
        auto buffers = std::make_unique<BufferManager>(bc);
        std::string err;
        if (buffers->openCatalog(config_.catalogDir, &err)) {
            buffers_ = std::move(buffers);
            logf(LogLevel::Info, "service",
                 "catalog %s: %zu model(s) in %zu segment(s), "
                 "%zu bytes mapped, %zu buffer pages",
                 config_.catalogDir.c_str(), buffers_->modelCount(),
                 buffers_->segmentCount(), buffers_->bytesMapped(),
                 config_.bufferPages);
        } else {
            logf(LogLevel::Warn, "service",
                 "catalog rejected (%s); serving synthesis only",
                 err.c_str());
        }
    }
    if (!config_.planCachePath.empty()) {
        std::lock_guard<std::mutex> lock(storeMu_);
        // Log to stderr: in stdio mode stdout carries protocol lines.
        if (store_.loadFile(config_.planCachePath)) {
            plansLoaded_ = store_.planCount();
            logf(LogLevel::Info, "service",
                 "warm plan cache, %zu plans (%zu configs) from %s",
                 store_.planCount(), store_.sectionCount(),
                 config_.planCachePath.c_str());
        } else {
            logf(LogLevel::Info, "service",
                 "cold plan cache (%s absent or unreadable)",
                 config_.planCachePath.c_str());
        }
    }
    for (int s = 0; s < config_.sessions; ++s)
        sessions_.emplace_back([this] { sessionLoop(); });
    if (!config_.planCachePath.empty() &&
        config_.cacheSaveIntervalSec > 0)
        persister_ = std::thread([this] { persistLoop(); });
}

void
ServiceScheduler::stop()
{
    if (!started_ || stopped_)
        return;
    stopped_ = true;
    queue_.close();
    for (std::thread &t : sessions_)
        t.join();
    sessions_.clear();
    if (persister_.joinable()) {
        {
            std::lock_guard<std::mutex> lock(persistMu_);
            persistStop_ = true;
        }
        persistCv_.notify_all();
        persister_.join();
    }
    if (!config_.planCachePath.empty()) {
        if (persistSnapshot()) {
            std::lock_guard<std::mutex> lock(storeMu_);
            logf(LogLevel::Info, "service",
                 "saved %zu plans (%zu configs) to %s",
                 store_.planCount(), store_.sectionCount(),
                 config_.planCachePath.c_str());
        } else {
            logf(LogLevel::Warn, "service", "failed to write %s",
                 config_.planCachePath.c_str());
        }
    }
}

bool
ServiceScheduler::persistSnapshot()
{
    // Capture under engineMu_ (the cache set is append-only), then
    // save under storeMu_. The store keeps warm-start sections for
    // configs this process never touched, so a save never shrinks the
    // file's coverage.
    std::lock_guard<std::mutex> store_lock(storeMu_);
    {
        std::lock_guard<std::mutex> lock(engineMu_);
        for (const auto &kv : caches_)
            store_.capture(kv.second.config, *kv.second.cache);
    }
    return store_.saveFile(config_.planCachePath);
}

void
ServiceScheduler::persistLoop()
{
    const auto interval =
        std::chrono::seconds(config_.cacheSaveIntervalSec);
    std::unique_lock<std::mutex> lock(persistMu_);
    while (!persistCv_.wait_for(lock, interval,
                                [&] { return persistStop_; })) {
        lock.unlock();
        // Periodic saves are silent (stop() logs the final one); a
        // transient write failure just retries next interval.
        persistSnapshot();
        lock.lock();
    }
}

void
ServiceScheduler::submit(const ServiceRequest &req,
                         ServiceResponder respond)
{
    if (config_.plannedScheduling) {
        // Deterministic SLO admission control: a request whose
        // predicted service cost alone exceeds its own deadline is
        // shed before burning cycles — explicitly, never silently.
        const std::string shed = planner_.admissionShed(req);
        if (!shed.empty()) {
            shedUnmeetable_.add(1);
            respond(serializeError(req.id, shed));
            return;
        }
    }
    ServiceJob job;
    job.request = req;
    job.key = engineKeyOf(req);
    job.respond = std::move(respond);
    job.enqueued = std::chrono::steady_clock::now();
    if (config_.plannedScheduling)
        planner_.annotate(job, steadyNowMs());
    ServiceResponder reject_path = job.respond; // queue may move job
    if (!queue_.submit(std::move(job)))
        reject_path(serializeError(req.id, "overloaded: queue full"));
}

TransArrayAccelerator &
ServiceScheduler::engineFor(const EngineKey &key, SessionEngines &engines)
{
    std::unique_ptr<TransArrayAccelerator> &engine = engines[key];
    if (engine != nullptr)
        return *engine;
    TransArrayAccelerator::Config cfg =
        engineConfig(key, config_.threads);
    const ScoreboardConfig sc = cfg.unit.scoreboardConfig();

    // The engine's plans live in the process-wide cache for its
    // scoreboard config, made the first time any session needs it.
    // Only that insertion holds engineMu_: the warm-start copy runs
    // outside, so other sessions and stats ops do not wait on it.
    PlanCache *shared = nullptr;
    bool fresh_cache = false;
    {
        std::lock_guard<std::mutex> lock(engineMu_);
        SharedCache &entry = caches_[scoreboardKeyOf(sc)];
        if (entry.cache == nullptr) {
            entry.config = sc;
            entry.cache =
                std::make_unique<PlanCache>(config_.planCacheCapacity);
            fresh_cache = true;
        }
        shared = entry.cache.get(); // unique_ptr: stable across rehash
    }
    if (fresh_cache) {
        // Under storeMu_: the periodic persister captures into store_
        // while sessions run. PlanCache::insert is thread-safe and
        // idempotent, so engines racing ahead of a still-running
        // restore only see a partially warm cache — a hit-rate
        // detail, never a correctness one.
        std::lock_guard<std::mutex> store_lock(storeMu_);
        store_.restore(sc, *shared);
    }
    cfg.sharedPlanCache = shared;
    engine = std::make_unique<TransArrayAccelerator>(cfg);
    return *engine;
}

void
ServiceScheduler::sessionLoop()
{
    SessionEngines engines;
    std::vector<ServiceJob> batch;
    while (queue_.popBatch(config_.window, batch))
        runBatch(batch, engines);
}

bool
ServiceScheduler::resolveModel(const ServiceRequest &req,
                               BufferManager::Pin &pin,
                               std::string &err)
{
    if (buffers_ == nullptr) {
        err = "storage: no catalog loaded (model '" + req.model + "')";
        return false;
    }
    // The engine's synthesis key under the runShape repr cap: a
    // catalog entry matches exactly when it holds the plane
    // realLikeSlicedWeights(nr, kr, wbits, seed) — anything else must
    // be an explicit error, never a silently different tensor.
    const uint64_t nr =
        std::min<uint64_t>(req.shape.n, kDefaultReprRows);
    const uint64_t kr =
        std::min<uint64_t>(req.shape.k, kDefaultReprCols);
    const CatalogEntry *entry =
        buffers_->findEntry(req.model, req.seed, req.wbits, nr, kr);
    if (entry == nullptr) {
        err = "storage: model '" + req.model +
              "' has no plane for seed=" + std::to_string(req.seed) +
              " wbits=" + std::to_string(req.wbits) + " repr=" +
              std::to_string(nr) + "x" + std::to_string(kr);
        return false;
    }
    std::string pin_err;
    pin = buffers_->pin(*entry, &pin_err);
    if (!pin.ok()) {
        err = "storage: " + pin_err;
        return false;
    }
    return true;
}

void
ServiceScheduler::runBatch(std::vector<ServiceJob> &batch,
                           SessionEngines &engines)
{
    inflightWindows_.add(1);
    // Phase spans (pin/exec/serialize): the window's phases are shared
    // work, so every traced request of the window gets a span with the
    // same bounds — each trace id then tells its complete story in
    // ta_trace's breakdown. One clock read per phase edge, none when
    // tracing is off.
    obs::Tracer &tracer = obs::Tracer::instance();
    const bool traced = tracer.enabled();
    const auto phaseSpans = [&](const char *name, uint64_t t0,
                                uint64_t t1) {
        for (const ServiceJob &job : batch) {
            if (job.request.traceId == 0)
                continue;
            obs::Span span;
            span.traceId = job.request.traceId;
            span.spanId = tracer.mintSpanId();
            span.name = name;
            span.argKey = "window";
            span.argVal = batch.size();
            span.t0Ns = t0;
            span.t1Ns = t1;
            tracer.record(span);
        }
    };

    std::vector<std::string> responses(batch.size());
    // Resolve catalog models first: a request whose model is unknown
    // or whose segment pages fail their checksum gets a clean
    // "storage:" error, and the rest of the window still runs. Pins
    // are held until every dispatch of the window has completed.
    std::vector<BufferManager::Pin> pins(batch.size());
    std::vector<size_t> live;
    live.reserve(batch.size());
    uint64_t storage_errors = 0;
    const uint64_t pin_t0 = traced ? obs::Tracer::nowNs() : 0;
    for (size_t i = 0; i < batch.size(); ++i) {
        const ServiceRequest &r = batch[i].request;
        if (!r.model.empty()) {
            std::string err;
            if (!resolveModel(r, pins[i], err)) {
                responses[i] = serializeError(r.id, err);
                ++storage_errors;
                continue;
            }
        }
        live.push_back(i);
    }
    if (traced)
        phaseSpans("pin", pin_t0, obs::Tracer::nowNs());
    if (storage_errors != 0)
        errors_.add(storage_errors);
    const uint64_t exec_t0 = traced ? obs::Tracer::nowNs() : 0;
    try {
        if (live.size() == 1) {
            const size_t i = live.front();
            const ServiceRequest &r = batch[i].request;
            TransArrayAccelerator &acc = engineFor(batch[i].key, engines);
            responses[i] = serializeResponse(
                r, pins[i].ok()
                       ? acc.runShapeView(r.shape, r.wbits,
                                          pins[i].view())
                       : acc.runShape(r.shape, r.wbits, r.seed));
        } else if (!live.empty()) {
            TransArrayAccelerator &acc =
                engineFor(batch[live.front()].key, engines);
            std::vector<BatchLayerRequest> layers(live.size());
            for (size_t j = 0; j < live.size(); ++j) {
                const size_t i = live[j];
                const ServiceRequest &r = batch[i].request;
                layers[j] = BatchLayerRequest{r.shape, r.wbits, r.seed};
                if (pins[i].ok())
                    layers[j].view = &pins[i].view();
            }
            const std::vector<LayerRun> runs =
                acc.runLayersBatched(layers);
            for (size_t j = 0; j < live.size(); ++j)
                responses[live[j]] = serializeResponse(
                    batch[live[j]].request, runs[j]);
        }
    } catch (const std::exception &e) {
        uint64_t engine_errors = 0;
        for (size_t i : live) {
            responses[i] = serializeError(batch[i].request.id,
                                          std::string("engine: ") +
                                              e.what());
            ++engine_errors;
        }
        errors_.add(engine_errors);
    }
    if (traced)
        phaseSpans("exec", exec_t0, obs::Tracer::nowNs());

    // Count the batch before delivering it: a client that received
    // its response and immediately asks for stats must see itself
    // served (the cluster stats aggregation relies on this).
    served_.add(batch.size());
    windows_.add(1);
    if (batch.size() > 1)
        batchedRequests_.add(batch.size());
    maxWindow_.max(batch.size());

    const uint64_t ser_t0 = traced ? obs::Tracer::nowNs() : 0;
    const auto done = std::chrono::steady_clock::now();
    uint64_t met = 0, missed = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
        batch[i].respond(responses[i]);
        const double ms = std::chrono::duration<double, std::milli>(
                              done - batch[i].enqueued)
                              .count();
        recordLatency(ms);
        // Deadline outcome accounting (both policies): measured from
        // admission, the same latency the client experiences minus
        // transport.
        if (batch[i].request.deadlineMs > 0) {
            if (ms <= static_cast<double>(batch[i].request.deadlineMs))
                ++met;
            else
                ++missed;
        }
    }
    if (traced)
        phaseSpans("serialize", ser_t0, obs::Tracer::nowNs());
    if (met != 0)
        deadlineMet_.add(met);
    if (missed != 0)
        deadlineMisses_.add(missed);
    inflightWindows_.add(-1);
}

void
ServiceScheduler::recordLatency(double ms)
{
    serviceHist_.observe(ms);
    std::lock_guard<std::mutex> lock(statsMu_);
    if (latencyRing_.size() < kLatencyRingCapacity)
        latencyRing_.push_back(ms);
    else
        latencyRing_[latencyCount_ % kLatencyRingCapacity] = ms;
    ++latencyCount_;
}

ServiceStats
ServiceScheduler::stats() const
{
    ServiceStats s;
    const RequestQueue::Counters qc = queue_.counters();
    s.admitted = qc.admitted;
    s.rejected = qc.rejected;
    s.peakQueueDepth = qc.peakDepth;
    s.queueDepth = queue_.depth();
    s.plansLoaded = plansLoaded_;
    {
        std::lock_guard<std::mutex> lock(engineMu_);
        for (const auto &kv : caches_) {
            const PlanCache::Counters c = kv.second.cache->counters();
            s.cacheHits += c.hits;
            s.cacheMisses += c.misses;
            s.cacheEvictions += c.evictions;
        }
    }
    {
        std::lock_guard<std::mutex> lock(statsMu_);
        s.latencySamples = latencyCount_;
        s.serviceMs = percentileSummary(latencyRing_);
    }
    s.served = served_.value();
    s.errors = errors_.value();
    s.windows = windows_.value();
    s.batchedRequests = batchedRequests_.value();
    s.maxWindow = maxWindow_.value();
    s.shedUnmeetable = shedUnmeetable_.value();
    s.deadlineMet = deadlineMet_.value();
    s.deadlineMisses = deadlineMisses_.value();
    s.inflightWindows = inflightWindows_.value();
    if (started_) {
        s.uptimeMs = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - startedAt_)
                .count());
    }
    s.latencyHist.reserve(obs::Histogram::kNumEdges + 1);
    for (int i = 0; i < obs::Histogram::kNumEdges; ++i)
        s.latencyHist.emplace_back(
            "service_ms_le_" +
                std::to_string(obs::Histogram::edgeMs(i)),
            serviceHist_.cumulative(i));
    s.latencyHist.emplace_back("service_ms_le_inf",
                               serviceHist_.count());
    s.scheduler = config_.plannedScheduling ? "planned" : "fifo";
    if (buffers_ != nullptr) {
        const BufferManager::Counters bc = buffers_->counters();
        s.bufferHits = bc.hits;
        s.bufferMisses = bc.misses;
        s.bufferEvictions = bc.evictions;
        s.catalogModels = buffers_->modelCount();
        s.storageBytesMapped = buffers_->bytesMapped();
    }
    return s;
}

} // namespace ta
