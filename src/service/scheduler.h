/**
 * @file
 * ServiceScheduler: the long-lived serving core behind `ta_serve`.
 * Admitted requests flow through the bounded RequestQueue; worker
 * sessions pop batches of same-engine requests and dispatch them as
 * one `TransArrayAccelerator::runLayersBatched` window (cross-request
 * batching), so concurrent requests share one pool pass exactly like
 * the layers of a suite do. Each session builds its own engine per
 * EngineKey, so same-key windows run on several sessions at once. All
 * engines share one process-wide `PlanCache` per scoreboard config,
 * warm-started from and persisted to a `PlanCacheStore` file (atomic
 * save): requests of this and earlier server lifetimes feed one cache.
 *
 * Determinism contract (docs/SERVICE.md): the response for a request
 * is byte-identical to a standalone serial run of the same request,
 * regardless of the batch window it was coalesced into, the executor
 * width, the number of sessions, or the cache state — because
 * runLayersBatched is bit-identical to runShape per layer and the
 * response serializer renders only simulation-deterministic fields.
 *
 * Thread safety: submit()/stats() may be called from any thread (the
 * server calls them from per-connection reader threads). Responders
 * are invoked from worker sessions, or inline from submit() on
 * rejection.
 */

#ifndef TA_SERVICE_SCHEDULER_H
#define TA_SERVICE_SCHEDULER_H

#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common/stats.h"
#include "harness/plan_cache_store.h"
#include "obs/metrics.h"
#include "service/cost_model.h"
#include "service/request_queue.h"
#include "storage/buffer_manager.h"

namespace ta {

/** Serving configuration of one ta_serve process. */
struct ServiceConfig
{
    /** Executor width per engine; 0 = TA_THREADS env, else 1. */
    int threads = 0;
    /** Max requests coalesced per dispatch window; 1 = batching off. */
    size_t window = 8;
    /** Worker sessions draining the queue; each has its own engine
     *  per key, so one key can use sessions × threads threads. */
    int sessions = 2;
    /** Admission-control bound on queued requests. */
    size_t queueCapacity = 256;
    /** Capacity of each shared per-scoreboard-config plan cache. */
    size_t planCacheCapacity = 1 << 16;
    /** Warm-start/persist file ("" disables persistence). */
    std::string planCachePath;
    /**
     * Also persist the plan cache every N seconds while serving
     * (0 = only at shutdown). Cluster replicas run with this on so a
     * crash-restarted replica warm-starts from a recent snapshot
     * instead of an empty cache. Saves are atomic (temp + rename).
     */
    int cacheSaveIntervalSec = 0;
    /**
     * Cost-planned scheduling (the default): requests are annotated
     * with cost-model predictions, the queue orders EDF within
     * priority, window packing is cost-bounded, and requests whose
     * predicted cost exceeds their own deadline_ms are shed at
     * admission with `deadline_unmeetable`. false = the historical
     * FIFO-within-priority greedy coalescing (`--scheduler fifo`);
     * deadlines are then observed for miss accounting only.
     */
    bool plannedScheduling = true;
    /** Calibrated cost-model coefficients file ("" = built-in). */
    std::string costModelPath;
    /**
     * Directory of ta_pack segment files ("" = no catalog; requests
     * naming a model are rejected with a "storage:" error). With a
     * catalog, a request's named model serves its weight plane
     * zero-copy out of the mmapped segment instead of synthesizing —
     * responses stay byte-identical either way.
     */
    std::string catalogDir;
    /** BufferManager residency bound (verified pages kept mapped). */
    size_t bufferPages = 4096;
};

/**
 * The most executor threads one EngineKey may use in one server: each
 * session builds its own engine per key, so a key can use sessions ×
 * threads. ta_serve and ta_router refuse configurations above it.
 */
constexpr long long kMaxThreadsPerKey = 256;

/**
 * True when `sessions` engines of `threads` executor threads each
 * (0 = ParallelExecutor::defaultThreads()) fit kMaxThreadsPerKey;
 * otherwise prints why to stderr and returns false.
 */
bool threadsPerKeyFit(long long sessions, long long threads);

/**
 * The planning layer of the scheduler: owns the calibrated CostModel
 * and turns it into per-job annotations (predicted cost, absolute
 * deadline) and the admission-time unmeetable-deadline shed decision.
 * Predictions are pure functions of (request, coefficients), so for a
 * fixed trace, thread count and coefficients file the planned
 * schedule — including which requests are shed — is byte-identical
 * across runs (the determinism contract, docs/SERVICE.md).
 */
class WindowPlanner
{
  public:
    WindowPlanner() : model_(CostModel::builtin()) {}

    /** Strict wholesale load of a coefficients file; on failure the
     *  model keeps its previous (built-in) state. */
    bool loadCoefficients(const std::string &path, std::string *err)
    {
        return model_.loadFile(path, err);
    }

    const CostModel &model() const { return model_; }

    double predictMs(const ServiceRequest &req) const
    {
        return model_.predictMs(req);
    }

    /**
     * Non-empty when the request provably cannot meet its own
     * deadline_ms (predicted service cost alone exceeds it, before
     * any queueing): the `deadline_unmeetable` error message to shed
     * with. Deliberately ignores queue depth and wall-clock so the
     * decision is deterministic.
     */
    std::string admissionShed(const ServiceRequest &req) const;

    /** Fill the job's planning fields (prediction + absolute
     *  deadline) from `now_ms` on the steadyNowMs() clock. */
    void annotate(ServiceJob &job, double now_ms) const;

  private:
    CostModel model_;
};

/** Aggregate serving statistics (host-volatile, for the stats op). */
struct ServiceStats
{
    uint64_t admitted = 0;
    uint64_t rejected = 0;
    uint64_t served = 0;
    uint64_t errors = 0;
    uint64_t windows = 0;          ///< dispatch windows executed
    uint64_t batchedRequests = 0;  ///< requests in windows of size > 1
    uint64_t maxWindow = 0;        ///< largest window observed
    uint64_t queueDepth = 0;
    uint64_t peakQueueDepth = 0;
    uint64_t plansLoaded = 0;      ///< warm-start size (0 = cold)
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    uint64_t cacheEvictions = 0;
    uint64_t latencySamples = 0;
    /** Admission-time `deadline_unmeetable` sheds (planned mode). */
    uint64_t shedUnmeetable = 0;
    /** Storage tier (zero without --catalog): page pins served from
     *  verified residency vs. evicted-and-rehashed, and the catalog's
     *  footprint. */
    uint64_t bufferHits = 0;
    uint64_t bufferMisses = 0;
    uint64_t bufferEvictions = 0;
    uint64_t catalogModels = 0;
    uint64_t storageBytesMapped = 0;
    /** Served requests that carried a deadline, split by outcome. */
    uint64_t deadlineMet = 0;
    uint64_t deadlineMisses = 0;
    /** Dispatch windows currently executing across sessions (gauge). */
    uint64_t inflightWindows = 0;
    /** Milliseconds since start() on the steady clock (gauge). */
    uint64_t uptimeMs = 0;
    /** "planned" or "fifo" (the stats op reports the active policy). */
    std::string scheduler;
    PercentileSummary serviceMs;   ///< enqueue-to-response latency
    /**
     * Cumulative service-latency histogram: one `service_ms_le_<edge>`
     * entry per fixed log-2 bucket edge (obs::Histogram) plus the
     * terminal `service_ms_le_inf`, in edge order. Fixed edges make
     * snapshots from different processes directly summable (the
     * router adds them bucket-by-bucket).
     */
    std::vector<std::pair<std::string, uint64_t>> latencyHist;

    double hitRate() const
    {
        const uint64_t total = cacheHits + cacheMisses;
        return total == 0 ? 0.0
                          : static_cast<double>(cacheHits) / total;
    }
};

class ServiceScheduler
{
  public:
    explicit ServiceScheduler(ServiceConfig config);
    ~ServiceScheduler();

    ServiceScheduler(const ServiceScheduler &) = delete;
    ServiceScheduler &operator=(const ServiceScheduler &) = delete;

    /** Load the warm cache and launch the worker sessions. */
    void start();

    /**
     * Drain the queue, join the sessions and persist the plan cache.
     * Idempotent; also invoked by the destructor.
     */
    void stop();

    /**
     * Validate and enqueue a "run" request. The responder is invoked
     * exactly once — from a worker session on success or failure, or
     * inline when admission control rejects the request.
     */
    void submit(const ServiceRequest &req, ServiceResponder respond);

    ServiceStats stats() const;

    const ServiceConfig &config() const { return config_; }
    const WindowPlanner &planner() const { return planner_; }

  private:
    /** One shared plan cache + the scoreboard config that owns it. */
    struct SharedCache
    {
        ScoreboardConfig config;
        std::unique_ptr<PlanCache> cache;
    };

    /** A session's own engines, one per EngineKey, built on demand. */
    using SessionEngines =
        std::map<EngineKey, std::unique_ptr<TransArrayAccelerator>>;
    void sessionLoop();
    void runBatch(std::vector<ServiceJob> &batch, SessionEngines &engines);
    /**
     * Resolve a request's named model to a pinned catalog plane. True
     * with the pin filled on success; false with `err` set (no
     * catalog, unknown model/plane, or checksum-failed page) — the
     * caller turns that into a "storage:" protocol error.
     */
    bool resolveModel(const ServiceRequest &req,
                      BufferManager::Pin &pin, std::string &err);
    TransArrayAccelerator &engineFor(const EngineKey &key,
                                     SessionEngines &engines);
    void recordLatency(double ms);
    /** Capture every shared cache into the store and save the file. */
    bool persistSnapshot();
    void persistLoop();

    ServiceConfig config_;
    WindowPlanner planner_;
    RequestQueue queue_;
    /** The storage tier (null without --catalog). Opened in start(),
     *  immutable afterwards; pin/unpin are internally thread-safe. */
    std::unique_ptr<BufferManager> buffers_;
    /** Guards store_ (periodic saves race engine warm-starts). */
    mutable std::mutex storeMu_;
    PlanCacheStore store_;
    uint64_t plansLoaded_ = 0;

    mutable std::mutex engineMu_; ///< guards caches_ (append-only)
    /** Keyed by the plan-relevant ScoreboardConfig fields. */
    std::map<std::tuple<int, int, int, bool>, SharedCache> caches_;

    /**
     * The unified metrics registry (src/obs): every counter the stats
     * op reports lives here as a typed metric instead of an ad-hoc
     * field. The references below are stable handles into the
     * registry (declared after it so construction order is right);
     * updates are lock-free atomics, so the hot path never takes
     * statsMu_ for counting.
     */
    obs::MetricsRegistry metrics_;
    obs::Counter &served_;
    obs::Counter &errors_;
    obs::Counter &windows_;
    obs::Counter &batchedRequests_;
    obs::Counter &shedUnmeetable_;
    obs::Counter &deadlineMet_;
    obs::Counter &deadlineMisses_;
    obs::Gauge &maxWindow_;
    obs::Gauge &inflightWindows_;
    obs::Histogram &serviceHist_;
    /** start() time on the steady clock, for the uptime_ms gauge. */
    std::chrono::steady_clock::time_point startedAt_{};

    /** Guards the latency ring only (percentiles need a snapshot). */
    mutable std::mutex statsMu_;
    /** Ring of recent enqueue-to-response latencies (ms). */
    std::vector<double> latencyRing_;
    uint64_t latencyCount_ = 0;

    std::vector<std::thread> sessions_;
    std::thread persister_;
    std::mutex persistMu_;
    std::condition_variable persistCv_;
    bool persistStop_ = false;
    bool started_ = false;
    bool stopped_ = false;
};

} // namespace ta

#endif // TA_SERVICE_SCHEDULER_H
