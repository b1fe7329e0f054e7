#include "cluster/router.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <map>

#include "cluster/net.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/line_reader.h"

namespace ta {

namespace {

constexpr int kConnectTimeoutMs = 1000;
constexpr int kStatsTimeoutMs = 5000;
constexpr int kMaintainTickMs = 20;

/** First "id" value on a response line; 0 when absent. */
uint64_t
idOfLine(const std::string &line)
{
    const size_t p = line.find("\"id\":");
    if (p == std::string::npos)
        return 0;
    return std::strtoull(line.c_str() + p + 5, nullptr, 10);
}

/**
 * Replace the first "id" value with `id`, leaving every other byte of
 * the line untouched — the router's only edit to a replica response,
 * which is what keeps routed responses byte-identical to
 * single-process serving.
 */
std::string
rewriteId(const std::string &line, uint64_t id)
{
    const size_t p = line.find("\"id\":");
    if (p == std::string::npos)
        return line;
    const size_t s = p + 5;
    size_t e = s;
    while (e < line.size() &&
           std::isdigit(static_cast<unsigned char>(line[e])))
        ++e;
    std::string out;
    out.reserve(line.size() + 20);
    out.append(line, 0, s);
    out += std::to_string(id);
    out.append(line, e, std::string::npos);
    return out;
}

} // namespace

bool
parseRoutePolicy(const std::string &name, RoutePolicy &out)
{
    if (name == "round_robin")
        out = RoutePolicy::RoundRobin;
    else if (name == "least_outstanding")
        out = RoutePolicy::LeastOutstanding;
    else if (name == "affinity")
        out = RoutePolicy::Affinity;
    else
        return false;
    return true;
}

const char *
routePolicyName(RoutePolicy policy)
{
    switch (policy) {
    case RoutePolicy::RoundRobin:
        return "round_robin";
    case RoutePolicy::LeastOutstanding:
        return "least_outstanding";
    case RoutePolicy::Affinity:
        return "affinity";
    }
    return "?";
}

uint64_t
engineKeyHash(const EngineKey &key)
{
    // FNV-1a over the engine-selection fields in a fixed order: a pure
    // function of the key, so the affinity mapping is stable across
    // router and replica restarts.
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    mix(static_cast<uint64_t>(key.abits));
    mix(static_cast<uint64_t>(key.tbits));
    mix(static_cast<uint64_t>(key.maxdist));
    mix(static_cast<uint64_t>(key.units));
    mix(key.useStatic ? 1 : 0);
    mix(static_cast<uint64_t>(key.samples));
    return h;
}

int
affinityIndexOf(const EngineKey &key, int replicas)
{
    if (replicas <= 1)
        return 0;
    return static_cast<int>(engineKeyHash(key) %
                            static_cast<uint64_t>(replicas));
}

int
pickLeastOutstanding(const std::vector<size_t> &outstanding,
                     const std::vector<bool> &eligible)
{
    int best = -1;
    for (size_t i = 0; i < outstanding.size(); ++i) {
        if (i < eligible.size() && !eligible[i])
            continue;
        if (best < 0 || outstanding[i] < outstanding[best])
            best = static_cast<int>(i); // strict <: lowest index wins
    }
    return best;
}

int
retryBackoffMs(int base_ms, int attempt, uint64_t seed, uint64_t seq)
{
    base_ms = std::max(1, base_ms);
    const int shift = std::clamp(attempt - 1, 0, 6);
    const long long exp =
        std::min<long long>(static_cast<long long>(base_ms) << shift,
                            2000);
    // splitmix64 of (seed, seq): the jitter is a pure function of the
    // router seed and the redispatch sequence number, so retries
    // de-synchronize without a wall-clock or global RNG dependence.
    uint64_t z = seed ^ (seq * 0x9e3779b97f4a7c15ull);
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    const long long jitter =
        static_cast<long long>(z % (static_cast<uint64_t>(base_ms) + 1));
    return static_cast<int>(exp + jitter);
}

Router::Router(RouterConfig config, ReplicaManager &manager)
    : config_(config),
      manager_(manager)
{
    config_.maxOutstanding =
        std::max<size_t>(1, config_.maxOutstanding);
    upstreams_.reserve(manager_.count());
    for (int i = 0; i < manager_.count(); ++i)
        upstreams_.push_back(std::make_unique<Upstream>());
    perReplica_.assign(manager_.count(), 0);
}

Router::~Router()
{
    stop();
}

void
Router::start()
{
    if (started_)
        return;
    started_ = true;
    maintainPass(); // connect synchronously to whatever is already up
    maintainer_ = std::thread([this] { maintainLoop(); });
    redispatcher_ = std::thread([this] { redispatchLoop(); });
}

void
Router::stop()
{
    if (!started_)
        return;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_)
            return;
        stopping_ = true;
        for (const auto &u : upstreams_)
            if (u->connected)
                ::shutdown(u->fd, SHUT_RDWR); // readers EOF promptly
    }
    cv_.notify_all();
    if (maintainer_.joinable())
        maintainer_.join();
    {
        std::lock_guard<std::mutex> lock(delayedMu_);
        delayedStopping_ = true;
    }
    delayedCv_.notify_all();
    if (redispatcher_.joinable())
        redispatcher_.join(); // drains and fails the delayed queue
    for (const auto &u : upstreams_) {
        std::thread reader;
        {
            std::lock_guard<std::mutex> lock(mu_);
            reader.swap(u->reader);
        }
        if (reader.joinable())
            reader.join();
    }
    std::vector<std::pair<std::thread,
                          std::shared_ptr<std::atomic<bool>>>>
        retired;
    {
        std::lock_guard<std::mutex> lock(mu_);
        retired.swap(retired_);
    }
    for (auto &r : retired)
        r.first.join();
}

void
Router::submit(const ServiceRequest &req, ServiceResponder respond)
{
    if (req.op == "ping") {
        respond("{\"id\":" + std::to_string(req.id) +
                ",\"ok\":1,\"pong\":1}");
        return;
    }
    if (req.op == "stats") {
        respond(statsLine(req.id));
        return;
    }
    if (req.op != "run") {
        // shutdown is a transport-level concern: the ta_router binary
        // intercepts it before routing; in-process users call stop().
        respond(serializeError(req.id,
                               "router: op '" + req.op +
                                   "' is not routable"));
        return;
    }
    PendingCall call;
    call.request = req;
    call.respond = std::move(respond);
    obs::Tracer &tracer = obs::Tracer::instance();
    if (tracer.enabled()) {
        // A traced router is a trace-context source: requests arriving
        // without a `trace` field get one minted here, and it travels
        // to the replica on the wire (serializeRequest), so replica
        // spans stitch to this hop.
        if (call.request.traceId == 0)
            call.request.traceId = obs::mintTraceId(req.id);
        // The "route" span wraps the responder instead of a scope:
        // it covers the request's full routing lifetime — including
        // backoff and redispatch after a replica death — and records
        // exactly once, because the responder fires exactly once.
        const uint64_t trace_id = call.request.traceId;
        const uint64_t span_id = tracer.mintSpanId();
        const uint64_t t0 = obs::Tracer::nowNs();
        ServiceResponder inner = std::move(call.respond);
        call.respond = [trace_id, span_id, t0, inner = std::move(inner)](
                           const std::string &line) {
            obs::Span span;
            span.traceId = trace_id;
            span.spanId = span_id;
            span.name = "route";
            span.t0Ns = t0;
            span.t1Ns = obs::Tracer::nowNs();
            obs::Tracer::instance().record(span);
            inner(line);
        };
    }
    call.retryable = true;
    dispatch(std::move(call));
}

int
Router::chooseSlotLocked(const EngineKey &key)
{
    const int n = static_cast<int>(upstreams_.size());
    auto usable = [&](int i) {
        const Upstream &u = *upstreams_[i];
        return u.connected &&
               u.pending.size() < config_.maxOutstanding;
    };
    // The same selection function the unit tests pin.
    auto leastOutstanding = [&]() {
        std::vector<size_t> outstanding(n);
        std::vector<bool> eligible(n);
        for (int i = 0; i < n; ++i) {
            outstanding[i] = upstreams_[i]->pending.size();
            eligible[i] = usable(i);
        }
        return pickLeastOutstanding(outstanding, eligible);
    };
    switch (config_.policy) {
    case RoutePolicy::RoundRobin: {
        const uint64_t start = rrCursor_++;
        for (int d = 0; d < n; ++d) {
            const int i = static_cast<int>((start + d) %
                                           static_cast<uint64_t>(n));
            if (usable(i))
                return i;
        }
        return -1;
    }
    case RoutePolicy::LeastOutstanding:
        return leastOutstanding();
    case RoutePolicy::Affinity: {
        int home = affinityIndexOf(key, n);
        // Autoscaling remap: probe forward past parked (retired)
        // slots. A pure function of (key, retired-set), so only keys
        // homed on a retired slot move, and every submitter agrees on
        // where they move to.
        for (int d = 0; d < n; ++d) {
            const int cand = static_cast<int>(
                (static_cast<uint64_t>(home) + d) %
                static_cast<uint64_t>(n));
            if (!manager_.endpoint(cand).retired) {
                home = cand;
                break;
            }
        }
        if (usable(home))
            return home;
        // A restarting (or merely full) home slot is worth waiting
        // for — that is what keeps its plan cache hot on this key's
        // slice. Only a permanently failed slot re-routes.
        if (!manager_.endpoint(home).failed)
            return -1;
        return leastOutstanding();
    }
    }
    return -1;
}

void
Router::dispatch(PendingCall call)
{
    const EngineKey key = engineKeyOf(call.request);
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(config_.submitTimeoutMs);
    for (;;) {
        int slot = -1;
        bool shed = false;
        {
            std::unique_lock<std::mutex> lock(mu_);
            if (config_.maxWaiting > 0 &&
                waiting_ >= config_.maxWaiting && !stopping_) {
                // Explicit overload shedding: reject instead of
                // growing the set of blocked submitters without
                // bound.
                ++failed_;
                ++shed_;
                shed = true;
            } else {
                ++waiting_;
                while (!stopping_) {
                    slot = chooseSlotLocked(key);
                    if (slot >= 0)
                        break;
                    if (cv_.wait_until(lock, deadline) ==
                        std::cv_status::timeout) {
                        slot = chooseSlotLocked(key);
                        break;
                    }
                }
                --waiting_;
                if (slot < 0)
                    ++failed_;
            }
        }
        if (shed) {
            call.respond(serializeError(call.request.id,
                                        "overloaded: router at "
                                        "capacity"));
            return;
        }
        if (slot < 0) {
            call.respond(serializeError(
                call.request.id, "router: no replica available"));
            return;
        }
        if (sendOn(slot, call))
            return;
        // The connection raced away mid-send and the call is still
        // ours: route it again.
    }
}

void
Router::redispatchOrShed(PendingCall call)
{
    ++call.attempts;
    if (call.attempts > config_.maxRedispatch) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++failed_;
            ++shed_;
        }
        call.respond(serializeError(call.request.id,
                                    "overloaded: retry budget "
                                    "exhausted"));
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++retried_;
    }
    const uint64_t seq = redispatchSeq_.fetch_add(1);
    const int delay =
        retryBackoffMs(config_.retryBackoffBaseMs, call.attempts,
                       config_.backoffSeed, seq);
    scheduleRedispatch(std::move(call), delay);
}

void
Router::scheduleRedispatch(PendingCall call, int delay_ms)
{
    {
        std::lock_guard<std::mutex> lock(delayedMu_);
        if (!delayedStopping_) {
            delayed_.push_back(
                {std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(delay_ms),
                 std::move(call)});
            delayedCv_.notify_all();
            return;
        }
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++failed_;
    }
    call.respond(
        serializeError(call.request.id, "router stopping"));
}

void
Router::redispatchLoop()
{
    std::unique_lock<std::mutex> lock(delayedMu_);
    while (!delayedStopping_) {
        if (delayed_.empty()) {
            delayedCv_.wait(lock);
            continue;
        }
        const auto next = std::min_element(
            delayed_.begin(), delayed_.end(),
            [](const Delayed &a, const Delayed &b) {
                return a.due < b.due;
            });
        const auto now = std::chrono::steady_clock::now();
        const auto due = next->due; // a copy: delayed_ may reallocate mid-wait
        if (due > now) {
            delayedCv_.wait_until(lock, due);
            continue; // re-scan: the queue may have changed
        }
        PendingCall call = std::move(next->call);
        delayed_.erase(next);
        lock.unlock();
        // dispatch() blocks bounded by submitTimeoutMs and fails the
        // call itself on a stopping router — never a hang.
        dispatch(std::move(call));
        lock.lock();
    }
    std::vector<Delayed> rest;
    rest.swap(delayed_);
    lock.unlock();
    for (Delayed &d : rest) {
        {
            std::lock_guard<std::mutex> l2(mu_);
            ++failed_;
        }
        d.call.respond(
            serializeError(d.call.request.id, "router stopping"));
    }
}

void
Router::sweepTimeouts()
{
    if (config_.requestTimeoutMs <= 0)
        return;
    const auto now = std::chrono::steady_clock::now();
    const auto limit =
        std::chrono::milliseconds(config_.requestTimeoutMs);
    std::vector<PendingCall> expired;
    std::vector<PendingCall> probes;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto &u : upstreams_) {
            for (auto it = u->pending.begin();
                 it != u->pending.end();) {
                if (now - it->second.sentAt < limit) {
                    ++it;
                    continue;
                }
                // Withdrawn: a late line for this internal id is
                // dropped by the reader, so re-dispatching cannot
                // duplicate the response.
                if (it->second.retryable) {
                    ++timedOut_;
                    expired.push_back(std::move(it->second));
                } else {
                    ++failed_;
                    probes.push_back(std::move(it->second));
                }
                it = u->pending.erase(it);
            }
        }
    }
    if (expired.empty() && probes.empty())
        return;
    cv_.notify_all(); // freed backpressure slots
    for (PendingCall &call : probes)
        call.respond(serializeError(call.request.id,
                                    "router: request timed out"));
    for (PendingCall &call : expired)
        redispatchOrShed(std::move(call));
}

bool
Router::sendOn(int i, PendingCall &call)
{
    const uint64_t iid = nextInternalId_.fetch_add(1);
    ServiceRequest wire = call.request;
    wire.id = iid;
    const std::string line = serializeRequest(wire) + "\n";
    Upstream &u = *upstreams_[i];
    // writeMu is held across the fd snapshot AND the write:
    // handleDisconnect closes a dead fd only under writeMu, so the fd
    // number we write to cannot be closed — and recycled by the
    // kernel for an unrelated connection — mid-write.
    std::lock_guard<std::mutex> wl(u.writeMu);
    int fd = -1;
    uint64_t gen = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!u.connected ||
            u.pending.size() >= config_.maxOutstanding)
            return false;
        fd = u.fd;
        gen = u.generation;
        call.sentAt = std::chrono::steady_clock::now();
        u.pending.emplace(iid, std::move(call));
        ++forwarded_;
        ++perReplica_[i];
    }
    if (writeAll(fd, line))
        return true;
    // Write failure: hasten the reader's EOF, then reclaim the call
    // unless the disconnect path already swept it (then the sweep owns
    // the retry and we must not double-dispatch).
    ::shutdown(fd, SHUT_RDWR);
    std::lock_guard<std::mutex> lock(mu_);
    if (u.generation == gen) {
        const auto it = u.pending.find(iid);
        if (it != u.pending.end()) {
            call = std::move(it->second);
            u.pending.erase(it);
            return false;
        }
    }
    return true; // swept: handleDisconnect re-dispatches it
}

void
Router::readerLoop(int i, uint64_t generation)
{
    int fd = -1;
    std::shared_ptr<std::atomic<bool>> done;
    {
        std::lock_guard<std::mutex> lock(mu_);
        fd = upstreams_[i]->fd;
        done = upstreams_[i]->readerDone;
    }
    LineReader reader(fd);
    std::string line;
    bool terminated = true;
    while (reader.next(line, terminated)) {
        if (!terminated)
            break; // torn by a peer crash mid-write: the disconnect
                   // sweep retries the request — never deliver the
                   // truncated bytes as a response
        if (line.empty())
            continue;
        const uint64_t iid = idOfLine(line);
        PendingCall call;
        bool found = false;
        {
            std::lock_guard<std::mutex> lock(mu_);
            Upstream &u = *upstreams_[i];
            if (u.generation == generation) {
                const auto it = u.pending.find(iid);
                if (it != u.pending.end()) {
                    call = std::move(it->second);
                    u.pending.erase(it);
                    found = true;
                }
            }
        }
        if (found) {
            cv_.notify_all(); // backpressure waiters
            call.respond(rewriteId(line, call.request.id));
        }
        // Unknown ids are lines for requests already reclaimed by a
        // failed send: drop them.
    }
    handleDisconnect(i, generation);
    done->store(true);
}

void
Router::handleDisconnect(int i, uint64_t generation)
{
    std::vector<PendingCall> orphans;
    bool stopping = false;
    int dead_fd = -1;
    {
        std::lock_guard<std::mutex> lock(mu_);
        Upstream &u = *upstreams_[i];
        if (!u.connected || u.generation != generation)
            return; // a newer connection already took over
        u.connected = false;
        dead_fd = u.fd;
        u.fd = -1;
        orphans.reserve(u.pending.size());
        for (auto &kv : u.pending)
            orphans.push_back(std::move(kv.second));
        u.pending.clear();
        stopping = stopping_;
    }
    if (dead_fd >= 0) {
        // Close only under writeMu: a sender holding a snapshot of
        // this fd is still inside its write, and closing now would
        // free the number for reuse by an unrelated connection.
        std::lock_guard<std::mutex> wl(upstreams_[i]->writeMu);
        ::close(dead_fd);
    }
    cv_.notify_all();
    if (!stopping)
        manager_.reportDown(i, generation);
    for (PendingCall &call : orphans) {
        if (stopping || !call.retryable) {
            {
                std::lock_guard<std::mutex> lock(mu_);
                ++failed_;
            }
            call.respond(serializeError(call.request.id,
                                        "replica connection lost"));
            continue;
        }
        // Requests are pure simulations, so re-running one on another
        // (or the restarted) replica cannot change its bytes — and the
        // dead replica can no longer answer it, so exactly one
        // response still reaches the client. The redispatch budget
        // bounds how often one request may bounce before it is shed.
        redispatchOrShed(std::move(call));
    }
}

void
Router::maintainLoop()
{
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mu_);
            if (cv_.wait_for(lock,
                             std::chrono::milliseconds(
                                 kMaintainTickMs),
                             [&] { return stopping_; }))
                return;
        }
        maintainPass();
    }
}

void
Router::maintainPass()
{
    // Join replaced reader threads that have finished their retry
    // work (joining a live one here could deadlock: its retries may
    // be waiting on a slot this pass is about to reconnect).
    std::vector<std::pair<std::thread,
                          std::shared_ptr<std::atomic<bool>>>>
        joinable;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto it = retired_.begin(); it != retired_.end();) {
            if (it->second->load()) {
                joinable.push_back(std::move(*it));
                it = retired_.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (auto &r : joinable)
        r.first.join();

    for (int i = 0; i < static_cast<int>(upstreams_.size()); ++i) {
        const ReplicaEndpoint ep = manager_.endpoint(i);
        bool need_connect = false;
        {
            std::lock_guard<std::mutex> lock(mu_);
            Upstream &u = *upstreams_[i];
            if (u.connected &&
                (!ep.up || ep.generation != u.generation)) {
                // The manager moved on (restart in progress): force
                // our stale connection to EOF so its reader sweeps
                // the pending calls into retries.
                ::shutdown(u.fd, SHUT_RDWR);
            }
            need_connect = !u.connected && ep.up && !stopping_;
        }
        if (need_connect)
            connectSlot(i, ep);
    }

    sweepTimeouts();

    // Feed the autoscaler: blocked submitters + requests in flight +
    // requests awaiting redispatch is the router's queue pressure.
    size_t pressure = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        pressure = waiting_;
        for (const auto &u : upstreams_)
            pressure += u->pending.size();
    }
    {
        std::lock_guard<std::mutex> lock(delayedMu_);
        pressure += delayed_.size();
    }
    manager_.reportQueuePressure(pressure);
}

void
Router::connectSlot(int i, const ReplicaEndpoint &ep)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        Upstream &u = *upstreams_[i];
        if (u.connected || stopping_)
            return;
        if (u.reader.joinable())
            retired_.emplace_back(std::move(u.reader), u.readerDone);
    }
    // No residual I/O timeouts: this connection lives for the
    // replica's whole generation, and an idle (or long-computing)
    // replica must not read as a dead one.
    const int fd = connectLoopback(ep.port, kConnectTimeoutMs,
                                   /*keep_io_timeouts=*/false);
    if (fd < 0)
        return; // the manager will restart or the next pass retries
    {
        std::lock_guard<std::mutex> lock(mu_);
        Upstream &u = *upstreams_[i];
        if (u.connected || stopping_) {
            ::close(fd);
            return;
        }
        u.fd = fd;
        u.connected = true;
        u.generation = ep.generation;
        u.readerDone = std::make_shared<std::atomic<bool>>(false);
        u.reader = std::thread(
            [this, i, gen = ep.generation] { readerLoop(i, gen); });
    }
    cv_.notify_all();
}

bool
Router::sendStatsProbe(int i, uint64_t iid, ServiceResponder respond)
{
    ServiceRequest probe;
    probe.op = "stats";
    probe.id = iid;
    PendingCall call;
    call.request = probe;
    call.respond = std::move(respond);
    call.retryable = false;
    const std::string line = serializeRequest(probe) + "\n";
    Upstream &u = *upstreams_[i];
    // Same fd-lifetime discipline as sendOn: snapshot + write under
    // writeMu so the disconnect path cannot close the fd under us.
    std::lock_guard<std::mutex> wl(u.writeMu);
    int fd = -1;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!u.connected)
            return false;
        fd = u.fd;
        u.pending.emplace(iid, std::move(call));
    }
    if (writeAll(fd, line))
        return true;
    // Leave the entry for the disconnect sweep (non-retryable probes
    // are failed there), but report the probe as not sent.
    ::shutdown(fd, SHUT_RDWR);
    return false;
}

std::string
Router::statsLine(uint64_t id)
{
    const int n = static_cast<int>(upstreams_.size());
    std::vector<std::future<std::string>> futures;
    futures.reserve(n);
    for (int i = 0; i < n; ++i) {
        auto prom =
            std::make_shared<std::promise<std::string>>();
        auto fut = prom->get_future();
        const uint64_t iid = nextInternalId_.fetch_add(1);
        if (sendStatsProbe(i, iid,
                           [prom](const std::string &line) {
                               prom->set_value(line);
                           }))
            futures.push_back(std::move(fut));
    }

    // Kind-aware aggregation (obs::statsKeyAgg, the same table the
    // stats serializer uses): counters and additive gauges sum,
    // high-water / per-process gauges (max_window, peak_queue_depth,
    // uptime_ms, catalog_models) take the max, derived values (rates,
    // percentiles) are recomputed or dropped. A replica key is never
    // blindly summed just because it is numeric.
    std::map<std::string, uint64_t> sums;
    std::map<std::string, uint64_t> maxes;
    int replied = 0;
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(kStatsTimeoutMs);
    for (auto &fut : futures) {
        if (fut.wait_until(deadline) != std::future_status::ready)
            continue; // a replica died mid-probe; skip it
        const std::string line = fut.get();
        std::vector<std::pair<std::string, std::string>> kvs;
        std::string err;
        if (!parseJsonFlat(line, kvs, err))
            continue;
        // A probe answered by the disconnect sweep is an error line
        // ("ok":0) carrying no counters — it did not reply.
        bool ok_reply = false;
        for (const auto &kv : kvs)
            if (kv.first == "ok" && kv.second == "1")
                ok_reply = true;
        if (!ok_reply)
            continue;
        ++replied;
        for (const auto &kv : kvs) {
            if (kv.first == "id" || kv.first == "ok")
                continue;
            const uint64_t v =
                std::strtoull(kv.second.c_str(), nullptr, 10);
            switch (obs::statsKeyAgg(kv.first)) {
            case obs::MetricAgg::Sum:
                sums[kv.first] += v;
                break;
            case obs::MetricAgg::Max:
                maxes[kv.first] = std::max(maxes[kv.first], v);
                break;
            case obs::MetricAgg::Derived:
                break; // recomputed below or replica-local
            }
        }
    }

    uint64_t forwarded, retried, failed, timed_out, shed;
    {
        std::lock_guard<std::mutex> lock(mu_);
        forwarded = forwarded_;
        retried = retried_;
        failed = failed_;
        timed_out = timedOut_;
        shed = shed_;
    }
    int up = 0;
    for (int i = 0; i < n; ++i)
        if (manager_.endpoint(i).up)
            ++up;

    std::string out = "{\"id\":" + std::to_string(id) + ",\"ok\":1";
    auto add = [&out](const std::string &key, uint64_t v) {
        out += ",\"";
        out += key;
        out += "\":" + std::to_string(v);
    };
    add("replicas", static_cast<uint64_t>(n));
    add("replicas_up", static_cast<uint64_t>(up));
    add("replicas_active",
        static_cast<uint64_t>(manager_.activeCount()));
    add("replicas_abandoned",
        static_cast<uint64_t>(manager_.abandonedCount()));
    add("replicas_replied", static_cast<uint64_t>(replied));
    add("replica_restarts", manager_.restarts());
    add("scale_ups", manager_.scaleUps());
    add("scale_downs", manager_.scaleDowns());
    add("router_forwarded", forwarded);
    add("router_retried", retried);
    add("router_failed", failed);
    add("router_timed_out", timed_out);
    add("router_shed", shed);
    // Well-known replica keys first, in a stable order; then whatever
    // else the replicas reported (histogram buckets, keys newer than
    // this list) in lexicographic order — nothing aggregated is ever
    // silently dropped.
    static const char *kOrderedKeys[] = {
        "admitted",        "rejected",
        "served",          "errors",
        "windows",         "batched_requests",
        "max_window",      "queue_depth",
        "peak_queue_depth", "inflight_windows",
        "uptime_ms",       "plans_loaded",
        "cache_hits",      "cache_misses",
        "cache_evictions", "shed_unmeetable",
        "deadline_met",    "deadline_misses",
        "buffer_hits",     "buffer_misses",
        "buffer_evictions", "catalog_models",
        "storage_bytes_mapped",
    };
    const uint64_t lookups = sums["cache_hits"] + sums["cache_misses"];
    const uint64_t cache_hits = sums["cache_hits"];
    for (const char *key : kOrderedKeys) {
        switch (obs::statsKeyAgg(key)) {
        case obs::MetricAgg::Sum:
            add(key, sums[key]);
            sums.erase(key);
            break;
        case obs::MetricAgg::Max:
            add(key, maxes[key]);
            maxes.erase(key);
            break;
        case obs::MetricAgg::Derived:
            break;
        }
    }
    for (const auto &kv : sums)
        add(kv.first, kv.second);
    for (const auto &kv : maxes)
        add(kv.first, kv.second);
    out += ",\"cache_hit_rate\":" +
           formatDouble(lookups == 0
                            ? 0.0
                            : static_cast<double>(cache_hits) /
                                  static_cast<double>(lookups));
    out += "}";
    return out;
}

RouterCounters
Router::counters() const
{
    std::lock_guard<std::mutex> lock(mu_);
    RouterCounters c;
    c.forwarded = forwarded_;
    c.retried = retried_;
    c.failed = failed_;
    c.timedOut = timedOut_;
    c.shed = shed_;
    c.perReplica = perReplica_;
    return c;
}

} // namespace ta
