/**
 * @file
 * ta_loadgen: load generator and correctness checker for `ta_serve`
 * and the `ta_router` cluster. Each mode is one experiment that
 * supplies a seeded trace, a target, phases, metrics and gate rows,
 * built from four shared parts:
 *
 *  - Target: a server spawned over a socketpair (--spawn), a TCP
 *    server (--connect) or an in-process ReplicaManager + Router
 *    cluster; it owns start, `stats`, shutdown and reaping.
 *  - runPhase: a closed loop at N outstanding requests or an open loop
 *    on an arrival schedule. Every delivery lands in a ledger and every
 *    wait is bounded, so lost and duplicated responses are counted,
 *    never hung on.
 *  - tally: classifies each request as served, shed-overloaded,
 *    shed-unmeetable, lost or error, and byte-compares every served
 *    response with an in-process serial run of the same request (the
 *    determinism contract of docs/SERVICE.md).
 *  - Report: BENCH_<name>.json plus a gate table of `key OP bound`
 *    rows; the exit status is non-zero exactly when a row fails.
 *    docs/BENCH_SCHEMA.md lists every key and gate.
 */

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <netinet/in.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/fault_injector.h"
#include "cluster/router.h"
#include "cluster/scenarios.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/stats.h"
#include "harness/bench_json.h"
#include "kernels/kernel_table.h"
#include "obs/trace.h"
#include "service/cost_model.h"
#include "service/line_reader.h"
#include "service/protocol.h"
#include "storage/buffer_manager.h"

using namespace ta;

namespace {

using ull = unsigned long long; // printf %llu

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Longest wait for any one reply: a wedged server surfaces as lost
 *  requests and a failed gate, never a hang. */
constexpr std::chrono::seconds kReplyWait{120};

std::atomic<uint64_t> g_next_id{1};

/** Receives a response line; fires again for a duplicated one. */
using Responder = std::function<void(const std::string &)>;

// ---- targets --------------------------------------------------------------

/**
 * One pipelined protocol connection: the reader thread hands each
 * response to the responder of its id (responses may come back out of
 * order); a dead connection fails every pending one.
 */
class ServiceClient
{
  public:
    /** `stall_read_ms` > 0 makes a deliberately slow reader: it sleeps
     *  before consuming each response line, so the socket buffer and
     *  then the server's writer back up. */
    explicit ServiceClient(int fd, int stall_read_ms = 0)
        : fd_(fd), stallReadMs_(stall_read_ms),
          reader_([this] { readLoop(); })
    {
    }

    ~ServiceClient()
    {
        ::shutdown(fd_, SHUT_RDWR);
        reader_.join();
        ::close(fd_);
    }

    ServiceClient(const ServiceClient &) = delete;
    ServiceClient &operator=(const ServiceClient &) = delete;

    void
    submit(const ServiceRequest &req, Responder done)
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (!dead_) {
                pending_[req.id] = std::move(done);
                done = nullptr;
            }
        }
        if (done) // the reader already exited
            return done(serializeError(req.id, "connection closed"));
        const std::string line = serializeRequest(req) + "\n";
        std::lock_guard<std::mutex> lock(writeMu_);
        for (size_t off = 0; off < line.size();) {
            const ssize_t n =
                ::write(fd_, line.data() + off, line.size() - off);
            if (n <= 0)
                break; // the reader reports the dead peer
            off += static_cast<size_t>(n);
        }
    }

    /** Response lines no request was waiting for (duplicate ids). */
    uint64_t
    unsolicited() const
    {
        return unsolicited_.load();
    }

  private:
    void
    readLoop()
    {
        LineReader reader(fd_);
        std::string line;
        bool terminated = true;
        // A line torn by a server crash mid-write is connection death.
        while (reader.next(line, terminated) && terminated) {
            if (stallReadMs_ > 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(stallReadMs_));
            std::vector<std::pair<std::string, std::string>> kvs;
            std::string err;
            uint64_t id = 0;
            if (parseJsonFlat(line, kvs, err))
                for (const auto &kv : kvs)
                    if (kv.first == "id")
                        id = std::strtoull(kv.second.c_str(), nullptr, 10);
            Responder done;
            {
                std::lock_guard<std::mutex> lock(mu_);
                const auto it = pending_.find(id);
                if (it != pending_.end()) {
                    done = std::move(it->second);
                    pending_.erase(it);
                }
            }
            if (done)
                done(line);
            else
                ++unsolicited_;
        }
        std::unordered_map<uint64_t, Responder> orphans;
        {
            std::lock_guard<std::mutex> lock(mu_);
            dead_ = true;
            orphans.swap(pending_);
        }
        for (auto &kv : orphans)
            kv.second(serializeError(kv.first, "connection closed"));
    }

    int fd_;
    int stallReadMs_;
    std::mutex mu_;
    std::unordered_map<uint64_t, Responder> pending_;
    bool dead_ = false;
    std::atomic<uint64_t> unsolicited_{0};
    std::mutex writeMu_;
    std::thread reader_;
};

int
spawnServer(const std::string &command, pid_t &child)
{
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
        std::perror("ta_loadgen: socketpair");
        return -1;
    }
    child = ::fork();
    if (child < 0) {
        std::perror("ta_loadgen: fork");
        ::close(sv[0]);
        ::close(sv[1]);
        return -1;
    }
    if (child == 0) {
        ::dup2(sv[1], STDIN_FILENO);
        ::dup2(sv[1], STDOUT_FILENO);
        ::close(sv[0]);
        ::close(sv[1]);
        ::execl("/bin/sh", "sh", "-c", command.c_str(),
                static_cast<char *>(nullptr));
        std::perror("ta_loadgen: exec");
        _exit(127);
    }
    ::close(sv[1]);
    return sv[0];
}

int
connectTcp(uint16_t port)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    // The server may still be starting: retry with a fresh socket per
    // attempt (a failed connect leaves the fd unusable).
    for (int attempt = 0; attempt < 50; ++attempt) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) {
            std::perror("ta_loadgen: socket");
            return -1;
        }
        if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) == 0)
            return fd;
        ::close(fd);
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    std::fprintf(stderr, "ta_loadgen: could not connect to 127.0.0.1:%u\n",
                 static_cast<unsigned>(port));
    return -1;
}

using Stats = std::map<std::string, std::string>;

/** A `stats` value as text, "0" when absent. */
std::string
statOf(const Stats &stats, const char *key)
{
    const auto it = stats.find(key);
    return it == stats.end() ? "0" : it->second;
}

double
statNum(const Stats &stats, const char *key)
{
    return std::strtod(statOf(stats, key).c_str(), nullptr);
}

uint64_t
statCount(const Stats &stats, const char *key)
{
    return static_cast<uint64_t>(statNum(stats, key));
}

/**
 * What an experiment sends requests to. A target that failed to start
 * answers every request with an error line, so the failure shows up
 * in the ledger and the gates rather than on a separate exit path.
 */
class Target
{
  public:
    /** A server spawned as `cmd` (via /bin/sh -c) on a socketpair. */
    explicit Target(const std::string &cmd)
        : client_(std::make_unique<ServiceClient>(spawnServer(cmd, child_)))
    {
    }

    /** A running `ta_serve --tcp PORT` on 127.0.0.1. */
    explicit Target(uint16_t port)
        : client_(std::make_unique<ServiceClient>(connectTcp(port)))
    {
    }

    /** Spawned replicas behind an in-process router. */
    Target(const ReplicaProcessConfig &rcfg, const RouterConfig &rtcfg)
        : manager_(std::make_unique<ReplicaManager>(rcfg))
    {
        if (!manager_->start()) {
            std::fprintf(stderr,
                         "ta_loadgen: cluster failed to start (serve "
                         "binary: %s)\n",
                         rcfg.serveBinary.c_str());
            return;
        }
        router_ = std::make_unique<Router>(rtcfg, *manager_);
        router_->start();
    }

    ~Target() { close(); }

    Target(const Target &) = delete;
    Target &operator=(const Target &) = delete;

    void
    submit(const ServiceRequest &req, Responder done)
    {
        if (router_)
            router_->submit(req, std::move(done));
        else if (client_)
            client_->submit(req, std::move(done));
        else
            done(serializeError(req.id, "connection closed"));
    }

    /** The `stats` op's response, parsed. */
    Stats
    stats()
    {
        std::vector<std::pair<std::string, std::string>> kvs;
        std::string err;
        Stats out;
        if (parseJsonFlat(request("stats"), kvs, err))
            out.insert(kvs.begin(), kvs.end());
        return out;
    }

    uint64_t
    unsolicited() const
    {
        return client_ ? client_->unsolicited() : 0;
    }

    /** The cluster's replica manager (cluster targets only). */
    ReplicaManager &
    manager()
    {
        return *manager_;
    }

    /**
     * Shut down and reap. Returns a spawned server's exit status (128
     * + signal when killed), else 0. Idempotent; a cluster's router
     * fails whatever is still pending.
     */
    int
    close()
    {
        if (closed_)
            return exitStatus_;
        closed_ = true;
        if (manager_) {
            if (router_)
                router_->stop();
            manager_->stop();
            return 0;
        }
        request("shutdown");
        client_.reset(); // closes the connection, joins the reader
        int status = 0;
        if (child_ > 0 && ::waitpid(child_, &status, 0) == child_)
            exitStatus_ = WIFEXITED(status) ? WEXITSTATUS(status)
                                            : 128 + WTERMSIG(status);
        return exitStatus_;
    }

  private:
    /** One control op's reply, or "" after kReplyWait. */
    std::string
    request(const char *op)
    {
        ServiceRequest req;
        req.op = op;
        req.id = g_next_id.fetch_add(1);
        const auto reply = std::make_shared<std::promise<std::string>>();
        std::future<std::string> line = reply->get_future();
        submit(req, [reply](const std::string &l) { reply->set_value(l); });
        return line.wait_for(kReplyWait) == std::future_status::ready
                   ? line.get()
                   : "";
    }

    pid_t child_ = -1;
    std::unique_ptr<ServiceClient> client_;
    std::unique_ptr<ReplicaManager> manager_;
    std::unique_ptr<Router> router_;
    bool closed_ = false;
    int exitStatus_ = 0;
};

// ---- traces and phases ----------------------------------------------------

/**
 * Seeded mixed trace: FC-projection, attention-score and CNN-ish
 * shapes at 4/6/8-bit weights, a fraction on the static scoreboard.
 * Quick shapes are CI-sized; full shapes are LLaMA-7B-sized (the
 * representative-tensor cap keeps them laptop-feasible).
 */
std::vector<ServiceRequest>
buildTrace(uint64_t seed, size_t count, bool quick,
           bool spread_engines = false)
{
    Rng rng(seed);
    const auto times = [&rng](uint64_t unit, int lo, int hi) {
        return unit * static_cast<uint64_t>(rng.uniformInt(lo, hi));
    };
    std::vector<ServiceRequest> trace(count);
    for (ServiceRequest &r : trace) {
        const int suite = static_cast<int>(rng.uniformInt(0, 2));
        r.samples = quick ? 16 : 64;
        if (suite == 0) // FC projection
            r.shape = quick ? GemmShape{times(128, 1, 4), times(128, 1, 4),
                                        times(64, 1, 4)}
                            : GemmShape{4096, 4096, times(512, 1, 4)};
        else if (suite == 1) // attention score
            r.shape = quick ? GemmShape{times(64, 2, 4), 64, 128}
                            : GemmShape{2048, 128, 2048};
        else // CNN im2col
            r.shape = quick ? GemmShape{64, times(64, 2, 9), 196}
                            : GemmShape{512, times(576, 1, 4), 3136};
        const int pick = static_cast<int>(rng.uniformInt(0, 3));
        r.wbits = pick == 0 ? 8 : pick == 1 ? 6 : 4;
        r.useStatic = rng.bernoulli(0.125);
        r.seed = static_cast<uint64_t>(rng.uniformInt(1, 1 << 20));
        r.priority = static_cast<int>(rng.uniformInt(0, 2));
        // Cluster runs spread requests over more EngineKeys so the
        // affinity policy has a real engine space to partition.
        if (spread_engines)
            r.maxdist = 3 + static_cast<int>(rng.uniformInt(0, 2));
    }
    return trace;
}

/** Every delivery of one phase, by trace index; shared with the
 *  responders, which may fire after the phase returns. */
struct Ledger
{
    std::mutex mu;
    std::condition_variable cv;
    std::vector<ServiceRequest> sent;
    std::vector<std::string> lines; ///< first delivery per index
    std::vector<double> latMs;
    std::vector<int> deliveries;
    size_t answered = 0;
    double wallSecs = 0;

    explicit Ledger(size_t n)
        : sent(n), lines(n), latMs(n, 0), deliveries(n, 0)
    {
    }
};

using Phase = std::shared_ptr<Ledger>;

/** How a phase issues its trace. */
struct Load
{
    /** Closed loop: keep `n` requests outstanding. */
    explicit Load(size_t n) : concurrency(n) {}
    /** Open loop: issue request i at offset at[i], regardless of
     *  completions. */
    explicit Load(std::vector<double> at) : arrivalSec(std::move(at)) {}
    /** Open loop at a fixed offered rate. */
    Load(size_t count, double rate_rps) : arrivalSec(count)
    {
        for (size_t i = 0; i < count; ++i)
            arrivalSec[i] = i / rate_rps;
    }

    size_t concurrency = 1;
    std::vector<double> arrivalSec;
    /** Sees each trace index as it is issued (the fault clock). */
    std::function<void(size_t)> onIssue;
    /** Stamp trace ids with the local tracer off, so a traced server
     *  records spans without a client trace file. */
    bool stampTraceIds = false;
};

/** Issue `trace` to `target` (a Target or a bare ServiceClient). */
template <typename T>
Phase
runPhase(T &target, const std::vector<ServiceRequest> &trace,
         const Load &load)
{
    const size_t n = trace.size();
    const Phase ledger = std::make_shared<Ledger>(n);
    obs::Tracer &tracer = obs::Tracer::instance();
    const auto issue = [&](size_t i) {
        ServiceRequest req = trace[i];
        req.id = g_next_id.fetch_add(1);
        if (tracer.enabled() || load.stampTraceIds)
            req.traceId = obs::mintTraceId(req.id);
        // The client `request` root span, issue -> response.
        obs::Span span;
        span.traceId = tracer.enabled() ? req.traceId : 0;
        span.name = "request";
        {
            std::lock_guard<std::mutex> lock(ledger->mu);
            ledger->sent[i] = req;
        }
        if (load.onIssue)
            load.onIssue(i);
        span.t0Ns = span.traceId != 0 ? obs::Tracer::nowNs() : 0;
        const double sent_at = nowSeconds();
        target.submit(req, [ledger, i, sent_at,
                            span](const std::string &line) {
            const double ms = (nowSeconds() - sent_at) * 1e3;
            {
                std::lock_guard<std::mutex> lock(ledger->mu);
                if (++ledger->deliveries[i] > 1)
                    return;
                ledger->lines[i] = line;
                ledger->latMs[i] = ms;
                ++ledger->answered;
            }
            ledger->cv.notify_all();
            if (span.traceId != 0) {
                obs::Tracer &t = obs::Tracer::instance();
                obs::Span done = span;
                done.spanId = t.mintSpanId();
                done.t1Ns = obs::Tracer::nowNs();
                t.record(done);
            }
        });
    };

    const double t0 = nowSeconds();
    if (load.arrivalSec.empty()) {
        std::atomic<size_t> next{0};
        std::vector<std::thread> workers;
        for (size_t w = 0; w < load.concurrency; ++w)
            workers.emplace_back([&] {
                for (size_t i = next++; i < n; i = next++) {
                    issue(i);
                    std::unique_lock<std::mutex> lock(ledger->mu);
                    ledger->cv.wait_for(lock, kReplyWait, [&] {
                        return ledger->deliveries[i] > 0;
                    });
                }
            });
        for (std::thread &t : workers)
            t.join();
    } else {
        for (size_t i = 0; i < n; ++i) {
            while (nowSeconds() < t0 + load.arrivalSec[i])
                std::this_thread::sleep_for(std::chrono::microseconds(200));
            issue(i);
        }
        std::unique_lock<std::mutex> lock(ledger->mu);
        ledger->cv.wait_for(lock, kReplyWait,
                            [&] { return ledger->answered == n; });
    }
    std::lock_guard<std::mutex> lock(ledger->mu);
    ledger->wallSecs = nowSeconds() - t0;
    return ledger;
}

// ---- verification ---------------------------------------------------------

/**
 * In-process serial oracle: one single-threaded engine per EngineKey,
 * each unique request run once and memoized — "standalone ta_sim" as
 * a library call, with the engineConfig and serializeResponse of
 * `ta_sim --response`. The `model` field is not part of the key:
 * catalog bytes must equal synthesis bytes.
 */
class Verifier
{
  public:
    /** The oracle response line for `req`. */
    std::string
    expected(const ServiceRequest &req)
    {
        const EngineKey key = engineKeyOf(req);
        const auto sig = std::make_tuple(key, req.shape.n, req.shape.k,
                                         req.shape.m, req.wbits, req.seed);
        auto it = memo_.find(sig);
        if (it == memo_.end()) {
            auto &engine = engines_[key];
            if (!engine)
                engine = std::make_unique<TransArrayAccelerator>(
                    engineConfig(key, 1));
            it = memo_
                     .emplace(sig, engine->runShape(req.shape, req.wbits,
                                                    req.seed))
                     .first;
        }
        return serializeResponse(req, it->second);
    }

  private:
    std::map<EngineKey, std::unique_ptr<TransArrayAccelerator>> engines_;
    std::map<std::tuple<EngineKey, uint64_t, uint64_t, uint64_t, int,
                        uint64_t>,
             LayerRun>
        memo_;
};

/** One or more phases, counted by outcome. */
struct Tally
{
    uint64_t issued = 0, served = 0, shedOverloaded = 0,
             shedUnmeetable = 0, lost = 0, errors = 0;
    uint64_t duplicated = 0;     ///< requests answered more than once
    uint64_t mismatches = 0;     ///< served, but not the oracle's bytes
    uint64_t withinDeadline = 0; ///< served within their deadline_ms
    double rps = 0;
    double goodputRps = 0;       ///< withinDeadline per second
    double p99WithinMs = 0;      ///< p99 of in-deadline serves
    PercentileSummary latencyMs; ///< of served requests

    uint64_t
    notServed() const
    {
        return issued - served;
    }

    /** Sums the counts; the rates and latencies stay this tally's. */
    Tally &
    operator+=(const Tally &o)
    {
        for (auto field : {&Tally::issued, &Tally::served,
                           &Tally::shedOverloaded, &Tally::shedUnmeetable,
                           &Tally::lost, &Tally::errors, &Tally::duplicated,
                           &Tally::mismatches, &Tally::withinDeadline})
            this->*field += o.*field;
        return *this;
    }
};

/** Classify every request of `phase`, byte-verify each served
 *  response and print one line labelled `name`. */
Tally
tally(const Phase &phase, Verifier &verifier, const std::string &name)
{
    std::lock_guard<std::mutex> lock(phase->mu);
    Tally t;
    std::vector<double> lat, within;
    for (size_t i = 0; i < phase->lines.size(); ++i, ++t.issued) {
        const std::string &line = phase->lines[i];
        const int d = phase->deliveries[i];
        t.duplicated += d > 1 ? 1 : 0;
        // The classifier: served, shed (overloaded or unmeetable
        // deadline), lost (never answered, or the connection died) or
        // error.
        if (d == 0 || line.find("connection closed") != std::string::npos) {
            ++t.lost;
        } else if (line.find("\"ok\":1") != std::string::npos) {
            ++t.served;
            const double ms = phase->latMs[i];
            lat.push_back(ms);
            const uint64_t dl = phase->sent[i].deadlineMs;
            if (dl == 0 || ms <= static_cast<double>(dl)) {
                ++t.withinDeadline;
                within.push_back(ms);
            }
            const std::string want = verifier.expected(phase->sent[i]);
            if (line != want && ++t.mismatches <= 3)
                std::fprintf(stderr,
                             "VERIFY MISMATCH (%s, trace %zu):\n"
                             "  got      %s\n  expected %s\n",
                             name.c_str(), i, line.c_str(), want.c_str());
        } else if (isDeadlineUnmeetableLine(line)) {
            ++t.shedUnmeetable;
        } else if (isOverloadedLine(line)) {
            ++t.shedOverloaded;
        } else if (++t.errors <= 3) {
            std::fprintf(stderr, "  error response (%s, trace %zu): %s\n",
                         name.c_str(), i, line.c_str());
        }
    }
    if (phase->wallSecs > 0) {
        t.rps = t.issued / phase->wallSecs;
        t.goodputRps = t.withinDeadline / phase->wallSecs;
    }
    t.latencyMs = percentileSummary(std::move(lat));
    t.p99WithinMs = percentileOf(std::move(within), 99.0);
    std::fprintf(stderr,
                 "  %s: %6.1f req/s, p50/p95/p99 %.2f/%.2f/%.2f ms, "
                 "%llu/%llu served, %llu mismatches\n",
                 name.c_str(), t.rps, t.latencyMs.p50, t.latencyMs.p95,
                 t.latencyMs.p99, ull(t.served), ull(t.issued),
                 ull(t.mismatches));
    return t;
}

// ---- report and gate table ------------------------------------------------

/**
 * One experiment's BENCH JSON plus its gate table. A row is
 * `lhs OP rhs` over the file's own keys, rhs a number or another key.
 * finish() evaluates every row once, on the values as written (numbers
 * after %.6g), and emits each as `gate_<name>` next to `pass`, so
 * tools/check_bench_json.py re-checks the very same rows.
 */
class Report : public BenchJson
{
  public:
    Report(const std::string &name, uint64_t schema_version, bool quick)
        : BenchJson(name), name_(name)
    {
        add("benchmark", name);
        add("schema_version", schema_version);
        add("quick", static_cast<uint64_t>(quick ? 1 : 0));
    }

    /** The row `lhs op rhs`, named `name` (default: lhs). */
    void
    gate(const std::string &lhs, const char *op, const std::string &rhs,
         const std::string &name = "")
    {
        rows_.push_back({name.empty() ? lhs : name, lhs, op, rhs});
    }

    /** `<prefix><key>` for each (key, count). */
    void
    addCounts(const std::string &prefix,
              std::initializer_list<std::pair<const char *, uint64_t>> counts)
    {
        for (const auto &[key, value] : counts)
            add(prefix + key, value);
    }

    /** Rows every experiment shares: nothing failed, lost, duplicated
     *  or mis-verified (keys `<prefix>errors`, ...). */
    void
    deliveryGates(const std::string &prefix,
                  const char *duplicated_key = "duplicated")
    {
        for (const char *key :
             {"errors", "lost", duplicated_key, "verify_mismatches"})
            gate(prefix + key, "==", "0");
    }

    /** Evaluate and emit the rows and `pass`, write the file when
     *  `json_out`; returns the exit status, 1 iff a row fails. */
    int
    finish(bool json_out)
    {
        bool pass = true;
        for (const Row &r : rows_) {
            double a = 0, b = 0;
            const bool ok = valueOf(r.lhs, a) && valueOf(r.rhs, b) &&
                            holds(a, r.op, b);
            if (!ok)
                std::fprintf(stderr, "GATE FAILED: %s %s %s (%g vs %g)\n",
                             r.lhs.c_str(), r.op.c_str(), r.rhs.c_str(), a,
                             b);
            pass = pass && ok;
        }
        for (const Row &r : rows_)
            add("gate_" + r.name, r.lhs + " " + r.op + " " + r.rhs);
        add("pass", static_cast<uint64_t>(pass ? 1 : 0));
        std::fprintf(stderr, "ta_loadgen: %s: %zu gates, %s\n",
                     name_.c_str(), rows_.size(), pass ? "PASS" : "FAIL");
        const std::string path = json_out ? write() : "";
        if (!path.empty())
            std::fprintf(stderr, "wrote %s\n", path.c_str());
        return pass ? 0 : 1;
    }

  private:
    struct Row
    {
        std::string name, lhs, op, rhs;
    };

    /** The number written for key `operand`, or the literal. */
    bool
    valueOf(const std::string &operand, double &out) const
    {
        const std::string *written = find(operand);
        const std::string &text = written != nullptr ? *written : operand;
        char *end = nullptr;
        out = std::strtod(text.c_str(), &end);
        return !text.empty() && *end == '\0';
    }

    static bool
    holds(double a, const std::string &op, double b)
    {
        return op == "==" ? a == b
               : op == "!=" ? a != b
               : op == "<"  ? a < b
               : op == "<=" ? a <= b
               : op == ">"  ? a > b
                            : op == ">=" && a >= b;
    }

    std::string name_;
    std::vector<Row> rows_;
};

/** `<prefix>_p50_ms`, `_p95_ms` and `_p99_ms` of `t`. */
void
addLatency(Report &r, const std::string &prefix, const Tally &t)
{
    r.add(prefix + "_p50_ms", t.latencyMs.p50);
    r.add(prefix + "_p95_ms", t.latencyMs.p95);
    r.add(prefix + "_p99_ms", t.latencyMs.p99);
}

/** File-level `lost`, `duplicated`, `verify_mismatches` and
 *  `verified` (every served response equal to the oracle's). */
void
addVerdict(Report &r, const Tally &total)
{
    std::fprintf(stderr,
                 "  verify: %llu mismatches (byte-identity vs standalone "
                 "serial runs)\n",
                 ull(total.mismatches));
    r.add("lost", total.lost);
    r.add("duplicated", total.duplicated);
    r.add("verify_mismatches", total.mismatches);
    r.add("verified", std::string(total.mismatches == 0 ? "true" : "false"));
}

// ---- experiments ----------------------------------------------------------

struct Options
{
    std::string spawn, serveBin, policy = "all", scenario, catalog, model;
    std::string faults, costModel, kernels, traceOut;
    uint64_t port = 0, replicas = 0, requests = 0, concurrency = 8;
    uint64_t rate = 0, seed = 1, deadlineMs = 0, quick = 0, jsonOut = 0;
    FaultPlan faultPlan;
};

/** Warmup at max(4, N) outstanding, then the serial-request baseline
 *  and the batched closed loop at N, both tallied. */
std::pair<Tally, Tally>
runClosedPhases(Target &target, const std::vector<ServiceRequest> &trace,
                size_t n, Verifier &verifier, const std::string &label,
                std::function<void(size_t)> on_issue = {})
{
    runPhase(target, trace, Load(std::max<size_t>(4, n)));
    const Phase serial = runPhase(target, trace, Load(1));
    Load batched(n);
    batched.onIssue = std::move(on_issue);
    const Phase b = runPhase(target, trace, batched);
    return {tally(serial, verifier, label + ", concurrency 1"),
            tally(b, verifier, label + ", concurrency " + std::to_string(n))};
}

/**
 * Service throughput (--spawn / --connect): serial and batched closed
 * loops and, with --rate, an open loop at that offered load. Open-loop
 * sheds can be legitimate admission rejections, so only closed-loop
 * failures count as `errors`.
 */
int
runService(const Options &o)
{
    std::vector<ServiceRequest> trace =
        buildTrace(o.seed, o.requests, o.quick);
    // A planned server tracks deadline_met/deadline_misses and sheds
    // what its cost model says cannot make the deadline.
    for (ServiceRequest &r : trace)
        r.deadlineMs = o.deadlineMs;
    const bool spawned = !o.spawn.empty();
    const auto target =
        spawned ? std::make_unique<Target>(o.spawn)
                : std::make_unique<Target>(static_cast<uint16_t>(o.port));
    std::fprintf(stderr, "ta_loadgen: %zu requests/phase, warmup...\n",
                 trace.size());
    Verifier verifier;
    const auto [s, b] = runClosedPhases(*target, trace, o.concurrency,
                                        verifier, "closed loop");
    const Phase open =
        o.rate > 0
            ? runPhase(*target, trace,
                       Load(trace.size(), static_cast<double>(o.rate)))
            : nullptr;
    const Stats stats = target->stats();
    const uint64_t unsolicited = target->unsolicited();
    const int exit_status = target->close();

    Tally total = s;
    total += b;
    total.duplicated += unsolicited;
    std::fprintf(stderr, "  server: cache hit rate %s, plans loaded %s\n",
                 statOf(stats, "cache_hit_rate").c_str(),
                 statOf(stats, "plans_loaded").c_str());

    Report r("service_throughput", 2, o.quick);
    r.add("requests_per_phase", trace.size());
    r.add("concurrency", o.concurrency);
    r.add("serial_rps", s.rps);
    addLatency(r, "serial", s);
    r.add("batched_rps", b.rps);
    addLatency(r, "batched", b);
    r.add("batch_speedup", b.rps / s.rps);
    if (open) {
        const Tally ol = tally(open, verifier, "open loop");
        total += ol;
        r.add("openloop_offered_rps", static_cast<double>(o.rate));
        r.add("openloop_achieved_rps", ol.rps);
        addLatency(r, "openloop", ol);
        r.add("openloop_errors", ol.notServed());
    }
    r.add("errors", s.notServed() + b.notServed());
    addVerdict(r, total);
    for (const char *key : {"windows", "max_window", "batched_requests",
                            "plans_loaded", "rejected"})
        r.add(std::string("server_") + key, statCount(stats, key));
    r.add("server_cache_hit_rate", statNum(stats, "cache_hit_rate"));
    // Kernel backends: ours (the verify oracle) and the server's.
    r.add("kernel_arch", std::string(kernelArch()));
    const std::string server_arch = statOf(stats, "kernel_arch");
    r.add("server_kernel_arch", server_arch == "0" ? "unknown" : server_arch);
    r.deliveryGates("");
    if (spawned) {
        r.add("server_exit_status", static_cast<uint64_t>(exit_status));
        r.gate("server_exit_status", "==", "0");
    }
    return r.finish(o.jsonOut);
}

/**
 * Routing-policy sweep (--replicas): a fresh cluster per policy (a
 * shared one would hand later policies warm caches); --faults fires
 * on the batched phase's request indices.
 */
int
runCluster(const Options &o)
{
    std::vector<RoutePolicy> policies = {RoutePolicy::RoundRobin,
                                         RoutePolicy::LeastOutstanding,
                                         RoutePolicy::Affinity};
    if (o.policy != "all") {
        policies.resize(1);
        if (!parseRoutePolicy(o.policy, policies[0])) {
            std::fprintf(stderr,
                         "--policy: expected round_robin, least_outstanding, "
                         "affinity or all, got '%s'\n",
                         o.policy.c_str());
            return 2;
        }
    }
    // A trace length that is a multiple of the replica count lets
    // round_robin realign on every replay — an artifact of looping one
    // fixed trace. Nudge it off the multiple.
    const size_t requests =
        o.requests + (o.replicas > 1 && o.requests % o.replicas == 0);
    const std::vector<ServiceRequest> trace =
        buildTrace(o.seed, requests, o.quick, /*spread_engines=*/true);

    Report r("cluster_throughput", 2, o.quick);
    r.add("replicas", o.replicas);
    r.add("requests_per_phase", requests);
    r.add("concurrency", o.concurrency);
    Verifier verifier; // memoizes across policies
    Tally total;
    uint64_t errors = 0;
    std::map<RoutePolicy, double> hit_rate;
    for (const RoutePolicy policy : policies) {
        const std::string p = routePolicyName(policy);
        ReplicaProcessConfig rcfg;
        rcfg.serveBinary = o.serveBin;
        rcfg.count = static_cast<int>(o.replicas);
        rcfg.serveArgs = {"--window", "8", "--sessions", "2"};
        // Replicas write <file>.replica<i>.json; later policies
        // overwrite earlier policies' files.
        rcfg.traceOutBase = o.traceOut;
        RouterConfig rtcfg;
        rtcfg.policy = policy;
        // Blackholed replicas keep their connection open; only the
        // per-attempt timeout recovers those requests.
        if (!o.faultPlan.events.empty())
            rtcfg.requestTimeoutMs = 5000;
        Target target(rcfg, rtcfg);
        FaultInjector injector(target.manager(), o.faultPlan,
                               o.seed ^ 0x5ceull);
        std::fprintf(stderr,
                     "ta_loadgen: cluster of %llu, policy %s, %zu "
                     "requests/phase, warmup...\n",
                     ull(o.replicas), p.c_str(), requests);
        const auto [s, b] = runClosedPhases(
            target, trace, o.concurrency, verifier, p,
            [&injector](size_t i) { injector.onRequestIssued(i); });
        const Stats stats = target.stats();
        const uint64_t restarts = target.manager().restarts();
        target.close();

        std::fprintf(stderr, "  cluster: cache hit rate %s, restarts %llu\n",
                     statOf(stats, "cache_hit_rate").c_str(), ull(restarts));
        hit_rate[policy] = statNum(stats, "cache_hit_rate");
        r.add(p + "_serial_rps", s.rps);
        r.add(p + "_batched_rps", b.rps);
        addLatency(r, p, b);
        r.add(p + "_cache_hit_rate", hit_rate[policy]);
        r.add(p + "_server_windows", statCount(stats, "windows"));
        r.add(p + "_batched_requests", statCount(stats, "batched_requests"));
        r.add(p + "_restarts", restarts);
        r.add(p + "_errors", s.notServed() + b.notServed());
        r.add(p + "_verify_mismatches", s.mismatches + b.mismatches);
        errors += s.notServed() + b.notServed();
        total += s;
        total += b;
    }
    if (hit_rate.count(RoutePolicy::RoundRobin) &&
        hit_rate.count(RoutePolicy::Affinity))
        r.add("affinity_vs_round_robin_hit_gain",
              hit_rate[RoutePolicy::Affinity] -
                  hit_rate[RoutePolicy::RoundRobin]);
    r.add("errors", errors);
    addVerdict(r, total);
    r.deliveryGates("");
    return r.finish(o.jsonOut);
}

/** Deadline (ms) of the deliberately-unmeetable SLO requests: far
 *  below any host's execution time for the heavy shapes, so the
 *  planner's shed decision is never borderline. */
constexpr uint64_t kHopelessDeadlineMs = 2;

/**
 * SLO scheduling (--slo): the mixed trace with a generous deadline,
 * except every 4th request is a heavy layer no host finishes within
 * kHopelessDeadlineMs. It is replayed open loop at twice the measured
 * serial capacity (or --rate) against a planned and a fifo server: the
 * planner sheds the hopeless quarter at admission, fifo burns time on
 * work that was already late.
 */
int
runSlo(const Options &o)
{
    const uint64_t deadline_ms =
        o.deadlineMs > 0 ? o.deadlineMs : o.quick ? 2000 : 8000;
    std::vector<ServiceRequest> trace =
        buildTrace(o.seed, o.requests, o.quick);
    Rng rng(o.seed ^ 0x510ull);
    uint64_t hopeless = 0;
    for (size_t i = 0; i < trace.size(); ++i) {
        ServiceRequest &r = trace[i];
        r.deadlineMs = deadline_ms;
        if (i % 4 != 3)
            continue;
        r.shape = o.quick ? GemmShape{2048, 4096, 1024}
                          : GemmShape{4096, 4096, 2048};
        r.samples = 96;
        r.wbits = 4;
        r.useStatic = false;
        r.seed = static_cast<uint64_t>(rng.uniformInt(1, 1 << 20));
        r.deadlineMs = kHopelessDeadlineMs;
        ++hopeless;
    }
    // Warmup and the timing pass must never shed (a shed request would
    // leave its engine cold).
    std::vector<ServiceRequest> warm_trace = trace;
    for (ServiceRequest &r : warm_trace)
        r.deadlineMs = 0;
    CostModel model = CostModel::builtin();
    std::string err;
    if (!o.costModel.empty() && !model.loadFile(o.costModel, &err)) {
        std::fprintf(stderr, "--cost-model: %s\n", err.c_str());
        return 2;
    }

    // Serial pass on single-threaded engines (what the calibration
    // battery timed): per-request host ms for the cost-model error
    // percentiles, and the capacity the offered overload derives from.
    Verifier verifier; // memoizes across both policies
    for (const ServiceRequest &r : warm_trace)
        verifier.expected(r); // the oracle runs before anything is timed
    Verifier timed;           // fresh engines, each with its own cache
    std::vector<double> errs;
    const double t0 = nowSeconds();
    for (const ServiceRequest &r : warm_trace) {
        const double s0 = nowSeconds();
        timed.expected(r);
        const double ms = (nowSeconds() - s0) * 1e3;
        if (ms > 0)
            errs.push_back(std::abs(model.predictMsAt(r, 0.0) - ms) / ms);
    }
    const double capacity = trace.size() / (nowSeconds() - t0);
    const double rate = o.rate > 0 ? o.rate : std::max(4.0, 2.0 * capacity);
    std::fprintf(stderr,
                 "ta_loadgen: slo trace %zu (%llu hopeless), serial "
                 "capacity %.1f req/s, offered %.1f req/s\n",
                 trace.size(), ull(hopeless), capacity, rate);

    Report r("slo", 2, o.quick);
    r.add("requests", trace.size());
    r.add("hopeless_requests", hopeless);
    r.add("deadline_ms", deadline_ms);
    r.add("hopeless_deadline_ms", kHopelessDeadlineMs);
    r.add("offered_rps", rate);
    r.add("serial_capacity_rps", capacity);
    r.add("cost_err_p50", percentileOf(errs, 50.0));
    r.add("cost_err_p90", percentileOf(errs, 90.0));
    r.add("cost_err_p99", percentileOf(errs, 99.0));
    r.add("cost_model", o.costModel.empty() ? "builtin" : o.costModel);
    Tally total;
    double goodput[2] = {0, 0};
    for (const std::string p : {"planned", "fifo"}) {
        Target target(o.serveBin + " --scheduler " + p +
                      (o.costModel.empty() ? "" : " --cost-model ") +
                      o.costModel);
        // Warm both servers identically (engines + plan cache) so the
        // open loop compares scheduling, not cache state.
        runPhase(target, warm_trace, Load(4));
        const Phase open = runPhase(
            target, trace, Load(trace.size(), rate));
        const Stats stats = target.stats();
        const uint64_t unsolicited = target.unsolicited();
        target.close();
        Tally t = tally(open, verifier, p);
        t.duplicated += unsolicited;
        goodput[p == "fifo"] = t.goodputRps;
        const uint64_t shed = t.shedUnmeetable + t.shedOverloaded;
        r.addCounts(p + "_", {{"issued", t.issued}, {"served", t.served},
            {"within_deadline", t.withinDeadline},
            {"missed", t.served - t.withinDeadline},
            {"shed_unmeetable", t.shedUnmeetable},
            {"shed_overloaded", t.shedOverloaded},
            {"server_shed_unmeetable", statCount(stats, "shed_unmeetable")},
            {"lost", t.lost}, {"duplicates", t.duplicated},
            {"errors", t.errors}, {"verify_mismatches", t.mismatches},
            {"ledger", t.served + shed + t.lost + t.errors}});
        r.add(p + "_goodput_rps", t.goodputRps);
        r.add(p + "_p99_within_deadline_ms", t.p99WithinMs);
        r.add(p + "_p99_ms", t.latencyMs.p99);
        r.add(p + "_miss_rate",
              t.served + shed > 0
                  ? static_cast<double>(t.served - t.withinDeadline + shed) /
                        static_cast<double>(t.served + shed)
                  : 0.0);
        r.deliveryGates(p + "_", "duplicates");
        r.gate(p + "_ledger", "==", p + "_issued");
        r.gate(p + "_server_shed_unmeetable", "==", p + "_shed_unmeetable");
        total += t;
    }
    r.add("planned_beats_fifo",
          static_cast<uint64_t>(goodput[0] > goodput[1] ? 1 : 0));
    r.add("verified", std::string(total.mismatches == 0 ? "true" : "false"));
    r.gate("planned_goodput_rps", ">", "fifo_goodput_rps",
           "planned_beats_fifo");
    r.gate("planned_shed_unmeetable", "==", "hopeless_requests");
    r.gate("fifo_shed_unmeetable", "==", "0");
    return r.finish(o.jsonOut);
}

/**
 * Storage tier (--catalog): replay a packed model against
 * `ta_serve --catalog`. The trace is the model's own packed planes, so
 * every request takes the mmap + pin path while the oracle
 * synthesizes — catalog bytes must equal synthesis bytes. Cold start
 * is spawn-to-first-response on the largest plane, best of 3 fresh
 * processes (fork/exec noise exceeds the delta one trial measures),
 * against a plain server synthesizing the same request.
 */
int
runStorage(const Options &o)
{
    BufferManager cat;
    std::string err;
    if (!cat.openCatalog(o.catalog, &err)) {
        std::fprintf(stderr, "ta_loadgen: --catalog: %s\n", err.c_str());
        return 2;
    }
    const CatalogModel *model = cat.findModel(
        o.model.empty() ? cat.models().front()->name : o.model);
    if (model == nullptr) {
        std::fprintf(stderr, "ta_loadgen: --model: no model '%s' in %s\n",
                     o.model.c_str(), o.catalog.c_str());
        return 2;
    }
    const auto requestOf = [&](const CatalogEntry &e) {
        ServiceRequest r;
        r.shape = {e.n, e.k, e.m};
        r.wbits = e.wbits;
        r.seed = e.seed;
        r.samples = o.quick ? 16 : 64;
        r.model = model->name;
        return r;
    };
    // Every layer once, then seeded picks: the page-pin order varies
    // with the seed, the set of planes doesn't.
    Rng rng(o.seed);
    const int layers = static_cast<int>(model->entries.size());
    std::vector<ServiceRequest> trace;
    for (size_t i = 0; i < o.requests; ++i)
        trace.push_back(requestOf(
            model->entries[i < model->entries.size()
                               ? i
                               : static_cast<size_t>(
                                     rng.uniformInt(0, layers - 1))]));
    const CatalogEntry *largest = &model->entries[0];
    for (const CatalogEntry &e : model->entries)
        if (e.dataBytes > largest->dataBytes)
            largest = &e;

    Verifier verifier;
    Tally total;
    const std::string catalog_cmd = o.serveBin + " --catalog " + o.catalog;
    const auto coldStartMs = [&](const std::string &cmd,
                                 const ServiceRequest &req) {
        double best = -1;
        for (int trial = 0; trial < 3; ++trial) {
            const double t0 = nowSeconds();
            Target target(cmd);
            const Phase probe =
                runPhase(target, {req}, Load(1));
            const double ms = (nowSeconds() - t0) * 1e3;
            total.duplicated += target.unsolicited();
            target.close();
            const Tally t = tally(probe, verifier, "cold start " + cmd);
            total += t;
            if (t.served == 1 && (best < 0 || ms < best))
                best = ms;
        }
        return best;
    };
    ServiceRequest probe = requestOf(*largest);
    const double cold_ms = coldStartMs(catalog_cmd, probe);
    probe.model.clear();
    const double synth_ms = coldStartMs(o.serveBin, probe);
    std::fprintf(stderr,
                 "ta_loadgen: cold first response (best of 3): catalog "
                 "%.2f ms, synthesis %.2f ms (%.2fx)\n",
                 cold_ms, synth_ms, synth_ms / cold_ms);

    Target target(catalog_cmd);
    const auto [s, b] = runClosedPhases(target, trace, o.concurrency,
                                        verifier, "closed loop");
    const Stats stats = target.stats();
    total.duplicated += target.unsolicited();
    target.close();
    total += s;
    total += b;
    const uint64_t hits = statCount(stats, "buffer_hits");
    const uint64_t misses = statCount(stats, "buffer_misses");
    const double hit_rate =
        hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0;

    Report r("storage", 1, o.quick);
    r.add("model", model->name);
    r.add("model_layers", static_cast<uint64_t>(layers));
    r.add("catalog_models", statCount(stats, "catalog_models"));
    r.add("storage_bytes_mapped", statCount(stats, "storage_bytes_mapped"));
    r.add("requests_per_phase", trace.size());
    r.add("concurrency", o.concurrency);
    r.add("cold_open_first_response_ms", cold_ms);
    r.add("synthesis_cold_first_response_ms", synth_ms);
    r.add("cold_open_speedup", synth_ms / cold_ms);
    r.add("cold_open_beats_synthesis",
          static_cast<uint64_t>(cold_ms < synth_ms ? 1 : 0));
    r.add("serial_rps", s.rps);
    r.add("batched_rps", b.rps);
    addLatency(r, "batched", b);
    r.add("buffer_hits", hits);
    r.add("buffer_misses", misses);
    r.add("buffer_pins", hits + misses);
    r.add("buffer_evictions", statCount(stats, "buffer_evictions"));
    r.add("buffer_hit_rate", hit_rate);
    r.add("errors", total.notServed());
    addVerdict(r, total);
    r.deliveryGates("");
    r.gate("cold_open_first_response_ms", "<",
           "synthesis_cold_first_response_ms", "cold_open_beats_synthesis");
    r.gate("buffer_pins", ">", "0");
    r.gate("buffer_hit_rate", ">=", "0", "buffer_hit_rate_min");
    r.gate("buffer_hit_rate", "<=", "1", "buffer_hit_rate_max");
    return r.finish(o.jsonOut);
}

/**
 * Tracing overhead (--obs): the same trace against a plain server and
 * a `--trace-out` server whose requests all carry trace ids, over 3
 * trials. Overhead is judged within a trial (its two phases ran back
 * to back) and the best pairing kept: pairing phases of different
 * trials measures host noise, not tracing cost. Every served response
 * of every phase is byte-verified, so traced and untraced responses
 * are identical past the id echo.
 */
int
runObs(const Options &o)
{
    const std::vector<ServiceRequest> trace =
        buildTrace(o.seed, o.requests, o.quick);
    const std::string trace_file = "obs_bench_trace.json";
    const std::string cmd = o.serveBin + " --window 8 --sessions 2";
    const int trials = 3;
    Verifier verifier;
    Tally total;
    const auto measure = [&](bool traced) {
        Target target(traced ? cmd + " --trace-out " + trace_file : cmd);
        Load load(std::max<size_t>(4, o.concurrency));
        load.stampTraceIds = traced;
        runPhase(target, trace, load);
        load.concurrency = o.concurrency;
        const Phase phase = runPhase(target, trace, load);
        total.duplicated += target.unsolicited();
        target.close();
        const Tally t = tally(phase, verifier, traced ? "traced" : "untraced");
        total += t;
        return t;
    };
    Tally untraced, traced;
    double overhead = 1e30;
    for (int trial = 0; trial < trials; ++trial) {
        std::remove(trace_file.c_str());
        const Tally u = measure(false);
        const Tally t = measure(true);
        const double pct = u.rps > 0 ? 100.0 * (1.0 - t.rps / u.rps) : 100;
        if (pct < overhead) {
            overhead = pct;
            untraced = u;
            traced = t;
        }
    }
    // The last traced server flushed its span file at shutdown.
    std::ifstream in(trace_file, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    const std::string spans_text = text.str();
    uint64_t spans = 0;
    for (size_t at = 0; (at = spans_text.find("\"ph\":\"X\"", at)) !=
                        std::string::npos;
         ++at)
        ++spans;
    std::fprintf(stderr,
                 "ta_loadgen: obs: untraced %.1f req/s, traced %.1f req/s "
                 "(%.2f%% overhead), %llu span(s)\n",
                 untraced.rps, traced.rps, overhead, ull(spans));

    Report r("obs", 1, o.quick);
    r.add("requests_per_phase", trace.size());
    r.add("concurrency", o.concurrency);
    r.add("trials", static_cast<uint64_t>(trials));
    r.add("untraced_rps", untraced.rps);
    r.add("traced_rps", traced.rps);
    r.add("overhead_pct", overhead);
    r.add("untraced_p99_ms", untraced.latencyMs.p99);
    r.add("traced_p99_ms", traced.latencyMs.p99);
    r.add("p99_delta_ms", traced.latencyMs.p99 - untraced.latencyMs.p99);
    r.add("spans", spans);
    r.add("trace_bytes", spans_text.size());
    r.add("bytes_per_span",
          spans > 0 ? static_cast<double>(spans_text.size()) / spans : 0.0);
    r.add("responses_identical",
          static_cast<uint64_t>(total.notServed() + total.mismatches == 0));
    r.add("errors", total.notServed());
    addVerdict(r, total);
    r.deliveryGates("");
    r.gate("responses_identical", "==", "1");
    r.gate("overhead_pct", "<=", "5");
    r.gate("spans", ">", "0");
    return r.finish(o.jsonOut);
}

/**
 * Replay one scenario against a fresh cluster: the main trace closed
 * or open loop under the scenario's fault plan, alongside slow-client
 * sidecars that pipeline requests straight to a replica and stall
 * their reads.
 */
ScenarioOutcome
runScenario(const Options &o, const ScenarioSpec &spec, Verifier &verifier)
{
    const std::string cache_base =
        spec.needsCacheFiles ? "scenario_cache_" + spec.name + ".bin" : "";
    const auto removeCacheFiles = [&] {
        for (int i = 0; !cache_base.empty() &&
                        i < std::max(spec.replicas, spec.maxReplicas);
             ++i)
            std::remove((cache_base + "." + std::to_string(i)).c_str());
    };
    removeCacheFiles();
    ReplicaProcessConfig rcfg;
    rcfg.serveBinary = o.serveBin;
    rcfg.count = spec.replicas;
    rcfg.serveArgs = {"--window", "8", "--sessions", "2"};
    if (spec.queueCap > 0)
        rcfg.serveArgs.insert(rcfg.serveArgs.end(),
                              {"--queue-cap", std::to_string(spec.queueCap)});
    rcfg.planCacheBase = cache_base;
    rcfg.cacheSaveIntervalSec = spec.cacheSaveIntervalSec;
    rcfg.backoffInitialMs = 50;
    if (spec.maxReplicas > spec.replicas) {
        rcfg.autoscale.maxReplicas = spec.maxReplicas;
        rcfg.autoscale.upDepthPerReplica = 4;
        rcfg.autoscale.downDepthPerReplica = 1;
        rcfg.autoscale.holdMs = 100;
        rcfg.autoscale.cooldownMs = 400;
    }
    RouterConfig rtcfg;
    rtcfg.policy = RoutePolicy::Affinity;
    rtcfg.requestTimeoutMs = spec.requestTimeoutMs;
    rtcfg.maxRedispatch = spec.maxRedispatch;
    rtcfg.backoffSeed = o.seed;
    Target target(rcfg, rtcfg);
    ReplicaManager &manager = target.manager();
    FaultInjector injector(manager, spec.faults, o.seed ^ 0x5ceull,
                           cache_base);
    if (spec.warmup)
        runPhase(target,
                 {spec.trace.begin(),
                  spec.trace.begin() +
                      std::min<ptrdiff_t>(24, spec.trace.size())},
                 Load(4));
    // corrupt_cache faults need an on-disk snapshot to flip a byte in:
    // wait (bounded) for the victim's periodic save.
    for (const FaultEvent &ev : spec.faults.events) {
        const std::string path =
            cache_base + "." + std::to_string(std::max(ev.slot, 0));
        struct stat st;
        for (int i = 0; ev.kind == FaultKind::CorruptCache && i < 150 &&
                        (::stat(path.c_str(), &st) != 0 || st.st_size == 0);
             ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }

    std::vector<Phase> slow(static_cast<size_t>(spec.slowClients));
    std::vector<uint64_t> slow_unsolicited(slow.size(), 0);
    std::vector<std::thread> sidecars;
    for (size_t c = 0; c < slow.size(); ++c)
        sidecars.emplace_back([&, c] {
            const int slot = static_cast<int>(c) % spec.replicas;
            ServiceClient client(connectTcp(manager.endpoint(slot).port),
                                 spec.stallReadMs);
            // Pipelined: every request issued at once.
            slow[c] = runPhase(
                client,
                scenarioTrace(o.seed + 1000 + c, spec.slowClientRequests,
                              o.quick, 6, 0.0),
                Load(std::vector<double>(spec.slowClientRequests)));
            slow_unsolicited[c] = client.unsolicited();
        });
    Load load = spec.openLoop ? Load(spec.arrivalSec) : Load(spec.concurrency);
    load.onIssue = [&injector](size_t i) { injector.onRequestIssued(i); };
    const Phase main = runPhase(target, spec.trace, load);
    for (std::thread &t : sidecars)
        t.join();
    ScenarioOutcome out;
    out.restarts = manager.restarts();
    out.scaleUps = manager.scaleUps();
    out.scaleDowns = manager.scaleDowns();
    out.abandoned = static_cast<uint64_t>(manager.abandonedCount());
    target.close();

    Tally t = tally(main, verifier, spec.name);
    for (size_t c = 0; c < slow.size(); ++c) {
        t += tally(slow[c], verifier, spec.name + " slow client");
        t.duplicated += slow_unsolicited[c];
    }
    out.rps = t.rps;
    out.p50Ms = t.latencyMs.p50;
    out.p95Ms = t.latencyMs.p95;
    out.p99Ms = t.latencyMs.p99;
    out.requests = t.issued;
    out.served = t.served;
    out.shed = t.shedOverloaded;
    out.errors = t.errors + t.shedUnmeetable;
    out.lost = t.lost;
    out.duplicated = t.duplicated;
    out.mismatches = t.mismatches;
    removeCacheFiles();
    return out;
}

/** The adversarial scenario suite (--scenario NAMES|all|list). */
int
runScenarios(const Options &o)
{
    std::vector<std::string> names;
    std::stringstream list(o.scenario == "all" || o.scenario == "list"
                               ? std::string()
                               : o.scenario);
    for (std::string name; std::getline(list, name, ',');)
        if (!name.empty())
            names.push_back(name);
    if (o.scenario == "all" || o.scenario == "list")
        names = scenarioNames();
    if (o.scenario == "list") {
        for (const std::string &name : names)
            std::printf("%s\n", name.c_str());
        return 0;
    }
    Report r("scenarios", 1, o.quick);
    std::string joined;
    for (const std::string &name : names)
        joined += (joined.empty() ? "" : ",") + name;
    r.add("scenario_list", joined);
    Verifier verifier; // memoizes across scenarios
    uint64_t mismatches = 0;
    for (const std::string &s : names) {
        ScenarioSpec spec;
        std::string err;
        if (!buildScenario(s, o.seed, o.quick, spec, err)) {
            std::fprintf(stderr, "ta_loadgen: %s\n", err.c_str());
            return 2;
        }
        std::fprintf(stderr, "ta_loadgen: scenario %s: %s\n", s.c_str(),
                     spec.description.c_str());
        ScenarioOutcome out = runScenario(o, spec, verifier);
        checkScenarioGates(spec, out);
        std::fprintf(stderr, "  %s: %s\n", s.c_str(),
                     out.pass ? "PASS" : "FAIL");
        for (const std::string &f : out.failures)
            std::fprintf(stderr, "  gate: %s\n", f.c_str());
        mismatches += out.mismatches;
        r.add(s + "_rps", out.rps);
        r.add(s + "_p50_ms", out.p50Ms);
        r.add(s + "_p95_ms", out.p95Ms);
        r.add(s + "_p99_ms", out.p99Ms);
        r.add(s + "_p99_bound_ms", spec.p99BoundMs);
        r.addCounts(s + "_", {{"requests", out.requests},
            {"served", out.served}, {"shed", out.shed},
            {"served_and_shed", out.served + out.shed}, {"lost", out.lost},
            {"duplicated", out.duplicated}, {"errors", out.errors},
            {"verify_mismatches", out.mismatches},
            {"restarts", out.restarts}, {"min_restarts", spec.minRestarts},
            {"scale_ups", out.scaleUps}, {"scale_downs", out.scaleDowns},
            {"abandoned", out.abandoned}, {"allow_shed", spec.allowShed},
            {"pass", out.pass}});
        r.deliveryGates(s + "_");
        r.gate(s + "_abandoned", "==", "0");
        if (!spec.allowShed)
            r.gate(s + "_shed", "==", "0");
        r.gate(s + "_served_and_shed", "<=", s + "_requests");
        r.gate(s + "_p99_ms", "<=", s + "_p99_bound_ms");
        r.gate(s + "_restarts", ">=", s + "_min_restarts");
        r.gate(s + "_pass", "==", "1");
    }
    if (names.empty()) {
        std::fprintf(stderr, "--scenario: no names given\n");
        return 2;
    }
    r.add("verified", std::string(mismatches == 0 ? "true" : "false"));
    return r.finish(o.jsonOut);
}

// ---- command line ---------------------------------------------------------

/** One flag: drives the known-flag check, parsing, the experiment
 *  dispatch and usage(). */
struct Flag
{
    const char *name;
    const char *value;           ///< placeholder; nullptr for a switch
    int (*run)(const Options &); ///< the experiment a mode flag selects
    std::string Options::*text;  ///< destination of a text value
    uint64_t Options::*number;   ///< destination of a number or switch
    uint64_t lo, hi;             ///< a number's accepted range
    const char *help;
};

const Flag kFlags[] = {
    {"--spawn", "CMD", runService, &Options::spawn, nullptr, 0, 0,
     "service throughput against CMD, run via /bin/sh -c on a socketpair"},
    {"--connect", "PORT", runService, nullptr, &Options::port, 1, 65535,
     "service throughput against ta_serve --tcp PORT on 127.0.0.1"},
    {"--replicas", "N", runCluster, nullptr, &Options::replicas, 1, 64,
     "routing-policy sweep over N replicas behind an in-process router"},
    {"--slo", nullptr, runSlo, nullptr, nullptr, 0, 0,
     "planned vs fifo scheduling on a deadline-bearing overload trace"},
    {"--catalog", "DIR", runStorage, &Options::catalog, nullptr, 0, 0,
     "storage tier: replay a packed model against ta_serve --catalog"},
    {"--obs", nullptr, runObs, nullptr, nullptr, 0, 0,
     "tracing overhead: traced vs untraced servers on one trace"},
    {"--scenario", "NAMES", runScenarios, &Options::scenario, nullptr, 0,
     0, "adversarial scenarios: a name, a comma list, 'all' or 'list'"},
    {"--policy", "P", nullptr, &Options::policy, nullptr, 0, 0,
     "round_robin, least_outstanding, affinity or all (default)"},
    {"--serve-bin", "PATH", nullptr, &Options::serveBin, nullptr, 0, 0,
     "ta_serve binary to spawn (default: next to this binary)"},
    {"--model", "NAME", nullptr, &Options::model, nullptr, 0, 0,
     "model to replay with --catalog (default: the first)"},
    {"--faults", "SPEC", nullptr, &Options::faults, nullptr, 0, 0,
     "fault schedule for --replicas, e.g. 'kill@12:2;blackhole@5:0:400'"},
    {"--deadline-ms", "MS", nullptr, nullptr, &Options::deadlineMs, 1,
     kMaxDeadlineMs,
     "deadline on every request (--slo: the meetable ones, default "
     "2000 quick / 8000)"},
    {"--cost-model", "FILE", nullptr, &Options::costModel, nullptr, 0, 0,
     "ta_calibrate coefficients for the --slo servers and cost report"},
    {"--kernels", "ARCH", nullptr, &Options::kernels, nullptr, 0, 0,
     "scalar, avx2, neon or auto kernels for the verify oracle"},
    {"--trace-out", "FILE", nullptr, &Options::traceOut, nullptr, 0, 0,
     "client and router spans as Chrome JSON; replicas write "
     "FILE.replica<i>.json"},
    {"--requests", "N", nullptr, nullptr, &Options::requests, 1, 1 << 16,
     "trace length per phase (default 48, --quick 24)"},
    {"--concurrency", "N", nullptr, nullptr, &Options::concurrency, 1,
     256, "requests outstanding in the batched closed loop (default 8)"},
    {"--rate", "RPS", nullptr, nullptr, &Options::rate, 1, 100000,
     "offered load: an extra open-loop phase, or --slo's (default 2x "
     "serial capacity)"},
    {"--seed", "S", nullptr, nullptr, &Options::seed, 0, ~0ull,
     "trace seed (default 1)"},
    {"--quick", nullptr, nullptr, nullptr, &Options::quick, 0, 0,
     "CI-sized shapes and counts"},
    {"--json-out", nullptr, nullptr, nullptr, &Options::jsonOut, 0, 0,
     "write BENCH_<experiment>.json"},
};

void
usage(const char *argv0)
{
    std::fprintf(stderr, "usage: %s MODE [OPTION...]\n", argv0);
    for (const bool modes : {true, false}) {
        std::fprintf(stderr, modes ? "modes (exactly one):\n"
                                   : "options:\n");
        for (const Flag &f : kFlags)
            if ((f.run != nullptr) == modes)
                std::fprintf(stderr, "  %-13s %-5s %s\n", f.name,
                             f.value != nullptr ? f.value : "", f.help);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    // A server dying mid-trace must surface as write errors and
    // "connection closed" replies, not kill the load generator.
    std::signal(SIGPIPE, SIG_IGN);
    Options o;
    const Flag *mode = nullptr;
    int modes = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const Flag *flag = nullptr;
        for (const Flag &f : kFlags)
            flag = a == f.name ? &f : flag;
        const char *v = flag != nullptr && flag->value != nullptr &&
                                i + 1 < argc
                            ? argv[++i]
                            : nullptr;
        bool ok = flag != nullptr && (flag->value == nullptr || v != nullptr);
        if (!ok && a != "--help" && a != "-h")
            std::fprintf(stderr, "%s %s\n",
                         flag != nullptr ? "missing value for" : "unknown flag",
                         a.c_str());
        else if (ok && flag->text != nullptr)
            o.*flag->text = v;
        else if (ok && v != nullptr)
            ok = parseU64Flag(a, v, flag->lo, flag->hi, o.*flag->number);
        else if (ok && flag->number != nullptr)
            o.*flag->number = 1;
        if (!ok) {
            usage(argv[0]);
            return 2;
        }
        modes += flag->run != nullptr ? 1 : 0;
        mode = flag->run != nullptr ? flag : mode;
    }
    std::string err;
    if (modes != 1) {
        std::fprintf(stderr, "exactly one mode flag is required\n");
        usage(argv[0]);
        return 2;
    }
    if (!o.kernels.empty() && !setKernels(o.kernels, &err)) {
        std::fprintf(stderr, "--kernels: %s\n", err.c_str());
        return 2;
    }
    if (!o.faults.empty() && !parseFaultSpec(o.faults, o.faultPlan, err)) {
        std::fprintf(stderr, "--faults: %s\n", err.c_str());
        return 2;
    }
    if (!o.faultPlan.events.empty() && o.replicas == 0) {
        std::fprintf(stderr, "--faults requires --replicas\n");
        return 2;
    }
    if (o.requests == 0)
        o.requests = o.quick ? 24 : 48;
    if (o.serveBin.empty())
        o.serveBin = defaultServeBinary(argv[0]);

    obs::Tracer &tracer = obs::Tracer::instance();
    if (!o.traceOut.empty())
        tracer.enable(o.traceOut, "ta_loadgen");
    const int rc = mode->run(o);
    if (tracer.enabled() && !tracer.flush())
        std::fprintf(stderr, "ta_loadgen: failed to write trace file %s\n",
                     o.traceOut.c_str());
    else if (tracer.enabled())
        std::fprintf(stderr,
                     "ta_loadgen: wrote %llu span(s) to %s (%llu dropped)\n",
                     ull(tracer.spanCount()), o.traceOut.c_str(),
                     ull(tracer.dropped()));
    return rc;
}
