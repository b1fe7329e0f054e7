/**
 * @file
 * ta_benchmark: the repo benchmark's load generator and checker
 * (benchmark/README.md).
 *
 *   ta_benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *                [--results DIR]
 *
 * Serving workloads launch the real stack (`ta_serve`, or `ta_router`
 * over two replicas) with fixed flags and drive it from this one
 * process: one sender thread and one reader per connection, on two
 * pipelined loopback TCP connections. Each run sets the stack up
 * kSetups times (spawn to warm-up set done; setup_s is the median),
 * then runs a closed loop at the workload's outstanding count and an
 * open loop at its frozen Poisson rate, timing each open-loop request
 * from its due time. offline_suite runs runSuite passes in-process
 * with no service stack.
 *
 * After timing, responses are byte-compared against the in-process
 * serial oracle (engineConfig + runShape + serializeResponse). The
 * last stdout line is the result object; with --trace 0 it carries
 * the end-to-end metrics, with --trace 1 the per-layer metrics of a
 * traced re-run (server --trace-out spans stitched by ta_trace, stats
 * deltas, and the ta_layer_probe replay). Exit status is 0 only when
 * every operation succeeded and every output matched.
 */

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_lib.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/stats.h"
#include "obs/trace.h"
#include "service/line_reader.h"
#include "service/protocol.h"
#include "workloads.h"
#include "workloads/suite_runner.h"

using namespace tabench;
using ta::ServiceRequest;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double
nowS()
{
    return std::chrono::duration<double>(Clock::now().time_since_epoch())
        .count();
}

Clock::time_point
toTimePoint(double s)
{
    return Clock::time_point(std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s)));
}

/** Hard wall-clock cap of one run; the watchdog kills everything. */
constexpr int kRunCapSeconds = 170;

// ---- metrics (names and units must match BENCHMARK.json) ------------------

struct MetricDef
{
    const char *name;
    const char *unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},
    {"throughput_rps", "req/s"}, {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},   {"slo_attainment", "fraction"},
};

const MetricDef kPerLayer[] = {
    {"service.window_mean", "req"},
    {"service.batched_frac", "fraction"},
    {"service.peak_queue_depth", "req"},
    {"service.server_p50_ms", "ms"},
    {"service.server_p99_ms", "ms"},
    {"service.cpu_cores", "cores"},
    {"service.queue_ms_p50", "ms"},
    {"service.queue_ms_mean", "ms"},
    {"service.pack_ms_p50", "ms"},
    {"service.pack_ms_mean", "ms"},
    {"service.exec_ms_p50", "ms"},
    {"service.exec_ms_mean", "ms"},
    {"service.serialize_ms_p50", "ms"},
    {"service.serialize_ms_mean", "ms"},
    {"cluster.route_self_ms", "ms"},
    {"cluster.retried", "count"},
    {"protocol.parse_us", "us"},
    {"protocol.serialize_us", "us"},
    {"service.predict_us", "us"},
    {"storage.buffer_hit_rate", "fraction"},
    {"storage.evictions_per_req", "count"},
    {"storage.pin_hit_us", "us"},
    {"storage.pin_miss_us", "us"},
    {"storage.pin_ms", "ms"},
    {"workloads.synth_ms", "ms"},
    {"core.layer_ms", "ms"},
    {"core.layer_static_ms", "ms"},
    {"core.batch_gain", "ratio"},
    {"exec.plan_hit_rate", "fraction"},
    {"exec.plan_misses_per_req", "count"},
    {"exec.plan_hit_us", "us"},
    {"scoreboard.build_us", "us"},
    {"obs.overhead_frac", "fraction"},
    {"obs.dropped_spans", "count"},
    {"loadgen.late_ms_p99", "ms"},
    {"loadgen.cpu_cores", "cores"},
    {"probe.unattributed_frac", "fraction"},
};

/** What one run reports. */
struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool correct = true;
    std::map<std::string, double> metrics;

    void
    fail(uint64_t n, const char *why)
    {
        if (n == 0)
            return;
        failed += n;
        correct = false;
        std::fprintf(stderr, "ta_benchmark: FAIL %llu: %s\n",
                     static_cast<unsigned long long>(n), why);
    }
};

// ---- child processes ------------------------------------------------------

/** Process groups of live children, for the watchdog. */
std::mutex g_procMu;
std::set<pid_t> g_groups;

/**
 * fork+exec `argv` in its own process group (so a router's replicas
 * can be stopped with it) with stdin from /dev/null, stdout to
 * `out_fd` and stderr to `err_fd` (-1 = /dev/null).
 */
pid_t
spawnProcess(const std::vector<std::string> &argv, int out_fd, int err_fd)
{
    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);
    const int devnull = ::open("/dev/null", O_RDWR);
    std::lock_guard<std::mutex> lock(g_procMu);
    const pid_t pid = ::fork();
    if (pid == 0) {
        // ta_benchmark blocks SIGINT/SIGTERM for its watchdog; the
        // tools it runs get the default mask back.
        sigset_t none;
        sigemptyset(&none);
        ::sigprocmask(SIG_SETMASK, &none, nullptr);
        ::setpgid(0, 0);
        ::dup2(devnull, STDIN_FILENO);
        ::dup2(out_fd >= 0 ? out_fd : devnull, STDOUT_FILENO);
        ::dup2(err_fd >= 0 ? err_fd : devnull, STDERR_FILENO);
        for (int fd = 3; fd < 4096; ++fd)
            ::close(fd);
        ::execv(args[0], args.data());
        _exit(127);
    }
    ::close(devnull);
    if (pid > 0) {
        ::setpgid(pid, pid);
        g_groups.insert(pid);
    }
    return pid;
}

/** Reap orphans handed to us as child subreaper (replicas of a killed
 *  router). */
void
reapOrphans()
{
    int status = 0;
    while (::waitpid(-1, &status, WNOHANG) > 0) {
    }
}

/**
 * Wait for `pid` to exit (SIGKILL of its whole group after
 * `timeout_s`), then for every other member of its group to be gone.
 * Returns the exit status, or -1 when it had to be killed.
 */
int
reapProcess(pid_t pid, double timeout_s)
{
    const double deadline = nowS() + timeout_s;
    int status = 0;
    int rc = -1;
    while (true) {
        const pid_t r = ::waitpid(pid, &status, WNOHANG);
        if (r == pid) {
            rc = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
            break;
        }
        if (r < 0)
            break;
        if (nowS() > deadline) {
            ::kill(-pid, SIGKILL);
            ::waitpid(pid, &status, 0);
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    // Members of the group (replicas) must be gone too.
    const double group_deadline = nowS() + 5.0;
    while (::kill(-pid, 0) == 0) {
        reapOrphans();
        if (nowS() > group_deadline) {
            ::kill(-pid, SIGKILL);
            if (nowS() > group_deadline + 2.0)
                break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    std::lock_guard<std::mutex> lock(g_procMu);
    g_groups.erase(pid);
    return rc;
}

/** Kill and reap every live child group: the run is being abandoned. */
void
killChildren()
{
    std::vector<pid_t> groups;
    {
        std::lock_guard<std::mutex> lock(g_procMu);
        groups.assign(g_groups.begin(), g_groups.end());
    }
    for (pid_t g : groups) {
        ::kill(-g, SIGKILL);
        reapProcess(g, 1.0);
    }
}

/** Run a tool to completion with stdout+stderr appended to `log`. */
int
runTool(const std::vector<std::string> &argv, const std::string &log,
        double timeout_s)
{
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    const pid_t pid = spawnProcess(argv, fd, fd);
    if (fd >= 0)
        ::close(fd);
    if (pid < 0)
        return -1;
    return reapProcess(pid, timeout_s);
}

/** Run a tool and capture its stdout (stderr to `log`). */
int
runCapture(const std::vector<std::string> &argv, const std::string &log,
           double timeout_s, std::string &out)
{
    int pipefd[2];
    if (::pipe(pipefd) != 0)
        return -1;
    const int err = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    const pid_t pid = spawnProcess(argv, pipefd[1], err);
    ::close(pipefd[1]);
    if (err >= 0)
        ::close(err);
    char buf[4096];
    const double deadline = nowS() + timeout_s;
    while (pid > 0 && nowS() < deadline) {
        pollfd pfd{pipefd[0], POLLIN, 0};
        if (::poll(&pfd, 1, 100) <= 0)
            continue;
        const ssize_t n = ::read(pipefd[0], buf, sizeof(buf));
        if (n <= 0)
            break;
        out.append(buf, static_cast<size_t>(n));
    }
    ::close(pipefd[0]);
    return pid < 0 ? -1 : reapProcess(pid, 5.0);
}

void
printLogTail(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    const size_t from = lines.size() > 15 ? lines.size() - 15 : 0;
    for (size_t i = from; i < lines.size(); ++i)
        std::fprintf(stderr, "  | %s\n", lines[i].c_str());
}

// ---- connections ----------------------------------------------------------

int
connectLoopback(uint16_t port)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    for (int attempt = 0; attempt < 100; ++attempt) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            return -1;
        if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) == 0) {
            // Client-side batching would be part of the measurement.
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
            return fd;
        }
        ::close(fd);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return -1;
}

uint64_t
responseId(const std::string &line)
{
    const size_t at = line.find("\"id\":");
    return at == std::string::npos
               ? 0
               : std::strtoull(line.c_str() + at + 5, nullptr, 10);
}

bool
responseOk(const std::string &line)
{
    return line.find("\"ok\":1") != std::string::npos;
}

/** One request of a phase as the load generator saw it. */
struct Slot
{
    double due = 0;
    double sent = 0;
    double recv = -1;
    uint64_t traceId = 0;
    uint64_t spanT0 = 0;
    std::string response;
};

/**
 * The requests of one stream phase sent over a Session. Slot i is
 * stream index i; its wire id is (tag << 32) | i. `mu` orders the
 * sender's slot writes before the reader's completion of that slot.
 */
struct PhaseRun
{
    PhaseRun(Phase p, uint32_t t, size_t capacity)
        : phase(p), tag(t), slots(capacity)
    {
    }

    Phase phase;
    uint32_t tag;
    std::vector<Slot> slots;
    std::mutex mu;
    std::condition_variable cv;
    size_t used = 0;
    size_t inflight = 0;
    bool dead = false;
    double start = 0;
    double end = 0;
};

constexpr uint32_t kControlTag = 0xffff;

/** Response lines nobody was waiting for (duplicates, stray ids). */
std::atomic<uint64_t> g_unsolicited{0};

/** Pipelined loopback connections to one stack, one reader each. */
class Session
{
  public:
    bool
    open(uint16_t port, int conns)
    {
        for (int c = 0; c < conns; ++c) {
            const int fd = connectLoopback(port);
            if (fd < 0)
                return false;
            fds_.push_back(fd);
        }
        for (int fd : fds_)
            readers_.emplace_back([this, fd] { readLoop(fd); });
        return true;
    }

    Session() = default;
    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;
    ~Session() { close(); }

    void
    close()
    {
        for (int fd : fds_)
            ::shutdown(fd, SHUT_RDWR);
        for (std::thread &t : readers_)
            t.join();
        for (int fd : fds_)
            ::close(fd);
        readers_.clear();
        fds_.clear();
    }

    void setCurrent(PhaseRun *run) { current_.store(run); }

    bool
    write(size_t conn, const std::string &line)
    {
        const int fd = fds_[conn % fds_.size()];
        size_t off = 0;
        while (off < line.size()) {
            const ssize_t n =
                ::send(fd, line.data() + off, line.size() - off,
                       MSG_NOSIGNAL);
            if (n <= 0)
                return false;
            off += static_cast<size_t>(n);
        }
        return true;
    }

    /** Send a control op ("stats", "shutdown") and wait for its line. */
    std::string
    control(const std::string &op, double timeout_s)
    {
        ServiceRequest req;
        req.op = op;
        std::future<std::string> fut;
        {
            std::lock_guard<std::mutex> lock(controlMu_);
            req.id = (static_cast<uint64_t>(kControlTag) << 32) |
                     ++controlSeq_;
            fut = control_[req.id].get_future();
        }
        if (!write(0, ta::serializeRequest(req) + "\n"))
            return "";
        if (fut.wait_for(std::chrono::duration<double>(timeout_s)) !=
            std::future_status::ready)
            return "";
        return fut.get();
    }

  private:
    void
    readLoop(int fd)
    {
        ta::LineReader reader(fd);
        std::string line;
        bool terminated = true;
        while (reader.next(line, terminated) && terminated) {
            const double t = nowS();
            const uint64_t id = responseId(line);
            const uint32_t tag = static_cast<uint32_t>(id >> 32);
            if (tag == kControlTag) {
                std::lock_guard<std::mutex> lock(controlMu_);
                const auto it = control_.find(id);
                if (it != control_.end()) {
                    it->second.set_value(line);
                    control_.erase(it);
                }
                continue;
            }
            PhaseRun *run = current_.load();
            if (run == nullptr || run->tag != tag) {
                ++g_unsolicited;
                continue;
            }
            const size_t i = static_cast<size_t>(id & 0xffffffffu);
            {
                std::lock_guard<std::mutex> lock(run->mu);
                if (i >= run->used || run->slots[i].recv >= 0) {
                    ++g_unsolicited;
                    continue;
                }
                Slot &s = run->slots[i];
                s.recv = t;
                s.response = std::move(line);
                if (s.traceId != 0) {
                    ta::obs::Span span;
                    span.traceId = s.traceId;
                    span.spanId = ta::obs::Tracer::instance().mintSpanId();
                    span.name = "request";
                    span.t0Ns = s.spanT0;
                    span.t1Ns = ta::obs::Tracer::nowNs();
                    ta::obs::Tracer::instance().record(span);
                }
                --run->inflight;
            }
            run->cv.notify_all();
        }
        // Connection gone: no waiter may block on it any longer.
        if (PhaseRun *run = current_.load()) {
            {
                std::lock_guard<std::mutex> lock(run->mu);
                run->dead = true;
            }
            run->cv.notify_all();
        }
    }

    std::vector<int> fds_;
    std::atomic<PhaseRun *> current_{nullptr};
    std::mutex controlMu_;
    uint64_t controlSeq_ = 0;
    std::map<uint64_t, std::promise<std::string>> control_;
    std::vector<std::thread> readers_;
};

// ---- stacks ---------------------------------------------------------------

struct RunContext
{
    const WorkloadSpec *spec = nullptr;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string work;    ///< per-run scratch directory
    std::string results; ///< where merged traces are kept
    std::string catalog; ///< llama_catalog segment directory
};

/** A launched ta_serve or ta_router and our session on it. */
struct Stack
{
    pid_t pid = -1;
    Session session;

    /** Server processes: the stack's own pid plus its replicas. */
    std::vector<pid_t>
    pids() const
    {
        std::vector<pid_t> out{pid};
        for (pid_t c : childPids(pid))
            out.push_back(c);
        return out;
    }
};

std::vector<std::string>
stackArgv(const RunContext &ctx, const std::string &trace_out)
{
    const auto flag = [](const char *f, auto v) {
        return std::vector<std::string>{f, std::to_string(v)};
    };
    std::vector<std::string> argv;
    const auto add = [&argv](const std::vector<std::string> &more) {
        argv.insert(argv.end(), more.begin(), more.end());
    };
    if (ctx.spec->kind == WorkloadKind::Cluster) {
        argv = {TA_ROUTER_BIN, "--port", "0", "--policy", "affinity"};
        add(flag("--replicas", 2));
        add(flag("--threads", 1));
        add(flag("--sessions", 1));
    } else {
        argv = {TA_SERVE_BIN, "--port", "0"};
        add(flag("--threads", kServeThreads));
        add(flag("--sessions", 2));
    }
    add(flag("--window", kWindow));
    if (ctx.spec->kind == WorkloadKind::Catalog) {
        add({"--catalog", ctx.catalog});
        add(flag("--buffer-pages", kBufferPages));
    }
    if (!trace_out.empty())
        add({"--trace-out", trace_out});
    return argv;
}

/** Spawn the stack, learn its port from `listening <port>`, connect. */
bool
launchStack(const RunContext &ctx, const std::string &trace_out,
            Stack &stack)
{
    int pipefd[2];
    if (::pipe(pipefd) != 0)
        return false;
    const std::string log = ctx.work + "/stack.log";
    const int err = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    stack.pid = spawnProcess(stackArgv(ctx, trace_out), pipefd[1], err);
    ::close(pipefd[1]);
    if (err >= 0)
        ::close(err);
    std::string out;
    unsigned port = 0;
    const double deadline = nowS() + 30.0;
    while (stack.pid > 0 && port == 0 && nowS() < deadline) {
        pollfd pfd{pipefd[0], POLLIN, 0};
        if (::poll(&pfd, 1, 100) <= 0)
            continue;
        char buf[256];
        const ssize_t n = ::read(pipefd[0], buf, sizeof(buf));
        if (n <= 0)
            break;
        out.append(buf, static_cast<size_t>(n));
        if (out.find('\n') != std::string::npos)
            std::sscanf(out.c_str(), "listening %u", &port);
    }
    ::close(pipefd[0]);
    if (port == 0 || port > 65535 || !stack.session.open(
                                         static_cast<uint16_t>(port), 2)) {
        std::fprintf(stderr, "ta_benchmark: stack failed to start\n");
        printLogTail(log);
        return false;
    }
    return true;
}

/** Graceful shutdown op, then wait for every stack process. */
void
stopStack(Stack &stack)
{
    if (stack.pid <= 0)
        return;
    stack.session.control("shutdown", 10.0);
    stack.session.close();
    reapProcess(stack.pid, 20.0);
    stack.pid = -1;
}

// ---- load phases ----------------------------------------------------------

uint32_t g_nextTag = 1;

/**
 * Trace ids ta_benchmark stamps: splitmix64 of a counter is a bijection,
 * so ids never collide within a run. Every request a traced stack
 * sees carries one, so the router never mints its own.
 */
uint64_t
nextTraceId()
{
    static uint64_t counter = 0;
    const uint64_t id =
        mixSeed(static_cast<uint64_t>(::getpid()), ++counter);
    return id == 0 ? 1 : id;
}

/** How a phase paces its sends. */
struct PhaseSpec
{
    Phase phase;
    size_t outstanding = 0;  ///< closed loop: requests in flight
    size_t count = 0;        ///< closed loop: stop after this many (0 = timed)
    double duration = 0;     ///< timed closed loop: seconds
    const std::vector<double> *schedule = nullptr; ///< open loop due offsets
    bool traced = false;
    /** Closed loop: run `onMark` once, on the sender thread, when this
     *  many responses are back (0 = never). */
    size_t markAt = 0;
    std::function<void()> onMark;
};

std::unique_ptr<PhaseRun>
runPhase(Session &session, const RequestStream &stream, const PhaseSpec &ps)
{
    const bool open = ps.schedule != nullptr;
    const size_t capacity =
        open ? ps.schedule->size()
             : ps.count > 0 ? ps.count
                            : std::max<size_t>(2000, static_cast<size_t>(
                                                         8000 * ps.duration));
    auto run = std::make_unique<PhaseRun>(ps.phase, g_nextTag++, capacity);
    session.setCurrent(run.get());
    run->start = nowS();
    run->end = run->start + ps.duration;
    const Clock::time_point end_tp = toTimePoint(run->end);
    bool marked = ps.markAt == 0;
    for (size_t i = 0; i < capacity; ++i) {
        ServiceRequest req = stream.at(ps.phase, i);
        req.id = (static_cast<uint64_t>(run->tag) << 32) | i;
        if (ps.traced)
            req.traceId = nextTraceId();
        const std::string line = ta::serializeRequest(req) + "\n";
        double due = 0;
        if (open) {
            due = run->start + (*ps.schedule)[i];
            std::this_thread::sleep_until(toTimePoint(due));
        }
        bool mark_now = false;
        {
            std::unique_lock<std::mutex> lock(run->mu);
            if (!open) {
                const auto room = [&] {
                    return run->dead || run->inflight < ps.outstanding;
                };
                const bool ready =
                    ps.count > 0
                        ? run->cv.wait_for(lock, std::chrono::seconds(60),
                                           room)
                        : run->cv.wait_until(lock, end_tp, room);
                if (!ready)
                    break;
                if (run->dead || (ps.count == 0 && nowS() >= run->end))
                    break;
            }
            Slot &s = run->slots[i];
            s.sent = nowS();
            s.due = open ? due : s.sent;
            if (ps.traced) {
                s.traceId = req.traceId;
                s.spanT0 = ta::obs::Tracer::nowNs();
            }
            mark_now = !marked && run->used - run->inflight >= ps.markAt;
            ++run->inflight;
            run->used = i + 1;
        }
        if (mark_now) {
            marked = true;
            ps.onMark();
        }
        if (!session.write(i, line))
            break;
    }
    if (ps.count > 0 || open)
        run->end = nowS();
    // Drain: every sent request must come back.
    std::unique_lock<std::mutex> lock(run->mu);
    run->cv.wait_for(lock, std::chrono::seconds(30),
                     [&] { return run->inflight == 0 || run->dead; });
    lock.unlock();
    session.setCurrent(nullptr);
    return run;
}

/** Closed-loop throughput: OK responses per second, the median over
 *  six equal slices of the phase. */
double
closedLoopRps(const PhaseRun &run)
{
    std::vector<double> ok_at;
    for (size_t i = 0; i < run.used; ++i)
        if (run.slots[i].recv >= 0 && responseOk(run.slots[i].response))
            ok_at.push_back(run.slots[i].recv);
    return windowedRate(ok_at, run.start, run.end, 6);
}

/** Sent requests that did not come back OK. */
uint64_t
phaseFailures(const PhaseRun &run)
{
    uint64_t bad = 0;
    for (size_t i = 0; i < run.used; ++i)
        if (run.slots[i].recv < 0 || !responseOk(run.slots[i].response))
            ++bad;
    return bad;
}

OpenLoopSummary
openLoopSummary(const PhaseRun &run, double limit_ms)
{
    std::vector<OpenLoopRecord> recs(run.used);
    for (size_t i = 0; i < run.used; ++i) {
        const Slot &s = run.slots[i];
        recs[i] = {s.due, s.sent, s.recv, responseOk(s.response)};
    }
    return summarizeOpenLoop(recs, limit_ms);
}

// ---- oracle ---------------------------------------------------------------

/**
 * The serial oracle: every distinct request once on a fresh
 * single-threaded engine per EngineKey — what `ta_sim --response`
 * prints — spread over worker threads. Returns key -> response past
 * the id field.
 */
std::map<std::string, std::string>
oracle(const std::vector<ServiceRequest> &requests)
{
    std::map<std::string, const ServiceRequest *> distinct;
    for (const ServiceRequest &r : requests)
        distinct.emplace(requestKey(r), &r);
    std::vector<std::pair<std::string, const ServiceRequest *>> work(
        distinct.begin(), distinct.end());
    std::vector<std::string> expected(work.size());
    std::atomic<size_t> next{0};
    const unsigned workers = std::max(
        1u, std::min(4u, std::thread::hardware_concurrency()));
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back([&] {
            std::map<ta::EngineKey,
                     std::unique_ptr<ta::TransArrayAccelerator>>
                engines;
            for (size_t i; (i = next.fetch_add(1)) < work.size();) {
                const ServiceRequest &r = *work[i].second;
                try {
                    auto &eng = engines[ta::engineKeyOf(r)];
                    if (!eng)
                        eng = std::make_unique<ta::TransArrayAccelerator>(
                            ta::engineConfig(ta::engineKeyOf(r), 1));
                    expected[i] = afterId(ta::serializeResponse(
                        r, eng->runShape(r.shape, r.wbits, r.seed)));
                } catch (const std::exception &e) {
                    // Matches no response, so it counts as a mismatch.
                    expected[i] = std::string("oracle error: ") + e.what();
                }
            }
        });
    for (std::thread &t : pool)
        t.join();
    std::map<std::string, std::string> out;
    for (size_t i = 0; i < work.size(); ++i)
        out.emplace(work[i].first, std::move(expected[i]));
    return out;
}

/**
 * Byte-compare OK responses against the oracle: every response, or a
 * seeded sample of `sample` OK responses when nonzero. Returns the
 * mismatch count.
 */
uint64_t
verifyResponses(const RequestStream &stream,
                const std::vector<const PhaseRun *> &runs, size_t sample,
                uint64_t seed)
{
    struct Item
    {
        ServiceRequest req;
        const std::string *response;
    };
    std::vector<Item> items;
    for (const PhaseRun *run : runs)
        for (size_t i = 0; i < run->used; ++i)
            if (responseOk(run->slots[i].response))
                items.push_back(
                    {stream.at(run->phase, i), &run->slots[i].response});
    if (sample > 0 && items.size() > sample) {
        ta::Rng rng(mixSeed(seed, 0x5a3b1e));
        for (size_t i = 0; i < sample; ++i)
            std::swap(items[i],
                      items[i + static_cast<size_t>(rng.uniformInt(
                                    0, static_cast<int64_t>(
                                           items.size() - i - 1)))]);
        items.resize(sample);
    }
    std::vector<ServiceRequest> reqs;
    for (const Item &it : items)
        reqs.push_back(it.req);
    const std::map<std::string, std::string> want = oracle(reqs);
    uint64_t mismatches = 0;
    for (const Item &it : items) {
        const std::string &exp = want.at(requestKey(it.req));
        if (afterId(*it.response) != exp && ++mismatches <= 3)
            std::fprintf(stderr,
                         "VERIFY MISMATCH\n  got      %s\n  expected "
                         "%s\n",
                         it.response->c_str(), exp.c_str());
    }
    std::fprintf(stderr,
                 "ta_benchmark: verified %zu response(s) against %zu "
                 "oracle run(s): %llu mismatch(es)\n",
                 items.size(), want.size(),
                 static_cast<unsigned long long>(mismatches));
    return mismatches;
}

// ---- traces and the probe -------------------------------------------------

/** `"key":"value"` string field of a merged trace line. */
std::string
jsonStringField(const std::string &line, const char *key)
{
    const std::string pat = std::string("\"") + key + "\":\"";
    const size_t at = line.find(pat);
    if (at == std::string::npos)
        return "";
    const size_t from = at + pat.size();
    return line.substr(from, line.find('"', from) - from);
}

double
jsonNumberField(const std::string &line, const char *key)
{
    const std::string pat = std::string("\"") + key + "\":";
    const size_t at = line.find(pat);
    return at == std::string::npos
               ? 0.0
               : std::strtod(line.c_str() + at + pat.size(), nullptr);
}

/** Per-trace-id span durations (ms) by span name. */
using TraceDurations =
    std::unordered_map<std::string, std::map<std::string, double>>;

TraceDurations
loadMergedTrace(const std::string &path)
{
    TraceDurations out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("\"ph\":\"X\"") == std::string::npos)
            continue;
        const std::string trace = jsonStringField(line, "trace");
        if (trace.empty())
            continue;
        out[trace][jsonStringField(line, "name")] +=
            jsonNumberField(line, "dur") / 1e3;
    }
    return out;
}

/** The `dropped` count a Tracer::flush writes into otherData. */
uint64_t
droppedSpans(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    const size_t at = text.rfind("\"dropped\":\"");
    return at == std::string::npos
               ? 0
               : std::strtoull(text.c_str() + at + 11, nullptr, 10);
}

/**
 * Stitch `files` (ta_benchmark's own first, once flushed) with
 * `ta_trace --strict` into the run's kept Chrome trace. Spans any
 * process dropped are failures: the per-layer numbers would be
 * partial. Returns the merged path.
 */
std::string
mergeTraces(const RunContext &ctx, const std::vector<std::string> &files,
            Outcome &outcome)
{
    uint64_t dropped = 0;
    for (const std::string &f : files)
        dropped += droppedSpans(f);
    outcome.metrics["obs.dropped_spans"] = static_cast<double>(dropped);
    outcome.fail(dropped, "dropped trace spans");
    // One merged trace per workload: the latest traced run's.
    const std::string merged =
        ctx.results + "/trace_" + ctx.spec->name + ".json";
    std::vector<std::string> argv = {TA_TRACE_BIN, "--strict", "--merged",
                                     merged};
    argv.insert(argv.end(), files.begin(), files.end());
    const std::string log = ctx.work + "/ta_trace.log";
    if (runTool(argv, log, 60.0) != 0) {
        printLogTail(log);
        outcome.fail(1, "ta_trace integrity check");
    }
    return merged;
}

/** Run ta_layer_probe and parse its `metric value` lines. */
bool
runProbe(const RunContext &ctx, const std::string &trace_out,
         Outcome &outcome)
{
    std::vector<std::string> argv = {TA_PROBE_BIN,
                                     "--workload",
                                     ctx.spec->name,
                                     "--seed",
                                     std::to_string(ctx.seed),
                                     "--trace-out",
                                     trace_out};
    if (!ctx.catalog.empty()) {
        argv.push_back("--catalog");
        argv.push_back(ctx.catalog);
    }
    std::string out;
    const std::string log = ctx.work + "/probe.log";
    if (runCapture(argv, log, 90.0, out) != 0) {
        std::fprintf(stderr, "ta_benchmark: ta_layer_probe failed\n");
        printLogTail(log);
        return false;
    }
    std::istringstream lines(out);
    std::string name;
    double value = 0;
    while (lines >> name >> value)
        outcome.metrics[name] = value;
    return true;
}

// ---- serving workloads ----------------------------------------------------

/** Catalog segments are packed outside timing, once per run. */
bool
packCatalog(RunContext &ctx)
{
    ctx.catalog = ctx.work + "/catalog";
    fs::create_directories(ctx.catalog);
    std::string suites;
    for (const std::string &s : catalogSuiteNames())
        suites += (suites.empty() ? "" : ",") + s;
    const std::string log = ctx.work + "/pack.log";
    if (runTool({TA_PACK_BIN, "--out", ctx.catalog + "/llama.taseg",
                 "--suites", suites, "--wbits", "4", "--seed",
                 std::to_string(ctx.seed)},
                log, 60.0) != 0) {
        std::fprintf(stderr, "ta_benchmark: ta_pack failed\n");
        printLogTail(log);
        return false;
    }
    return true;
}

/** CPU time of every stack process (server, or router and replicas). */
double
stackCpuSeconds(const Stack &stack)
{
    double s = 0;
    for (pid_t p : stack.pids())
        s += cpuSeconds(p);
    return s;
}

/** Summed VmHWM of every stack process. */
double
stackPeakRssMb(const Stack &stack)
{
    double mb = 0;
    for (pid_t p : stack.pids())
        mb += vmHwmMb(p);
    return mb;
}

/** Launch a stack and finish the warm-up set; false on failure. */
bool
setUpStack(const RunContext &ctx, const RequestStream &stream,
           const std::string &trace_out, Stack &stack,
           std::vector<std::unique_ptr<PhaseRun>> &runs)
{
    if (!launchStack(ctx, trace_out, stack))
        return false;
    PhaseSpec warm{Phase::Warmup};
    warm.outstanding = ctx.spec->outstanding;
    warm.count = ctx.spec->warmup;
    warm.traced = !trace_out.empty();
    runs.push_back(runPhase(stack.session, stream, warm));
    return phaseFailures(*runs.back()) == 0 &&
           runs.back()->used == ctx.spec->warmup;
}

void
runServing(RunContext &ctx, Outcome &outcome)
{
    const WorkloadSpec &spec = *ctx.spec;
    const RequestStream stream(spec, ctx.seed);
    if (spec.kind == WorkloadKind::Catalog && !packCatalog(ctx)) {
        outcome.fail(1, "catalog packing");
        return;
    }
    std::vector<std::unique_ptr<PhaseRun>> runs;
    std::vector<const PhaseRun *> timed;
    const auto timedPhase = [&](Stack &stack, PhaseSpec ps) {
        runs.push_back(runPhase(stack.session, stream, ps));
        timed.push_back(runs.back().get());
        outcome.attempted += runs.back()->used;
        return runs.back().get();
    };
    PhaseSpec closed{Phase::Closed};
    closed.outstanding = spec.outstanding;
    const std::vector<double> schedule = poissonSchedule(
        mixSeed(ctx.seed, static_cast<uint64_t>(Phase::Open)),
        spec.openRate,
        ctx.seconds * (ctx.trace ? 0.3 : 1.0 - spec.closedShare));
    PhaseSpec open{Phase::Open};
    open.schedule = &schedule;

    if (!ctx.trace) {
        std::vector<double> setups;
        Stack stack;
        for (int k = 0; k < kSetups; ++k) {
            if (k > 0)
                stopStack(stack);
            const double t0 = nowS();
            if (!setUpStack(ctx, stream, "", stack, runs)) {
                stopStack(stack);
                outcome.fail(1, "stack set-up");
                return;
            }
            setups.push_back(nowS() - t0);
        }
        // Memory after a fixed amount of work, or at the end of the
        // closed loop should that come first.
        double rss = -1;
        closed.markAt = kRssAtResponses;
        closed.onMark = [&] { rss = stackPeakRssMb(stack); };
        closed.duration = ctx.seconds * spec.closedShare;
        const double rps = closedLoopRps(*timedPhase(stack, closed));
        if (rss < 0)
            rss = stackPeakRssMb(stack);
        const OpenLoopSummary ol =
            openLoopSummary(*timedPhase(stack, open), spec.latencyLimitMs);
        stopStack(stack);
        outcome.metrics["setup_s"] = ta::percentileOf(setups, 50);
        outcome.metrics["peak_rss_mb"] = rss;
        outcome.metrics["throughput_rps"] = rps;
        outcome.metrics["latency_p50_ms"] = ol.p50Ms;
        outcome.metrics["latency_tail_ms"] = ol.tailMs;
        outcome.metrics["slo_attainment"] = ol.sloAttainment;
        std::fprintf(stderr,
                     "ta_benchmark: %s: closed %.1f req/s; open %zu sent "
                     "at %.0f req/s, %zu OK: p50 %.3f ms, tail p%.1f "
                     "%.3f ms, generator late p99 %.3f ms\n",
                     spec.name, rps, ol.sent, spec.openRate, ol.ok,
                     ol.p50Ms, ol.tailPct, ol.tailMs, ol.lateP99Ms);
        if (ol.lateP99Ms > kLateBoundMs)
            outcome.fail(1, "open-loop generator ran late");
    } else {
        // Untraced stack: stats deltas and CPU around the closed loop.
        Stack plain;
        if (!setUpStack(ctx, stream, "", plain, runs)) {
            stopStack(plain);
            outcome.fail(1, "stack set-up");
            return;
        }
        Stats s0, s1;
        parseStats(plain.session.control("stats", 10.0), s0);
        const double cpu0 = stackCpuSeconds(plain);
        closed.duration = ctx.seconds * 0.35;
        const PhaseRun *base = timedPhase(plain, closed);
        const double cpu1 = stackCpuSeconds(plain);
        parseStats(plain.session.control("stats", 10.0), s1);
        stopStack(plain);
        const double untraced_rps = closedLoopRps(*base);

        // Traced stack: same phases with every request stamped.
        const std::string client_trace = ctx.work + "/client.json";
        const std::string server_trace = ctx.work + "/server";
        ta::obs::Tracer::instance().enable(client_trace, "ta_benchmark");
        const std::string trace_out =
            spec.kind == WorkloadKind::Cluster ? server_trace
                                               : server_trace + ".json";
        Stack traced;
        if (!setUpStack(ctx, stream, trace_out, traced, runs)) {
            stopStack(traced);
            outcome.fail(1, "traced stack set-up");
            return;
        }
        closed.traced = open.traced = true;
        const double self0 = cpuSeconds(::getpid());
        const double wall0 = nowS();
        const PhaseRun *traced_closed = timedPhase(traced, closed);
        const PhaseRun *traced_open = timedPhase(traced, open);
        const double traced_rps = closedLoopRps(*traced_closed);
        const OpenLoopSummary ol =
            openLoopSummary(*traced_open, spec.latencyLimitMs);
        const double client_cores =
            (cpuSeconds(::getpid()) - self0) / (nowS() - wall0);
        stopStack(traced);
        std::set<std::string> timed_ids;
        for (const PhaseRun *run : {traced_closed, traced_open})
            for (size_t i = 0; i < run->used; ++i)
                timed_ids.insert(
                    ta::obs::traceIdHex(run->slots[i].traceId));

        std::vector<std::string> files = {client_trace};
        if (spec.kind == WorkloadKind::Cluster)
            files.insert(files.end(), {server_trace + ".router.json",
                                       server_trace + ".replica0.json",
                                       server_trace + ".replica1.json"});
        else
            files.push_back(trace_out);
        const std::string probe_trace = ctx.work + "/probe.json";
        if (!runProbe(ctx, probe_trace, outcome))
            outcome.fail(1, "per-layer probe");
        files.push_back(probe_trace);
        ta::obs::Tracer::instance().flush();
        const std::string merged = mergeTraces(ctx, files, outcome);

        // Replica phases of the timed requests (not the warm-up).
        const TraceDurations durs = loadMergedTrace(merged);
        std::map<std::string, std::vector<double>> phase_ms;
        std::vector<double> route_self;
        for (const auto &[trace, by_name] : durs) {
            if (timed_ids.count(trace) == 0)
                continue;
            double replica = 0;
            for (const char *p :
                 {"queue", "pack", "pin", "exec", "serialize"}) {
                const auto it = by_name.find(p);
                if (it != by_name.end()) {
                    phase_ms[p].push_back(it->second);
                    replica += it->second;
                }
            }
            const auto route = by_name.find("route");
            if (route != by_name.end())
                route_self.push_back(route->second - replica);
        }
        const auto mean = [](const std::vector<double> &v) {
            double s = 0;
            for (double x : v)
                s += x;
            return v.empty() ? 0.0 : s / v.size();
        };
        for (const char *p : {"queue", "pack", "exec", "serialize"}) {
            const std::string stem = std::string("service.") + p + "_ms_";
            outcome.metrics[stem + "p50"] = ta::percentileOf(phase_ms[p], 50);
            outcome.metrics[stem + "mean"] = mean(phase_ms[p]);
        }
        outcome.metrics["storage.pin_ms"] = mean(phase_ms["pin"]);
        outcome.metrics["cluster.route_self_ms"] = mean(route_self);

        const auto d = [&](const char *key) {
            return statDelta(s0, s1, key);
        };
        const double served = std::max(1.0, d("served"));
        const auto ratio = [](double a, double b) {
            return b > 0 ? a / b : 0.0;
        };
        auto &m = outcome.metrics;
        m["service.window_mean"] = ratio(d("served"), d("windows"));
        m["service.batched_frac"] = d("batched_requests") / served;
        m["service.peak_queue_depth"] = s1["peak_queue_depth"];
        if (spec.kind == WorkloadKind::Cluster) {
            // The router drops per-replica percentiles; its summed
            // histogram buckets still compose.
            m["service.server_p50_ms"] =
                histogramPercentile(s0, s1, "service_ms", 50);
            m["service.server_p99_ms"] =
                histogramPercentile(s0, s1, "service_ms", 99);
        } else {
            m["service.server_p50_ms"] = s1["service_ms_p50"];
            m["service.server_p99_ms"] = s1["service_ms_p99"];
        }
        m["service.cpu_cores"] =
            (cpu1 - cpu0) / std::max(1e-9, base->end - base->start);
        m["cluster.retried"] = d("router_retried");
        m["storage.buffer_hit_rate"] =
            ratio(d("buffer_hits"), d("buffer_hits") + d("buffer_misses"));
        m["storage.evictions_per_req"] = d("buffer_evictions") / served;
        m["exec.plan_hit_rate"] =
            ratio(d("cache_hits"), d("cache_hits") + d("cache_misses"));
        m["exec.plan_misses_per_req"] = d("cache_misses") / served;
        m["obs.overhead_frac"] = 1.0 - ratio(traced_rps, untraced_rps);
        m["loadgen.late_ms_p99"] = ol.lateP99Ms;
        m["loadgen.cpu_cores"] = client_cores;
        if (ol.lateP99Ms > kLateBoundMs)
            outcome.fail(1, "open-loop generator ran late");
        std::fprintf(stderr,
                     "ta_benchmark: %s traced: %.1f req/s untraced, %.1f "
                     "traced; merged trace %s\n",
                     spec.name, untraced_rps, traced_rps, merged.c_str());
    }

    for (const PhaseRun *run : timed)
        outcome.fail(phaseFailures(*run), "failed, shed or lost requests");
    outcome.fail(g_unsolicited.load(), "unsolicited or duplicate responses");
    std::vector<const PhaseRun *> all;
    for (const auto &run : runs)
        all.push_back(run.get());
    // Every distinct request is checked, except mixed_synth, whose
    // requests are all distinct and each costs a full synthesis.
    outcome.fail(verifyResponses(stream, all,
                                 spec.kind == WorkloadKind::Synth ? 128 : 0,
                                 ctx.seed),
                 "oracle mismatches");
}

// ---- offline_suite --------------------------------------------------------

struct PassResult
{
    double seconds = 0;
    uint64_t seed = 0;
    std::vector<ta::LayerRun> layers; ///< offlineRequests() order
    ta::PlanCache::Counters cache;
};

/** One research-user pass: a fresh accelerator (cold plan cache) runs
 *  every suite at batch window 8. */
PassResult
runPass(uint64_t pass_seed)
{
    PassResult r;
    r.seed = pass_seed;
    const double t0 = nowS();
    const ta::TransArrayAccelerator acc(
        ta::engineConfig(offlineKey(), kServeThreads));
    for (const OfflineSuite &s : offlineSuites()) {
        ta::SuiteRunResult res =
            ta::runSuite(acc, s.suite, s.wbits, pass_seed, kWindow);
        r.layers.insert(r.layers.end(), res.perLayer.begin(),
                        res.perLayer.end());
    }
    r.seconds = nowS() - t0;
    r.cache = acc.planCacheCounters();
    return r;
}

void
runOffline(RunContext &ctx, Outcome &outcome)
{
    std::vector<PassResult> passes;
    const double self0 = cpuSeconds(::getpid());
    const double wall0 = nowS();
    if (!ctx.trace) {
        std::vector<double> setups;
        for (int k = 0; k < kSetups; ++k)
            setups.push_back(runPass(passSeed(ctx.seed, 1000 + k)).seconds);
        outcome.metrics["setup_s"] = ta::percentileOf(setups, 50);
    }
    const double budget = ctx.seconds * (ctx.trace ? 0.5 : 1.0);
    const double t0 = nowS();
    for (size_t p = 0; passes.empty() || nowS() - t0 < budget; ++p)
        passes.push_back(runPass(passSeed(ctx.seed, p)));

    size_t layers = 0;
    std::vector<double> pass_ms;
    ta::PlanCache::Counters cache;
    for (const PassResult &p : passes) {
        layers += p.layers.size();
        pass_ms.push_back(p.seconds * 1e3);
        cache.hits += p.cache.hits;
        cache.misses += p.cache.misses;
    }
    outcome.attempted = layers;
    if (!ctx.trace) {
        size_t within = 0;
        for (double ms : pass_ms)
            within += ms <= ctx.spec->latencyLimitMs;
        outcome.metrics["peak_rss_mb"] = vmHwmMb(::getpid());
        outcome.metrics["throughput_rps"] =
            passes[0].layers.size() / (ta::percentileOf(pass_ms, 50) / 1e3);
        const double tail_pct = supportedPercentile(pass_ms.size());
        outcome.metrics["latency_p50_ms"] = ta::percentileOf(pass_ms, 50);
        outcome.metrics["latency_tail_ms"] = ta::percentileOf(pass_ms, tail_pct);
        outcome.metrics["slo_attainment"] =
            static_cast<double>(within) / pass_ms.size();
        std::fprintf(stderr,
                     "ta_benchmark: offline_suite: %zu passes of %zu "
                     "layers, median %.1f ms, tail p%.1f %.1f ms\n",
                     passes.size(), passes[0].layers.size(),
                     ta::percentileOf(pass_ms, 50), tail_pct,
                     ta::percentileOf(pass_ms, tail_pct));
    } else {
        auto &m = outcome.metrics;
        m["exec.plan_hit_rate"] = cache.hitRate();
        m["exec.plan_misses_per_req"] =
            static_cast<double>(cache.misses) / std::max<size_t>(1, layers);
        m["loadgen.cpu_cores"] =
            (cpuSeconds(::getpid()) - self0) / (nowS() - wall0);
        const std::string probe_trace = ctx.work + "/probe.json";
        if (!runProbe(ctx, probe_trace, outcome))
            outcome.fail(1, "per-layer probe");
        mergeTraces(ctx, {probe_trace}, outcome);
    }

    // Seeded layer sample against a serial single-threaded runShape.
    ta::Rng rng(mixSeed(ctx.seed, 0x0ff1));
    std::vector<ServiceRequest> reqs;
    std::vector<std::string> got;
    for (int i = 0; i < 8; ++i) {
        const PassResult &p = passes[static_cast<size_t>(
            rng.uniformInt(0, static_cast<int64_t>(passes.size()) - 1))];
        const size_t l = static_cast<size_t>(
            rng.uniformInt(0, static_cast<int64_t>(p.layers.size()) - 1));
        reqs.push_back(offlineRequests(p.seed)[l]);
        got.push_back(afterId(ta::serializeResponse(reqs.back(),
                                                    p.layers[l])));
    }
    const std::map<std::string, std::string> want = oracle(reqs);
    uint64_t mismatches = 0;
    for (size_t i = 0; i < reqs.size(); ++i)
        mismatches += got[i] != want.at(requestKey(reqs[i]));
    std::fprintf(stderr,
                 "ta_benchmark: verified %zu sampled layer(s): %llu "
                 "mismatch(es)\n",
                 reqs.size(), static_cast<unsigned long long>(mismatches));
    outcome.fail(mismatches, "oracle mismatches");
}

// ---- output ---------------------------------------------------------------

void
printResult(const Outcome &o, bool trace)
{
    std::string out = "{\"correct\": ";
    out += o.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(o.attempted);
    out += ", \"failed\": " + std::to_string(o.failed);
    out += ", \"metrics\": {";
    bool first = true;
    const auto emit = [&](const MetricDef &d) {
        const auto it = o.metrics.find(d.name);
        out += first ? "" : ", ";
        first = false;
        out += std::string("\"") + d.name + "\": {\"value\": " +
               fullDigits(it == o.metrics.end() ? 0.0 : it->second) +
               ", \"unit\": \"" + d.unit + "\"}";
    };
    if (trace)
        for (const MetricDef &d : kPerLayer)
            emit(d);
    else
        for (const MetricDef &d : kEndToEnd)
            emit(d);
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

/**
 * Kills every stack and tool still running when the run cap passes or
 * SIGINT/SIGTERM arrives, then exits without a result. Construct it
 * before any other thread: it blocks those signals process-wide and
 * waits for them on its own thread.
 */
class Watchdog
{
  public:
    Watchdog()
    {
        sigemptyset(&signals_);
        sigaddset(&signals_, SIGINT);
        sigaddset(&signals_, SIGTERM);
        ::pthread_sigmask(SIG_BLOCK, &signals_, nullptr);
        thread_ = std::thread([this] { watch(); });
    }

    ~Watchdog()
    {
        done_.store(true);
        thread_.join();
    }

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

  private:
    void
    watch()
    {
        const double deadline = nowS() + kRunCapSeconds;
        int sig = -1;
        while (!done_.load() && nowS() < deadline) {
            const timespec tick{0, 100 * 1000 * 1000};
            sig = ::sigtimedwait(&signals_, nullptr, &tick);
            if (sig > 0)
                break;
        }
        if (done_.load())
            return;
        std::fprintf(stderr, "ta_benchmark: %s, stopping everything\n",
                     sig > 0 ? "interrupted" : "run cap exceeded");
        killChildren();
        _exit(sig > 0 ? 128 + sig : 3);
    }

    sigset_t signals_;
    std::atomic<bool> done_{false};
    std::thread thread_;
};

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--results DIR]\n  workloads:",
                 argv0);
    for (const WorkloadSpec &w : allWorkloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
}

} // namespace

int
main(int argc, char **argv)
{
    RunContext ctx;
    ctx.results = "benchmark/results";
    std::string workload;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) {
            usage(argv[0]);
            return 2;
        }
        const char *v = argv[++i];
        bool ok = true;
        long long n = 0;
        if (a == "--workload")
            workload = v;
        else if (a == "--seed")
            ok = ta::parseU64Flag(a, v, 0, 1ull << 40, ctx.seed);
        else if (a == "--seconds") {
            ok = ta::parseIntFlag(a, v, 1, 60, n);
            ctx.seconds = static_cast<double>(n);
        } else if (a == "--trace") {
            ok = ta::parseIntFlag(a, v, 0, 1, n);
            ctx.trace = n == 1;
        } else if (a == "--results")
            ctx.results = v;
        else
            ok = false;
        if (!ok) {
            usage(argv[0]);
            return 2;
        }
    }
    ctx.spec = findWorkload(workload);
    if (ctx.spec == nullptr) {
        usage(argv[0]);
        return 2;
    }
    // Orphaned replicas of a killed router come back to us to reap.
    ::prctl(PR_SET_CHILD_SUBREAPER, 1);
    ctx.work = ctx.results + "/work-" + workload + "-" +
               std::to_string(::getpid());
    fs::create_directories(ctx.work);

    Outcome outcome;
    try {
        Watchdog watchdog;
        if (ctx.spec->kind == WorkloadKind::Offline)
            runOffline(ctx, outcome);
        else
            runServing(ctx, outcome);
    } catch (const std::exception &e) {
        // No result for an abandoned run, and no stack left behind.
        std::fprintf(stderr, "ta_benchmark: %s\n", e.what());
        killChildren();
        return 1;
    }
    if (outcome.attempted == 0)
        outcome.fail(1, "nothing was measured");
    // A failed run keeps its logs and trace files for inspection.
    if (outcome.correct)
        fs::remove_all(ctx.work);
    else
        std::fprintf(stderr, "ta_benchmark: kept %s\n", ctx.work.c_str());
    printResult(outcome, ctx.trace);
    return outcome.correct ? 0 : 1;
}
