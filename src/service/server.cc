#include "service/server.h"

#include <csignal>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "kernels/kernel_table.h"
#include "service/line_reader.h"

namespace ta {

namespace {

std::string
serializeStats(uint64_t id, const ServiceStats &s)
{
    char buf[1792];
    std::snprintf(
        buf, sizeof(buf),
        "{\"id\":%llu,\"ok\":1,\"admitted\":%llu,\"rejected\":%llu,"
        "\"served\":%llu,\"errors\":%llu,\"windows\":%llu,"
        "\"batched_requests\":%llu,\"max_window\":%llu,"
        "\"queue_depth\":%llu,\"peak_queue_depth\":%llu,"
        "\"inflight_windows\":%llu,\"uptime_ms\":%llu,"
        "\"plans_loaded\":%llu,\"cache_hits\":%llu,"
        "\"cache_misses\":%llu,\"cache_evictions\":%llu,"
        "\"cache_hit_rate\":%s,\"service_ms_p50\":%s,"
        "\"service_ms_p95\":%s,\"service_ms_p99\":%s,"
        "\"shed_unmeetable\":%llu,\"deadline_met\":%llu,"
        "\"deadline_misses\":%llu,\"buffer_hits\":%llu,"
        "\"buffer_misses\":%llu,"
        "\"buffer_evictions\":%llu,\"catalog_models\":%llu,"
        "\"storage_bytes_mapped\":%llu",
        static_cast<unsigned long long>(id),
        static_cast<unsigned long long>(s.admitted),
        static_cast<unsigned long long>(s.rejected),
        static_cast<unsigned long long>(s.served),
        static_cast<unsigned long long>(s.errors),
        static_cast<unsigned long long>(s.windows),
        static_cast<unsigned long long>(s.batchedRequests),
        static_cast<unsigned long long>(s.maxWindow),
        static_cast<unsigned long long>(s.queueDepth),
        static_cast<unsigned long long>(s.peakQueueDepth),
        static_cast<unsigned long long>(s.inflightWindows),
        static_cast<unsigned long long>(s.uptimeMs),
        static_cast<unsigned long long>(s.plansLoaded),
        static_cast<unsigned long long>(s.cacheHits),
        static_cast<unsigned long long>(s.cacheMisses),
        static_cast<unsigned long long>(s.cacheEvictions),
        formatDouble(s.hitRate()).c_str(),
        formatDouble(s.serviceMs.p50).c_str(),
        formatDouble(s.serviceMs.p95).c_str(),
        formatDouble(s.serviceMs.p99).c_str(),
        static_cast<unsigned long long>(s.shedUnmeetable),
        static_cast<unsigned long long>(s.deadlineMet),
        static_cast<unsigned long long>(s.deadlineMisses),
        static_cast<unsigned long long>(s.bufferHits),
        static_cast<unsigned long long>(s.bufferMisses),
        static_cast<unsigned long long>(s.bufferEvictions),
        static_cast<unsigned long long>(s.catalogModels),
        static_cast<unsigned long long>(s.storageBytesMapped));
    std::string out = buf;
    // Fixed-edge service-latency buckets (MetricsRegistry snapshot):
    // cumulative counts the router can sum bucket-wise.
    for (const auto &kv : s.latencyHist)
        out += ",\"" + kv.first + "\":" + std::to_string(kv.second);
    out += ",\"scheduler\":\"" + s.scheduler + "\",\"kernel_arch\":\"";
    out += kernelArch();
    out += "\"}";
    return out;
}

/**
 * A disconnected peer must surface as a write error (handled by
 * ConnWriter's dead-peer path), not as SIGPIPE killing the process.
 * Idempotent; called by every serve entry point.
 */
void
ignoreSigpipe()
{
    std::signal(SIGPIPE, SIG_IGN);
}

} // namespace

void
ConnWriter::beginRequest()
{
    std::lock_guard<std::mutex> lock(mu_);
    ++inFlight_;
}

void
ConnWriter::writeLine(const std::string &line)
{
    // A dead peer — gone, or one that stopped reading for
    // kWriteTimeoutMs — marks the writer dead and drops output, so a
    // stalled client can never wedge the worker delivering its
    // response (pipes and sockets alike; the poll() bound is what
    // SO_SNDTIMEO would give us on sockets only).
    std::lock_guard<std::mutex> lock(mu_);
    if (!dead_) {
        std::string buf = line;
        buf.push_back('\n');
        size_t off = 0;
        while (off < buf.size()) {
            pollfd pfd{fd_, POLLOUT, 0};
            if (::poll(&pfd, 1, kWriteTimeoutMs) <= 0 ||
                (pfd.revents & POLLOUT) == 0) {
                dead_ = true;
                break;
            }
            const ssize_t n =
                ::write(fd_, buf.data() + off, buf.size() - off);
            if (n <= 0) {
                dead_ = true; // peer gone; drop remaining output
                break;
            }
            off += static_cast<size_t>(n);
        }
    }
}

void
ConnWriter::finishRequest()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        --inFlight_;
    }
    cv_.notify_all();
}

void
ConnWriter::drain()
{
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return inFlight_ == 0; });
}

void
serveLineConnection(const LineHandler &handler, int in_fd, int out_fd)
{
    ignoreSigpipe();
    auto writer = std::make_shared<ConnWriter>(out_fd);
    LineReader reader(in_fd);
    std::string line;
    while (reader.next(line)) {
        if (line.empty())
            continue;
        if (!handler(line, writer))
            break;
    }
    // Never close a connection with responses still in flight: the
    // responder lambdas hold the writer, and workers may still be
    // computing.
    writer->drain();
}

int
serveLineStdio(const LineHandler &handler)
{
    serveLineConnection(handler, STDIN_FILENO, STDOUT_FILENO);
    return 0;
}

int
serveLineTcp(const LineHandler &handler, uint16_t port,
             std::atomic<bool> &shutdown_flag, const char *name)
{
    ignoreSigpipe();
    const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0) {
        logf(LogLevel::Error, name, "socket: %s",
             std::strerror(errno));
        return 1;
    }
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(listen_fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd, 64) != 0) {
        logf(LogLevel::Error, name, "bind/listen: %s",
             std::strerror(errno));
        ::close(listen_fd);
        return 1;
    }
    // Port 0 asks the kernel for an ephemeral port; report whichever
    // port we actually bound. The stdout announcement is the machine
    // interface (stdout carries nothing else in TCP mode): the
    // ReplicaManager, tests and CI parse it instead of racing on a
    // fixed port.
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    uint16_t bound_port = port;
    if (::getsockname(listen_fd, reinterpret_cast<sockaddr *>(&bound),
                      &bound_len) == 0)
        bound_port = ntohs(bound.sin_port);
    std::printf("listening %u\n", static_cast<unsigned>(bound_port));
    std::fflush(stdout);
    logf(LogLevel::Info, name, "listening on 127.0.0.1:%u",
         static_cast<unsigned>(bound_port));

    struct Conn
    {
        int fd = -1;
        std::thread thread;
        std::atomic<bool> finished{false};
    };
    std::mutex conn_mu;
    std::vector<std::unique_ptr<Conn>> conns;
    // Join-and-close every connection whose thread has finished (or,
    // with `all`, every connection). Keeps long-lived servers from
    // accumulating one fd + one exited thread per past connection.
    auto reap = [&](bool all) {
        std::lock_guard<std::mutex> lock(conn_mu);
        for (auto it = conns.begin(); it != conns.end();) {
            if (all || (*it)->finished.load()) {
                (*it)->thread.join();
                ::close((*it)->fd);
                it = conns.erase(it);
            } else {
                ++it;
            }
        }
    };

    while (!shutdown_flag.load()) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0)
            break; // listener closed by the shutdown connection
        reap(false);
        // Belt and braces on top of ConnWriter's poll() bound: cap the
        // blocking write itself (sockets only; pipes rely on poll).
        timeval send_timeout{ConnWriter::kWriteTimeoutMs / 1000, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                     sizeof(send_timeout));
        // Each response line is its own write(): with Nagle on, a line
        // waits for the client's delayed ACK of the one before (40 ms).
        const int nodelay = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
        auto conn = std::make_unique<Conn>();
        Conn *c = conn.get();
        c->fd = fd;
        c->thread =
            std::thread([&handler, &shutdown_flag, listen_fd, c] {
                serveLineConnection(handler, c->fd, c->fd);
                c->finished.store(true);
                if (shutdown_flag.load()) {
                    // Unblock the accept loop; harmless if repeated.
                    ::shutdown(listen_fd, SHUT_RDWR);
                }
            });
        std::lock_guard<std::mutex> lock(conn_mu);
        conns.push_back(std::move(conn));
    }
    // Force-drain every live peer: stop reads so connection threads
    // fall out of their loops, then join and close everything.
    {
        std::lock_guard<std::mutex> lock(conn_mu);
        for (const auto &c : conns)
            if (!c->finished.load())
                ::shutdown(c->fd, SHUT_RD);
    }
    reap(true);
    ::close(listen_fd);
    return 0;
}

LineHandler
makeServiceHandler(ServiceScheduler &sched,
                   std::atomic<bool> &shutdown_flag)
{
    return [&sched, &shutdown_flag](
               const std::string &line,
               const std::shared_ptr<ConnWriter> &writer) -> bool {
        ServiceRequest req;
        std::string err;
        if (!parseRequestLine(line, req, err)) {
            writer->writeLine(serializeError(req.id, err));
            return true;
        }
        if (req.op == "ping") {
            writer->writeLine("{\"id\":" + std::to_string(req.id) +
                              ",\"ok\":1,\"pong\":1}");
            return true;
        }
        if (req.op == "stats") {
            writer->writeLine(serializeStats(req.id, sched.stats()));
            return true;
        }
        if (req.op == "shutdown") {
            shutdown_flag.store(true);
            writer->writeLine("{\"id\":" + std::to_string(req.id) +
                              ",\"ok\":1,\"shutdown\":1}");
            return false;
        }
        writer->beginRequest();
        sched.submit(req, [writer](const std::string &response) {
            writer->writeLine(response);
            writer->finishRequest();
        });
        return true;
    };
}

void
serveConnection(ServiceScheduler &sched, int in_fd, int out_fd,
                std::atomic<bool> &shutdown_flag)
{
    serveLineConnection(makeServiceHandler(sched, shutdown_flag),
                        in_fd, out_fd);
}

int
serveStdio(ServiceScheduler &sched)
{
    std::atomic<bool> shutdown_flag{false};
    return serveLineStdio(makeServiceHandler(sched, shutdown_flag));
}

int
serveTcp(ServiceScheduler &sched, uint16_t port)
{
    std::atomic<bool> shutdown_flag{false};
    return serveLineTcp(makeServiceHandler(sched, shutdown_flag), port,
                        shutdown_flag, "ta_serve");
}

} // namespace ta
