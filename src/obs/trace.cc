#include "obs/trace.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>

#include <unistd.h>

namespace ta {
namespace obs {

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

void
Tracer::enable(const std::string &path, const std::string &process)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        path_ = path;
        process_ = process;
    }
    enabled_.store(true, std::memory_order_release);
}

uint64_t
Tracer::nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

Tracer::Ring *
Tracer::threadRing()
{
    // One ring per (thread, process) for the process-global tracer;
    // registration is the only locked step on the recording path.
    thread_local Ring *ring = nullptr;
    if (ring != nullptr)
        return ring;
    auto owned = std::make_unique<Ring>();
    owned->spans.resize(kRingCapacity);
    ring = owned.get();
    std::lock_guard<std::mutex> lock(mu_);
    ring->tid = static_cast<uint32_t>(rings_.size());
    rings_.push_back(std::move(owned));
    return ring;
}

void
Tracer::record(const Span &span)
{
    if (!enabled())
        return;
    Ring *ring = threadRing();
    const size_t size = ring->size.load(std::memory_order_relaxed);
    if (size >= ring->spans.size()) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    Span &slot = ring->spans[size];
    slot = span;
    slot.tid = ring->tid;
    // Publish: a concurrent flush() acquiring `size` sees the slot.
    ring->size.store(size + 1, std::memory_order_release);
}

uint64_t
Tracer::spanCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t n = 0;
    for (const auto &ring : rings_)
        n += ring->size.load(std::memory_order_acquire);
    return n;
}

namespace {

void
writeEvent(std::FILE *f, const Span &s, long pid, bool *first)
{
    if (!*first)
        std::fputs(",\n", f);
    *first = false;
    // Chrome wants microsecond ts/dur; keep nanosecond precision in
    // the fraction.
    const double ts = static_cast<double>(s.t0Ns) / 1e3;
    const double dur =
        static_cast<double>(s.t1Ns >= s.t0Ns ? s.t1Ns - s.t0Ns : 0) /
        1e3;
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"ta\",\"ph\":\"X\","
                 "\"pid\":%ld,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"trace\":\"%s\",\"span\":\"%" PRIx64
                 "\",\"parent\":\"%" PRIx64 "\"",
                 s.name, pid, s.tid, ts, dur,
                 traceIdHex(s.traceId).c_str(), s.spanId, s.parent);
    if (s.argKey != nullptr)
        std::fprintf(f, ",\"%s\":\"%" PRIu64 "\"", s.argKey,
                     s.argVal);
    std::fputs("}}", f);
}

} // namespace

bool
Tracer::flush()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (path_.empty())
        return false;
    std::FILE *f = std::fopen(path_.c_str(), "w");
    if (f == nullptr)
        return false;
    const long pid = static_cast<long>(::getpid());
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
    bool first = true;
    // Process-name metadata event so chrome://tracing labels the row.
    if (!first)
        std::fputs(",\n", f);
    std::fprintf(f,
                 "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%ld,"
                 "\"tid\":0,\"args\":{\"name\":\"%s\"}}",
                 pid, process_.c_str());
    first = false;
    for (const auto &ring : rings_) {
        const size_t size = ring->size.load(std::memory_order_acquire);
        for (size_t i = 0; i < size; ++i)
            writeEvent(f, ring->spans[i], pid, &first);
    }
    std::fprintf(f,
                 "\n],\"otherData\":{\"process\":\"%s\","
                 "\"dropped\":\"%" PRIu64 "\"}}\n",
                 process_.c_str(),
                 dropped_.load(std::memory_order_relaxed));
    const long bytes = std::ftell(f);
    const bool ok = std::fclose(f) == 0;
    if (ok && bytes > 0)
        flushedBytes_.store(static_cast<uint64_t>(bytes),
                            std::memory_order_relaxed);
    return ok;
}

namespace {

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

uint64_t
mintTraceId(uint64_t salt)
{
    // splitmix64 is invertible, so the id is a bijection of the
    // per-process counter and no two calls in one process collide. The
    // pid and the first caller's salt only choose where the sequence
    // starts, which keeps processes apart.
    static const uint64_t base =
        splitmix64(salt ^ (static_cast<uint64_t>(::getpid()) << 32));
    static std::atomic<uint64_t> counter{0};
    uint64_t id = 0;
    while (id == 0) // the wire format reserves 0 for "untraced"
        id = splitmix64(base +
                        counter.fetch_add(1, std::memory_order_relaxed));
    return id;
}

std::string
traceIdHex(uint64_t id)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%" PRIx64, id);
    return std::string(buf);
}

bool
parseTraceId(const std::string &hex, uint64_t &out)
{
    if (hex.empty() || hex.size() > 16)
        return false;
    uint64_t v = 0;
    for (char c : hex) {
        uint64_t digit;
        if (c >= '0' && c <= '9')
            digit = static_cast<uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            digit = static_cast<uint64_t>(c - 'a' + 10);
        else
            return false;
        v = (v << 4) | digit;
    }
    if (v == 0)
        return false;
    out = v;
    return true;
}

} // namespace obs
} // namespace ta
