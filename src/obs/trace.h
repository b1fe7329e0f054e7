/**
 * @file
 * Always-on-capable request tracing: per-thread lock-free span rings
 * flushed to Chrome trace-event JSON.
 *
 * A span is `(trace_id, span_id, parent, name, t0, t1, args)` with
 * steady-clock nanosecond timestamps. CLOCK_MONOTONIC is system-wide
 * on Linux, so spans recorded by different processes on one host merge
 * onto a single timeline — `ta_trace` stitches a request's client,
 * router and replica spans by trace id.
 *
 * Design rules, in the spirit of Dapper-style low-overhead tracing:
 *
 *  - **Off means off.** The tracer is process-global and disabled
 *    until `--trace-out` calls `enable()`. A disabled `SpanScope` is
 *    one relaxed atomic load; no allocation, no clock read.
 *  - **Single-writer rings.** Each thread records into its own
 *    preallocated ring; the only lock is taken once per thread to
 *    register the ring. Publication is an acquire/release size
 *    counter, so `flush()` can run concurrently with recording.
 *  - **Drop, never block.** A full ring drops the new span and counts
 *    it (`dropped()`); earlier spans — the parents — survive, so a
 *    truncated trace degrades to missing leaves, not orphans.
 *  - **Static names only.** Span names and arg keys must be string
 *    literals; the ring stores the pointer.
 *
 * Trace ids travel on the wire as the protocol's `trace` field
 * (lowercase hex, never echoed in responses — see
 * docs/OBSERVABILITY.md). Span ids are process-local; `(pid, span_id)`
 * is globally unique and parents always refer to spans of the same
 * process.
 */

#ifndef TA_OBS_TRACE_H
#define TA_OBS_TRACE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ta {
namespace obs {

/** One completed span. POD; lives in a preallocated ring slot. */
struct Span
{
    uint64_t traceId = 0; ///< request identity; 0 = untraced
    uint64_t spanId = 0;  ///< process-local, minted by the tracer
    uint64_t parent = 0;  ///< span id in the same process; 0 = root
    const char *name = "";   ///< static string literal
    const char *argKey = nullptr; ///< optional static key (e.g. "window")
    uint64_t argVal = 0;
    uint64_t t0Ns = 0; ///< steady-clock nanoseconds
    uint64_t t1Ns = 0;
    uint32_t tid = 0; ///< registration-order thread index
};

/** Process-global span sink. Thread-safe. */
class Tracer
{
  public:
    /** Spans each thread can hold before dropping. */
    static constexpr size_t kRingCapacity = 1 << 16;

    static Tracer &instance();

    /**
     * Turn recording on and remember where `flush()` writes. `process`
     * labels the Chrome process row (e.g. "ta_serve"). Idempotent;
     * later calls just update the destination.
     */
    void enable(const std::string &path, const std::string &process);

    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Steady-clock now, in nanoseconds. */
    static uint64_t nowNs();

    /** Mint a process-locally-unique span id (never 0). */
    uint64_t mintSpanId()
    {
        return nextSpan_.fetch_add(1, std::memory_order_relaxed);
    }

    /** Record a completed span into the calling thread's ring. */
    void record(const Span &span);

    /**
     * Write every span recorded so far as Chrome trace-event JSON to
     * the enabled path. Safe to call while other threads still
     * record (they keep appending; a later flush rewrites the file
     * with the fuller picture). Returns false on I/O failure or when
     * never enabled.
     */
    bool flush();

    /** Spans dropped on ring overflow since enable(). */
    uint64_t dropped() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

    /** Spans currently recorded across all rings. */
    uint64_t spanCount() const;

    /** Bytes written by the last successful flush(). */
    uint64_t flushedBytes() const
    {
        return flushedBytes_.load(std::memory_order_relaxed);
    }

  private:
    struct Ring
    {
        std::vector<Span> spans;   ///< capacity fixed at registration
        std::atomic<size_t> size{0}; ///< published slots
        uint32_t tid = 0;
    };

    Tracer() = default;
    Ring *threadRing();

    std::atomic<bool> enabled_{false};
    std::atomic<uint64_t> nextSpan_{1};
    std::atomic<uint64_t> dropped_{0};
    std::atomic<uint64_t> flushedBytes_{0};
    mutable std::mutex mu_; ///< guards rings_ registration + path
    std::vector<std::unique_ptr<Ring>> rings_;
    std::string path_;
    std::string process_;
};

/**
 * RAII span: stamps t0 at construction, records at destruction. A
 * scope built while the tracer is disabled (or with traceId 0) does
 * nothing at all.
 */
class SpanScope
{
  public:
    SpanScope(uint64_t trace_id, const char *name, uint64_t parent = 0)
    {
        Tracer &tracer = Tracer::instance();
        if (trace_id == 0 || !tracer.enabled())
            return;
        span_.traceId = trace_id;
        span_.spanId = tracer.mintSpanId();
        span_.parent = parent;
        span_.name = name;
        span_.t0Ns = Tracer::nowNs();
        live_ = true;
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    ~SpanScope() { finish(); }

    /** Record now instead of at scope exit. Idempotent. */
    void finish()
    {
        if (!live_)
            return;
        live_ = false;
        span_.t1Ns = Tracer::nowNs();
        Tracer::instance().record(span_);
    }

    /** Attach the single optional argument. `key` must be static. */
    void setArg(const char *key, uint64_t value)
    {
        span_.argKey = key;
        span_.argVal = value;
    }

    /** This span's id, for parenting children; 0 when not recording. */
    uint64_t id() const { return live_ ? span_.spanId : 0; }

    bool recording() const { return live_; }

  private:
    Span span_;
    bool live_ = false;
};

/**
 * Mint a nonzero trace id: a bijection (splitmix64) of a per-process
 * counter, so ids minted in one process never collide whatever the
 * salts. The pid and the first call's `salt` only pick the sequence's
 * starting point, keeping processes apart.
 */
uint64_t mintTraceId(uint64_t salt);

/** Render a trace id as the wire format: lowercase hex, no prefix. */
std::string traceIdHex(uint64_t id);

/**
 * Parse the protocol `trace` field: 1..16 lowercase hex digits,
 * nonzero. Returns false (out untouched) on anything else.
 */
bool parseTraceId(const std::string &hex, uint64_t &out);

} // namespace obs
} // namespace ta

#endif // TA_OBS_TRACE_H
