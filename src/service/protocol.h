/**
 * @file
 * Wire protocol of the request-serving front-end (`ta_serve`): one JSON
 * object per line, both directions, over stdin/stdout or TCP. A request
 * selects an op ("run", "ping", "stats", "shutdown"); "run" carries the
 * same GEMM/engine parameters as the `ta_sim` CLI with the same
 * defaults, so a service request and a ta_sim invocation describe the
 * same simulation.
 *
 * Determinism contract (docs/SERVICE.md): serializeResponse() renders
 * only simulation-deterministic LayerRun fields with fixed formatting,
 * so the response line for a request is byte-identical to a standalone
 * `ta_sim --response` run of the same request — regardless of server
 * thread count, batch window, or what the request was co-batched with.
 * Host-volatile counters (the `exec` group) are deliberately excluded.
 *
 * The parser accepts exactly the flat JSON the protocol emits: string,
 * integer, boolean and null values, no nesting. Unknown keys and
 * out-of-range values are rejected with a clear error — admission
 * control starts at the parser.
 */

#ifndef TA_SERVICE_PROTOCOL_H
#define TA_SERVICE_PROTOCOL_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/accelerator.h"

namespace ta {

/** Highest request priority; valid priorities are 0 .. kMaxPriority
 *  (the parser's bound and RequestQueue's class count derive from
 *  this one constant). */
constexpr int kMaxPriority = 2;

/** Upper bound of the `deadline_ms` field (24 h): a deadline is a
 *  service-level objective, not a calendar; anything larger is a
 *  client bug the parser should catch. */
constexpr uint64_t kMaxDeadlineMs = 24ull * 60 * 60 * 1000;

/** Upper bound of the `model` field's length. */
constexpr size_t kMaxModelNameLen = 128;

/** One parsed protocol request (defaults match the ta_sim CLI). */
struct ServiceRequest
{
    uint64_t id = 0;
    std::string op = "run";
    GemmShape shape{4096, 4096, 2048};
    int wbits = 4;
    int abits = 8;
    int tbits = 8;
    int maxdist = 4;
    uint32_t units = 6;
    bool useStatic = false;
    uint64_t seed = 1;
    size_t samples = 96;
    /** Dispatch priority, 0 (lowest) .. kMaxPriority (most urgent);
     *  default 1. Orders RequestQueue pops only — never changes
     *  response bytes. */
    int priority = 1;
    /**
     * Relative SLO deadline in milliseconds, 1 .. kMaxDeadlineMs;
     * 0 = no deadline (the field is absent from the wire). A deadline
     * orders dispatch (EDF within priority) and arms admission-time
     * shedding (`deadline_unmeetable`) — like priority, it can never
     * change a served response's bytes.
     */
    uint64_t deadlineMs = 0;
    /**
     * Catalog model to serve the weight plane from ("" = absent from
     * the wire; the server synthesizes as always). Validated by the
     * parser (1 .. kMaxModelNameLen chars of [A-Za-z0-9._-]); a named
     * model must resolve in the server's `--catalog` or the request
     * fails with a "storage:" error. Like priority and deadline_ms it
     * can never change a served response's bytes — a catalog plane is
     * byte-identical to what synthesis would build for the same
     * (seed, wbits, shape).
     */
    std::string model;
    /**
     * Distributed-tracing context, minted by the client or router and
     * propagated router → replica on the wire as the `trace` field
     * (1..16 lowercase hex digits; 0 = absent). Purely observational:
     * it tags the spans a traced process records for this request and
     * is **never echoed** — serializeResponse() does not know it
     * exists, so responses are byte-identical with tracing on, off or
     * absent (pinned by tests/test_service.cc and the
     * ta_stdio_identity_smoke byte-compare).
     */
    uint64_t traceId = 0;
};

/**
 * The engine-selection part of a request: requests with equal keys run
 * on the same accelerator instance and may be coalesced into one batch
 * window. Everything except (shape, wbits, seed, id) — those vary per
 * layer inside a window.
 */
struct EngineKey
{
    int abits = 8;
    int tbits = 8;
    int maxdist = 4;
    uint32_t units = 6;
    bool useStatic = false;
    size_t samples = 96;

    bool operator==(const EngineKey &o) const;
    bool operator<(const EngineKey &o) const;
};

EngineKey engineKeyOf(const ServiceRequest &req);

/**
 * The accelerator configuration a request selects — the single builder
 * shared by the service scheduler, the loadgen verifier and
 * `ta_sim --response`, so "the same request" can never mean two
 * different engines. `shared_cache` may be null (owned cache).
 */
TransArrayAccelerator::Config
engineConfig(const EngineKey &key, int threads,
             PlanCache *shared_cache = nullptr);

/**
 * Parse one flat JSON object line into ordered (key, raw value) pairs.
 * Raw values are unescaped strings, number text, "1"/"0" for booleans,
 * or "null". Returns false with `err` set on any syntax error, nesting,
 * or duplicate key.
 */
bool parseJsonFlat(const std::string &line,
                   std::vector<std::pair<std::string, std::string>> &out,
                   std::string &err);

/**
 * Parse and validate a request line. Unknown keys, malformed numbers
 * and out-of-range values (e.g. "wbits": 0) are rejected with a
 * human-readable `err`. On failure `req.id` still carries the line's
 * id when one was readable, so the error response can echo it.
 */
bool parseRequestLine(const std::string &line, ServiceRequest &req,
                      std::string &err);

/** Canonical request line (what ta_loadgen sends). */
std::string serializeRequest(const ServiceRequest &req);

/**
 * Canonical success response for a "run" request: the deterministic
 * LayerRun fields only, fixed key order and number formatting.
 */
std::string serializeResponse(const ServiceRequest &req,
                              const LayerRun &run);

/** Canonical error response ({"id":N,"ok":0,"error":"..."}). */
std::string serializeError(uint64_t id, const std::string &error);

/**
 * True when `line` is an explicit load-shedding rejection — an error
 * response whose message starts with "overloaded" (queue-full
 * admission control, router retry-budget exhaustion, router waiting
 * cap). Clients distinguish shed requests, which are a declared and
 * gated overload response, from genuine failures.
 */
bool isOverloadedLine(const std::string &line);

/**
 * True when `line` is an explicit SLO shed — an error response whose
 * message starts with "deadline_unmeetable" (the planner predicted the
 * request cannot finish inside its own deadline_ms, so it was rejected
 * at admission instead of burning cycles). Like "overloaded", this is
 * a declared, ledger-counted outcome, never a silent drop.
 */
bool isDeadlineUnmeetableLine(const std::string &line);

/**
 * True when `line` is a storage-tier rejection — an error response
 * whose message starts with "storage" (unknown model, no catalog
 * loaded, or a checksum-failed segment page). Always an explicit,
 * counted outcome: a corrupt segment yields this error, never wrong
 * bytes and never a crash.
 */
bool isStorageErrorLine(const std::string &line);

/** The `model` field's validation rule (shared by the parser and any
 *  tool that mints model names). */
bool validModelName(const std::string &name);

/** Fixed formatting for protocol doubles ("%.10g"). */
std::string formatDouble(double v);

} // namespace ta

#endif // TA_SERVICE_PROTOCOL_H
