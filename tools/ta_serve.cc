/**
 * @file
 * ta_serve: the request-serving front-end over the simulator. Speaks
 * the line-delimited JSON protocol of docs/SERVICE.md on stdin/stdout
 * (default) or on a TCP port (--tcp), coalescing concurrent
 * same-engine requests into shared batch windows over one process-wide
 * plan cache. Every response is byte-identical to a standalone
 * `ta_sim --response` run of the same request.
 *
 * Usage:
 *   ta_serve [--threads N] [--window N] [--sessions N]
 *            [--queue-cap N] [--cache-capacity N]
 *            [--plan-cache FILE] [--cache-save-interval SEC]
 *            [--scheduler planned|fifo] [--cost-model FILE]
 *            [--catalog DIR] [--buffer-pages N]
 *            [--kernels scalar|avx2|neon|auto]
 *            [--trace-out FILE] [--port PORT | --tcp PORT]
 *
 * TCP mode: --port PORT (alias --tcp) listens on 127.0.0.1; PORT 0
 * binds a kernel-assigned ephemeral port. Either way the bound port
 * is announced on stdout as `listening <port>` so supervisors (the
 * cluster ReplicaManager, CI) never race on a fixed port.
 *
 * All diagnostics go to stderr; in stdio mode stdout carries only
 * protocol lines, in TCP mode only the listening announcement.
 */

#include <cstdio>
#include <string>

#include "common/cli.h"
#include "kernels/kernel_table.h"
#include "obs/trace.h"
#include "service/server.h"
#include "storage/buffer_manager.h"

using namespace ta;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--threads N] [--window N] [--sessions N]\n"
        "          [--queue-cap N] [--cache-capacity N]\n"
        "          [--plan-cache FILE] [--cache-save-interval SEC]\n"
        "          [--scheduler planned|fifo] [--cost-model FILE]\n"
        "          [--catalog DIR] [--buffer-pages N]\n"
        "          [--kernels scalar|avx2|neon|auto]\n"
        "          [--trace-out FILE] [--port PORT | --tcp PORT]\n"
        "  --threads        executor width per engine (default\n"
        "                   TA_THREADS, else 1)\n"
        "  --window         max requests coalesced per batch window\n"
        "                   (default 8; 1 disables cross-request\n"
        "                   batching)\n"
        "  --sessions       worker sessions draining the queue\n"
        "                   (default 2); each has its own engine per\n"
        "                   key, so a key uses up to sessions x\n"
        "                   threads executor threads, at most 256\n"
        "  --queue-cap      admission-control queue bound (default\n"
        "                   256)\n"
        "  --cache-capacity shared plan-cache plans per scoreboard\n"
        "                   config (default 65536)\n"
        "  --plan-cache     warm-start/persist plans across restarts\n"
        "  --cache-save-interval\n"
        "                   also persist every SEC seconds while\n"
        "                   serving (default 0 = only at shutdown)\n"
        "  --scheduler      planned = cost-model EDF scheduling with\n"
        "                   deadline_unmeetable shedding (default);\n"
        "                   fifo = historical FIFO-within-priority\n"
        "  --cost-model     calibrated coefficients file from\n"
        "                   ta_calibrate (default: built-in model);\n"
        "                   a corrupt file is rejected and exits\n"
        "  --catalog        directory of ta_pack segment files;\n"
        "                   requests naming a model serve their\n"
        "                   weight plane from the catalog (byte-\n"
        "                   identical to synthesis). A corrupt or\n"
        "                   empty catalog is rejected and exits\n"
        "  --buffer-pages   buffer-manager residency bound in 4 KiB\n"
        "                   pages (default 4096)\n"
        "  --kernels        sub-tile kernel backend (responses are\n"
        "                   byte-identical for every backend; default\n"
        "                   TA_KERNELS, else auto)\n"
        "  --trace-out      record request spans and write Chrome\n"
        "                   trace-event JSON to FILE at shutdown\n"
        "                   (responses stay byte-identical; merge\n"
        "                   files with ta_trace)\n"
        "  --port / --tcp   listen on 127.0.0.1:PORT instead of\n"
        "                   stdin/stdout; 0 = ephemeral port. The\n"
        "                   bound port is printed on stdout as\n"
        "                   'listening <port>'\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    ServiceConfig cfg;
    std::string trace_out;
    long long tcp_port = 0;
    bool tcp_mode = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            usage(argv[0]);
            return 2;
        }
        const bool known = a == "--threads" || a == "--window" ||
                           a == "--sessions" || a == "--queue-cap" ||
                           a == "--cache-capacity" ||
                           a == "--plan-cache" ||
                           a == "--cache-save-interval" ||
                           a == "--scheduler" ||
                           a == "--cost-model" ||
                           a == "--catalog" ||
                           a == "--buffer-pages" ||
                           a == "--kernels" ||
                           a == "--trace-out" ||
                           a == "--tcp" || a == "--port";
        if (!known) {
            std::fprintf(stderr, "unknown flag %s\n", a.c_str());
            usage(argv[0]);
            return 2;
        }
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", a.c_str());
            usage(argv[0]);
            return 2;
        }
        const char *v = argv[++i];
        bool ok = true;
        if (a == "--threads")
            ok = parseIntFlag(a, v, 1, 256, cfg.threads);
        else if (a == "--window")
            ok = parseSizeFlag(a, v, 1, 256, cfg.window);
        else if (a == "--sessions")
            ok = parseIntFlag(a, v, 1, 64, cfg.sessions);
        else if (a == "--queue-cap")
            ok = parseSizeFlag(a, v, 1, 1u << 20, cfg.queueCapacity);
        else if (a == "--cache-capacity")
            ok = parseSizeFlag(a, v, 0, 1u << 26,
                               cfg.planCacheCapacity);
        else if (a == "--plan-cache")
            cfg.planCachePath = v;
        else if (a == "--scheduler") {
            const std::string policy = v;
            if (policy == "planned") {
                cfg.plannedScheduling = true;
            } else if (policy == "fifo") {
                cfg.plannedScheduling = false;
            } else {
                std::fprintf(stderr,
                             "--scheduler: expected planned|fifo, "
                             "got '%s'\n",
                             v);
                ok = false;
            }
        }
        else if (a == "--cost-model")
            cfg.costModelPath = v;
        else if (a == "--catalog")
            cfg.catalogDir = v;
        else if (a == "--buffer-pages")
            ok = parseSizeFlag(a, v, 1, 1u << 26, cfg.bufferPages);
        else if (a == "--kernels") {
            std::string err;
            ok = setKernels(v, &err);
            if (!ok)
                std::fprintf(stderr, "--kernels: %s\n", err.c_str());
        }
        else if (a == "--trace-out")
            trace_out = v;
        else if (a == "--cache-save-interval")
            ok = parseIntFlag(a, v, 0, 86400,
                              cfg.cacheSaveIntervalSec);
        else if (a == "--tcp" || a == "--port") {
            ok = parseIntFlag(a, v, 0, 65535, tcp_port);
            tcp_mode = true;
        }
        if (!ok) {
            usage(argv[0]);
            return 2;
        }
    }

    if (!threadsPerKeyFit(cfg.sessions, cfg.threads)) {
        usage(argv[0]);
        return 2;
    }

    if (!cfg.costModelPath.empty()) {
        // Pre-validate strictly: serving with silently-wrong
        // coefficients would change shed decisions, so a rejected
        // file is a startup error, not a fallback.
        CostModel probe;
        std::string err;
        if (!probe.loadFile(cfg.costModelPath, &err)) {
            std::fprintf(stderr, "--cost-model: %s\n", err.c_str());
            return 2;
        }
    }

    if (!cfg.catalogDir.empty()) {
        // Pre-validate strictly, same policy as --cost-model: serving
        // with a missing or corrupt catalog would turn every model
        // request into a runtime error, so a rejected catalog is a
        // startup error, not a fallback.
        BufferManager probe;
        std::string err;
        if (!probe.openCatalog(cfg.catalogDir, &err)) {
            std::fprintf(stderr, "--catalog: %s\n", err.c_str());
            return 2;
        }
    }

    if (!trace_out.empty())
        obs::Tracer::instance().enable(trace_out, "ta_serve");

    ServiceScheduler sched(cfg);
    sched.start();
    std::fprintf(stderr,
                 "ta_serve: %d session(s), window %zu, queue %zu, "
                 "%s kernels, %s mode\n",
                 sched.config().sessions, sched.config().window,
                 sched.config().queueCapacity, kernelArch(),
                 tcp_mode ? "tcp" : "stdio");

    const int rc = tcp_mode
                       ? serveTcp(sched,
                                  static_cast<uint16_t>(tcp_port))
                       : serveStdio(sched);
    sched.stop();

    const ServiceStats s = sched.stats();
    std::fprintf(stderr,
                 "ta_serve: served %llu (rejected %llu) in %llu "
                 "windows (max %llu, %llu batched), plan cache "
                 "%llu/%llu hits (%.1f%%), service p50/p95/p99 "
                 "%.2f/%.2f/%.2f ms\n",
                 static_cast<unsigned long long>(s.served),
                 static_cast<unsigned long long>(s.rejected),
                 static_cast<unsigned long long>(s.windows),
                 static_cast<unsigned long long>(s.maxWindow),
                 static_cast<unsigned long long>(s.batchedRequests),
                 static_cast<unsigned long long>(s.cacheHits),
                 static_cast<unsigned long long>(s.cacheHits +
                                                 s.cacheMisses),
                 100.0 * s.hitRate(), s.serviceMs.p50, s.serviceMs.p95,
                 s.serviceMs.p99);
    if (!trace_out.empty()) {
        obs::Tracer &tracer = obs::Tracer::instance();
        if (tracer.flush())
            std::fprintf(stderr,
                         "ta_serve: wrote %llu span(s) to %s "
                         "(%llu dropped)\n",
                         static_cast<unsigned long long>(
                             tracer.spanCount()),
                         trace_out.c_str(),
                         static_cast<unsigned long long>(
                             tracer.dropped()));
        else
            std::fprintf(stderr, "ta_serve: failed to write %s\n",
                         trace_out.c_str());
    }
    return rc;
}
