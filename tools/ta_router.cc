/**
 * @file
 * ta_router: the cluster front-end. Spawns and supervises N
 * `ta_serve` replicas (fork+exec on ephemeral ports, health-checked,
 * crash-restarted with bounded backoff) and speaks the same
 * line-delimited JSON protocol as a single `ta_serve` — on
 * stdin/stdout (default) or a TCP port — forwarding each request to a
 * replica under a routing policy. Responses are byte-identical to
 * single-process serving for every policy and replica count.
 *
 * Usage:
 *   ta_router [--replicas N] [--policy round_robin|least_outstanding|
 *             affinity] [--serve-bin PATH] [--port PORT | --tcp PORT]
 *             [--threads N] [--window N] [--sessions N]
 *             [--plan-cache BASE] [--cache-save-interval SEC]
 *             [--max-outstanding N] [--request-timeout MS]
 *             [--retry-budget N] [--max-waiting N]
 *             [--autoscale-max N] [--trace-out BASE]
 *   ta_router merge OUT IN [IN...]
 *
 * Degradation knobs: --request-timeout withdraws and re-dispatches
 * requests stuck on a stalled replica; --retry-budget bounds the
 * redispatches per request before it is shed with an `overloaded`
 * error; --max-waiting bounds blocked submitters the same way;
 * --autoscale-max lets the manager grow/shrink the active replica
 * set between --replicas and N on queue pressure.
 *
 * With --plan-cache BASE, replica i persists to `BASE.<i>`. The
 * `merge` mode unions such per-replica cache files into one snapshot
 * (earlier inputs win on conflicts) for cold-start distribution.
 *
 * The `stats` op answers with cluster-wide aggregates; `shutdown`
 * stops the router, which gracefully stops every replica (each
 * persists its cache file on the way out).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "cluster/router.h"
#include "common/cli.h"
#include "harness/plan_cache_store.h"
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
        "usage: %s [--replicas N] [--policy P] [--serve-bin PATH]\n"
        "          [--port PORT | --tcp PORT] [--threads N]\n"
        "          [--window N] [--sessions N] [--plan-cache BASE]\n"
        "          [--cache-save-interval SEC] [--max-outstanding N]\n"
        "          [--request-timeout MS] [--retry-budget N]\n"
        "          [--max-waiting N] [--autoscale-max N]\n"
        "          [--catalog DIR] [--buffer-pages N]\n"
        "          [--trace-out BASE]\n"
        "       %s merge OUT IN [IN...]\n"
        "  --replicas       ta_serve replica processes (default 2)\n"
        "  --policy         round_robin | least_outstanding |\n"
        "                   affinity (default affinity: hash of the\n"
        "                   engine key picks the replica, keeping\n"
        "                   per-replica plan caches hot)\n"
        "  --serve-bin      ta_serve binary (default: next to this\n"
        "                   binary)\n"
        "  --port / --tcp   serve the protocol on 127.0.0.1:PORT\n"
        "                   (0 = ephemeral) instead of stdin/stdout;\n"
        "                   the bound port is printed on stdout as\n"
        "                   'listening <port>'\n"
        "  --threads/--window/--sessions\n"
        "                   forwarded to every replica; --sessions\n"
        "                   (default 2) x --threads (default\n"
        "                   TA_THREADS, else 1) may not exceed 256\n"
        "  --plan-cache     replica i warm-starts from and persists\n"
        "                   to BASE.<i>\n"
        "  --cache-save-interval\n"
        "                   replicas also persist every SEC seconds\n"
        "                   (crash-restarted replicas come back warm)\n"
        "  --max-outstanding\n"
        "                   per-replica in-flight cap (default 256)\n"
        "  --request-timeout\n"
        "                   withdraw and re-dispatch a request stuck\n"
        "                   in flight longer than MS (default 0 =\n"
        "                   never; catches stalled replicas)\n"
        "  --retry-budget   re-dispatches per request before it is\n"
        "                   shed with an 'overloaded' error\n"
        "                   (default 5)\n"
        "  --max-waiting    blocked submitters before new requests\n"
        "                   are shed (default 0 = unbounded)\n"
        "  --autoscale-max  grow/shrink the active replica set\n"
        "                   between --replicas and N on queue\n"
        "                   pressure (default off)\n"
        "  --catalog        segment-file directory forwarded to every\n"
        "                   replica (validated here first; a corrupt\n"
        "                   or empty catalog is a startup error)\n"
        "  --buffer-pages   per-replica buffer-manager residency\n"
        "                   bound, forwarded with --catalog\n"
        "  --trace-out      trace requests across the cluster: the\n"
        "                   router writes BASE.router.json and\n"
        "                   replica i writes BASE.replica<i>.json\n"
        "                   (Chrome trace JSON; merge and analyze\n"
        "                   with ta_trace)\n"
        "  merge            union per-replica cache files into OUT\n"
        "                   (earlier inputs win on conflicts)\n",
        argv0, argv0);
}

int
mergeMain(int argc, char **argv)
{
    // ta_router merge OUT IN [IN...]
    if (argc < 4) {
        usage(argv[0]);
        return 2;
    }
    const std::string out = argv[2];
    PlanCacheStore store;
    for (int i = 3; i < argc; ++i) {
        const size_t before = store.planCount();
        if (!store.loadFile(argv[i], /*merge=*/true)) {
            std::fprintf(stderr,
                         "ta_router: cannot read %s (missing or "
                         "malformed)\n",
                         argv[i]);
            return 1;
        }
        std::printf("merged %s: +%zu plans (%zu total, %zu "
                    "configs)\n",
                    argv[i], store.planCount() - before,
                    store.planCount(), store.sectionCount());
    }
    if (!store.saveFile(out)) {
        std::fprintf(stderr, "ta_router: cannot write %s\n",
                     out.c_str());
        return 1;
    }
    std::printf("wrote %s: %zu plans (%zu configs)\n", out.c_str(),
                store.planCount(), store.sectionCount());
    return 0;
}

/** The router's protocol handler: stats/ping/shutdown here, "run"
 *  through the Router. */
LineHandler
makeRouterHandler(Router &router, std::atomic<bool> &shutdown_flag)
{
    return [&router, &shutdown_flag](
               const std::string &line,
               const std::shared_ptr<ConnWriter> &writer) -> bool {
        ServiceRequest req;
        std::string err;
        if (!parseRequestLine(line, req, err)) {
            writer->writeLine(serializeError(req.id, err));
            return true;
        }
        if (req.op == "shutdown") {
            shutdown_flag.store(true);
            writer->writeLine("{\"id\":" + std::to_string(req.id) +
                              ",\"ok\":1,\"shutdown\":1}");
            return false;
        }
        // ping and stats are answered by the router itself (stats
        // aggregates every replica's counters); "run" is routed.
        writer->beginRequest();
        router.submit(req, [writer](const std::string &response) {
            writer->writeLine(response);
            writer->finishRequest();
        });
        return true;
    };
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::string(argv[1]) == "merge")
        return mergeMain(argc, argv);

    ReplicaProcessConfig rcfg;
    rcfg.serveBinary = defaultServeBinary(argv[0]);
    rcfg.count = 2;
    RouterConfig rtcfg;
    long long tcp_port = 0;
    bool tcp_mode = false;
    long long threads = 0, window = 0, sessions = 0;
    long long buffer_pages = 0;
    std::string catalog_dir;
    std::string trace_out_base;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            usage(argv[0]);
            return 2;
        }
        const bool known =
            a == "--replicas" || a == "--policy" ||
            a == "--serve-bin" || a == "--port" || a == "--tcp" ||
            a == "--threads" || a == "--window" ||
            a == "--sessions" || a == "--plan-cache" ||
            a == "--cache-save-interval" ||
            a == "--max-outstanding" || a == "--request-timeout" ||
            a == "--retry-budget" || a == "--max-waiting" ||
            a == "--autoscale-max" || a == "--catalog" ||
            a == "--buffer-pages" || a == "--trace-out";
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
        if (a == "--replicas")
            ok = parseIntFlag(a, v, 1, 64, rcfg.count);
        else if (a == "--policy") {
            ok = parseRoutePolicy(v, rtcfg.policy);
            if (!ok)
                std::fprintf(stderr,
                             "--policy: expected round_robin, "
                             "least_outstanding or affinity, got "
                             "'%s'\n",
                             v);
        } else if (a == "--serve-bin")
            rcfg.serveBinary = v;
        else if (a == "--port" || a == "--tcp") {
            ok = parseIntFlag(a, v, 0, 65535, tcp_port);
            tcp_mode = true;
        } else if (a == "--threads")
            ok = parseIntFlag(a, v, 1, 256, threads);
        else if (a == "--window")
            ok = parseIntFlag(a, v, 1, 256, window);
        else if (a == "--sessions")
            ok = parseIntFlag(a, v, 1, 64, sessions);
        else if (a == "--plan-cache")
            rcfg.planCacheBase = v;
        else if (a == "--cache-save-interval")
            ok = parseIntFlag(a, v, 0, 86400,
                              rcfg.cacheSaveIntervalSec);
        else if (a == "--max-outstanding") {
            ok = parseSizeFlag(a, v, 1, 1u << 20,
                               rtcfg.maxOutstanding);
        } else if (a == "--request-timeout") {
            long long ms = 0;
            ok = parseIntFlag(a, v, 0, 3600000, ms);
            rtcfg.requestTimeoutMs = static_cast<int>(ms);
        } else if (a == "--retry-budget") {
            long long budget = 0;
            ok = parseIntFlag(a, v, 0, 1000, budget);
            rtcfg.maxRedispatch = static_cast<int>(budget);
        } else if (a == "--max-waiting") {
            ok = parseSizeFlag(a, v, 0, 1u << 20, rtcfg.maxWaiting);
        } else if (a == "--autoscale-max") {
            long long max_replicas = 0;
            ok = parseIntFlag(a, v, 1, 64, max_replicas);
            rcfg.autoscale.maxReplicas =
                static_cast<int>(max_replicas);
        } else if (a == "--catalog") {
            catalog_dir = v;
        } else if (a == "--trace-out") {
            trace_out_base = v;
        } else if (a == "--buffer-pages") {
            ok = parseIntFlag(a, v, 1, 1 << 26, buffer_pages);
        }
        if (!ok) {
            usage(argv[0]);
            return 2;
        }
    }
    // Refuse here what every replica would refuse, like --catalog.
    if (!threadsPerKeyFit(sessions > 0 ? sessions : ServiceConfig{}.sessions,
                          threads)) {
        usage(argv[0]);
        return 2;
    }
    if (threads > 0) {
        rcfg.serveArgs.push_back("--threads");
        rcfg.serveArgs.push_back(std::to_string(threads));
    }
    if (window > 0) {
        rcfg.serveArgs.push_back("--window");
        rcfg.serveArgs.push_back(std::to_string(window));
    }
    if (sessions > 0) {
        rcfg.serveArgs.push_back("--sessions");
        rcfg.serveArgs.push_back(std::to_string(sessions));
    }
    if (!catalog_dir.empty()) {
        // Validate once here before fanning out to N replicas: a
        // catalog every replica would reject is a router startup
        // error, not N crash-looping children.
        BufferManager probe;
        std::string err;
        if (!probe.openCatalog(catalog_dir, &err)) {
            std::fprintf(stderr, "--catalog: %s\n", err.c_str());
            return 2;
        }
        rcfg.serveArgs.push_back("--catalog");
        rcfg.serveArgs.push_back(catalog_dir);
        if (buffer_pages > 0) {
            rcfg.serveArgs.push_back("--buffer-pages");
            rcfg.serveArgs.push_back(std::to_string(buffer_pages));
        }
    }

    if (!trace_out_base.empty()) {
        // The router is the cluster's trace-context source: it mints
        // ids for untraced requests and propagates them replica-ward
        // on the wire; every process writes its own trace file.
        obs::Tracer::instance().enable(
            trace_out_base + ".router.json", "ta_router");
        rcfg.traceOutBase = trace_out_base;
    }

    ReplicaManager manager(rcfg);
    if (!manager.start())
        return 1;
    Router router(rtcfg, manager);
    router.start();
    std::fprintf(stderr,
                 "ta_router: %d replica(s), policy %s, %s mode\n",
                 manager.count(), routePolicyName(rtcfg.policy),
                 tcp_mode ? "tcp" : "stdio");

    std::atomic<bool> shutdown_flag{false};
    const LineHandler handler =
        makeRouterHandler(router, shutdown_flag);
    const int rc =
        tcp_mode ? serveLineTcp(handler,
                                static_cast<uint16_t>(tcp_port),
                                shutdown_flag, "ta_router")
                 : serveLineStdio(handler);

    router.stop();
    manager.stop(); // graceful: every replica persists its cache
    const RouterCounters rcount = router.counters();
    std::fprintf(stderr,
                 "ta_router: forwarded %llu (retried %llu, failed "
                 "%llu, timed out %llu, shed %llu), %llu replica "
                 "restart(s), scale +%llu/-%llu\n",
                 static_cast<unsigned long long>(rcount.forwarded),
                 static_cast<unsigned long long>(rcount.retried),
                 static_cast<unsigned long long>(rcount.failed),
                 static_cast<unsigned long long>(rcount.timedOut),
                 static_cast<unsigned long long>(rcount.shed),
                 static_cast<unsigned long long>(manager.restarts()),
                 static_cast<unsigned long long>(manager.scaleUps()),
                 static_cast<unsigned long long>(
                     manager.scaleDowns()));
    if (!trace_out_base.empty()) {
        obs::Tracer &tracer = obs::Tracer::instance();
        if (tracer.flush())
            std::fprintf(stderr,
                         "ta_router: wrote %llu span(s) to "
                         "%s.router.json (%llu dropped)\n",
                         static_cast<unsigned long long>(
                             tracer.spanCount()),
                         trace_out_base.c_str(),
                         static_cast<unsigned long long>(
                             tracer.dropped()));
        else
            std::fprintf(stderr,
                         "ta_router: failed to write %s.router.json\n",
                         trace_out_base.c_str());
    }
    return rc;
}
