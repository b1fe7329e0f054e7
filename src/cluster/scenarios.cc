#include "cluster/scenarios.h"

#include <cmath>
#include <cstdio>

#include "common/rng.h"

namespace ta {

namespace {

/**
 * The scenario engine pool: variant v of `pool` selects one EngineKey
 * by spreading maxdist, static calibration and sample count — the
 * same knobs the affinity policy hashes — so a skewed pick
 * distribution becomes a skewed per-replica load distribution.
 */
void
applyEngineVariant(ServiceRequest &r, int variant, bool quick)
{
    r.maxdist = 3 + variant % 3;
    r.useStatic = (variant / 3) % 2 != 0;
    r.samples = (quick ? 16u : 32u) + ((variant / 6) % 2 != 0
                                           ? (quick ? 8u : 32u)
                                           : 0u);
}

} // namespace

/**
 * Seeded request trace over `enginePool` engine variants picked with
 * a Zipf(s) popularity distribution (s = 0 → uniform). Shapes are
 * the loadgen quick suites (FC / attention / im2col) scaled up a
 * little in full mode — scenario runs stress the serving fabric, not
 * the simulator, so requests stay small.
 */
std::vector<ServiceRequest>
scenarioTrace(uint64_t seed, size_t count, bool quick, int pool,
              double zipf_s)
{
    Rng rng(seed);
    std::vector<double> cdf(static_cast<size_t>(pool));
    double total = 0;
    for (int v = 0; v < pool; ++v) {
        total += 1.0 / std::pow(static_cast<double>(v + 1), zipf_s);
        cdf[static_cast<size_t>(v)] = total;
    }
    const int mul = quick ? 4 : 6;
    std::vector<ServiceRequest> trace;
    trace.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        ServiceRequest r;
        const int suite = static_cast<int>(rng.uniformInt(0, 2));
        if (suite == 0) { // FC projection
            r.shape = {static_cast<uint64_t>(128 *
                                             rng.uniformInt(1, mul)),
                       static_cast<uint64_t>(128 *
                                             rng.uniformInt(1, mul)),
                       static_cast<uint64_t>(64 *
                                             rng.uniformInt(1, mul))};
        } else if (suite == 1) { // attention score
            r.shape = {static_cast<uint64_t>(64 *
                                             rng.uniformInt(2, mul)),
                       64, 128};
        } else { // CNN im2col
            r.shape = {64,
                       static_cast<uint64_t>(
                           64 * rng.uniformInt(2, 2 * mul)),
                       196};
        }
        const int pick = static_cast<int>(rng.uniformInt(0, 3));
        r.wbits = pick == 0 ? 8 : pick == 1 ? 6 : 4;
        r.seed = static_cast<uint64_t>(rng.uniformInt(1, 1 << 20));
        r.priority = static_cast<int>(rng.uniformInt(0, 2));
        const double u = rng.uniformDouble() * total;
        int variant = 0;
        while (variant + 1 < pool &&
               u > cdf[static_cast<size_t>(variant)])
            ++variant;
        applyEngineVariant(r, variant, quick);
        trace.push_back(r);
    }
    return trace;
}

namespace {

/**
 * Deterministic sinusoidal arrival offsets: request i+1 follows
 * request i after 1/rate(t) seconds where
 * rate(t) = base * (1 + amp * sin(2*pi*t / period)). Inversion by
 * forward stepping — no randomness, so the offered curve is exactly
 * reproducible.
 */
std::vector<double>
diurnalArrivals(size_t count, double base_rps, double amp,
                double period_sec)
{
    std::vector<double> arrivals(count);
    double t = 0;
    for (size_t i = 0; i < count; ++i) {
        arrivals[i] = t;
        const double rate =
            base_rps *
            (1.0 + amp * std::sin(2.0 * M_PI * t / period_sec));
        t += 1.0 / (rate > 1e-6 ? rate : 1e-6);
    }
    return arrivals;
}

/** On/off arrival offsets: `per_burst` requests at `burst_rps`, then
 *  `gap_sec` of silence, repeated. */
std::vector<double>
burstArrivals(size_t count, size_t per_burst, double burst_rps,
              double gap_sec)
{
    std::vector<double> arrivals(count);
    double t = 0;
    for (size_t i = 0; i < count; ++i) {
        arrivals[i] = t;
        t += 1.0 / burst_rps;
        if ((i + 1) % per_burst == 0)
            t += gap_sec;
    }
    return arrivals;
}

} // namespace

std::vector<std::string>
scenarioNames()
{
    return {"diurnal",      "burst",
            "zipf_engines", "crash_storm",
            "slow_client",  "cache_cold_stampede",
            "corrupt_cache_restart"};
}

bool
buildScenario(const std::string &name, uint64_t seed, bool quick,
              ScenarioSpec &out, std::string &err)
{
    out = ScenarioSpec{};
    out.name = name;
    // Liveness-flavored tail bound: the gate exists to catch a stuck
    // or livelocked cluster, not to benchmark the host.
    out.p99BoundMs = quick ? 60000 : 120000;

    if (name == "diurnal") {
        out.description = "open-loop sinusoidal offered load over an "
                          "autoscaling cluster";
        out.replicas = 2;
        out.maxReplicas = 4;
        out.openLoop = true;
        const size_t n = quick ? 96 : 240;
        out.trace = scenarioTrace(seed, n, quick, 6, 0.0);
        out.arrivalSec =
            diurnalArrivals(n, quick ? 40.0 : 60.0, 0.6, 2.4);
        return true;
    }
    if (name == "burst") {
        out.description = "on/off arrival bursts over tiny replica "
                          "queues; admission control sheds";
        out.replicas = 2;
        out.queueCap = 4;
        out.openLoop = true;
        out.allowShed = true;
        const size_t n = quick ? 96 : 192;
        out.trace = scenarioTrace(seed, n, quick, 6, 0.0);
        out.arrivalSec = burstArrivals(n, 16, 500.0, 0.5);
        return true;
    }
    if (name == "zipf_engines") {
        out.description = "Zipf-skewed engine popularity under "
                          "affinity routing";
        out.replicas = 3;
        out.concurrency = 8;
        const size_t n = quick ? 96 : 240;
        out.trace = scenarioTrace(seed, n, quick, 12, 1.1);
        return true;
    }
    if (name == "crash_storm") {
        out.description = "kill ceil(N/2) replicas mid-trace with "
                          "autoscaling on";
        out.replicas = 3;
        out.maxReplicas = 4;
        out.concurrency = 8;
        out.maxRedispatch = 8;
        const size_t n = quick ? 120 : 240;
        out.trace = scenarioTrace(seed, n, quick, 6, 0.0);
        FaultEvent kill;
        kill.kind = FaultKind::Kill;
        kill.atRequest = n / 3;
        kill.count = (out.replicas + 1) / 2;
        out.faults.events.push_back(kill);
        out.minRestarts = 1;
        return true;
    }
    if (name == "slow_client") {
        out.description = "clients stalling their reads while the "
                          "main trace flows";
        out.replicas = 2;
        out.concurrency = 6;
        const size_t n = quick ? 72 : 144;
        out.trace = scenarioTrace(seed, n, quick, 6, 0.0);
        out.slowClients = 2;
        out.stallReadMs = quick ? 250 : 400;
        out.slowClientRequests = quick ? 6 : 10;
        return true;
    }
    if (name == "cache_cold_stampede") {
        out.description = "no warmup, high concurrency on two "
                          "engines: every replica plans cold at once";
        out.replicas = 3;
        out.concurrency = 16;
        out.warmup = false;
        const size_t n = quick ? 96 : 192;
        out.trace = scenarioTrace(seed, n, quick, 2, 0.0);
        return true;
    }
    if (name == "corrupt_cache_restart") {
        out.description = "corrupt a persisted plan-cache file and "
                          "kill its replica; the warm restart must "
                          "reject the snapshot and keep serving";
        out.replicas = 2;
        out.concurrency = 6;
        out.needsCacheFiles = true;
        out.cacheSaveIntervalSec = 1;
        const size_t n = quick ? 96 : 192;
        out.trace = scenarioTrace(seed, n, quick, 4, 0.0);
        FaultEvent corrupt;
        corrupt.kind = FaultKind::CorruptCache;
        corrupt.atRequest = n / 2;
        corrupt.slot = 0;
        out.faults.events.push_back(corrupt);
        out.minRestarts = 1;
        return true;
    }
    err = "unknown scenario '" + name + "'";
    return false;
}

bool
checkScenarioGates(const ScenarioSpec &spec, ScenarioOutcome &outcome)
{
    outcome.failures.clear();
    char buf[160];
    const auto fail = [&](const char *fmt, uint64_t a, uint64_t b) {
        std::snprintf(buf, sizeof(buf), fmt,
                      static_cast<unsigned long long>(a),
                      static_cast<unsigned long long>(b));
        outcome.failures.push_back(buf);
    };
    if (outcome.lost != 0)
        fail("%llu of %llu requests lost (never answered)",
             outcome.lost, outcome.requests);
    if (outcome.duplicated != 0)
        fail("%llu of %llu requests answered more than once",
             outcome.duplicated, outcome.requests);
    if (outcome.mismatches != 0)
        fail("%llu of %llu served responses not byte-identical to "
             "the serial oracle",
             outcome.mismatches, outcome.served);
    if (!spec.allowShed && outcome.shed != 0)
        fail("%llu requests shed but the scenario declares no "
             "overload (%llu requests)",
             outcome.shed, outcome.requests);
    if (outcome.errors != 0)
        fail("%llu non-overload error responses (%llu requests)",
             outcome.errors, outcome.requests);
    if (outcome.served + outcome.shed > outcome.requests)
        fail("%llu served or shed but only %llu requests issued",
             outcome.served + outcome.shed, outcome.requests);
    if (outcome.served > 0 && outcome.p99Ms > spec.p99BoundMs) {
        std::snprintf(buf, sizeof(buf),
                      "p99 %.1f ms exceeds the %.1f ms bound",
                      outcome.p99Ms, spec.p99BoundMs);
        outcome.failures.push_back(buf);
    }
    if (outcome.restarts < spec.minRestarts)
        fail("%llu restarts observed, scenario requires at least "
             "%llu",
             outcome.restarts, spec.minRestarts);
    if (outcome.abandoned != 0)
        fail("%llu replica slots abandoned (%llu restarts)",
             outcome.abandoned, outcome.restarts);
    outcome.pass = outcome.failures.empty();
    return outcome.pass;
}

} // namespace ta
