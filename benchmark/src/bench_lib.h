/**
 * @file
 * Measurement helpers shared by the repo benchmark
 * (ta_benchmark), its per-layer probe (ta_layer_probe) and their
 * self-tests: percentiles with a stated sample support, the seeded
 * Poisson arrival schedule, open-loop due-time accounting, `stats`-op
 * deltas, and /proc readers for memory and CPU time.
 *
 * Everything here is a pure function of its inputs except the /proc
 * readers, so the self-tests pin the accounting rules exactly.
 */

#ifndef TA_BENCHMARK_BENCH_LIB_H
#define TA_BENCHMARK_BENCH_LIB_H

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tabench {

/** splitmix64 of (a, b): per-(phase, index) request seeds. */
uint64_t mixSeed(uint64_t a, uint64_t b);

/**
 * The highest percentile, capped at `cap`, that has at least `beyond`
 * of `n` samples above it: the largest q <= cap with
 * n * (1 - q / 100) >= beyond, in whole tenths. The median when no
 * percentile above it has that support.
 */
double supportedPercentile(size_t n, double cap = 99.0,
                           size_t beyond = 10);

/**
 * Median over `windows` equal slices of [start, end) of each slice's
 * completion rate (events per second). The host's speed drifts on a
 * seconds scale; the median discards the slices a stall hit.
 */
double windowedRate(const std::vector<double> &event_times, double start,
                    double end, size_t windows);

/**
 * q-th percentile of `values` (in arrival order) computed per window
 * of at least `min_window` consecutive values, then the median across
 * windows; the plain percentile when fewer than 2 windows fit.
 */
double windowedPercentile(const std::vector<double> &values, double q,
                          size_t min_window);

/**
 * Seeded Poisson arrival schedule: due offsets (seconds from the phase
 * start, ascending) of a process with `rate_per_s` over `duration_s`.
 * The same (seed, rate, duration) always gives the same schedule.
 */
std::vector<double> poissonSchedule(uint64_t seed, double rate_per_s,
                                    double duration_s);

/** One open-loop request as the generator saw it (seconds). */
struct OpenLoopRecord
{
    double due = 0;   ///< when the schedule wanted it sent
    double sent = 0;  ///< when the generator actually sent it
    double recv = -1; ///< response arrival; < 0 = never answered
    bool ok = false;  ///< answered with "ok":1
};

/** What an open-loop phase reports. */
struct OpenLoopSummary
{
    size_t sent = 0;
    size_t ok = 0;
    /** Latencies of OK responses, measured from the due time (ms),
     *  in send order. */
    std::vector<double> latencyMs;
    double p50Ms = 0;
    /** The tail percentile: supportedPercentile() of the OK count. */
    double tailPct = 0;
    /** Latency at tailPct. From 2000 samples on it is the p99 of each
     *  window of >= 1000 consecutive requests, median across windows. */
    double tailMs = 0;
    /** OK within the limit, over every request sent: a failed,
     *  shed or unanswered request is a miss. */
    double sloAttainment = 0;
    /** How late the generator sent, sent - due (ms), at p99. */
    double lateP99Ms = 0;
};

OpenLoopSummary summarizeOpenLoop(const std::vector<OpenLoopRecord> &recs,
                                  double limit_ms);

/** A parsed `stats` op response: every numeric key. */
using Stats = std::map<std::string, double>;

/** Parse a stats response line; false on malformed JSON or "ok":0. */
bool parseStats(const std::string &line, Stats &out);

/** after[key] - before[key] (absent keys read as 0). */
double statDelta(const Stats &before, const Stats &after,
                 const std::string &key);

/**
 * q-th percentile of the observations that landed between two
 * snapshots of a cumulative `<prefix>_le_<edge>` histogram, linearly
 * interpolated inside the bucket (the first bucket starts at 0). The
 * open-ended bucket reports its lower edge. 0 when nothing landed.
 */
double histogramPercentile(const Stats &before, const Stats &after,
                           const std::string &prefix, double q);

/** VmHWM of a process in MiB (0 if unreadable). */
double vmHwmMb(pid_t pid);

/** Direct children of a process (every thread's children list). */
std::vector<pid_t> childPids(pid_t pid);

/** utime + stime of a process in seconds (0 if unreadable). */
double cpuSeconds(pid_t pid);

/** Format a double with every significant digit (%.17g). */
std::string fullDigits(double v);

} // namespace tabench

#endif // TA_BENCHMARK_BENCH_LIB_H
