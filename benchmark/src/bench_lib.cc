#include "bench_lib.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/rng.h"
#include "common/stats.h"
#include "service/protocol.h"

namespace tabench {

uint64_t
mixSeed(uint64_t a, uint64_t b)
{
    uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
supportedPercentile(size_t n, double cap, size_t beyond)
{
    if (n < 2 * beyond)
        return 50.0;
    const double q = 100.0 * (1.0 - static_cast<double>(beyond) /
                                        static_cast<double>(n));
    // Whole tenths (p99.0, p98.7, ...); the epsilon keeps 98.999...
    // from rounding an exact p99 down.
    return std::min(cap, std::floor(q * 10.0 + 1e-9) / 10.0);
}

double
windowedRate(const std::vector<double> &event_times, double start,
             double end, size_t windows)
{
    if (windows == 0 || end <= start)
        return 0.0;
    const double width = (end - start) / static_cast<double>(windows);
    std::vector<double> counts(windows, 0.0);
    for (double t : event_times) {
        if (t < start || t >= end)
            continue;
        const size_t w = std::min(
            windows - 1, static_cast<size_t>((t - start) / width));
        counts[w] += 1.0;
    }
    for (double &c : counts)
        c /= width;
    return ta::percentileOf(std::move(counts), 50);
}

double
windowedPercentile(const std::vector<double> &values, double q,
                   size_t min_window)
{
    const size_t windows = min_window == 0 ? 1 : values.size() / min_window;
    if (windows < 2)
        return ta::percentileOf(values, q);
    std::vector<double> per_window;
    const size_t width = values.size() / windows;
    for (size_t w = 0; w < windows; ++w) {
        const auto first = values.begin() + static_cast<long>(w * width);
        const auto last = w + 1 == windows
                              ? values.end()
                              : first + static_cast<long>(width);
        per_window.push_back(ta::percentileOf({first, last}, q));
    }
    return ta::percentileOf(std::move(per_window), 50);
}

std::vector<double>
poissonSchedule(uint64_t seed, double rate_per_s, double duration_s)
{
    std::vector<double> due;
    if (rate_per_s <= 0 || duration_s <= 0)
        return due;
    ta::Rng rng(mixSeed(seed, 0x0a11));
    double t = 0;
    while (true) {
        t += -std::log(1.0 - rng.uniformDouble()) / rate_per_s;
        if (t >= duration_s)
            return due;
        due.push_back(t);
    }
}

OpenLoopSummary
summarizeOpenLoop(const std::vector<OpenLoopRecord> &recs, double limit_ms)
{
    OpenLoopSummary s;
    s.sent = recs.size();
    std::vector<double> late;
    late.reserve(recs.size());
    size_t within = 0;
    for (const OpenLoopRecord &r : recs) {
        late.push_back((r.sent - r.due) * 1e3);
        if (!r.ok || r.recv < 0)
            continue;
        ++s.ok;
        const double ms = (r.recv - r.due) * 1e3;
        s.latencyMs.push_back(ms);
        if (ms <= limit_ms)
            ++within;
    }
    s.p50Ms = ta::percentileOf(s.latencyMs, 50);
    s.tailPct = supportedPercentile(s.latencyMs.size());
    s.tailMs = windowedPercentile(s.latencyMs, s.tailPct, 1000);
    s.sloAttainment =
        s.sent == 0 ? 0.0 : static_cast<double>(within) / s.sent;
    s.lateP99Ms = ta::percentileOf(std::move(late), 99);
    return s;
}

bool
parseStats(const std::string &line, Stats &out)
{
    std::vector<std::pair<std::string, std::string>> kvs;
    std::string err;
    if (!ta::parseJsonFlat(line, kvs, err))
        return false;
    out.clear();
    bool ok = false;
    for (const auto &kv : kvs) {
        if (kv.first == "ok")
            ok = kv.second == "1";
        char *end = nullptr;
        const double v = std::strtod(kv.second.c_str(), &end);
        if (end != kv.second.c_str() && *end == '\0')
            out[kv.first] = v;
    }
    return ok;
}

double
statDelta(const Stats &before, const Stats &after, const std::string &key)
{
    const auto a = after.find(key);
    const auto b = before.find(key);
    return (a == after.end() ? 0.0 : a->second) -
           (b == before.end() ? 0.0 : b->second);
}

double
histogramPercentile(const Stats &before, const Stats &after,
                    const std::string &prefix, double q)
{
    const std::string stem = prefix + "_le_";
    // (upper edge, cumulative delta); the open bucket's edge is +inf.
    std::vector<std::pair<double, double>> buckets;
    for (const auto &kv : after) {
        if (kv.first.compare(0, stem.size(), stem) != 0)
            continue;
        const std::string edge = kv.first.substr(stem.size());
        const double e = edge == "inf" ? INFINITY
                                       : std::strtod(edge.c_str(), nullptr);
        buckets.emplace_back(e, statDelta(before, after, kv.first));
    }
    std::sort(buckets.begin(), buckets.end());
    if (buckets.empty() || buckets.back().second <= 0)
        return 0.0;
    const double target = q / 100.0 * buckets.back().second;
    double lo = 0, prev = 0;
    for (const auto &[edge, cum] : buckets) {
        if (cum >= target && cum > prev) {
            if (std::isinf(edge))
                return lo;
            return lo + (target - prev) / (cum - prev) * (edge - lo);
        }
        lo = edge;
        prev = cum;
    }
    return lo;
}

double
vmHwmMb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.compare(0, 6, "VmHWM:") == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

std::vector<pid_t>
childPids(pid_t pid)
{
    std::vector<pid_t> out;
    const std::string task = "/proc/" + std::to_string(pid) + "/task";
    DIR *dir = ::opendir(task.c_str());
    if (dir == nullptr)
        return out;
    while (const dirent *e = ::readdir(dir)) {
        if (e->d_name[0] == '.')
            continue;
        std::ifstream in(task + "/" + e->d_name + "/children");
        pid_t child = 0;
        while (in >> child)
            if (std::find(out.begin(), out.end(), child) == out.end())
                out.push_back(child);
    }
    ::closedir(dir);
    return out;
}

double
cpuSeconds(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name: state is field 3,
    // utime and stime are fields 14 and 15.
    const size_t close = text.rfind(')');
    if (close == std::string::npos)
        return 0.0;
    std::istringstream fields(text.substr(close + 2));
    std::string field;
    double ticks = 0;
    for (int i = 3; i <= 15 && fields >> field; ++i)
        if (i >= 14)
            ticks += std::strtod(field.c_str(), nullptr);
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

std::string
fullDigits(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

} // namespace tabench
