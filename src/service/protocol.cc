#include "service/protocol.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <tuple>

#include "common/cli.h"
#include "obs/trace.h"
#include "scoreboard/analyzer.h"

namespace ta {

namespace {

/** Bounds every numeric request field must satisfy. */
constexpr uint64_t kMaxDim = 1ull << 24; ///< n/k/m ceiling (16M)
constexpr uint64_t kMaxSamples = 1ull << 20;

struct FieldSpec
{
    const char *key;
    uint64_t min;
    uint64_t max;
};

bool
parseBoundedU64(const std::string &raw, uint64_t min, uint64_t max,
                uint64_t &out)
{
    // One validation rule everywhere: the CLI flag parser's core.
    return parseU64Value(raw.c_str(), min, max, out);
}

void
appendEscaped(std::string &out, const std::string &s)
{
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
}

void
appendKeyU64(std::string &out, const char *key, uint64_t v, bool first)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%llu", first ? "" : ",",
                  key, static_cast<unsigned long long>(v));
    out += buf;
}

void
appendKeyDouble(std::string &out, const char *key, double v, bool first)
{
    out += first ? "\"" : ",\"";
    out += key;
    out += "\":";
    out += formatDouble(v);
}

} // namespace

std::string
formatDouble(double v)
{
    // JSON has no inf/nan literal; a degenerate metric becomes null so
    // the line stays parseable (same policy as BenchJson).
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

bool
EngineKey::operator==(const EngineKey &o) const
{
    return abits == o.abits && tbits == o.tbits &&
           maxdist == o.maxdist && units == o.units &&
           useStatic == o.useStatic && samples == o.samples;
}

bool
EngineKey::operator<(const EngineKey &o) const
{
    return std::tie(abits, tbits, maxdist, units, useStatic, samples) <
           std::tie(o.abits, o.tbits, o.maxdist, o.units, o.useStatic,
                    o.samples);
}

EngineKey
engineKeyOf(const ServiceRequest &req)
{
    return {req.abits,     req.tbits, req.maxdist,
            req.units,     req.useStatic, req.samples};
}

TransArrayAccelerator::Config
engineConfig(const EngineKey &key, int threads, PlanCache *shared_cache)
{
    TransArrayAccelerator::Config cfg;
    cfg.unit.tBits = key.tbits;
    cfg.unit.maxDistance = key.maxdist;
    cfg.units = key.units;
    cfg.actBits = key.abits;
    cfg.useStaticScoreboard = key.useStatic;
    cfg.sampleLimit = key.samples;
    cfg.threads = threads;
    cfg.sharedPlanCache = shared_cache;
    return cfg;
}

bool
parseJsonFlat(const std::string &line,
              std::vector<std::pair<std::string, std::string>> &out,
              std::string &err)
{
    out.clear();
    size_t i = 0;
    auto skipWs = [&] {
        while (i < line.size() &&
               std::isspace(static_cast<unsigned char>(line[i])))
            ++i;
    };
    auto parseString = [&](std::string &s) -> bool {
        if (i >= line.size() || line[i] != '"')
            return false;
        ++i;
        s.clear();
        while (i < line.size() && line[i] != '"') {
            if (line[i] == '\\') {
                ++i;
                if (i >= line.size())
                    return false;
            }
            s.push_back(line[i++]);
        }
        if (i >= line.size())
            return false;
        ++i; // closing quote
        return true;
    };

    skipWs();
    if (i >= line.size() || line[i] != '{') {
        err = "expected '{'";
        return false;
    }
    ++i;
    skipWs();
    if (i < line.size() && line[i] == '}') {
        ++i;
    } else {
        while (true) {
            skipWs();
            std::string key;
            if (!parseString(key)) {
                err = "expected string key";
                return false;
            }
            for (const auto &kv : out) {
                if (kv.first == key) {
                    err = "duplicate key '" + key + "'";
                    return false;
                }
            }
            skipWs();
            if (i >= line.size() || line[i] != ':') {
                err = "expected ':' after key '" + key + "'";
                return false;
            }
            ++i;
            skipWs();
            std::string value;
            if (i < line.size() && line[i] == '"') {
                if (!parseString(value)) {
                    err = "unterminated string for key '" + key + "'";
                    return false;
                }
            } else if (i < line.size() &&
                       (line[i] == '{' || line[i] == '[')) {
                err = "nested values are not part of the protocol";
                return false;
            } else {
                const size_t start = i;
                while (i < line.size() && line[i] != ',' &&
                       line[i] != '}' &&
                       !std::isspace(static_cast<unsigned char>(line[i])))
                    ++i;
                value = line.substr(start, i - start);
                if (value == "true")
                    value = "1";
                else if (value == "false")
                    value = "0";
                else if (value.empty()) {
                    err = "missing value for key '" + key + "'";
                    return false;
                }
            }
            out.emplace_back(key, value);
            skipWs();
            if (i < line.size() && line[i] == ',') {
                ++i;
                continue;
            }
            if (i < line.size() && line[i] == '}') {
                ++i;
                break;
            }
            err = "expected ',' or '}'";
            return false;
        }
    }
    skipWs();
    if (i != line.size()) {
        err = "trailing characters after '}'";
        return false;
    }
    return true;
}

bool
parseRequestLine(const std::string &line, ServiceRequest &req,
                 std::string &err)
{
    req = ServiceRequest();
    std::vector<std::pair<std::string, std::string>> kvs;
    if (!parseJsonFlat(line, kvs, err)) {
        err = "parse: " + err;
        return false;
    }
    // Pull the id first so even a failed request can echo it.
    for (const auto &kv : kvs) {
        if (kv.first == "id") {
            uint64_t v = 0;
            if (parseBoundedU64(kv.second, 0, ~0ull, v))
                req.id = v;
        }
    }

    static const FieldSpec specs[] = {
        {"n", 0, kMaxDim},         {"k", 0, kMaxDim},
        {"m", 0, kMaxDim},         {"wbits", 2, 16},
        {"abits", 1, 8},           {"tbits", 1, 16},
        {"maxdist", 0, 64},        {"units", 1, 64},
        {"static", 0, 1},          {"samples", 0, kMaxSamples},
        {"seed", 0, ~0ull},        {"id", 0, ~0ull},
        {"priority", 0, kMaxPriority},
        // min 1: a zero deadline is always already missed, so it is a
        // client bug, rejected like negative/overflow/non-numeric.
        {"deadline_ms", 1, kMaxDeadlineMs},
    };

    for (const auto &kv : kvs) {
        const std::string &key = kv.first;
        if (key == "trace") {
            if (!obs::parseTraceId(kv.second, req.traceId)) {
                err = "trace: expected 1..16 lowercase hex digits "
                      "(nonzero), got '" +
                      kv.second + "'";
                return false;
            }
            continue;
        }
        if (key == "model") {
            if (!validModelName(kv.second)) {
                err = "model: expected 1.." +
                      std::to_string(kMaxModelNameLen) +
                      " chars of [A-Za-z0-9._-], got '" + kv.second +
                      "'";
                return false;
            }
            req.model = kv.second;
            continue;
        }
        if (key == "op") {
            if (kv.second != "run" && kv.second != "ping" &&
                kv.second != "stats" && kv.second != "shutdown") {
                err = "unknown op '" + kv.second + "'";
                return false;
            }
            req.op = kv.second;
            continue;
        }
        const FieldSpec *spec = nullptr;
        for (const FieldSpec &s : specs) {
            if (key == s.key) {
                spec = &s;
                break;
            }
        }
        if (spec == nullptr) {
            err = "unknown key '" + key + "'";
            return false;
        }
        uint64_t v = 0;
        if (!parseBoundedU64(kv.second, spec->min, spec->max, v)) {
            err = key + ": expected integer in [" +
                  std::to_string(spec->min) + ", " +
                  std::to_string(spec->max) + "], got '" + kv.second +
                  "'";
            return false;
        }
        if (key == "id")
            req.id = v;
        else if (key == "n")
            req.shape.n = v;
        else if (key == "k")
            req.shape.k = v;
        else if (key == "m")
            req.shape.m = v;
        else if (key == "wbits")
            req.wbits = static_cast<int>(v);
        else if (key == "abits")
            req.abits = static_cast<int>(v);
        else if (key == "tbits")
            req.tbits = static_cast<int>(v);
        else if (key == "maxdist")
            req.maxdist = static_cast<int>(v);
        else if (key == "units")
            req.units = static_cast<uint32_t>(v);
        else if (key == "static")
            req.useStatic = v != 0;
        else if (key == "samples")
            req.samples = static_cast<size_t>(v);
        else if (key == "seed")
            req.seed = v;
        else if (key == "priority")
            req.priority = static_cast<int>(v);
        else if (key == "deadline_ms")
            req.deadlineMs = v;
    }
    return true;
}

std::string
serializeRequest(const ServiceRequest &req)
{
    std::string out = "{";
    appendKeyU64(out, "id", req.id, true);
    out += ",\"op\":\"";
    appendEscaped(out, req.op);
    out += "\"";
    appendKeyU64(out, "n", req.shape.n, false);
    appendKeyU64(out, "k", req.shape.k, false);
    appendKeyU64(out, "m", req.shape.m, false);
    appendKeyU64(out, "wbits", req.wbits, false);
    appendKeyU64(out, "abits", req.abits, false);
    appendKeyU64(out, "tbits", req.tbits, false);
    appendKeyU64(out, "maxdist", req.maxdist, false);
    appendKeyU64(out, "units", req.units, false);
    appendKeyU64(out, "static", req.useStatic ? 1 : 0, false);
    appendKeyU64(out, "samples", req.samples, false);
    appendKeyU64(out, "seed", req.seed, false);
    appendKeyU64(out, "priority", req.priority, false);
    // Absent when 0: deadline-free request lines keep their historical
    // bytes, so pre-SLO traces and fixtures stay valid verbatim.
    if (req.deadlineMs > 0)
        appendKeyU64(out, "deadline_ms", req.deadlineMs, false);
    // Likewise absent when "": model-free lines are byte-stable.
    if (!req.model.empty()) {
        out += ",\"model\":\"";
        appendEscaped(out, req.model);
        out += "\"";
    }
    // Trace context rides the request only (never the response): the
    // router forwards it to the replica here, and an untraced request
    // keeps its historical bytes.
    if (req.traceId != 0) {
        out += ",\"trace\":\"";
        out += obs::traceIdHex(req.traceId);
        out += "\"";
    }
    out += "}";
    return out;
}

std::string
serializeResponse(const ServiceRequest &req, const LayerRun &run)
{
    // Deterministic fields only, fixed order and formatting: this line
    // is the byte-identity contract across co-batching, threads and
    // cache state. The host-volatile `exec` group is excluded.
    std::string out = "{";
    appendKeyU64(out, "id", req.id, true);
    appendKeyU64(out, "ok", 1, false);
    appendKeyU64(out, "cycles", run.cycles, false);
    appendKeyU64(out, "compute_cycles", run.computeCycles, false);
    appendKeyU64(out, "dram_cycles", run.dramCycles, false);
    appendKeyU64(out, "dram_bytes", run.dramBytes, false);
    appendKeyU64(out, "sub_tiles", run.subTiles, false);
    appendKeyDouble(out, "energy_uj", run.energy.total() / 1e6, false);
    appendKeyDouble(out, "density", run.sparsity.totalDensity(), false);
    appendKeyDouble(out, "bit_density", run.sparsity.bitDensity(),
                    false);
    appendKeyDouble(out, "zr_sparsity", run.sparsity.zrSparsity(),
                    false);
    out += "}";
    return out;
}

std::string
serializeError(uint64_t id, const std::string &error)
{
    std::string out = "{";
    appendKeyU64(out, "id", id, true);
    appendKeyU64(out, "ok", 0, false);
    out += ",\"error\":\"";
    appendEscaped(out, error);
    out += "\"}";
    return out;
}

bool
isOverloadedLine(const std::string &line)
{
    return line.find("\"ok\":0") != std::string::npos &&
           line.find("\"error\":\"overloaded") != std::string::npos;
}

bool
isDeadlineUnmeetableLine(const std::string &line)
{
    return line.find("\"ok\":0") != std::string::npos &&
           line.find("\"error\":\"deadline_unmeetable") !=
               std::string::npos;
}

bool
isStorageErrorLine(const std::string &line)
{
    return line.find("\"ok\":0") != std::string::npos &&
           line.find("\"error\":\"storage") != std::string::npos;
}

bool
validModelName(const std::string &name)
{
    if (name.empty() || name.size() > kMaxModelNameLen)
        return false;
    for (char c : name) {
        const bool ok =
            std::isalnum(static_cast<unsigned char>(c)) != 0 ||
            c == '.' || c == '_' || c == '-';
        if (!ok)
            return false;
    }
    return true;
}

} // namespace ta
