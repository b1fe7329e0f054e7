#include "service/cost_model.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/bitutil.h"
#include "common/stats.h"

namespace ta {

namespace {

/** Coefficient names, fixed file order (docs/BENCH_SCHEMA.md). */
constexpr const char *kCoeffNames[CostFeatures::kCount] = {
    "base", "sampled_subtile", "sliced_bit", "static_subtile",
    "miss_subtile",
};

constexpr const char *kFileVersion = "ta-cost-model v1";

/** FNV-1a 64-bit over a byte range; the coefficients file trailer. */
uint64_t
fnv1a64(const char *data, size_t len)
{
    uint64_t h = 1469598103934665603ull;
    for (size_t i = 0; i < len; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 1099511628211ull;
    }
    return h;
}

/** Strict full-consume double parse (finite values only). */
bool
parseDoubleStrict(const std::string &raw, double &out)
{
    if (raw.empty())
        return false;
    char *end = nullptr;
    const double v = std::strtod(raw.c_str(), &end);
    if (end == nullptr || *end != '\0' || !std::isfinite(v))
        return false;
    out = v;
    return true;
}

/**
 * Solve the dense symmetric system A x = b over the `active` feature
 * subset by Gaussian elimination with partial pivoting. A near-zero
 * pivot (a feature column with no variation in the battery) drops
 * that feature from the active set and signals a retry.
 */
bool
solveActive(const std::array<std::array<double, CostFeatures::kCount>,
                             CostFeatures::kCount> &A,
            const std::array<double, CostFeatures::kCount> &b,
            std::vector<size_t> &active,
            std::array<double, CostFeatures::kCount> &x)
{
    const size_t n = active.size();
    // Dense copy restricted to the active columns.
    std::vector<std::vector<double>> m(n, std::vector<double>(n + 1));
    for (size_t r = 0; r < n; ++r) {
        for (size_t c = 0; c < n; ++c)
            m[r][c] = A[active[r]][active[c]];
        m[r][n] = b[active[r]];
    }
    for (size_t col = 0; col < n; ++col) {
        size_t pivot = col;
        for (size_t r = col + 1; r < n; ++r)
            if (std::fabs(m[r][col]) > std::fabs(m[pivot][col]))
                pivot = r;
        if (std::fabs(m[pivot][col]) < 1e-12) {
            // Singular direction: retire this feature and re-solve.
            active.erase(active.begin() +
                         static_cast<ptrdiff_t>(col));
            return false;
        }
        std::swap(m[col], m[pivot]);
        for (size_t r = 0; r < n; ++r) {
            if (r == col)
                continue;
            const double f = m[r][col] / m[col][col];
            for (size_t c = col; c <= n; ++c)
                m[r][c] -= f * m[col][c];
        }
    }
    x.fill(0.0);
    for (size_t r = 0; r < n; ++r)
        x[active[r]] = m[r][n] / m[r][r];
    return true;
}

} // namespace

CostFeatures
costFeaturesOf(const ServiceRequest &req, double miss_prob)
{
    miss_prob = std::clamp(miss_prob, 0.0, 1.0);
    // The same defaults the scheduler's engines are built from: one
    // source of truth for tile geometry (engineConfig), so a request
    // can never be costed against a different machine than it runs on.
    const TransArrayAccelerator::Config cfg =
        engineConfig(engineKeyOf(req), 1);

    CostFeatures out;
    out.f[0] = 1.0; // fixed per-request overhead

    // Mirror of TransArrayAccelerator::layerGeometry over the
    // representative tensor runShape would synthesize.
    const uint64_t nr =
        std::min<uint64_t>(req.shape.n, kDefaultReprRows);
    const uint64_t kr =
        std::min<uint64_t>(req.shape.k, kDefaultReprCols);
    const uint64_t sliced_rows =
        nr * static_cast<uint64_t>(std::max(1, req.wbits));
    const uint64_t chunks =
        ceilDiv(kr, static_cast<uint64_t>(std::max(1, cfg.unit.tBits)));
    const uint64_t row_tiles =
        ceilDiv(sliced_rows, cfg.unit.maxTransRows);
    const uint64_t total = row_tiles * chunks;
    if (total == 0 || req.shape.m == 0)
        return out; // degenerate layer: overhead only

    uint64_t stride = 1;
    if (cfg.sampleLimit > 0 && total > cfg.sampleLimit)
        stride = ceilDiv(total, cfg.sampleLimit);
    const uint64_t sampled = ceilDiv(total, stride);

    out.f[1] = static_cast<double>(sampled);
    out.f[2] = static_cast<double>(sliced_rows) *
               static_cast<double>(kr); // nr * wbits * kr bit area
    out.f[3] = req.useStatic ? static_cast<double>(sampled) : 0.0;
    out.f[4] = miss_prob * static_cast<double>(sampled);
    return out;
}

CostModel
CostModel::builtin()
{
    // Calibrated once on the reference container (ta_calibrate --quick
    // battery, median-of-3 timing); conservative enough that shedding
    // only triggers on deadlines the request clearly cannot meet.
    // sliced_bit and sampled_subtile follow synthesis being sampled
    // (re-scaled by the ratio of full `ta_calibrate --seed 1` fits on
    // one host): only the draw stream scales with the whole tensor,
    // while the quantized cells scale with the sampled sub-tiles.
    CostModel m;
    m.coeffs_ = {
        320000.0, // base: per-request fixed overhead (ns)
        46000.0,  // sampled_subtile: per simulated sub-tile (ns)
        0.96,     // sliced_bit: synthesis draw stream per bit (ns)
        0.0,      // static_subtile: static path costs no extra on host
        12800.0,  // miss_subtile: plan construction per missed tile (ns)
    };
    m.assumedMissProb_ = 0.1;
    return m;
}

double
CostModel::predictCycles(const CostFeatures &features) const
{
    double cycles = 0.0;
    for (size_t i = 0; i < CostFeatures::kCount; ++i)
        cycles += coeffs_[i] * features.f[i];
    return cycles;
}

double
CostModel::predictMs(const ServiceRequest &req) const
{
    return predictMsAt(req, assumedMissProb_);
}

double
CostModel::predictMsAt(const ServiceRequest &req,
                       double miss_prob) const
{
    return predictCycles(costFeaturesOf(req, miss_prob)) / 1e6;
}

void
CostModel::setAssumedMissProb(double p)
{
    assumedMissProb_ = std::clamp(p, 0.0, 1.0);
}

bool
CostModel::fit(const std::vector<Sample> &samples, FitReport *report)
{
    if (samples.empty())
        return false;

    // Normal equations of *relative* least squares: each sample is
    // weighted by 1/measured, so a 1 ms request and a 40 ms request
    // pull on the fit equally in relative terms — an absolute fit
    // would let the big shapes dictate a huge per-request base cost
    // and mispredict small requests by whole multiples.
    std::array<std::array<double, CostFeatures::kCount>,
               CostFeatures::kCount>
        A{};
    std::array<double, CostFeatures::kCount> b{};
    for (const Sample &s : samples) {
        const double w = 1.0 / std::max(1.0, s.measuredNs);
        const double w2 = w * w;
        for (size_t r = 0; r < CostFeatures::kCount; ++r) {
            for (size_t c = 0; c < CostFeatures::kCount; ++c)
                A[r][c] += w2 * s.features.f[r] * s.features.f[c];
            b[r] += w2 * s.features.f[r] * s.measuredNs;
        }
    }

    // Active-set nonnegative least squares: solve, retire any feature
    // whose coefficient went negative (or whose column is singular),
    // repeat. Terminates — the active set only shrinks.
    std::vector<size_t> active;
    for (size_t i = 0; i < CostFeatures::kCount; ++i)
        active.push_back(i);
    std::array<double, CostFeatures::kCount> x{};
    while (!active.empty()) {
        if (!solveActive(A, b, active, x))
            continue; // singular column retired; retry
        size_t worst = CostFeatures::kCount;
        double worst_v = 0.0;
        for (size_t i : active) {
            if (x[i] < worst_v) {
                worst_v = x[i];
                worst = i;
            }
        }
        if (worst == CostFeatures::kCount)
            break; // all nonnegative
        active.erase(std::find(active.begin(), active.end(), worst));
    }
    if (active.empty())
        return false; // no feature explains the data

    coeffs_ = x;
    for (double &c : coeffs_)
        c = std::max(0.0, c);

    // Relative-error percentiles over the fitted battery itself.
    std::vector<double> errs;
    errs.reserve(samples.size());
    for (const Sample &s : samples) {
        const double pred = predictCycles(s.features);
        const double denom = std::max(1.0, s.measuredNs);
        errs.push_back(std::fabs(pred - s.measuredNs) / denom);
    }
    report_.samples = samples.size();
    report_.errP50 = percentileOf(errs, 50.0);
    report_.errP90 = percentileOf(errs, 90.0);
    report_.errP99 = percentileOf(errs, 99.0);
    if (report != nullptr)
        *report = report_;
    return true;
}

bool
CostModel::saveFile(const std::string &path) const
{
    std::string body = std::string(kFileVersion) + "\n";
    char line[128];
    for (size_t i = 0; i < CostFeatures::kCount; ++i) {
        // %.17g: exact double round-trip, so save -> load -> predict
        // is bit-identical to the in-memory model.
        std::snprintf(line, sizeof(line), "coeff %s %.17g\n",
                      kCoeffNames[i], coeffs_[i]);
        body += line;
    }
    std::snprintf(line, sizeof(line), "assumed_miss_prob %.17g\n",
                  assumedMissProb_);
    body += line;
    std::snprintf(line, sizeof(line), "fit_samples %zu\n",
                  report_.samples);
    body += line;
    std::snprintf(line, sizeof(line), "fit_err_p50 %.17g\n",
                  report_.errP50);
    body += line;
    std::snprintf(line, sizeof(line), "fit_err_p90 %.17g\n",
                  report_.errP90);
    body += line;
    std::snprintf(line, sizeof(line), "fit_err_p99 %.17g\n",
                  report_.errP99);
    body += line;
    std::snprintf(line, sizeof(line), "checksum %016llx\n",
                  static_cast<unsigned long long>(
                      fnv1a64(body.data(), body.size())));
    body += line;

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const bool ok =
        std::fwrite(body.data(), 1, body.size(), f) == body.size();
    return std::fclose(f) == 0 && ok;
}

bool
CostModel::loadFile(const std::string &path, std::string *err)
{
    auto fail = [&](const std::string &why) {
        if (err != nullptr)
            *err = path + ": " + why;
        return false;
    };

    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return fail("cannot open");
    std::string body;
    char buf[4096];
    size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        body.append(buf, n);
    std::fclose(f);

    // The checksum line must be the exact tail of the file; everything
    // before it is covered by the FNV-1a trailer. Any mismatch — a
    // flipped byte, a truncated tail, appended garbage — rejects the
    // whole file.
    const std::string marker = "checksum ";
    const size_t pos = body.rfind(marker);
    if (pos == std::string::npos || pos == 0 ||
        body[pos - 1] != '\n')
        return fail("missing checksum trailer");
    const std::string tail = body.substr(pos);
    if (tail.size() != marker.size() + 17 || tail.back() != '\n')
        return fail("malformed checksum trailer");
    unsigned long long want = 0;
    if (std::sscanf(tail.c_str(), "checksum %16llx", &want) != 1)
        return fail("malformed checksum trailer");
    if (fnv1a64(body.data(), pos) != want)
        return fail("checksum mismatch (corrupt or truncated)");

    // Strict line-by-line parse in the exact written order.
    std::vector<std::string> lines;
    size_t start = 0;
    while (start < pos) {
        const size_t nl = body.find('\n', start);
        if (nl == std::string::npos || nl >= pos)
            return fail("unterminated line");
        lines.push_back(body.substr(start, nl - start));
        start = nl + 1;
    }
    const size_t expect = 1 + CostFeatures::kCount + 5;
    if (lines.size() != expect)
        return fail("wrong line count");
    if (lines[0] != kFileVersion)
        return fail("unknown version '" + lines[0] + "'");

    auto field = [&](const std::string &line, const std::string &key,
                     double &out) {
        if (line.compare(0, key.size() + 1, key + " ") != 0)
            return false;
        return parseDoubleStrict(line.substr(key.size() + 1), out);
    };

    std::array<double, CostFeatures::kCount> coeffs{};
    for (size_t i = 0; i < CostFeatures::kCount; ++i) {
        if (!field(lines[1 + i],
                   std::string("coeff ") + kCoeffNames[i], coeffs[i]) ||
            coeffs[i] < 0.0)
            return fail("bad coefficient line '" + lines[1 + i] + "'");
    }
    double miss = 0.0, fit_samples = 0.0;
    FitReport report;
    size_t li = 1 + CostFeatures::kCount;
    if (!field(lines[li++], "assumed_miss_prob", miss) || miss < 0.0 ||
        miss > 1.0)
        return fail("bad assumed_miss_prob");
    if (!field(lines[li++], "fit_samples", fit_samples) ||
        fit_samples < 0.0)
        return fail("bad fit_samples");
    if (!field(lines[li++], "fit_err_p50", report.errP50))
        return fail("bad fit_err_p50");
    if (!field(lines[li++], "fit_err_p90", report.errP90))
        return fail("bad fit_err_p90");
    if (!field(lines[li++], "fit_err_p99", report.errP99))
        return fail("bad fit_err_p99");

    coeffs_ = coeffs;
    assumedMissProb_ = miss;
    report_ = report;
    report_.samples = static_cast<size_t>(fit_samples);
    return true;
}

std::vector<ServiceRequest>
costCalibrationBattery(uint64_t seed, bool quick)
{
    // A fixed grid (not random): every feature must vary somewhere in
    // the battery or the fit retires it. Seeds vary per point so the
    // synthesized tensors differ like real traffic does.
    struct Shape
    {
        size_t n, k, m;
    };
    static const Shape kQuickShapes[] = {
        {128, 256, 128},
        {256, 1024, 256},
        {512, 4096, 512},
    };
    static const Shape kFullShapes[] = {
        {128, 256, 128},   {256, 512, 256},    {256, 1024, 256},
        {512, 2048, 512},  {512, 4096, 512},   {1024, 4096, 1024},
        {2048, 4096, 2048}, {4096, 4096, 2048},
    };
    const Shape *shapes = quick ? kQuickShapes : kFullShapes;
    const size_t shape_count = quick ? 3 : 8;
    const int wbits_set[] = {2, 4, 8};
    const size_t wbits_count = quick ? 2 : 3; // quick: {2, 4}
    const size_t samples_set[] = {32, 96};
    const size_t samples_count = quick ? 1 : 2; // quick: {96}

    std::vector<ServiceRequest> out;
    uint64_t id = 1;
    for (size_t si = 0; si < shape_count; ++si) {
        for (size_t wi = 0; wi < wbits_count; ++wi) {
            for (int st = 0; st <= 1; ++st) {
                for (size_t pi = 0; pi < samples_count; ++pi) {
                    ServiceRequest req;
                    req.id = id++;
                    req.shape = {shapes[si].n, shapes[si].k,
                                 shapes[si].m};
                    req.wbits = wbits_set[wi];
                    req.useStatic = st != 0;
                    req.samples =
                        samples_set[quick ? 1 : pi]; // quick: 96
                    req.seed = seed + id * 7919;
                    out.push_back(req);
                }
            }
        }
    }
    return out;
}

} // namespace ta
