/**
 * @file
 * Minimal machine-readable benchmark emitter: harnesses record flat
 * key/value metrics and write a BENCH_<name>.json file next to the
 * working directory, starting the repo's perf trajectory. No external
 * JSON dependency — values are numbers or strings only.
 */

#ifndef TA_HARNESS_BENCH_JSON_H
#define TA_HARNESS_BENCH_JSON_H

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace ta {

class BenchJson
{
  public:
    /** `name` becomes the output file BENCH_<name>.json. */
    explicit BenchJson(std::string name) : name_(std::move(name)) {}

    void
    add(const std::string &key, double value)
    {
        // JSON has no inf/nan literal; emit null so the file stays
        // parseable and validators flag the missing metric instead.
        if (!std::isfinite(value)) {
            entries_.emplace_back(key, "null");
            return;
        }
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6g", value);
        entries_.emplace_back(key, buf);
    }

    void
    add(const std::string &key, uint64_t value)
    {
        entries_.emplace_back(key, std::to_string(value));
    }

    void
    add(const std::string &key, const std::string &value)
    {
        entries_.emplace_back(key, "\"" + escape(value) + "\"");
    }

    /** The value written for `key` (numbers as formatted, strings
     *  quoted), or nullptr when absent. */
    const std::string *
    find(const std::string &key) const
    {
        for (const auto &entry : entries_)
            if (entry.first == key)
                return &entry.second;
        return nullptr;
    }

    /** Write BENCH_<name>.json; returns the path (empty on failure). */
    std::string
    write() const
    {
        const std::string path = "BENCH_" + name_ + ".json";
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return "";
        std::fputs("{\n", f);
        for (size_t i = 0; i < entries_.size(); ++i) {
            std::fprintf(f, "  \"%s\": %s%s\n",
                         escape(entries_[i].first).c_str(),
                         entries_[i].second.c_str(),
                         i + 1 < entries_.size() ? "," : "");
        }
        std::fputs("}\n", f);
        std::fclose(f);
        return path;
    }

  private:
    static std::string
    escape(const std::string &s)
    {
        std::string out;
        for (char c : s) {
            if (c == '"' || c == '\\')
                out.push_back('\\');
            out.push_back(c);
        }
        return out;
    }

    std::string name_;
    std::vector<std::pair<std::string, std::string>> entries_;
};

} // namespace ta

#endif // TA_HARNESS_BENCH_JSON_H
