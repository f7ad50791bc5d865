#include "bench.h"

#include <cstdio>

namespace pb {

void
Spans::add(const char *name, uint64_t op, uint64_t t0, uint64_t t1)
{
    Total &t = totals[name];
    t.ns += t1 - t0;
    t.n++;
    if (kept.size() < kRetained) {
        if (kept.capacity() == 0)
            kept.reserve(kRetained);
        kept.push_back({name, op, t0, t1, lane_});
    }
}

void
Spans::merge(const Spans &o)
{
    for (const auto &[name, t] : o.totals) {
        totals[name].ns += t.ns;
        totals[name].n += t.n;
    }
    for (const Rec &r : o.kept)
        if (kept.size() < kRetained)
            kept.push_back(r);
}

uint64_t
Spans::totalNs(const std::string &name) const
{
    auto it = totals.find(name);
    return it == totals.end() ? 0 : it->second.ns;
}

uint64_t
Spans::count(const std::string &name) const
{
    auto it = totals.find(name);
    return it == totals.end() ? 0 : it->second.n;
}

std::string
Spans::chromeJson() const
{
    uint64_t base = ~0ULL;
    for (const Rec &r : kept)
        base = std::min(base, r.t0);
    std::string s = "{\"traceEvents\": [\n";
    char buf[256];
    for (size_t i = 0; i < kept.size(); i++) {
        const Rec &r = kept[i];
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                      "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                      "\"args\": {\"op\": %llu}}",
                      i ? ",\n" : "", r.name, r.lane,
                      double(r.t0 - base) * 1e-3,
                      double(r.t1 - r.t0) * 1e-3,
                      static_cast<unsigned long long>(r.op));
        s += buf;
    }
    return s + "\n]}\n";
}

void
Checks::fail(const std::string &what)
{
    if (n++ < 10)
        std::fprintf(stderr, "perfbench: check failed: %s\n",
                     what.c_str());
}

} // namespace pb
