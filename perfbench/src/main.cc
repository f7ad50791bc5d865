/**
 * @file
 * perfbench: the IPDS benchmark.
 *
 *   perfbench --workload compile|campaign|replay|serve --seed N
 *             --seconds S --trace 0|1 [--spans PATH] [--scratch DIR]
 *   perfbench --quick [--seed N]
 *
 * One process builds the workload's world several times (the set-up,
 * reported as the median), runs whole rounds of operations for the
 * requested seconds, checks every operation and the world against
 * the oracles, and prints one JSON line last:
 *
 *   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
 *
 * --trace 0 reports the end-to-end metrics. --trace 1 spends half the
 * time untraced and half traced (spans around every layer call, kept
 * in memory and written to --spans at the end) and reports the
 * per-layer metrics, including the tracing overhead. --quick runs all
 * four workloads briefly, traced and untraced, with every oracle on:
 * the benchmark's own test. Exit status is 0 only when every
 * operation and oracle passed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "support/diag.h"

#include "bench.h"

namespace pb {

namespace {

constexpr int kSetups = 3;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    bool quick = false;
    std::string spans;
    std::string scratch = ".bench_build/perfbench";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload compile|campaign|replay|"
                 "serve --seed N --seconds S --trace 0|1\n"
                 "                 [--spans PATH] [--scratch DIR]\n"
                 "       perfbench --quick [--seed N]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; i++) {
        std::string k = argv[i];
        if (k == "--quick") {
            a.quick = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), &end, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v.c_str(), &end);
        else if (k == "--trace")
            a.trace = std::atoi(v.c_str());
        else if (k == "--spans")
            a.spans = v;
        else if (k == "--scratch")
            a.scratch = v;
        else
            usage(("unknown option " + k).c_str());
        if (end && *end)
            usage(("bad value for " + k).c_str());
    }
    if (!a.quick && a.workload.empty())
        usage("--workload is required");
    if (a.seconds <= 0 || (a.trace != 0 && a.trace != 1))
        usage("--seconds must be > 0 and --trace 0 or 1");
    return a;
}

std::unique_ptr<Workload>
make(const std::string &name, const Config &cfg)
{
    if (name == "compile")
        return makeCompile(cfg);
    if (name == "campaign")
        return makeCampaign(cfg);
    if (name == "replay")
        return makeReplay(cfg);
    if (name == "serve")
        return makeServe(cfg);
    usage(("unknown workload " + name).c_str());
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/** Nearest-rank percentile of @p sorted, in the same unit. */
template <class T>
double
percentile(const std::vector<T> &sorted, double p)
{
    if (sorted.empty())
        return 0;
    size_t rank = static_cast<size_t>(p * double(sorted.size()));
    if (double(rank) < p * double(sorted.size()))
        rank++;
    return double(sorted[std::max<size_t>(rank, 1) - 1]);
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** One client thread's operation latencies, grouped by round. */
struct LaneTimes
{
    struct Mark
    {
        uint64_t round = 0;
        size_t begin = 0; ///< first index into lat
        uint64_t t0 = 0;  ///< first start in the round
        uint64_t t1 = 0;  ///< last end in the round
    };
    std::vector<uint32_t> lat; ///< ns, in the order run
    std::vector<Mark> marks;

    void
    add(uint64_t round, uint64_t t0, uint64_t t1)
    {
        if (marks.empty() || marks.back().round != round)
            marks.push_back({round, lat.size(), t0, t1});
        marks.back().t1 = t1;
        lat.push_back(static_cast<uint32_t>(
            std::min<uint64_t>(t1 - t0, UINT32_MAX)));
    }
};

/** Everything one phase of whole rounds produced. */
struct Phase
{
    uint64_t ops = 0;
    uint64_t failed = 0;
    uint64_t rounds = 0;
    std::vector<LaneTimes> lanes;
    /** Each lane's first result of each operation it ran; any later
     *  run of the same operation that differed is a mismatch. */
    std::vector<OpRecord> records;
    uint64_t mismatches = 0;
    double wallS = 0;
    double cpuS = 0;
    uint64_t probeNs = 0;
    Spans spans;

    /** Whole-phase throughput, side measurements excluded. */
    double opsPerS() const
    {
        const double busy = wallS - double(probeNs) * 1e-9;
        return busy > 0 ? double(ops) / busy : 0;
    }
};

/** Throughput and latency percentiles of one slice of a phase. */
struct Slice
{
    double opsPerS = 0, p50us = 0, p99us = 0;
};

/**
 * Split the phase into slices — the fewest consecutive whole rounds
 * that hold kSliceOps operations — and measure each. The reported
 * figures are the medians over the slices: a burst of load from
 * outside the process slows the operations of a few slices only, and
 * does not move them. kSliceOps puts ten operations beyond each
 * slice's p99.
 */
std::vector<Slice>
slices(const Phase &ph, uint64_t roundOps)
{
    constexpr uint64_t kSliceOps = 1000;
    const uint64_t per = (kSliceOps + roundOps - 1) / roundOps;
    const uint64_t n = std::max<uint64_t>(1, ph.rounds / per);
    std::vector<std::vector<uint64_t>> lat(n);
    std::vector<uint64_t> first(n, ~0ULL), last(n, 0);
    for (const LaneTimes &lt : ph.lanes)
        for (size_t m = 0; m < lt.marks.size(); m++) {
            const LaneTimes::Mark &mk = lt.marks[m];
            const size_t end = m + 1 < lt.marks.size()
                ? lt.marks[m + 1].begin
                : lt.lat.size();
            const uint64_t g = std::min(n - 1, mk.round / per);
            lat[g].insert(lat[g].end(), lt.lat.begin() + mk.begin,
                          lt.lat.begin() + end);
            first[g] = std::min(first[g], mk.t0);
            last[g] = std::max(last[g], mk.t1);
        }
    std::vector<Slice> out;
    for (uint64_t g = 0; g < n; g++) {
        if (lat[g].empty())
            continue;
        std::sort(lat[g].begin(), lat[g].end());
        Slice s;
        s.opsPerS = double(lat[g].size()) /
            (double(last[g] - first[g]) * 1e-9);
        s.p50us = percentile(lat[g], 0.50) * 1e-3;
        s.p99us = percentile(lat[g], 0.99) * 1e-3;
        out.push_back(s);
    }
    return out;
}

/**
 * Run whole rounds of @p w's operations from w.clients() threads
 * until @p seconds have passed (at least one round; @p rounds > 0
 * runs exactly that many instead). The decision to start a new round
 * is taken under the same lock that hands out operation indices, so
 * every round that starts runs to its end. @p expectOps sizes the
 * latency buffers up front.
 */
Phase
runPhase(Workload &w, double seconds, bool traced, uint64_t rounds,
         uint64_t expectOps, uint64_t &opIds)
{
    const uint64_t R = w.roundOps();
    const unsigned nLanes = std::max(1u, w.clients());
    std::mutex mtx;
    uint64_t next = 0;
    bool stop = false;
    const uint64_t start = nowNs();
    const uint64_t deadline =
        start + static_cast<uint64_t>(seconds * 1e9);
    const uint64_t idBase = opIds;

    auto take = [&](uint64_t &k) {
        std::lock_guard<std::mutex> g(mtx);
        if (stop)
            return false;
        if (next > 0 && next % R == 0 &&
            (rounds ? next / R >= rounds : nowNs() >= deadline)) {
            stop = true;
            return false;
        }
        k = next++;
        return true;
    };

    struct LaneOut
    {
        Lane lane;
        Spans spans;
        LaneTimes times;
        std::vector<uint64_t> digest; ///< first result per spec
        std::vector<uint8_t> ran;
        uint64_t mismatches = 0;
        uint64_t failed = 0;
    };
    std::vector<LaneOut> outs(nLanes);
    auto body = [&](uint32_t li) {
        LaneOut &o = outs[li];
        o.spans = Spans(li);
        o.lane.spans = traced ? &o.spans : nullptr;
        o.times.lat.reserve(expectOps / nLanes);
        o.digest.assign(R, 0);
        o.ran.assign(R, 0);
        uint64_t k;
        while (take(k)) {
            const uint32_t spec = static_cast<uint32_t>(k % R);
            const uint64_t t0 = nowNs();
            try {
                const uint64_t d = w.op(spec, idBase + k, o.lane);
                o.times.add(k / R, t0, nowNs());
                if (!o.ran[spec]) {
                    o.ran[spec] = 1;
                    o.digest[spec] = d;
                } else if (o.digest[spec] != d) {
                    o.mismatches++;
                }
            } catch (const std::exception &e) {
                if (o.failed++ == 0)
                    std::fprintf(stderr, "perfbench: op %u failed: %s\n",
                                 spec, e.what());
            }
        }
    };

    const double cpu0 = cpuSeconds();
    std::vector<std::thread> threads;
    for (unsigned li = 1; li < nLanes; li++)
        threads.emplace_back(body, li);
    body(0);
    for (std::thread &t : threads)
        t.join();

    Phase ph;
    ph.wallS = double(nowNs() - start) * 1e-9;
    ph.cpuS = cpuSeconds() - cpu0;
    for (LaneOut &o : outs) {
        ph.ops += o.times.lat.size() + o.failed;
        ph.failed += o.failed;
        ph.probeNs += o.lane.probeNs;
        ph.mismatches += o.mismatches;
        for (uint32_t spec = 0; spec < R; spec++)
            if (o.ran[spec])
                ph.records.push_back({spec, o.digest[spec]});
        ph.lanes.push_back(std::move(o.times));
        ph.spans.merge(o.spans);
    }
    // Side measurements run on every lane at once; charge the phase
    // the share one lane spent on them.
    ph.probeNs /= nLanes;
    ph.rounds = (next + R - 1) / R;
    opIds += next;
    return ph;
}

/** Run the oracles over a phase's operations. */
void
checkPhase(Workload &w, const Phase &ph, Checks &c)
{
    w.checkOps(ph.records, c);
    if (ph.mismatches)
        c.fail(std::to_string(ph.mismatches) +
               " operations gave a different result from an earlier "
               "run of the same operation");
}

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    return buf;
}

std::string
resultJson(bool correct, uint64_t attempted, uint64_t failed,
           const Metrics &m)
{
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    for (size_t i = 0; i < m.v.size(); i++) {
        if (i)
            s += ", ";
        s += "\"" + m.v[i].first + "\": {\"value\": " +
            fmt(m.v[i].second.first) + ", \"unit\": \"" +
            m.v[i].second.second + "\"}";
    }
    return s + "}}";
}

/** Per-layer metric names and units, the README map's order. */
const std::vector<std::pair<std::string, std::string>> &
layerMetricNames()
{
    static const std::vector<std::pair<std::string, std::string>> names =
        {
            // compile
            {"frontend.parse_us", "us"},
            {"frontend.lower_us", "us"},
            {"analysis.pointsto_us", "us"},
            {"analysis.effects_us", "us"},
            {"core.correlation_us", "us"},
            {"core.batbuild_us", "us"},
            {"core.tables_us", "us"},
            {"core.hash_tries", "count"},
            {"ir.insts", "count"},
            {"core.checkable_ratio", "ratio"},
            // campaign
            {"obs.session_build_us", "us"},
            {"vm.ns_per_inst", "ns"},
            {"vm.insts_per_session", "count"},
            {"ipds.detect_ns_per_branch", "ns"},
            {"ipds.actions_per_branch", "ratio"},
            {"timing.ns_per_inst", "ns"},
            {"replay.capture_ns_per_event", "ns"},
            {"attack.alarmed_ops", "count"},
            // replay
            {"replay.load_us", "us"},
            {"obs.replay_build_us", "us"},
            {"replay.engine_us", "us"},
            {"replay.ns_per_event", "ns"},
            {"replay.bytes_per_event", "B"},
            {"replay.chunks_per_trace", "count"},
            {"replay.snapshots_per_trace", "count"},
            // serve
            {"serve.connect_us", "us"},
            {"serve.send_us", "us"},
            {"serve.result_wait_us", "us"},
            {"serve.ingest_us_p50", "us"},
            {"serve.ingest_us_p99", "us"},
            {"serve.read_pauses", "count"},
            {"serve.frames_per_stream", "count"},
            // every workload
            {"trace.span_sum_pct", "%"},
            {"process.cpu_us_per_op", "us"},
            {"trace.overhead_pct", "%"},
        };
    return names;
}

struct RunOut
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    Metrics metrics;
    std::string reference;
};

/** Set-up, timed phase(s) and oracles of one workload. */
RunOut
runWorkload(const std::string &name, const Args &a)
{
    Config cfg;
    cfg.seed = a.seed;
    cfg.quick = a.quick;
    cfg.scratch = a.scratch;

    // Set-up, several times: the median is the reported figure. Each
    // set-up ends with one untimed warm-up round, whose operations
    // are checked like the timed ones.
    std::vector<double> setupS;
    std::unique_ptr<Workload> w;
    Checks checks;
    uint64_t opIds = 0;
    const int setups = a.quick ? 1 : kSetups;
    double roundS = 0;
    for (int i = 0; i < setups; i++) {
        w.reset();
        const uint64_t t0 = nowNs();
        w = make(name, cfg);
        Phase warm = runPhase(*w, 0, false, 1, 0, opIds);
        setupS.push_back(double(nowNs() - t0) * 1e-9);
        roundS = warm.wallS;
        checkPhase(*w, warm, checks);
        if (warm.failed)
            checks.fail("warm-up round had failed operations");
    }
    // Room for every latency of a phase at twice the warm-up's pace.
    const uint64_t expectOps = static_cast<uint64_t>(
        std::min(1e8, 2.0 * double(w->roundOps()) * a.seconds /
                          std::max(roundS, 1e-6)));

    RunOut r;
    if (a.trace == 0 || a.quick) {
        Phase ph = runPhase(*w, a.seconds, false, 0, expectOps, opIds);
        const double rss = peakRssMiB();
        checkPhase(*w, ph, checks);
        r.attempted += ph.ops;
        r.failed += ph.failed;
        Metrics &m = r.metrics;
        std::vector<double> rate, p50, p99;
        for (const Slice &sl : slices(ph, w->roundOps())) {
            rate.push_back(sl.opsPerS);
            p50.push_back(sl.p50us);
            p99.push_back(sl.p99us);
        }
        m.put("setup_s", median(setupS), "s");
        m.put("ops_per_s", median(rate), "1/s");
        m.put("latency_us_p50", median(p50), "us");
        m.put("latency_us_p99", median(p99), "us");
        m.put("peak_rss_mib", rss, "MiB");
    }
    if (a.trace == 1 || a.quick) {
        Phase plain = runPhase(*w, a.seconds / 2, false, 0, expectOps / 2,
                               opIds);
        Phase traced = runPhase(*w, a.seconds / 2, true, 0, expectOps / 2,
                                opIds);
        checkPhase(*w, plain, checks);
        checkPhase(*w, traced, checks);
        r.attempted += plain.ops + traced.ops;
        r.failed += plain.failed + traced.failed;
        Metrics lm;
        w->layerMetrics(traced.spans, traced.ops - traced.failed, lm);
        lm.put("process.cpu_us_per_op",
               plain.ops ? plain.cpuS * 1e6 / double(plain.ops) : 0,
               "us");
        lm.put("trace.overhead_pct",
               traced.opsPerS() > 0
                   ? (plain.opsPerS() / traced.opsPerS() - 1) * 100
                   : 0,
               "%");
        // Every per-layer metric is printed by every workload; a layer
        // a workload's operations never call reads 0.
        std::map<std::string, double> got;
        for (const auto &kv : lm.v)
            got[kv.first] = kv.second.first;
        for (const auto &[metric, unit] : layerMetricNames()) {
            auto it = got.find(metric);
            r.metrics.put(metric, it == got.end() ? 0 : it->second, unit);
            if (it != got.end())
                got.erase(it);
        }
        if (!got.empty())
            ipds::panic("per-layer metric %s is not in the list",
                        got.begin()->first.c_str());
        if (!a.spans.empty()) {
            std::ofstream out(a.spans, std::ios::trunc);
            out << traced.spans.chromeJson();
        }
    }

    w->checkWorld(checks);
    r.reference = w->reference();
    r.correct = checks.failures() == 0;
    return r;
}

} // namespace

} // namespace pb

int
main(int argc, char **argv)
{
    using namespace pb;
    const Args a = parseArgs(argc, argv);
    ipds::setQuiet(true);
    try {
        if (a.quick) {
            Args q = a;
            q.seconds = 0.4;
            bool ok = true;
            for (const char *name :
                 {"compile", "campaign", "replay", "serve"}) {
                RunOut r = runWorkload(name, q);
                std::printf("quick %-8s correct=%s attempted=%llu "
                            "failed=%llu\n",
                            name, r.correct ? "true" : "false",
                            static_cast<unsigned long long>(r.attempted),
                            static_cast<unsigned long long>(r.failed));
                std::fflush(stdout);
                ok = ok && r.correct && r.failed == 0;
            }
            std::printf("quick %s\n", ok ? "ok" : "FAILED");
            return ok ? 0 : 1;
        }
        RunOut r = runWorkload(a.workload, a);
        if (!r.reference.empty())
            std::fprintf(stderr, "reference {%s}\n", r.reference.c_str());
        std::printf("%s\n", resultJson(r.correct, r.attempted, r.failed,
                                       r.metrics)
                                .c_str());
        return r.correct && r.failed == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
