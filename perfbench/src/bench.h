#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

/**
 * @file
 * Shared machinery of the IPDS benchmark: the seeded RNG, clocks, the
 * in-memory span recorder of the traced run, the oracle tally, the
 * metric sink and the interface each workload implements.
 *
 * A workload owns one "world" (program set, traces, server) built by
 * its constructor — the benchmark's set-up — and a fixed schedule of
 * operations: one ROUND. Timed phases run whole rounds only, so every
 * run attempts the same operations in the same proportions whatever
 * its length.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

/** splitmix64: every seeded choice of the benchmark derives from it. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : s(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n); n > 0. */
    uint64_t below(uint64_t n) { return next() % n; }

    template <class T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; i--)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    uint64_t s;
};

/** An independent stream for purpose @p salt of seed @p seed. */
inline Rng
streamFor(uint64_t seed, uint64_t salt)
{
    Rng r(seed ^ (salt * 0xd1342543de82ef95ULL));
    r.next();
    return r;
}

/**
 * @p n values spread evenly over [lo, hi] (inclusive), in ascending
 * order — the stratified multisets that keep a workload's mix the
 * same for every seed while the seed decides which op gets which.
 */
std::vector<uint32_t> spread(size_t n, uint32_t lo, uint32_t hi);

/** Same, spaced geometrically (lo >= 1). */
std::vector<uint32_t> spreadLog(size_t n, uint32_t lo, uint32_t hi);

/** FNV-1a accumulator for result digests. */
struct Digest
{
    uint64_t h = 0xcbf29ce484222325ULL;

    Digest &
    add(uint64_t v)
    {
        for (int i = 0; i < 8; i++) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
        return *this;
    }
};

/**
 * Spans of the traced run. Every span records its name, the
 * operation it belongs to, start and end; per-name totals are kept
 * for every span, and the first kRetained spans are kept whole and
 * written out (chrome://tracing JSON) when the run ends. One recorder
 * per client thread: no locking on the record path.
 */
class Spans
{
  public:
    static constexpr size_t kRetained = 1u << 16;

    explicit Spans(uint32_t lane = 0) : lane_(lane) {}

    /** Record [t0, t1) of span @p name for operation @p op. */
    void add(const char *name, uint64_t op, uint64_t t0, uint64_t t1);

    /** Fold @p o's totals and retained spans into this recorder. */
    void merge(const Spans &o);

    /** Total nanoseconds and count of span @p name. */
    uint64_t totalNs(const std::string &name) const;
    uint64_t count(const std::string &name) const;

    /** chrome://tracing "X" events of the retained spans. */
    std::string chromeJson() const;

  private:
    struct Rec
    {
        const char *name;
        uint64_t op, t0, t1;
        uint32_t lane;
    };
    struct Total
    {
        uint64_t ns = 0, n = 0;
    };
    uint32_t lane_;
    std::vector<Rec> kept;
    std::map<std::string, Total> totals;
};

/** RAII span: records from construction to destruction when on. */
class Span
{
  public:
    Span(Spans *s, const char *name, uint64_t op)
        : sp(s), nm(name), id(op), t0(s ? nowNs() : 0)
    {}
    ~Span()
    {
        if (sp)
            sp->add(nm, id, t0, nowNs());
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Spans *sp;
    const char *nm;
    uint64_t id;
    uint64_t t0;
};

/** Oracle tally: every failed check, the first few printed. */
class Checks
{
  public:
    void fail(const std::string &what);
    void expect(bool ok, const std::string &what)
    {
        if (!ok)
            fail(what);
    }
    uint64_t failures() const { return n; }

  private:
    uint64_t n = 0;
};

/** Named metric values of one run, in insertion order. */
struct Metrics
{
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        v;
    void put(const std::string &name, double value,
             const std::string &unit)
    {
        v.push_back({name, {value, unit}});
    }
};

/** What one client thread needs while running operations. */
struct Lane
{
    Spans *spans = nullptr;  ///< null: untraced
    uint64_t probeNs = 0;    ///< traced-run side measurements
};

/** An operation's outcome, checked after the timed phase. */
struct OpRecord
{
    uint32_t spec = 0;   ///< index into the round
    uint64_t digest = 0; ///< what the operation produced
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Operations in one round (distinct specs, seeded order). */
    virtual size_t roundOps() const = 0;

    /** Client threads that run operations concurrently (default 1). */
    virtual unsigned clients() const { return 1; }

    /**
     * Run operation @p spec of the round; return a digest of its
     * output for checkOps(). Traced runs (lane.spans set) put a span
     * around each call into a layer and may take side measurements,
     * whose time goes to lane.probeNs. Throwing counts the operation
     * as failed. Must be safe to call from clients() threads at once.
     */
    virtual uint64_t op(uint32_t spec, uint64_t opId, Lane &lane) = 0;

    /**
     * Oracles over the operations of a phase (run after it): one
     * record per operation of the round and client thread that ran
     * it; every other run of that operation gave the same digest.
     */
    virtual void checkOps(const std::vector<OpRecord> &ops,
                          Checks &c) = 0;

    /** Oracles over the world itself (run once after all phases). */
    virtual void checkWorld(Checks &c) = 0;

    /**
     * Per-layer metrics of a traced phase that ran @p ops operations
     * (spans merged over every lane).
     */
    virtual void layerMetrics(const Spans &sp, uint64_t ops,
                              Metrics &m) = 0;

    /** Reference figures (never gated): "key": value JSON members. */
    virtual std::string reference() { return ""; }
};

/** Benchmark-wide knobs handed to every workload constructor. */
struct Config
{
    uint64_t seed = 1;
    bool quick = false;    ///< smaller world, for the self-test
    std::string scratch;   ///< directory for sockets (in the checkout)
};

std::unique_ptr<Workload> makeCompile(const Config &cfg);
std::unique_ptr<Workload> makeCampaign(const Config &cfg);
std::unique_ptr<Workload> makeReplay(const Config &cfg);
std::unique_ptr<Workload> makeServe(const Config &cfg);

} // namespace pb

#endif // PERFBENCH_BENCH_H
