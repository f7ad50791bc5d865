/**
 * @file
 * Workload `replay`: one sequential replay of one captured trace per
 * operation. Set-up captures two traces per program, of 1-256
 * sessions spaced geometrically, a quarter of them attacked in every
 * session. Three in four operations load the in-memory bytes into a
 * TraceFile and run a ReplayEngine over it; one in four replays an
 * in-memory file through a default (sequential) ReplayPlan. The
 * reader, decoder, ReplayEngine and detector do the work, with no VM:
 * this is the read side of the trace format whose write side runs in
 * `campaign`.
 */

#include <optional>

#include "obs/session.h"
#include "replay/reader.h"
#include "replay/replay.h"

#include "programs.h"

namespace pb {

namespace {

using namespace ipds;

constexpr uint32_t kTracesPerProgram = 2;
constexpr uint32_t kMaxSessions = 256;

struct Trace
{
    uint32_t prog = 0;
    uint32_t sessions = 1;
    bool attacked = false;
    /** Set: replay through a ReplayPlan over this file; otherwise
     *  through a ReplayEngine over `bytes`. */
    std::unique_ptr<MemFile> file;
    std::vector<uint8_t> bytes;
    uint64_t liveDigest = 0; ///< alarms + stats of the capture run
};

class ReplayWorkload final : public Workload
{
  public:
    explicit ReplayWorkload(const Config &cfg)
        : sources(programSet(cfg.seed, cfg.quick ? 6 : 118)), scratch("replay")
    {
        for (const ProgramSource &s : sources)
            progs.push_back(prepare(s));

        Rng rng = streamFor(cfg.seed, 4);
        const uint64_t shortest = shortestSession(progs);
        const size_t n = progs.size() * kTracesPerProgram;
        std::vector<uint32_t> sizes = spreadLog(n, 1, kMaxSessions);
        rng.shuffle(sizes);
        std::vector<uint8_t> attacked(n, 0), viaPlan(n, 0);
        for (size_t i = 0; i < n / 4; i++)
            attacked[i] = viaPlan[i] = 1;
        rng.shuffle(attacked);
        rng.shuffle(viaPlan);

        for (size_t i = 0; i < n; i++) {
            Trace t;
            t.prog = static_cast<uint32_t>(i % progs.size());
            const Target &p = *progs[t.prog];
            t.attacked = attacked[i];
            const std::vector<TamperSpec> tampers =
                t.attacked ? attackFor(p, rng) : std::vector<TamperSpec>{};
            t.sessions = scaledSessions(sizes[i], shortest, p, tampers);
            if (viaPlan[i])
                t.file = std::make_unique<MemFile>("trace");
            const Session live =
                captureRun(p, t.sessions, tampers,
                           t.file ? t.file->path() : scratch.path());
            t.liveDigest =
                detectionDigest(live.alarms(), live.detectorStats());
            if (!t.file)
                t.bytes = scratch.bytes();
            traces.push_back(std::move(t));
        }
        rng.shuffle(traces);
    }

    size_t roundOps() const override { return traces.size(); }

    uint64_t
    op(uint32_t spec, uint64_t opId, Lane &lane) override
    {
        const Trace &t = traces[spec];
        const CompiledProgram &prog = progs[t.prog]->prog;
        Span whole(lane.spans, "op", opId);
        if (t.file) {
            std::optional<Session> s;
            {
                Span _(lane.spans, "replay_build", opId);
                s.emplace(Session::builder()
                              .program(prog)
                              .plan(ReplayPlan(t.file->path()))
                              .build());
            }
            {
                Span _(lane.spans, "replay_run", opId);
                s->run();
            }
            return detectionDigest(s->alarms(), s->detectorStats());
        }

        std::optional<replay::TraceFile> f;
        {
            Span _(lane.spans, "load", opId);
            f.emplace(replay::TraceFile::fromBytes(t.bytes));
        }
        std::optional<replay::ReplayEngine> eng;
        {
            Span _(lane.spans, "engine", opId);
            eng.emplace(*f, prog);
        }
        std::vector<Alarm> alarms;
        DetectorStats det;
        uint64_t events = 0, snapshots = 0;
        {
            Span _(lane.spans, "replay_shard", opId);
            for (uint32_t sh = 0; sh < eng->shards(); sh++) {
                replay::ReplayShardResult out;
                eng->replayShard(sh, out);
                alarms.insert(alarms.end(), out.alarms.begin(),
                              out.alarms.end());
                det.merge(out.det);
                events += out.events;
                snapshots += out.snapshots;
            }
        }
        if (lane.spans) {
            engineOps++;
            eventsSeen += events;
            bytesSeen += t.bytes.size();
            chunksSeen += f->chunks().size();
            snapshotsSeen += snapshots;
        }
        return detectionDigest(alarms, det);
    }

    void
    checkOps(const std::vector<OpRecord> &ops, Checks &c) override
    {
        for (const OpRecord &r : ops)
            c.expect(r.digest == traces[r.spec].liveDigest,
                     "replay: a replay of " +
                         progs[traces[r.spec].prog]->src->name +
                         " differs from the live run that captured it");
    }

    void
    checkWorld(Checks &c) override
    {
        for (const Trace &t : traces) {
            const replay::TraceFile f =
                t.file ? replay::TraceFile::load(t.file->path())
                       : replay::TraceFile::fromBytes(t.bytes);
            c.expect(f.meta().sessions == t.sessions,
                     "replay: a trace header names the wrong session "
                     "count");
            for (const replay::ChunkRef &ch : f.chunks())
                events += ch.events;
            bytes += f.fileBytes();
        }
    }

    std::string
    reference() override
    {
        const double n = double(traces.size());
        return "\"events_per_op\": " + std::to_string(events / n) +
            ", \"bytes_per_op\": " + std::to_string(bytes / n);
    }

    void
    layerMetrics(const Spans &sp, uint64_t ops, Metrics &m) override
    {
        auto per = [](double a, uint64_t b) {
            return b ? a / double(b) : 0;
        };
        const uint64_t planOps = sp.count("replay_build");
        m.put("replay.load_us", per(sp.totalNs("load") * 1e-3, engineOps),
              "us");
        m.put("replay.engine_us",
              per(sp.totalNs("engine") * 1e-3, engineOps), "us");
        m.put("obs.replay_build_us",
              per(sp.totalNs("replay_build") * 1e-3, planOps), "us");
        m.put("replay.ns_per_event",
              per(double(sp.totalNs("replay_shard")), eventsSeen), "ns");
        m.put("replay.bytes_per_event", per(double(bytesSeen), eventsSeen),
              "B");
        m.put("replay.chunks_per_trace", per(double(chunksSeen), engineOps),
              "count");
        m.put("replay.snapshots_per_trace",
              per(double(snapshotsSeen), engineOps), "count");
        uint64_t parts = 0;
        for (const char *s :
             {"load", "engine", "replay_shard", "replay_build",
              "replay_run"})
            parts += sp.totalNs(s);
        m.put("trace.span_sum_pct",
              per(100.0 * double(parts), sp.totalNs("op")), "%");
        (void)ops;
    }

  private:
    std::vector<ProgramSource> sources;
    std::vector<std::unique_ptr<Target>> progs;
    std::vector<Trace> traces;
    MemFile scratch; ///< capture target of the in-memory traces

    // Traced-run counts (single client thread).
    uint64_t engineOps = 0, eventsSeen = 0, bytesSeen = 0;
    uint64_t chunksSeen = 0, snapshotsSeen = 0;
    uint64_t events = 0, bytes = 0; ///< over the round's traces
};

} // namespace

std::unique_ptr<Workload>
makeReplay(const Config &cfg)
{
    return std::make_unique<ReplayWorkload>(cfg);
}

} // namespace pb
