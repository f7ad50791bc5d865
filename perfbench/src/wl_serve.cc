/**
 * @file
 * Workload `serve`: one stream per operation, from two closed-loop
 * clients running at once against one serve::Server on an AF_UNIX
 * socket with every program registered: connect, helloV2(tenant,
 * module hash), sendTraceBytes, end(). Seven in eight streams carry
 * 1-4 sessions, one in eight 64-256; one in eight of the small streams
 * is attacked; 2-4 tenants share the streams. The large streams stay
 * benign: the alarms of a large attacked stream land in the server's
 * per-tenant aggregate for the server's lifetime, and their seeded
 * volume moved the peak resident set by a quarter from seed to seed. Two client threads, the ingest thread
 * and one pool worker make four threads, the machine's core count.
 * Framing, the poll loop, the actor handoff and the handshake
 * dominate the small streams, detection the large ones.
 */

#include <unistd.h>

#include <algorithm>

#include "obs/names.h"
#include "obs/session.h"
#include "replay/reader.h"
#include "replay/replay.h"
#include "serve/client.h"
#include "serve/server.h"

#include "programs.h"

namespace pb {

namespace {

using namespace ipds;

constexpr uint32_t kStreamsPerProgram = 2;
constexpr unsigned kClients = 2;
constexpr unsigned kServerThreads = 2; // ingest thread + one worker

struct Stream
{
    uint32_t prog = 0;
    std::string tenant;
    uint32_t sessions = 1;
    bool large = false;
    uint64_t alarms = 0; ///< raised by offline replay
    std::vector<uint8_t> bytes;
    uint64_t expect = 0; ///< digest of offline replay's verdict
};

uint64_t
verdictDigest(bool ok, uint64_t sessions, uint64_t alarms,
              uint64_t alarmDigest)
{
    return Digest().add(ok).add(sessions).add(alarms).add(alarmDigest).h;
}

/** Offline replay of @p bytes: the verdict a stream must match. */
uint64_t
offlineVerdict(const std::vector<uint8_t> &bytes,
               const CompiledProgram &prog, uint64_t *alarmCount = nullptr)
{
    replay::TraceFile f = replay::TraceFile::fromBytes(bytes);
    replay::ReplayEngine eng(f, prog);
    std::vector<Alarm> alarms;
    for (uint32_t sh = 0; sh < eng.shards(); sh++) {
        replay::ReplayShardResult out;
        eng.replayShard(sh, out);
        alarms.insert(alarms.end(), out.alarms.begin(), out.alarms.end());
    }
    if (alarmCount)
        *alarmCount = alarms.size();
    return verdictDigest(true, eng.sessions(), alarms.size(),
                         serve::alarmDigest(alarms));
}

class ServeWorkload final : public Workload
{
  public:
    explicit ServeWorkload(const Config &cfg)
        : sources(programSet(cfg.seed, cfg.quick ? 6 : 118))
    {
        for (const ProgramSource &s : sources)
            progs.push_back(prepare(s));

        Rng rng = streamFor(cfg.seed, 5);
        const uint64_t shortest = shortestSession(progs);
        const size_t n = progs.size() * kStreamsPerProgram;
        const size_t large = n / 8;
        std::vector<uint32_t> sizes = spread(n - large, 1, 4);
        for (uint32_t s : spread(large, 64, 256))
            sizes.push_back(s);
        std::vector<uint8_t> attacked(n - large, 0);
        for (size_t i = 0; i < (n - large) / 8; i++)
            attacked[i] = 1;
        rng.shuffle(attacked);
        attacked.resize(n, 0); // large streams are benign
        std::vector<uint32_t> progOf(n);
        for (uint32_t i = 0; i < n; i++)
            progOf[i] = i % progs.size();
        rng.shuffle(progOf);
        const uint64_t tenants = 2 + rng.below(3);

        MemFile capture("serve");
        for (size_t i = 0; i < n; i++) {
            Stream st;
            st.prog = progOf[i];
            const Target &p = *progs[st.prog];
            const std::vector<TamperSpec> tampers =
                attacked[i] ? attackFor(p, rng) : std::vector<TamperSpec>{};
            st.large = sizes[i] > 4;
            st.sessions = st.large
                ? scaledSessions(sizes[i], shortest, p, tampers)
                : sizes[i];
            st.tenant = "tenant-" + std::to_string(rng.below(tenants));
            captureRun(p, st.sessions, tampers, capture.path());
            st.bytes = capture.bytes();
            st.expect = offlineVerdict(st.bytes, p.prog, &st.alarms);
            streams.push_back(std::move(st));
        }
        rng.shuffle(streams);

        socketPath = cfg.scratch + "/serve-" +
            std::to_string(::getpid()) + ".sock";
        serve::ServerConfig sc;
        sc.socketPath = socketPath;
        sc.threads = kServerThreads;
        server = std::make_unique<serve::Server>(sc);
        for (const auto &p : progs)
            server->registerModule(p->prog);
        server->start();
    }

    ~ServeWorkload() override
    {
        if (server)
            server->stopAndJoin();
    }

    size_t roundOps() const override { return streams.size(); }
    unsigned clients() const override { return kClients; }

    uint64_t
    op(uint32_t spec, uint64_t opId, Lane &lane) override
    {
        const Stream &st = streams[spec];
        serve::Client c;
        serve::StreamResult r;
        {
            Span whole(lane.spans, "op", opId);
            {
                Span _(lane.spans, "connect", opId);
                c.connect(socketPath);
                c.helloV2(st.tenant, progs[st.prog]->moduleHash,
                          opId + 1);
            }
            {
                Span _(lane.spans, "send", opId);
                c.sendTraceBytes(st.bytes.data(), st.bytes.size());
            }
            {
                Span _(lane.spans, "result_wait", opId);
                r = c.end();
            }
        }
        return verdictDigest(r.ok, r.sessions, r.alarms, r.alarmDigest);
    }

    void
    checkOps(const std::vector<OpRecord> &ops, Checks &c) override
    {
        for (const OpRecord &r : ops)
            c.expect(r.digest == streams[r.spec].expect,
                     "serve: a stream of " +
                         progs[streams[r.spec].prog]->src->name +
                         " is not ok or differs from offline replay");
    }

    void
    checkWorld(Checks &c) override
    {
        c.expect(server->streamsFailed() == 0,
                 "serve: the server failed streams");
        // Reference figures: one client on an idle server against
        // offline replay of the same bytes, per stream size class.
        std::vector<double> small[2], large[2];
        Lane lane;
        for (uint32_t i = 0; i < streams.size(); i++) {
            const Stream &st = streams[i];
            const uint64_t t0 = nowNs();
            const uint64_t got = op(i, ~0ULL - i, lane);
            const uint64_t t1 = nowNs();
            c.expect(got == st.expect, "serve: single-client stream "
                                       "differs from offline replay");
            offlineVerdict(st.bytes, progs[st.prog]->prog);
            const uint64_t t2 = nowNs();
            auto &cls = st.large ? large : small;
            cls[0].push_back(double(t1 - t0) * 1e-3);
            cls[1].push_back(double(t2 - t1) * 1e-3);
        }
        auto med = [](std::vector<double> v) {
            if (v.empty())
                return 0.0;
            std::sort(v.begin(), v.end());
            return v[v.size() / 2];
        };
        uint64_t events = 0, bytes = 0, alarms = 0;
        for (const Stream &st : streams) {
            alarms += st.alarms;
            const replay::TraceFile f = replay::TraceFile::fromBytes(st.bytes);
            for (const replay::ChunkRef &ch : f.chunks())
                events += ch.events;
            bytes += st.bytes.size();
        }
        const double n = double(streams.size());
        ref = "\"alarms_per_round\": " + std::to_string(alarms) +
            ", \"events_per_op\": " + std::to_string(events / n) +
            ", \"bytes_per_op\": " + std::to_string(bytes / n) +
            ", \"small_stream_served_us\": " +
            std::to_string(med(small[0])) +
            ", \"small_stream_offline_us\": " +
            std::to_string(med(small[1])) +
            ", \"large_stream_served_us\": " +
            std::to_string(med(large[0])) +
            ", \"large_stream_offline_us\": " +
            std::to_string(med(large[1]));
    }

    std::string reference() override { return ref; }

    void
    layerMetrics(const Spans &sp, uint64_t ops, Metrics &m) override
    {
        const double n = ops ? double(ops) : 1;
        auto us = [&](const char *span) {
            return double(sp.totalNs(span)) * 1e-3 / n;
        };
        m.put("serve.connect_us", us("connect"), "us");
        m.put("serve.send_us", us("send"), "us");
        m.put("serve.result_wait_us", us("result_wait"), "us");

        std::vector<uint64_t> lat = server->ingestLatencySamplesMicros();
        std::sort(lat.begin(), lat.end());
        auto pct = [&](double p) {
            return lat.empty()
                ? 0.0
                : double(lat[std::min(lat.size() - 1,
                                      size_t(p * double(lat.size())))]);
        };
        m.put("serve.ingest_us_p50", pct(0.50), "us");
        m.put("serve.ingest_us_p99", pct(0.99), "us");

        uint64_t pauses = 0, frames = 0, done = 0;
        for (const serve::TenantSnapshot &t : server->snapshot()) {
            auto val = [&](const char *name) {
                obs::MetricHandle h = t.reg.find(name);
                return h == obs::kNoMetric ? 0 : t.reg.value(h);
            };
            pauses += val(obs::names::kTenantBackpressureStalls);
            frames += val(obs::names::kTenantFrames);
            done += t.streams;
        }
        m.put("serve.read_pauses",
              done ? double(pauses) * double(streams.size()) / double(done)
                   : 0,
              "count");
        m.put("serve.frames_per_stream",
              done ? double(frames) / double(done) : 0, "count");
        uint64_t parts = 0;
        for (const char *s : {"connect", "send", "result_wait"})
            parts += sp.totalNs(s);
        const uint64_t whole = sp.totalNs("op");
        m.put("trace.span_sum_pct",
              whole ? 100.0 * double(parts) / double(whole) : 0, "%");
    }

  private:
    std::vector<ProgramSource> sources;
    std::vector<std::unique_ptr<Target>> progs;
    std::vector<Stream> streams;
    std::string socketPath;
    std::unique_ptr<serve::Server> server;
    std::string ref;
};

} // namespace

std::unique_ptr<Workload>
makeServe(const Config &cfg)
{
    return std::make_unique<ServeWorkload>(cfg);
}

} // namespace pb
