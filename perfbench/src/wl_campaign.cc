/**
 * @file
 * Workload `campaign`: one Session run through an ExecPlan of a
 * seeded number (1-64) of repeated sessions of one program per
 * operation. Every round gives each program eleven benign runs, three
 * attacked runs (a gen recipe, or a single-word entry-local tamper
 * for the paper workloads, armed through ExecPlan::addTamper), one
 * benign run under the Table 1 timing model and one run captured
 * through a CapturePlan into an in-memory file. The VM, detector,
 * Session facade, timing model, attack arming and trace writer do
 * the work; nothing is compiled, decoded or sent over a socket.
 *
 * The traced run splits each operation into Session build and run,
 * and measures beside it: the VM alone, a Detector fed the
 * operation's recorded branch stream, and (for timed and captured
 * operations) the same operation without timing or capture.
 */

#include <optional>

#include "ipds/detector.h"
#include "ipds/reference.h"
#include "obs/names.h"
#include "obs/session.h"
#include "timing/config.h"

#include "programs.h"

namespace pb {

namespace {

using namespace ipds;

enum class Kind : uint8_t
{
    Benign,
    Attacked,
    Timed,
    Captured,
};

// Operations per program in one round, by kind.
constexpr uint32_t kPerProgram[] = {11, 3, 1, 1};
constexpr uint32_t kMaxSessions = 64;

struct Spec
{
    uint32_t prog = 0;
    Kind kind = Kind::Benign;
    uint32_t sessions = 1;
    std::vector<TamperSpec> tampers;
};

/** One session's function/branch event stream. */
struct Stream
{
    struct Ev
    {
        uint8_t kind; ///< 0 enter, 1 exit, 2 branch
        bool taken;
        FuncId func;
        uint64_t pc;
    };
    std::vector<Ev> ev;
};

class Recorder final : public ExecObserver
{
  public:
    explicit Recorder(Stream &s) : out(s) {}
    bool wantsInstEvents() const override { return false; }
    void onFunctionEnter(FuncId f) override
    {
        out.ev.push_back({0, false, f, 0});
    }
    void onFunctionExit(FuncId f) override
    {
        out.ev.push_back({1, false, f, 0});
    }
    void onBranch(FuncId f, uint64_t pc, bool taken) override
    {
        out.ev.push_back({2, taken, f, pc});
    }

  private:
    Stream &out;
};

/** The expected outcome of a spec, from the reference path. */
struct Expect
{
    uint64_t digest = 0;
    size_t alarms = 0;
    bool cfChanged = false;
};

class CampaignWorkload final : public Workload
{
  public:
    explicit CampaignWorkload(const Config &cfg)
        : sources(programSet(cfg.seed, cfg.quick ? 6 : 118)), capture("campaign")
    {
        for (const ProgramSource &s : sources)
            progs.push_back(prepare(s));

        Rng rng = streamFor(cfg.seed, 3);
        const uint32_t P = static_cast<uint32_t>(progs.size());
        const uint64_t shortest = shortestSession(progs);
        for (uint32_t k = 0; k < 4; k++) {
            std::vector<uint32_t> sess =
                spread(P * kPerProgram[k], 1, kMaxSessions);
            rng.shuffle(sess);
            size_t next = 0;
            for (uint32_t p = 0; p < P; p++)
                for (uint32_t i = 0; i < kPerProgram[k]; i++) {
                    Spec s;
                    s.prog = p;
                    s.kind = static_cast<Kind>(k);
                    if (s.kind == Kind::Attacked)
                        s.tampers = attackFor(*progs[p], rng);
                    s.sessions = scaledSessions(sess[next++], shortest,
                                                *progs[p], s.tampers);
                    specs.push_back(std::move(s));
                }
        }
        rng.shuffle(specs);
        dets.resize(P);
    }

    size_t roundOps() const override { return specs.size(); }

    uint64_t
    op(uint32_t si, uint64_t opId, Lane &lane) override
    {
        const Spec &s = specs[si];
        const Target &p = *progs[s.prog];
        std::optional<Session> sess;
        const uint64_t t0 = nowNs();
        {
            Span whole(lane.spans, "op", opId);
            {
                Span _(lane.spans, "session_build", opId);
                sess.emplace(builder(s, s.kind == Kind::Timed,
                                     s.kind == Kind::Captured)
                                 .build());
            }
            Span _(lane.spans, "session_run", opId);
            sess->run();
        }
        const uint64_t opNs = nowNs() - t0;
        const uint64_t d =
            detectionDigest(sess->alarms(), sess->detectorStats());
        if (!lane.spans)
            return d;

        const uint64_t p0 = nowNs();
        probe(s, p, *sess, opNs);
        lane.probeNs += nowNs() - p0;
        return d;
    }

    void
    checkOps(const std::vector<OpRecord> &ops, Checks &c) override
    {
        computeExpectations();
        for (const OpRecord &r : ops) {
            const Spec &s = specs[r.spec];
            c.expect(r.digest == expect[r.spec].digest,
                     "campaign: " + progs[s.prog]->src->name +
                         " differs from the switch interpreter with "
                         "ReferenceDetector");
        }
    }

    void
    checkWorld(Checks &c) override
    {
        computeExpectations();
        for (size_t i = 0; i < specs.size(); i++) {
            const Spec &s = specs[i];
            const Expect &e = expect[i];
            const std::string &name = progs[s.prog]->src->name;
            if (s.kind != Kind::Attacked)
                c.expect(e.alarms == 0,
                         "campaign: benign run of " + name + " alarmed");
            else if (e.alarms > 0)
                c.expect(e.cfChanged,
                         "campaign: attacked run of " + name +
                             " alarmed without changing its branch "
                             "trace");
        }
        // Reference figures: the simulated IPDS cycle overhead of the
        // timed operations (timing model with and without IPDS).
        for (const Spec &s : specs) {
            if (s.kind != Kind::Timed)
                continue;
            TimingConfig off = table1Config();
            off.ipdsEnabled = false;
            Session with = builder(s, true, false).build();
            Session without = builder(s, false, false)
                                  .timing(off)
                                  .build();
            cyclesIpds += with.run().timingStats().cycles;
            cyclesBase += without.run().timingStats().cycles;
        }
    }

    std::string
    reference() override
    {
        uint32_t attacked = 0, cf = 0, detected = 0;
        for (size_t i = 0; i < specs.size(); i++) {
            if (specs[i].kind != Kind::Attacked)
                continue;
            attacked++;
            cf += expect[i].cfChanged;
            detected += expect[i].cfChanged && expect[i].alarms > 0;
        }
        const double n = double(specs.size());
        return "\"vm_insts_per_op\": " +
            std::to_string(double(vmInstsPerRound) / n) +
            ", \"branches_per_op\": " +
            std::to_string(double(branchesPerRound) / n) +
            ", \"attacked_ops\": " + std::to_string(attacked) +
            ", \"cf_changed_ops\": " + std::to_string(cf) +
            ", \"detected_of_cf_changed_pct\": " +
            std::to_string(cf ? 100.0 * detected / cf : 0) +
            ", \"ipds_cycle_overhead_pct\": " +
            std::to_string(cyclesBase ? 100.0 * (double(cyclesIpds) /
                                                 double(cyclesBase) -
                                                 1)
                                      : 0);
    }

    void
    layerMetrics(const Spans &sp, uint64_t ops, Metrics &m) override
    {
        const double n = ops ? double(ops) : 1;
        auto per = [](uint64_t a, uint64_t b) {
            return b ? double(a) / double(b) : 0;
        };
        m.put("obs.session_build_us",
              double(sp.totalNs("session_build")) * 1e-3 / n, "us");
        m.put("vm.ns_per_inst", per(vmNs, vmInsts), "ns");
        m.put("vm.insts_per_session", per(vmInsts, vmRuns), "count");
        m.put("ipds.detect_ns_per_branch", per(detNs, detBranches), "ns");
        m.put("ipds.actions_per_branch", per(detActions, detBranches),
              "ratio");
        m.put("timing.ns_per_inst", per(timingNs, timingInsts), "ns");
        m.put("replay.capture_ns_per_event",
              per(captureNs, captureEvents), "ns");
        m.put("attack.alarmed_ops",
              double(alarmedOps) * double(specs.size()) / n, "count");
        const uint64_t whole = sp.totalNs("op");
        m.put("trace.span_sum_pct",
              whole ? 100.0 *
                      double(sp.totalNs("session_build") +
                             sp.totalNs("session_run")) /
                      double(whole)
                    : 0,
              "%");
    }

  private:
    Session::Builder
    builder(const Spec &s, bool timed, bool captured) const
    {
        const Target &p = *progs[s.prog];
        ExecPlan ep;
        for (const TamperSpec &t : s.tampers)
            ep.addTamper(t);
        Session::Builder b = Session::builder();
        b.program(p.prog)
            .inputs(p.src->inputs)
            .sessions(s.sessions)
            .fuel(p.fuel);
        if (timed)
            b.timing(table1Config());
        if (captured)
            b.plan(CapturePlan(capture.path()).exec(std::move(ep)));
        else
            b.plan(std::move(ep));
        return b;
    }

    /** Traced-run side measurements of one operation. */
    void
    probe(const Spec &s, const Target &p, const Session &sess,
          uint64_t opNs)
    {
        // The VM alone, no observer.
        {
            Vm vm(p.prog.mod);
            vm.setInputs(p.src->inputs);
            vm.setFuel(p.fuel);
            vm.setRecordTrace(false);
            for (const TamperSpec &t : s.tampers)
                vm.addTamper(t);
            const uint64_t t0 = nowNs();
            vm.run();
            vmNs += nowNs() - t0;
            vmInsts += vm.vmStats().instructions;
            vmRuns++;
        }
        // A Detector fed the operation's recorded branch stream.
        const Stream &st = streamOf(s, p);
        if (!dets[s.prog])
            dets[s.prog] = std::make_unique<Detector>(p.prog);
        Detector &det = *dets[s.prog];
        det.reset();
        const uint64_t t0 = nowNs();
        for (const Stream::Ev &e : st.ev) {
            if (e.kind == 0)
                det.onFunctionEnter(e.func);
            else if (e.kind == 1)
                det.onFunctionExit(e.func);
            else
                det.onBranch(e.func, e.pc, e.taken);
        }
        detNs += nowNs() - t0;
        detBranches += det.stats().branchesSeen;
        detActions += det.stats().actionsApplied;

        if (s.kind == Kind::Attacked && sess.alarmed())
            alarmedOps++;
        if (s.kind != Kind::Timed && s.kind != Kind::Captured)
            return;
        // The same operation without timing / capture.
        const uint64_t t1 = nowNs();
        builder(s, false, false).build().run();
        const uint64_t plainNs = nowNs() - t1;
        const uint64_t extra = opNs > plainNs ? opNs - plainNs : 0;
        const DetectorStats &ds = sess.detectorStats();
        if (s.kind == Kind::Timed) {
            const obs::MetricHandle h =
                sess.metrics().find(obs::names::kVmInstructions);
            timingNs += extra;
            timingInsts += h == obs::kNoMetric ? 0 : sess.metrics().value(h);
        } else {
            captureNs += extra;
            captureEvents += ds.branchesSeen + 2 * ds.framesPushed;
        }
    }

    const Stream &
    streamOf(const Spec &s, const Target &p)
    {
        auto it = streams.find(&s);
        if (it != streams.end())
            return it->second;
        Stream &st = streams[&s];
        Recorder rec(st);
        Vm vm(p.prog.mod);
        vm.setInputs(p.src->inputs);
        vm.setFuel(p.fuel);
        vm.setRecordTrace(false);
        for (const TamperSpec &t : s.tampers)
            vm.addTamper(t);
        vm.addObserver(&rec);
        vm.run();
        return st;
    }

    /**
     * Expected outcome of every spec from the reference path: one
     * session on the switch interpreter with ReferenceDetector,
     * repeated `sessions` times (sessions of one run are identical).
     */
    void
    computeExpectations()
    {
        if (!expect.empty())
            return;
        std::vector<std::vector<BranchEvent>> benign(progs.size());
        for (size_t i = 0; i < progs.size(); i++) {
            Vm vm(progs[i]->prog.mod);
            vm.setEngine(VmEngine::Switch);
            vm.setInputs(progs[i]->src->inputs);
            vm.setFuel(progs[i]->fuel);
            benign[i] = vm.run().branchTrace;
        }
        for (const Spec &s : specs) {
            const Target &p = *progs[s.prog];
            Vm vm(p.prog.mod);
            vm.setEngine(VmEngine::Switch);
            vm.setInputs(p.src->inputs);
            vm.setFuel(p.fuel);
            for (const TamperSpec &t : s.tampers)
                vm.addTamper(t);
            ReferenceDetector ref(p.prog);
            vm.addObserver(&ref);
            RunResult r = vm.run();
            std::vector<Alarm> alarms;
            DetectorStats st;
            for (uint32_t i = 0; i < s.sessions; i++) {
                alarms.insert(alarms.end(), ref.alarms().begin(),
                              ref.alarms().end());
                st.merge(ref.stats());
            }
            Expect e;
            e.digest = detectionDigest(alarms, st);
            e.alarms = alarms.size();
            e.cfChanged = !(r.branchTrace == benign[s.prog]);
            expect.push_back(e);
            vmInstsPerRound += r.steps * s.sessions;
            branchesPerRound += ref.stats().branchesSeen * s.sessions;
        }
    }

    std::vector<ProgramSource> sources;
    std::vector<std::unique_ptr<Target>> progs;
    std::vector<Spec> specs;
    std::vector<Expect> expect;
    MemFile capture;

    // Traced-run state (single client thread).
    std::vector<std::unique_ptr<Detector>> dets;
    std::map<const Spec *, Stream> streams;
    uint64_t vmNs = 0, vmInsts = 0, vmRuns = 0;
    uint64_t detNs = 0, detBranches = 0, detActions = 0;
    uint64_t timingNs = 0, timingInsts = 0;
    uint64_t captureNs = 0, captureEvents = 0;
    uint64_t alarmedOps = 0;
    uint64_t cyclesIpds = 0, cyclesBase = 0;
    uint64_t vmInstsPerRound = 0, branchesPerRound = 0;
};

} // namespace

std::unique_ptr<Workload>
makeCampaign(const Config &cfg)
{
    return std::make_unique<CampaignWorkload>(cfg);
}

} // namespace pb
