#ifndef IPDS_OBS_SESSION_H
#define IPDS_OBS_SESSION_H

/**
 * @file
 * The Session facade: the one sanctioned way to assemble an IPDS run.
 *
 * Before this facade, every harness hand-wired the same four classes —
 * compileAndAnalyze → Vm → Detector → CpuModel — in its own slightly
 * different order, with its own ad-hoc counters. Session owns that
 * wiring, plus the observability subsystem's lifetimes (one
 * MetricsRegistry and one Tracer per run), and scales from a
 * single-session embedding:
 *
 *   ipds::Session s = ipds::Session::builder()
 *                         .program(prog)
 *                         .inputs({"guest", "hello"})
 *                         .build();
 *   s.run();
 *   if (s.alarmed()) { ... }
 *   std::puts(s.metricsJson().c_str());
 *
 * to a sharded multi-session benchmark:
 *
 *   ipds::Session s = ipds::Session::builder()
 *                         .program(prog)
 *                         .inputs(wl.benignInputs)
 *                         .timing(table1Config())
 *                         .sessions(300).shards(8).threads(0)
 *                         .build();
 *   TimingStats t = s.run().timingStats();
 *
 * What a run DOES with the event stream is one typed plan:
 *
 *   - ExecPlan    — execute the VM (optionally tampered / fault-
 *                   injected / observed);
 *   - CapturePlan — execute AND record an IPDS trace file;
 *   - ReplayPlan  — re-detect a recorded trace, no VM in the loop;
 *   - ServePlan   — accept recorded streams over a socket and detect
 *                   at ingest (the multi-tenant detection service).
 *
 *   ipds::Session cap = ipds::Session::builder()
 *                           .program(prog).inputs(in)
 *                           .plan(ipds::CapturePlan("run.ipds")
 *                                     .exec(ipds::ExecPlan()
 *                                               .tamper(spec)))
 *                           .build();
 *
 * The plan types make incompatible recipes unrepresentable: a
 * ReplayPlan has nowhere to hang a tamper() (the tamper's effects are
 * already in the recorded stream), a ServePlan has no observer hook.
 *
 * Sharding semantics match the fig9 harness exactly: the session
 * stream splits into a FIXED number of shards (never derived from the
 * thread count), each shard owns its CpuModel / detectors / metrics /
 * tracer, and shard outputs merge in shard order at the join — so
 * every aggregate, metric and trace is bit-identical for any
 * `threads` value.
 *
 * The layered headers (vm/vm.h, ipds/detector.h, timing/cpu.h) remain
 * public for advanced embeddings; see the umbrella header ipds/ipds.h.
 */

#include <memory>
#include <string>
#include <vector>

#include "core/program.h"
#include "inject/fault.h"
#include "ipds/detector.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "replay/writer.h"
#include "timing/config.h"
#include "timing/cpu.h"
#include "vm/vm.h"

namespace ipds {

namespace serve {
class Server;
} // namespace serve

/**
 * Execution plan: run the VM over the configured sessions. All knobs
 * are optional; a default ExecPlan is the plain benign run (and what
 * a Builder with no plan() call gets).
 */
struct ExecPlan
{
    /** Arm a memory tamper (applied to every session). */
    ExecPlan &tamper(const TamperSpec &spec)
    {
        hasTamper = true;
        tamperSpec = spec;
        return *this;
    }

    /**
     * Arm an additional tamper via Vm::addTamper (applied to every
     * session): step-triggered (atStep > 0) or input-event-triggered
     * (afterInputEvent > 0). Unlike tamper() these stack, so a
     * multi-write attack recipe (src/gen) rides one ExecPlan; fired
     * records land in result().faultTampers.
     */
    ExecPlan &addTamper(const TamperSpec &spec)
    {
        extraTampers.push_back(spec);
        return *this;
    }

    /**
     * Arm a fault-injection plan (src/inject/fault.h). A disabled
     * plan (seed 0) is a no-op. When timing() is configured the
     * plan's config-level classes (spill pressure) are applied to the
     * TimingConfig at build(); per-run faults are salted with the
     * session index, so results are a pure function of
     * (program, inputs, plan, sessions, shards).
     */
    ExecPlan &faults(const FaultPlan &p)
    {
        hasFault = p.enabled();
        fault = p;
        return *this;
    }

    /**
     * Record the VM branch trace in result() (defaults to on for
     * single-session runs, off for multi-session runs).
     */
    ExecPlan &recordTrace(bool on)
    {
        recordTraceOn = on;
        recordTraceSet = true;
        return *this;
    }

    /**
     * Attach an extra ExecObserver to every Vm (not owned). Only
     * valid for single-shard runs: a shared observer across shard
     * threads would race.
     */
    ExecPlan &observe(ExecObserver *obs)
    {
        observers.push_back(obs);
        return *this;
    }

    bool hasTamper = false;
    TamperSpec tamperSpec;
    std::vector<TamperSpec> extraTampers;
    bool hasFault = false;
    FaultPlan fault;
    bool recordTraceSet = false;
    bool recordTraceOn = true;
    std::vector<ExecObserver *> observers;
};

/**
 * Capture plan: execute (per the nested ExecPlan) AND record the
 * committed event stream into an IPDS trace file at @p path
 * (src/replay format). The recorder attaches after the detector and
 * timing model, so it observes without perturbing any result: the
 * run's alarms, stats and metrics are unchanged, and a later
 * ReplayPlan over the file reproduces them bit-identically. Timing
 * runs capture the full instruction stream; detector-only runs
 * capture the compact branch stream.
 */
struct CapturePlan
{
    explicit CapturePlan(std::string path_) : path(std::move(path_)) {}

    /** Execution knobs for the recorded run (default: benign). */
    CapturePlan &exec(ExecPlan e)
    {
        execPlan = std::move(e);
        return *this;
    }

    /**
     * Detector-state snapshot cadence: embed a resumable snapshot
     * record (replay/snapshot.h) roughly every @p n data chunks of
     * each session, at the next function-event boundary. Snapshots
     * are what make `--seek-chunk` O(1); they do not perturb replayed
     * results. 0 disables (default 4).
     */
    CapturePlan &snapshotEvery(uint32_t n)
    {
        snapEvery = n;
        return *this;
    }

    std::string path;
    ExecPlan execPlan;
    uint32_t snapEvery = 4;
};

/**
 * Replay plan: re-detect a trace recorded by a CapturePlan instead of
 * executing the VM. The trace header supplies sessions, shards and
 * the TimingConfig (so sessions()/shards()/timing() are ignored);
 * threads() spreads the capture shards over workers, with the usual
 * shard-order deterministic join. Alarms, DetectorStats, TimingStats,
 * FaultStats and the shared metrics come out bit-identical to the
 * capture run; result() stays empty (there is no VM output to
 * reproduce). There is deliberately nothing else to configure here —
 * faults and tampers are captured, not re-injected. Corrupt,
 * truncated, version-skewed or foreign-module traces raise
 * FatalError.
 */
struct ReplayPlan
{
    explicit ReplayPlan(std::string path_) : path(std::move(path_)) {}

    /** Start replay at session @p s, skipping every earlier chunk
     *  (the index makes the skip O(1) in decoded bytes). A v1 trace
     *  (no index footer) is scanned instead, with
     *  ipds.replay.index_missing = 1. Mutually exclusive with
     *  seekChunk(). */
    ReplayPlan &seekSession(uint32_t s)
    {
        hasSeekSession = true;
        seekSessionIdx = s;
        return *this;
    }

    /**
     * Start replay mid-session at chunk @p k of the file, resuming
     * the detector from the nearest preceding snapshot record of the
     * same session (or that session's start when none precedes it).
     * Alarms before the resume point are not re-raised; session-end
     * stats are exact (the snapshot carries the running counters).
     * Rejected for timing traces at build().
     */
    ReplayPlan &seekChunk(uint64_t k)
    {
        hasSeekChunk = true;
        seekChunkIdx = k;
        return *this;
    }

    std::string path;
    bool hasSeekSession = false;
    uint32_t seekSessionIdx = 0;
    bool hasSeekChunk = false;
    uint64_t seekChunkIdx = 0;
};

/**
 * Serve plan: run the multi-tenant detection service. The session
 * binds a stream socket at @p socketPath, accepts framed trace
 * streams from concurrent clients (ipds_client / serve::Client), and
 * runs detection at ingest — bit-identical to a ReplayPlan over the
 * same bytes. run() blocks until stopAfterStreams() streams finished
 * (or stopServing() is called from another thread), then aggregates
 * every tenant's results in tenant-name order. threads() sizes the
 * ingest worker pool. For an open-ended daemon with its own signal
 * handling, use serve::Server (src/serve/server.h) directly — this
 * plan wraps it.
 */
struct ServePlan
{
    /** @p socketPath "" = no unix listener (configure tcp()). */
    explicit ServePlan(std::string socketPath_ = "")
        : socketPath(std::move(socketPath_))
    {}

    /**
     * Also listen on TCP at @p host (IPv4 dotted quad; "0.0.0.0"
     * for all interfaces), port @p port (0 = ephemeral). Both
     * listeners share one poll loop and actor pool.
     */
    ServePlan &tcp(std::string host, uint16_t port)
    {
        tcpHost = std::move(host);
        tcpPort = port;
        return *this;
    }

    /**
     * Register an additional module in the server's registry, keyed
     * by FNV-1a content hash: Hello2 streams route to the module
     * matching their hash. The Builder's program() is always
     * registered. @p prog must outlive run().
     */
    ServePlan &alsoServe(const CompiledProgram &prog)
    {
        extraModules.push_back(&prog);
        return *this;
    }

    /** Reject frames larger than @p n bytes (0 = wire default). */
    ServePlan &maxFrameBytes(size_t n)
    {
        maxFrame = n;
        return *this;
    }

    /**
     * Admission control: per-stream decoded chunks allowed in flight
     * before the server stops reading that client's socket
     * (0 = default). Backpressure is counted, never a deadlock.
     */
    ServePlan &pendingChunkCap(size_t n)
    {
        pendingCap = n;
        return *this;
    }

    /** Stop serving after @p n streams (0 = until stopServing()). */
    ServePlan &stopAfterStreams(uint64_t n)
    {
        stopAfter = n;
        return *this;
    }

    std::string socketPath;
    std::string tcpHost;
    uint16_t tcpPort = 0;
    std::vector<const CompiledProgram *> extraModules;
    size_t maxFrame = 0;
    size_t pendingCap = 0;
    uint64_t stopAfter = 0;
};

class Session
{
  public:
    class Builder;

    /** Start assembling a run. */
    static Builder builder();

    /**
     * Execute the configured run: all sessions, all shards. Reusable;
     * a second call reruns from scratch and replaces every result.
     * Returns *this so accessors chain off the call.
     */
    Session &run();

    // ---- results (valid after run()) --------------------------------

    bool alarmed() const { return !alarmList.empty(); }
    /**
     * All alarms, session order (shard-merge is deterministic). A
     * ServePlan run keeps each tenant's newest
     * serve::kTenantAlarmsRetained; its metrics count every alarm.
     */
    const std::vector<Alarm> &alarms() const { return alarmList; }

    /** Detector aggregates over every session. */
    const DetectorStats &detectorStats() const { return detStat; }

    /** Timing aggregates (zero unless timing() was configured). */
    const TimingStats &timingStats() const { return timStat; }

    /** Injection aggregates (zero unless ExecPlan::faults() was
     *  enabled). */
    const FaultStats &faultStats() const { return fltStat; }

    /** VM result of session 0 (output, exit code, branch trace). */
    const RunResult &result() const { return firstResult; }

    /** The run's metrics, under the obs/names.h naming scheme. */
    const obs::MetricsRegistry &metrics() const { return registry; }
    obs::MetricsRegistry &metrics() { return registry; }

    /** JSON metrics export — what benches should publish instead of
     *  reaching into Detector::stats(). */
    std::string metricsJson() const { return registry.toJson(); }
    /** Plain-text metrics summary. */
    std::string metricsText() const { return registry.toText(); }

    /** Retained trace events, shard order then record order. */
    const std::vector<obs::TraceEvent> &traceEvents() const
    {
        return traceLog;
    }
    /** chrome://tracing export of traceEvents(). */
    std::string traceChromeJson() const
    {
        return obs::toChromeJson(traceLog);
    }
    /** Events lost to ring wraparound across all shards. */
    uint64_t traceDropped() const { return traceLost; }

    // ---- ServePlan runs ---------------------------------------------

    /**
     * Ask a blocking ServePlan run() (in another thread) to stop
     * accepting and return. Thread-safe; a no-op when not serving.
     */
    void stopServing();

    /** Final /statsz snapshot of a ServePlan run ("" otherwise). */
    const std::string &serveStatsz() const { return serveStatszText; }

  private:
    friend class Builder;

    struct Options
    {
        const CompiledProgram *prog = nullptr;
        std::vector<std::string> inputs;
        uint32_t sessions = 1;
        uint32_t shards = 1;
        unsigned threads = 1;
        bool useTiming = false;
        TimingConfig timingCfg;
        bool detectorOn = true;
        bool detectorExplicit = false;
        uint64_t fuel = 50'000'000;
        bool hasTamper = false;
        TamperSpec tamperSpec;
        std::vector<TamperSpec> extraTampers;
        bool hasFault = false;
        FaultPlan fault;
        bool recordTrace = true;
        bool recordTraceExplicit = false;
        std::vector<ExecObserver *> extraObservers;
        uint32_t traceCategories = 0; ///< 0: tracing off
        uint32_t traceCapacity = 4096;
        std::string capturePath; ///< record a trace (CapturePlan)
        uint32_t captureSnapshotEvery = 4;
        std::string replayPath;  ///< replay a trace (ReplayPlan)
        bool replaySeekSessionSet = false;
        uint32_t replaySeekSession = 0;
        bool replaySeekChunkSet = false;
        uint64_t replaySeekChunk = 0;
        bool isServe = false;    ///< a ServePlan was configured
        std::string servePath;   ///< serve a socket (ServePlan)
        std::string serveTcpHost;
        uint16_t serveTcpPort = 0;
        std::vector<const CompiledProgram *> serveExtras;
        size_t serveMaxFrame = 0;
        size_t servePendingCap = 0;
        uint64_t serveStopAfter = 0;
        int planCount = 0; ///< plan() calls seen by the Builder
    };

    explicit Session(Options o);

    struct ShardOut;
    struct ServeHandle;
    void runShard(uint32_t shard, ShardOut &out,
                  replay::TraceWriter *capture) const;
    Session &runReplay();
    Session &runServe();

    Options opt;
    std::shared_ptr<ServeHandle> serveHandle;
    std::string serveStatszText;

    // Results.
    std::vector<Alarm> alarmList;
    DetectorStats detStat;
    TimingStats timStat;
    FaultStats fltStat;
    RunResult firstResult;
    obs::MetricsRegistry registry;
    std::vector<obs::TraceEvent> traceLog;
    uint64_t traceLost = 0;
};

/**
 * Fluent builder. Every setter returns *this; build() validates and
 * produces the Session. The CompiledProgram is borrowed and must
 * outlive the Session.
 */
class Session::Builder
{
  public:
    /** The compiled program to run (required). */
    Builder &program(const CompiledProgram &p)
    {
        o.prog = &p;
        return *this;
    }

    /** Scripted session input lines. */
    Builder &inputs(std::vector<std::string> lines)
    {
        o.inputs = std::move(lines);
        return *this;
    }

    /** Benign sessions to run (default 1). */
    Builder &sessions(uint32_t n)
    {
        o.sessions = n ? n : 1;
        return *this;
    }

    /**
     * Fixed shard count (default 1, max 256). Aggregates are a pure
     * function of (sessions, shards), never of threads.
     */
    Builder &shards(uint32_t k)
    {
        o.shards = k ? k : 1;
        return *this;
    }

    /** Worker threads (default 1; 0 = one per hardware core). */
    Builder &threads(unsigned t)
    {
        o.threads = t;
        return *this;
    }

    /**
     * Attach the Table 1 timing model. Unless detector() overrides
     * it, cfg.ipdsEnabled also decides whether the detector runs —
     * a disabled-IPDS timing run is the paper's baseline.
     */
    Builder &timing(const TimingConfig &cfg)
    {
        o.useTiming = true;
        o.timingCfg = cfg;
        return *this;
    }

    /** Force the detector on or off. */
    Builder &detector(bool on)
    {
        o.detectorOn = on;
        o.detectorExplicit = true;
        return *this;
    }

    /** Instruction budget per session (default 50M). */
    Builder &fuel(uint64_t f)
    {
        o.fuel = f;
        return *this;
    }

    /**
     * Enable structured tracing for the given category mask
     * (obs::TraceCat bits, intersected with the compiled-in mask) and
     * per-shard ring capacity.
     */
    Builder &trace(uint32_t categories, uint32_t capacity = 4096)
    {
        o.traceCategories = categories;
        o.traceCapacity = capacity;
        return *this;
    }

    // ---- the run's plan (configure exactly one) ---------------------

    /** Execute the VM with the given knobs (the default plan). */
    Builder &plan(ExecPlan p)
    {
        o.planCount++;
        applyExec(std::move(p));
        return *this;
    }

    /** Execute AND record an IPDS trace file (see CapturePlan). */
    Builder &plan(CapturePlan p)
    {
        o.planCount++;
        o.capturePath = std::move(p.path);
        o.captureSnapshotEvery = p.snapEvery;
        applyExec(std::move(p.execPlan));
        return *this;
    }

    /** Re-detect a recorded trace, no VM (see ReplayPlan). */
    Builder &plan(ReplayPlan p)
    {
        o.planCount++;
        o.replayPath = std::move(p.path);
        o.replaySeekSessionSet = p.hasSeekSession;
        o.replaySeekSession = p.seekSessionIdx;
        o.replaySeekChunkSet = p.hasSeekChunk;
        o.replaySeekChunk = p.seekChunkIdx;
        return *this;
    }

    /** Run the multi-tenant detection service (see ServePlan). */
    Builder &plan(ServePlan p)
    {
        o.planCount++;
        o.isServe = true;
        o.servePath = std::move(p.socketPath);
        o.serveTcpHost = std::move(p.tcpHost);
        o.serveTcpPort = p.tcpPort;
        o.serveExtras = std::move(p.extraModules);
        o.serveMaxFrame = p.maxFrame;
        o.servePendingCap = p.pendingCap;
        o.serveStopAfter = p.stopAfter;
        return *this;
    }

    /** Validate and assemble. Throws FatalError on a bad recipe. */
    Session build();

  private:
    void applyExec(ExecPlan p)
    {
        o.hasTamper = p.hasTamper;
        o.tamperSpec = p.tamperSpec;
        o.extraTampers = std::move(p.extraTampers);
        o.hasFault = p.hasFault;
        o.fault = p.fault;
        if (p.recordTraceSet) {
            o.recordTrace = p.recordTraceOn;
            o.recordTraceExplicit = true;
        }
        o.extraObservers = std::move(p.observers);
    }

    Session::Options o;
};

} // namespace ipds

#endif // IPDS_OBS_SESSION_H
