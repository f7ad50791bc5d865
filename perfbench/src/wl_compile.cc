/**
 * @file
 * Workload `compile`: one compileAndAnalyze of one program per
 * operation, cycling through the program set in seeded order. The
 * frontend, analysis and core layers do all the work; no runtime
 * layer runs, so a compile-side change shows here and nowhere else.
 *
 * The traced run calls the pipeline's stages one by one — parse,
 * lower (compileProgram + assignAddresses + verify), LocTable +
 * PointsTo, Effects + MemConsts, then per function analyzeFunction,
 * buildBat and layoutTables — with a span around each, and the world
 * oracle holds the staged tables equal to compileAndAnalyze's.
 */

#include <optional>

#include "analysis/effects.h"
#include "analysis/memconst.h"
#include "analysis/memloc.h"
#include "analysis/pointsto.h"
#include "core/program.h"
#include "frontend/codegen.h"
#include "frontend/parser.h"
#include "obs/session.h"

#include "programs.h"

namespace pb {

namespace {

using namespace ipds;

/** The pipeline's products that the stats and oracles read. */
struct Compiled
{
    Module mod;
    std::vector<FuncCorrelation> corr;
    std::vector<FuncBat> bat;
    std::vector<FuncTables> tables;
};

/** compileAndAnalyze, stage by stage (analyzeModule's order). */
Compiled
stagedCompile(const ProgramSource &s, Spans *sp, uint64_t op)
{
    Compiled c;
    const CorrOptions opts;
    ipds::Program ast;
    {
        Span _(sp, "parse", op);
        ast = parseProgram(s.source);
    }
    {
        Span _(sp, "lower", op);
        c.mod = ipds::compileProgram(ast, s.name);
        c.mod.assignAddresses();
        c.mod.verify();
    }
    std::optional<LocTable> locs;
    std::optional<PointsTo> pt;
    {
        Span _(sp, "pointsto", op);
        locs.emplace(c.mod);
        pt.emplace(c.mod, *locs);
    }
    std::optional<Effects> fx;
    std::optional<MemConsts> mc;
    {
        Span _(sp, "effects", op);
        fx.emplace(c.mod, *locs, *pt);
        mc.emplace(c.mod, *locs, *fx);
    }
    {
        // Releasing the AST is the frontend's cost too.
        Span _(sp, "parse", op);
        ast = {};
    }
    c.corr.reserve(c.mod.functions.size());
    c.bat.reserve(c.mod.functions.size());
    c.tables.reserve(c.mod.functions.size());
    for (const Function &fn : c.mod.functions) {
        {
            Span _(sp, "correlation", op);
            c.corr.push_back(analyzeFunction(
                c.mod, fn, *locs, *pt, *fx,
                opts.memConstProp ? &*mc : nullptr, opts));
        }
        {
            Span _(sp, "batbuild", op);
            c.bat.push_back(
                buildBat(c.mod, fn, *locs, *fx, c.corr.back(), opts));
        }
        {
            Span _(sp, "tables", op);
            c.tables.push_back(layoutTables(c.bat.back(),
                                            opts.maxHashLog2));
        }
    }
    {
        Span _(sp, "effects", op);
        mc.reset();
        fx.reset();
    }
    {
        Span _(sp, "pointsto", op);
        pt.reset();
        locs.reset();
    }
    return c;
}

/** Digest of the static stats compileAndAnalyze reports. */
uint64_t
statsDigest(uint32_t funcs, uint32_t branches, uint32_t checkable,
            uint64_t bsv, uint64_t bcv, uint64_t bat, uint64_t tries)
{
    return Digest()
        .add(funcs)
        .add(branches)
        .add(checkable)
        .add(bsv)
        .add(bcv)
        .add(bat)
        .add(tries)
        .h;
}

uint64_t
statsDigest(const CompiledProgram &p)
{
    const StaticStats &s = p.stats;
    return statsDigest(s.numFunctions, s.numBranches, s.numCheckable,
                       s.totalBsvBits, s.totalBcvBits, s.totalBatBits,
                       s.totalHashTries);
}

uint64_t
statsDigest(const Compiled &c)
{
    uint32_t branches = 0, checkable = 0;
    uint64_t bsv = 0, bcv = 0, bat = 0, tries = 0;
    for (size_t f = 0; f < c.tables.size(); f++) {
        branches += c.bat[f].numBranches;
        checkable += c.corr[f].numCheckable();
        bsv += c.tables[f].bsvBits;
        bcv += c.tables[f].bcvBits;
        bat += c.tables[f].batBits;
        tries += c.tables[f].hash.tries;
    }
    return statsDigest(static_cast<uint32_t>(c.tables.size()), branches,
                       checkable, bsv, bcv, bat, tries);
}

bool
sameActions(const std::vector<SlotAction> &a,
            const std::vector<SlotAction> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); i++)
        if (a[i].slot != b[i].slot || a[i].act != b[i].act)
            return false;
    return true;
}

bool
sameTables(const FuncTables &a, const FuncTables &b)
{
    if (a.func != b.func || a.hash.shift1 != b.hash.shift1 ||
        a.hash.shift2 != b.hash.shift2 ||
        a.hash.log2Space != b.hash.log2Space ||
        a.hash.tries != b.hash.tries || a.numBranches != b.numBranches ||
        a.slotOfBranch != b.slotOfBranch || a.bcv != b.bcv ||
        a.lookupBasePc != b.lookupBasePc || a.bsvBits != b.bsvBits ||
        a.bcvBits != b.bcvBits || a.batBits != b.batBits ||
        !sameActions(a.entryActions, b.entryActions) ||
        !sameActions(a.actionPool, b.actionPool) ||
        a.onTaken.size() != b.onTaken.size() ||
        a.onNotTaken.size() != b.onNotTaken.size() ||
        a.branchRecs.size() != b.branchRecs.size())
        return false;
    for (size_t i = 0; i < a.onTaken.size(); i++)
        if (!sameActions(a.onTaken[i], b.onTaken[i]))
            return false;
    for (size_t i = 0; i < a.onNotTaken.size(); i++)
        if (!sameActions(a.onNotTaken[i], b.onNotTaken[i]))
            return false;
    for (size_t i = 0; i < a.branchRecs.size(); i++) {
        const BranchRec &x = a.branchRecs[i], &y = b.branchRecs[i];
        if (x.slot != y.slot || x.checked != y.checked ||
            x.takenOff != y.takenOff || x.takenLen != y.takenLen ||
            x.notTakenOff != y.notTakenOff ||
            x.notTakenLen != y.notTakenLen)
            return false;
    }
    return true;
}

class CompileWorkload final : public Workload
{
  public:
    explicit CompileWorkload(const Config &cfg)
        : sources(programSet(cfg.seed, cfg.quick ? 6 : 1014))
    {
        for (const ProgramSource &s : sources) {
            ref.push_back(compileAndAnalyze(s.source, s.name));
            refDigest.push_back(statsDigest(ref.back()));
        }
        for (uint32_t i = 0; i < sources.size(); i++)
            order.push_back(i);
        Rng rng = streamFor(cfg.seed, 2);
        rng.shuffle(order);
    }

    size_t roundOps() const override { return order.size(); }

    uint64_t
    op(uint32_t spec, uint64_t opId, Lane &lane) override
    {
        const ProgramSource &s = sources[order[spec]];
        if (!lane.spans)
            return statsDigest(compileAndAnalyze(s.source, s.name));

        Compiled c;
        {
            Span _(lane.spans, "op", opId);
            c = stagedCompile(s, lane.spans, opId);
        }
        for (const Function &fn : c.mod.functions)
            for (const BasicBlock &bb : fn.blocks)
                insts += bb.insts.size();
        for (size_t f = 0; f < c.tables.size(); f++) {
            hashTries += c.tables[f].hash.tries;
            branches += c.bat[f].numBranches;
            checkable += c.corr[f].numCheckable();
        }
        return statsDigest(c);
    }

    void
    checkOps(const std::vector<OpRecord> &ops, Checks &c) override
    {
        for (const OpRecord &r : ops)
            c.expect(r.digest == refDigest[order[r.spec]],
                     "compile: stats of " + sources[order[r.spec]].name +
                         " differ from its reference compile");
    }

    void
    checkWorld(Checks &c) override
    {
        for (size_t i = 0; i < sources.size(); i++) {
            const ProgramSource &s = sources[i];
            const CompiledProgram &r = ref[i];
            // Compiling the same source twice gives equal stats and
            // tables; so does the staged pipeline of the traced run.
            CompiledProgram again = compileAndAnalyze(s.source, s.name);
            Compiled staged = stagedCompile(s, nullptr, 0);
            c.expect(statsDigest(again) == refDigest[i] &&
                         statsDigest(staged) == refDigest[i],
                     "compile: stats of " + s.name + " not repeatable");
            bool same = again.funcs.size() == r.funcs.size() &&
                staged.tables.size() == r.funcs.size();
            for (size_t f = 0; same && f < r.funcs.size(); f++)
                same = sameTables(again.funcs[f].tables,
                                  r.funcs[f].tables) &&
                    sameTables(staged.tables[f], r.funcs[f].tables);
            c.expect(same, "compile: tables of " + s.name +
                               " not repeatable");

            // Every function's hash maps its branch pcs to distinct
            // slots below space(), the slots the tables index by.
            for (const CompiledFunction &cf : r.funcs) {
                const HashParams &h = cf.tables.hash;
                std::vector<bool> used(h.space(), false);
                bool ok = cf.bat.branchPcs.size() == cf.bat.numBranches;
                for (size_t b = 0; ok && b < cf.bat.branchPcs.size();
                     b++) {
                    const uint32_t slot = h.apply(cf.bat.branchPcs[b]);
                    ok = slot < h.space() && !used[slot] &&
                        slot == cf.tables.slotOfBranch[b];
                    if (ok)
                        used[slot] = true;
                }
                c.expect(ok, "compile: hash of a function in " +
                                 s.name + " is not collision-free");
            }

            // The benign script runs with zero alarms.
            Session run = Session::builder()
                              .program(r)
                              .inputs(s.inputs)
                              .build();
            run.run();
            c.expect(!run.alarmed(),
                     "compile: benign run of " + s.name + " alarmed");
        }
    }

    std::string
    reference() override
    {
        uint64_t irInsts = 0, branchCount = 0;
        for (const CompiledProgram &p : ref) {
            for (const Function &fn : p.mod.functions)
                for (const BasicBlock &bb : fn.blocks)
                    irInsts += bb.insts.size();
            branchCount += p.stats.numBranches;
        }
        const double n = double(ref.size());
        return "\"programs\": " + std::to_string(ref.size()) +
            ", \"ir_insts_per_op\": " + std::to_string(irInsts / n) +
            ", \"branches_per_op\": " + std::to_string(branchCount / n);
    }

    void
    layerMetrics(const Spans &sp, uint64_t ops, Metrics &m) override
    {
        const double n = ops ? double(ops) : 1;
        auto us = [&](const char *span) {
            return double(sp.totalNs(span)) * 1e-3 / n;
        };
        m.put("frontend.parse_us", us("parse"), "us");
        m.put("frontend.lower_us", us("lower"), "us");
        m.put("analysis.pointsto_us", us("pointsto"), "us");
        m.put("analysis.effects_us", us("effects"), "us");
        m.put("core.correlation_us", us("correlation"), "us");
        m.put("core.batbuild_us", us("batbuild"), "us");
        m.put("core.tables_us", us("tables"), "us");
        m.put("core.hash_tries", double(hashTries) / n, "count");
        m.put("ir.insts", double(insts) / n, "count");
        m.put("core.checkable_ratio",
              branches ? double(checkable) / double(branches) : 0,
              "ratio");
        uint64_t stages = 0;
        for (const char *s : {"parse", "lower", "pointsto", "effects",
                              "correlation", "batbuild", "tables"})
            stages += sp.totalNs(s);
        const uint64_t whole = sp.totalNs("op");
        m.put("trace.span_sum_pct",
              whole ? 100.0 * double(stages) / double(whole) : 0, "%");
    }

  private:
    std::vector<ProgramSource> sources;
    std::vector<CompiledProgram> ref;
    std::vector<uint64_t> refDigest;
    std::vector<uint32_t> order;
    // Traced-run counts (single client thread).
    uint64_t insts = 0, hashTries = 0, branches = 0, checkable = 0;
};

} // namespace

std::unique_ptr<Workload>
makeCompile(const Config &cfg)
{
    return std::make_unique<CompileWorkload>(cfg);
}

} // namespace pb
