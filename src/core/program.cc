#include "core/program.h"

#include <chrono>
#include <sstream>

#include "frontend/codegen.h"
#include "support/diag.h"

namespace ipds {

CompiledProgram
analyzeModule(Module mod, const CorrOptions &opts)
{
    auto t0 = std::chrono::steady_clock::now();

    CompiledProgram out;
    out.opts = opts;
    out.mod = std::move(mod);
    out.locs = std::make_unique<LocTable>(out.mod);

    PointsTo pt(out.mod, *out.locs);
    Effects fx(out.mod, *out.locs, pt);
    MemConsts mc(out.mod, *out.locs, fx);

    out.funcs.reserve(out.mod.functions.size());
    for (const auto &fn : out.mod.functions) {
        CompiledFunction cf;
        cf.corr = analyzeFunction(out.mod, fn, *out.locs, pt, fx,
                                  opts.memConstProp ? &mc : nullptr,
                                  opts);
        cf.bat = buildBat(out.mod, fn, *out.locs, fx, cf.corr, opts);
        try {
            cf.tables = layoutTables(cf.bat, opts.maxHashLog2);
        } catch (const FatalError &e) {
            // Table layout can fail per function (perfect-hash search
            // exhaustion, duplicate PCs). Rethrow with the function
            // named so a batch compile reports WHICH program is
            // unprotectable — still a recoverable FatalError, never a
            // process abort.
            fatal("%s: cannot lay out IPDS tables for function '%s': "
                  "%s", out.mod.name.c_str(), fn.name.c_str(),
                  e.what());
        }
        out.funcs.push_back(std::move(cf));
    }

    auto &st = out.stats;
    st.numFunctions = static_cast<uint32_t>(out.funcs.size());
    for (const auto &cf : out.funcs) {
        st.numBranches += cf.bat.numBranches;
        st.numCheckable += cf.corr.numCheckable();
        st.totalBsvBits += cf.tables.bsvBits;
        st.totalBcvBits += cf.tables.bcvBits;
        st.totalBatBits += cf.tables.batBits;
        st.totalHashTries += cf.tables.hash.tries;
    }
    st.compileSeconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
    return out;
}

CompiledProgram
compileAndAnalyze(const std::string &src, const std::string &name,
                  const CorrOptions &opts)
{
    auto t0 = std::chrono::steady_clock::now();
    Module mod = compileMiniC(src, name);
    CompiledProgram out = analyzeModule(std::move(mod), opts);
    out.stats.compileSeconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
    return out;
}

CompiledProgram::IdentityMemo &
CompiledProgram::memo() const
{
    if (!identityMemo)
        fatal("%s: identity of a moved-from program", mod.name.c_str());
    return *identityMemo;
}

uint64_t
CompiledProgram::contentHash() const
{
    IdentityMemo &m = memo();
    std::call_once(m.hashed, [&] { m.hash = moduleContentHash(mod); });
    return m.hash;
}

const PcIndex &
CompiledProgram::pcIndex() const
{
    IdentityMemo &m = memo();
    std::call_once(m.indexed, [&] { m.index = buildPcIndex(mod); });
    return m.index;
}

std::string
CompiledProgram::report() const
{
    std::ostringstream os;
    os << "=== IPDS static analysis report: " << mod.name << " ===\n";
    os << strprintf("functions: %u  branches: %u  checkable: %u "
                    "(%.1f%%)\n",
                    stats.numFunctions, stats.numBranches,
                    stats.numCheckable,
                    stats.numBranches
                        ? 100.0 * stats.numCheckable / stats.numBranches
                        : 0.0);
    os << strprintf("avg table bits/function: BSV %.1f  BCV %.1f  "
                    "BAT %.1f\n",
                    stats.avgBsvBits(), stats.avgBcvBits(),
                    stats.avgBatBits());

    for (const auto &cf : funcs) {
        const Function &fn = mod.functions[cf.corr.func];
        if (cf.bat.numBranches == 0)
            continue;
        os << "\nfunction " << fn.name << " ("
           << cf.bat.numBranches << " branches, hash space "
           << cf.tables.hash.space() << ", "
           << cf.tables.hash.tries << " tries)\n";
        for (const auto &b : cf.corr.branches) {
            os << strprintf("  br#%u pc=0x%llx bb%u ", b.idx,
                            static_cast<unsigned long long>(b.pc),
                            b.block);
            switch (b.kind) {
              case CondKind::Unknown:
                os << "unknown";
                break;
              case CondKind::Range:
                os << "range on " << locs->loc(b.corrLoc).name
                   << " taken=" << b.takenSet.str()
                   << " nottaken=" << b.notTakenSet.str();
                break;
              case CondKind::PureCall:
                os << "purecall "
                   << cf.corr.sigs[b.corrLoc - locs->size()].str(mod)
                   << " taken=" << b.takenSet.str();
                break;
            }
            os << (b.checkable ? " [checked]" : " [not checked]")
               << "\n";
            auto dumpList = [&](const char *tag,
                                const ActionList &l) {
                if (l.empty())
                    return;
                os << "      " << tag << ":";
                for (const auto &[idx, act] : l)
                    os << strprintf(" br#%u<-%s", idx,
                                    brActionName(act));
                os << "\n";
            };
            dumpList("on-taken", cf.bat.onTaken[b.idx]);
            dumpList("on-nottaken", cf.bat.onNotTaken[b.idx]);
        }
        if (!cf.bat.entryActions.empty()) {
            os << "  entry:";
            for (const auto &[idx, act] : cf.bat.entryActions)
                os << strprintf(" br#%u<-%s", idx, brActionName(act));
            os << "\n";
        }
    }
    return os.str();
}

} // namespace ipds
