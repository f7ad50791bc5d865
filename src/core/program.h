#ifndef IPDS_CORE_PROGRAM_H
#define IPDS_CORE_PROGRAM_H

/**
 * @file
 * The compile pipeline: MiniC source (or hand-built IR) to a fully
 * analyzed program with per-function BSV/BCV/BAT tables and the
 * function information table of §5.4. This is the compiler half of
 * IPDS; the runtime half lives in src/ipds.
 */

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/effects.h"
#include "analysis/memloc.h"
#include "analysis/pointsto.h"
#include "core/batbuild.h"
#include "core/correlation.h"
#include "core/identity.h"
#include "core/tables.h"

namespace ipds {

/** Everything IPDS knows about one compiled function. */
struct CompiledFunction
{
    FuncCorrelation corr;
    FuncBat bat;
    FuncTables tables;
};

/** Aggregate static statistics (feeds Figure 8 and reports). */
struct StaticStats
{
    uint32_t numFunctions = 0;
    uint32_t numBranches = 0;
    uint32_t numCheckable = 0;
    uint64_t totalBsvBits = 0;
    uint64_t totalBcvBits = 0;
    uint64_t totalBatBits = 0;
    double compileSeconds = 0.0;
    uint64_t totalHashTries = 0;

    double avgBsvBits() const
    {
        return numFunctions ? double(totalBsvBits) / numFunctions : 0;
    }
    double avgBcvBits() const
    {
        return numFunctions ? double(totalBcvBits) / numFunctions : 0;
    }
    double avgBatBits() const
    {
        return numFunctions ? double(totalBatBits) / numFunctions : 0;
    }
};

/**
 * A compiled-and-analyzed program: the unit the VM executes and the
 * IPDS runtime checks.
 */
struct CompiledProgram
{
    Module mod;
    CorrOptions opts;
    std::vector<CompiledFunction> funcs; ///< indexed by FuncId
    std::unique_ptr<LocTable> locs;      ///< kept for reports
    StaticStats stats;

    /** Human-readable correlation/BAT report (explorer example). */
    std::string report() const;

    /**
     * The program's replay identity, each half computed on its first
     * call and shared by every later one. Thread-safe: concurrent
     * first calls compute it once. Compiling never computes it; a
     * capture or a server registration needs only the hash, a
     * ReplayEngine both. The memo moves with the program, so it is
     * never handed to a different one; @c mod must not change once
     * either was taken. FatalError on a moved-from program.
     */
    uint64_t contentHash() const;
    const PcIndex &pcIndex() const;

  private:
    struct IdentityMemo
    {
        std::once_flag hashed;
        uint64_t hash = 0;
        std::once_flag indexed;
        PcIndex index;
    };
    std::unique_ptr<IdentityMemo> identityMemo =
        std::make_unique<IdentityMemo>();

    IdentityMemo &memo() const;
};

/** Analyze an already built module (addresses must be assigned). */
CompiledProgram analyzeModule(Module mod, const CorrOptions &opts = {});

/** Full pipeline: parse, lower, analyze. */
CompiledProgram compileAndAnalyze(const std::string &src,
                                  const std::string &name,
                                  const CorrOptions &opts = {});

} // namespace ipds

#endif // IPDS_CORE_PROGRAM_H
