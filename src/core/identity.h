#ifndef IPDS_CORE_IDENTITY_H
#define IPDS_CORE_IDENTITY_H

/**
 * @file
 * A program's replay identity: the module content hash a trace header
 * records and the flat PC index a ReplayEngine decodes records
 * through. CompiledProgram::contentHash() and ::pcIndex() compute each
 * lazily, once per program, and every engine, capture and server
 * registration over that program shares the one copy — building a
 * ReplayEngine is O(1).
 */

#include <cstdint>
#include <utility>
#include <vector>

#include "ir/ir.h"

namespace ipds {

/**
 * Content hash of a module: function names, signatures and every
 * instruction field (including assigned PCs) plus object geometry,
 * FNV-1a over a fixed byte serialization. Two modules with equal
 * hashes decode a trace's PCs to the same instructions; a trace
 * recorded from a different program (or the same source recompiled
 * after an edit) is rejected as foreign. The value is part of the
 * trace format and the Hello2 wire frame: it must never change.
 */
uint64_t moduleContentHash(const Module &mod);

/**
 * The flat PC index a ReplayEngine decodes records through: every
 * instruction by its address, plus each function's PC span.
 */
struct PcIndex
{
    uint64_t basePc = 0; ///< lowest instruction PC
    /**
     * (pc - basePc) / 4 -> instruction, null for the padding between
     * functions; empty for a module with no instructions.
     */
    std::vector<const Inst *> slots;
    /**
     * Per FuncId, the lowest and highest PC of its instructions.
     * Module::assignAddresses lays functions out one after another,
     * so the spans are disjoint and an indexed PC lies in exactly
     * one — the function that owns it.
     */
    std::vector<std::pair<uint64_t, uint64_t>> funcSpans;

    /** Does indexed instruction @p pc belong to function @p f? */
    bool inFunction(FuncId f, uint64_t pc) const
    {
        return pc >= funcSpans[f].first && pc <= funcSpans[f].second;
    }
};

/**
 * Index @p mod (one walk over every instruction). The index points
 * into @p mod, which must outlive it and not change.
 */
PcIndex buildPcIndex(const Module &mod);

} // namespace ipds

#endif // IPDS_CORE_IDENTITY_H
