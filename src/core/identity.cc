#include "core/identity.h"

#include <algorithm>

namespace ipds {

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

struct Fnv
{
    uint64_t h = kFnvOffset;

    void byte(uint8_t b)
    {
        h ^= b;
        h *= kFnvPrime;
    }

    void u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<uint8_t>(v >> (8 * i)));
    }

    void str(const std::string &s)
    {
        u64(s.size());
        for (char c : s)
            byte(static_cast<uint8_t>(c));
    }
};

} // namespace

uint64_t
moduleContentHash(const Module &mod)
{
    Fnv f;
    f.u64(mod.functions.size());
    f.u64(mod.objects.size());
    f.u64(mod.entry);
    for (const MemObject &o : mod.objects) {
        f.str(o.name);
        f.byte(static_cast<uint8_t>(o.kind));
        f.u64(o.owner);
        f.u64(o.size);
        f.byte(o.isArray ? 1 : 0);
        f.byte(static_cast<uint8_t>(o.elem));
        f.u64(o.init.size());
        for (uint8_t b : o.init)
            f.byte(b);
    }
    for (const Function &fn : mod.functions) {
        f.str(fn.name);
        f.u64(fn.numParams);
        f.byte(fn.returnsValue ? 1 : 0);
        f.u64(fn.blocks.size());
        f.u64(fn.entryPc);
        for (const BasicBlock &bb : fn.blocks) {
            f.u64(bb.insts.size());
            for (const Inst &in : bb.insts) {
                f.byte(static_cast<uint8_t>(in.op));
                f.byte(static_cast<uint8_t>(in.size));
                f.byte(static_cast<uint8_t>(in.bin));
                f.byte(static_cast<uint8_t>(in.pred));
                f.byte(static_cast<uint8_t>(in.builtin));
                f.u64(in.dst);
                f.u64(in.srcA);
                f.u64(in.srcB);
                f.u64(static_cast<uint64_t>(in.imm));
                f.u64(in.object);
                f.u64(in.callee);
                f.u64(in.target);
                f.u64(in.fallthrough);
                f.u64(in.args.size());
                for (Vreg a : in.args)
                    f.u64(a);
                f.u64(in.pc);
            }
        }
    }
    return f.h;
}

PcIndex
buildPcIndex(const Module &mod)
{
    PcIndex idx;
    uint64_t lo = ~0ull;
    uint64_t hi = 0;
    idx.funcSpans.assign(mod.functions.size(), {~0ull, 0});
    for (size_t f = 0; f < mod.functions.size(); f++) {
        auto &span = idx.funcSpans[f];
        for (const BasicBlock &bb : mod.functions[f].blocks)
            for (const Inst &in : bb.insts) {
                span.first = std::min(span.first, in.pc);
                span.second = std::max(span.second, in.pc);
            }
        lo = std::min(lo, span.first);
        hi = std::max(hi, span.second);
    }
    if (lo > hi)
        return idx;
    idx.basePc = lo;
    idx.slots.assign((hi - lo) / 4 + 1, nullptr);
    for (const Function &fn : mod.functions)
        for (const BasicBlock &bb : fn.blocks)
            for (const Inst &in : bb.insts)
                idx.slots[(in.pc - lo) / 4] = &in;
    return idx;
}

} // namespace ipds
