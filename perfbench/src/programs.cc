#include "programs.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>

#include "replay/format.h"
#include "support/diag.h"
#include "workloads/workloads.h"

namespace pb {

std::vector<uint32_t>
spread(size_t n, uint32_t lo, uint32_t hi)
{
    std::vector<uint32_t> out(n);
    for (size_t i = 0; i < n; i++)
        out[i] = n == 1 ? hi
                        : lo + static_cast<uint32_t>(
                                   std::llround(double(hi - lo) * i /
                                                double(n - 1)));
    return out;
}

std::vector<uint32_t>
spreadLog(size_t n, uint32_t lo, uint32_t hi)
{
    std::vector<uint32_t> out(n);
    for (size_t i = 0; i < n; i++)
        out[i] = n == 1 ? hi
                        : static_cast<uint32_t>(std::llround(
                              lo * std::pow(double(hi) / lo,
                                            double(i) / double(n - 1))));
    return out;
}

std::vector<ProgramSource>
programSet(uint64_t seed, size_t generated)
{
    std::vector<ProgramSource> out;
    const std::vector<ipds::Workload> &paper = ipds::allWorkloads();
    for (size_t i = 0; i < 10 && i < paper.size(); i++)
        out.push_back({paper[i].name, paper[i].source,
                       paper[i].benignInputs, nullptr});
    const uint64_t first = 1 + streamFor(seed, 1).below(1u << 30);
    for (uint64_t g = 0; g < generated; g++) {
        auto gp = std::make_shared<ipds::gen::GeneratedProgram>(
            ipds::gen::generate(first + g));
        out.push_back({gp->workload.name, gp->workload.source,
                       gp->workload.benignInputs, gp});
    }
    return out;
}

std::unique_ptr<Target>
prepare(const ProgramSource &src)
{
    auto p = std::make_unique<Target>();
    p->src = &src;
    p->prog = src.gen ? ipds::gen::compileGenerated(*src.gen)
                      : ipds::compileAndAnalyze(src.source, src.name);
    p->moduleHash = ipds::replay::moduleContentHash(p->prog.mod);
    ipds::Session s = ipds::Session::builder()
                          .program(p->prog)
                          .inputs(src.inputs)
                          .build();
    s.run();
    if (s.result().exit == ipds::ExitKind::OutOfFuel ||
        s.result().exit == ipds::ExitKind::Trapped)
        ipds::fatal("%s: benign script does not run to its end",
                    src.name.c_str());
    p->benignSteps = s.result().steps;
    p->inputEvents = s.result().inputEventCount;
    p->fuel = std::max<uint64_t>(8 * p->benignSteps, 100000);
    return p;
}

uint64_t
shortestSession(const std::vector<std::unique_ptr<Target>> &progs)
{
    uint64_t m = ~0ULL;
    for (const auto &p : progs)
        m = std::min(m, p->benignSteps);
    return m;
}

uint32_t
scaledSessions(uint32_t units, uint64_t shortest, const Target &p,
               const std::vector<ipds::TamperSpec> &tampers)
{
    uint64_t steps = p.benignSteps;
    if (!tampers.empty()) {
        ipds::Vm vm(p.prog.mod);
        vm.setInputs(p.src->inputs);
        vm.setFuel(p.fuel);
        vm.setRecordTrace(false);
        for (const ipds::TamperSpec &t : tampers)
            vm.addTamper(t);
        steps = vm.run().steps;
    }
    const double s = double(units) * double(shortest) /
        double(std::max<uint64_t>(1, steps));
    return std::max<uint32_t>(1, static_cast<uint32_t>(std::llround(s)));
}

std::vector<ipds::TamperSpec>
attackFor(const Target &p, Rng &rng)
{
    ipds::Vm layout(p.prog.mod); // the entry frame layout is fixed
    if (p.src->gen) {
        const auto &recipes = p.src->gen->recipes;
        return ipds::gen::recipeSpecs(
            layout, recipes[rng.below(recipes.size())]);
    }
    const ipds::Module &mod = p.prog.mod;
    const ipds::Function &entry = mod.functions[mod.entry];
    const std::string prefix = entry.name + ".";
    std::vector<std::string> scalars;
    for (ipds::ObjectId id : entry.locals) {
        const ipds::MemObject &o = mod.objects[id];
        if (!o.isArray && o.size == 8 &&
            o.name.compare(0, prefix.size(), prefix) == 0)
            scalars.push_back(o.name.substr(prefix.size()));
    }
    if (scalars.empty())
        ipds::fatal("%s: entry function has no scalar local",
                    p.src->name.c_str());
    ipds::TamperSpec t;
    t.randomStackTarget = false;
    t.addr = layout.entryLocalAddr(scalars[rng.below(scalars.size())]);
    if (p.inputEvents > 0)
        t.afterInputEvent =
            1 + static_cast<uint32_t>(rng.below(p.inputEvents));
    else
        t.atStep = 1 + rng.below(p.benignSteps);
    // Half flag-like small values, half arbitrary words.
    const uint64_t v = rng.below(2) ? rng.below(4) : rng.next();
    t.bytes.resize(8);
    std::memcpy(t.bytes.data(), &v, 8);
    return {t};
}

ipds::Session
captureRun(const Target &p, uint32_t sessions,
           const std::vector<ipds::TamperSpec> &tampers,
           const std::string &path)
{
    ipds::ExecPlan ep;
    for (const ipds::TamperSpec &t : tampers)
        ep.addTamper(t);
    ipds::Session s = ipds::Session::builder()
                          .program(p.prog)
                          .inputs(p.src->inputs)
                          .sessions(sessions)
                          .fuel(p.fuel)
                          .plan(ipds::CapturePlan(path).exec(std::move(ep)))
                          .build();
    s.run();
    return s;
}

uint64_t
detectionDigest(const std::vector<ipds::Alarm> &alarms,
                const ipds::DetectorStats &st)
{
    Digest d;
    d.add(alarms.size());
    for (const ipds::Alarm &a : alarms)
        d.add(a.func)
            .add(a.pc)
            .add(a.actualTaken)
            .add(static_cast<uint64_t>(a.expected))
            .add(a.branchIndex);
    d.add(st.branchesSeen)
        .add(st.checksEnqueued)
        .add(st.updatesApplied)
        .add(st.actionsApplied)
        .add(st.framesPushed)
        .add(st.maxStackDepth);
    return d.h;
}

MemFile::MemFile(const std::string &name)
{
    fd = memfd_create(name.c_str(), 0);
    if (fd < 0)
        ipds::fatal("memfd_create(%s): %s", name.c_str(),
                    std::strerror(errno));
    path_ = "/proc/self/fd/" + std::to_string(fd);
}

MemFile::~MemFile()
{
    if (fd >= 0)
        ::close(fd);
}

std::vector<uint8_t>
MemFile::bytes() const
{
    std::ifstream in(path_, std::ios::binary);
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>());
}

} // namespace pb
