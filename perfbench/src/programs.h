#ifndef PERFBENCH_PROGRAMS_H
#define PERFBENCH_PROGRAMS_H

/**
 * @file
 * The seeded program set every workload draws from: the ten paper
 * workloads plus a contiguous range of gen::generate programs whose
 * start the seed picks, and the per-program facts the runtime
 * workloads share (benign reference run, fuel cap, attack tampers).
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/program.h"
#include "gen/gen.h"
#include "ipds/detector.h"
#include "obs/session.h"
#include "vm/vm.h"

#include "bench.h"

namespace pb {

/** One program's source and benign session script. */
struct ProgramSource
{
    std::string name;
    std::string source;
    std::vector<std::string> inputs;
    /** Set for generated programs: their typed attack recipes. */
    std::shared_ptr<const ipds::gen::GeneratedProgram> gen;
};

/**
 * The program set of @p seed, paper workloads first, then
 * @p generated programs gen::generate makes from a range of seeds
 * that @p seed picks.
 */
std::vector<ProgramSource> programSet(uint64_t seed, size_t generated);

/** One compiled program plus what the runtime workloads need. */
struct Target
{
    const ProgramSource *src = nullptr;
    ipds::CompiledProgram prog;
    uint64_t moduleHash = 0;
    uint64_t benignSteps = 0;
    uint32_t inputEvents = 0;
    /** Instruction budget per session: ample for benign runs, and a
     *  cap on an attack that sends the program into a loop. */
    uint64_t fuel = 0;
};

/** Compile @p src and run its benign script once. */
std::unique_ptr<Target> prepare(const ProgramSource &src);

/** Fewest instructions a benign session of @p progs executes. */
uint64_t shortestSession(const std::vector<std::unique_ptr<Target>> &progs);

/**
 * The session count of a run @p units sessions long, counted in
 * sessions of the shortest program (@p shortest instructions), for a
 * run of @p p under @p tampers: longer sessions — a larger program,
 * or an attack that sends the program round its loop until the fuel
 * cap — get proportionally fewer, so the work of an operation does
 * not depend on which program or attack the seed gave it.
 */
uint32_t scaledSessions(uint32_t units, uint64_t shortest, const Target &p,
                        const std::vector<ipds::TamperSpec> &tampers);

/**
 * A seeded single attack on @p p: one gen recipe for generated
 * programs, one 8-byte write to a scalar local of the entry function
 * at a benign input event for the paper workloads.
 */
std::vector<ipds::TamperSpec> attackFor(const Target &p, Rng &rng);

/**
 * Run @p sessions sessions of @p p under @p tampers, captured through
 * a CapturePlan into the file at @p path.
 */
ipds::Session captureRun(const Target &p, uint32_t sessions,
                         const std::vector<ipds::TamperSpec> &tampers,
                         const std::string &path);

/** Digest of a run's detection result: alarms + DetectorStats. */
uint64_t detectionDigest(const std::vector<ipds::Alarm> &alarms,
                         const ipds::DetectorStats &st);

/**
 * An anonymous in-memory file (memfd) addressed by a path, so plans
 * that take a file path capture to and replay from memory: no timed
 * phase writes the disk.
 */
class MemFile
{
  public:
    explicit MemFile(const std::string &name);
    ~MemFile();
    MemFile(const MemFile &) = delete;
    MemFile &operator=(const MemFile &) = delete;

    const std::string &path() const { return path_; }
    /** The file's current contents. */
    std::vector<uint8_t> bytes() const;

  private:
    int fd = -1;
    std::string path_;
};

} // namespace pb

#endif // PERFBENCH_PROGRAMS_H
