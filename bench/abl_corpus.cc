/**
 * @file
 * Corpus ablation: throughput of the generator pipeline and the
 * corpus campaign, gated by the differential oracles.
 *
 * Three numbers per run:
 *
 *   gen_programs_per_sec    seed → (source + script + recipes),
 *                           generation alone;
 *   compile_programs_per_sec  generation + compileAndAnalyze — what
 *                           a corpus sweep actually pays per seed;
 *   campaign_events_per_sec detector branch events per second across
 *                           the full recipe campaign (golden + 9
 *                           recipes per program, all worker threads).
 *
 * Before timing, a subset of seeds runs through the differential
 * harness (gen::diffOne: switch vs threaded VM, fast vs reference
 * detector, capture vs replay) — the numbers are only reported over
 * demonstrably equivalent implementations ("differential":
 * "equivalent" in the JSON), the same discipline as abl_vm.
 *
 * Emits machine-readable JSON, default BENCH_corpus.json.
 *
 * Usage: abl_corpus [--quick] [--seed-range A:B] [--trials N]
 *                   [--threads N] [--json PATH]
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "gen/corpus.h"
#include "gen/gen.h"
#include "support/cli.h"
#include "support/diag.h"

using namespace ipds;

namespace {

double
seconds(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

bool
parseRange(const std::string &s, uint64_t *lo, uint64_t *hi)
{
    size_t colon = s.find(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= s.size())
        return false;
    char *endp = nullptr;
    *lo = std::strtoull(s.c_str(), &endp, 0);
    if (endp != s.c_str() + colon)
        return false;
    *hi = std::strtoull(s.c_str() + colon + 1, &endp, 0);
    return !*endp && *lo <= *hi;
}

} // namespace

int
main(int argc, char **argv)
{
    cli::ArgParser args("abl_corpus",
                        "corpus generation & campaign throughput");
    bool quick = false;
    std::string range;
    uint32_t trials = 5;
    unsigned threads = 0;
    std::string jsonPath = "BENCH_corpus.json";
    args.boolOpt("quick", &quick,
                 "small range + fewer trials (CI smoke)");
    args.strOpt("seed-range", &range,
                "inclusive seed range A:B (default 1:50; quick 1:10)");
    args.uintOpt("trials", &trials, "timing trials (fastest wins)");
    args.threadsOpt(&threads);
    args.jsonOpt(&jsonPath);
    if (!args.parse(argc, argv))
        return args.exitCode();

    uint64_t lo = 1, hi = quick ? 10 : 50;
    if (!range.empty() && !parseRange(range, &lo, &hi)) {
        std::fprintf(stderr, "abl_corpus: bad --seed-range '%s'\n",
                     range.c_str());
        return 1;
    }
    if (quick && trials > 2)
        trials = 2;
    const uint64_t n = hi - lo + 1;

    // -- differential gate -----------------------------------------------
    // A throughput number over divergent implementations would be
    // meaningless; check a subset of the range first.
    const uint64_t diffSeeds = quick ? 3 : 10;
    char tmpl[] = "/tmp/abl_corpus.XXXXXX";
    char *tmp = mkdtemp(tmpl);
    bool equivalent = true;
    std::string firstMismatch;
    for (uint64_t s = lo; s < lo + diffSeeds && s <= hi; s++) {
        gen::DiffResult dr = gen::diffOne(s, tmp ? tmp : "");
        if (!dr.ok) {
            equivalent = false;
            firstMismatch = dr.firstMismatch;
            break;
        }
    }
    if (tmp) {
        const std::string cleanup = std::string("rm -rf ") + tmp;
        if (std::system(cleanup.c_str()) != 0)
            warn("abl_corpus: could not remove %s", tmp);
    }
    if (!equivalent)
        std::fprintf(stderr, "abl_corpus: DIFFERENTIAL GATE FAILED: "
                             "%s\n",
                     firstMismatch.c_str());

    // -- generation throughput -------------------------------------------
    double genSecs = 1e9, compileSecs = 1e9;
    for (uint32_t t = 0; t < trials; t++) {
        auto t0 = std::chrono::steady_clock::now();
        uint64_t sink = 0;
        for (uint64_t s = lo; s <= hi; s++)
            sink ^= gen::fingerprint(gen::generate(s));
        genSecs = std::min(genSecs, seconds(t0));
        if (!sink)
            warn("abl_corpus: zero fingerprint xor (unexpected)");
    }
    for (uint32_t t = 0; t < trials; t++) {
        auto t0 = std::chrono::steady_clock::now();
        for (uint64_t s = lo; s <= hi; s++) {
            gen::GeneratedProgram gp = gen::generate(s);
            gen::compileGenerated(gp);
        }
        compileSecs = std::min(compileSecs, seconds(t0));
    }

    // -- campaign throughput ---------------------------------------------
    gen::CorpusCampaignConfig cfg;
    cfg.firstSeed = lo;
    cfg.lastSeed = hi;
    cfg.numThreads = threads;
    double campSecs = 1e9;
    gen::CorpusCampaignResult res;
    for (uint32_t t = 0; t < trials; t++) {
        auto t0 = std::chrono::steady_clock::now();
        res = gen::runCorpusCampaign(cfg);
        campSecs = std::min(campSecs, seconds(t0));
    }
    const double genPps = n / genSecs;
    const double compilePps = n / compileSecs;
    const double campEps = res.totalBranchesSeen() / campSecs;

    std::printf("abl_corpus: seeds %llu:%llu (%llu programs)\n",
                static_cast<unsigned long long>(lo),
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(n));
    std::printf("  differential gate:      %s\n",
                equivalent ? "equivalent" : "DIVERGED");
    std::printf("  generation:             %.0f programs/s\n",
                genPps);
    std::printf("  generation + compile:   %.0f programs/s\n",
                compilePps);
    std::printf("  campaign:               %.2e branch events/s "
                "(%u attacks, %u detected, fp=%u)\n",
                campEps, res.attacks(), res.numDetected(),
                res.numFalsePositives());

    std::string j = "{\n";
    j += strprintf("  \"first_seed\": %llu,\n",
                   static_cast<unsigned long long>(lo));
    j += strprintf("  \"last_seed\": %llu,\n",
                   static_cast<unsigned long long>(hi));
    j += strprintf("  \"differential\": \"%s\",\n",
                   equivalent ? "equivalent" : "diverged");
    j += strprintf("  \"gen_programs_per_sec\": %.1f,\n", genPps);
    j += strprintf("  \"compile_programs_per_sec\": %.1f,\n",
                   compilePps);
    j += strprintf("  \"campaign_events_per_sec\": %.1f,\n", campEps);
    j += strprintf("  \"campaign_attacks\": %u,\n", res.attacks());
    j += strprintf("  \"campaign_detected\": %u,\n",
                   res.numDetected());
    j += strprintf("  \"campaign_pct_detected_of_cf\": %.1f,\n",
                   res.pctDetectedOfCf());
    j += strprintf("  \"campaign_false_positives\": %u\n",
                   res.numFalsePositives());
    j += "}\n";
    std::FILE *f = std::fopen(jsonPath.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "abl_corpus: cannot write %s\n",
                     jsonPath.c_str());
        return 1;
    }
    std::fputs(j.c_str(), f);
    std::fclose(f);

    return (equivalent && !res.numFalsePositives()) ? 0 : 1;
}
