/**
 * @file
 * Timeline example on the scenario engine: sample cosmic-ray burst events
 * over a memory run, let the chosen strategy reshape the patch epoch by
 * epoch (the runtime loop of paper fig. 5), and *measure* the logical
 * error of every epoch with Monte-Carlo frame sampling — not just the
 * structural distances the old window-loop demo printed.
 *
 * Usage: example_cosmic_ray_timeline [d] [rounds] [threads] [seed]
 *                                    [deadline_ns] [persist_dir]
 *                                    [--fab_q_rate=R] [--fab_c_rate=R]
 *                                    [--fab_seed=S]
 * (defaults: d=7, rounds=240, threads=hardware, seed=20240610,
 *  deadline_ns=0 i.e. no per-shot decode budget, persistence off,
 *  fabrication rates 0 i.e. a pristine chip)
 *
 * Passing a deadline_ns arms the staged fallback ladder (sparse-blossom
 * -> memoized rows -> union-find) and prints the degradation ledger at
 * the end; setting SURF_FAULT_PLAN (e.g. "seed=3;stall.p=0.3") injects
 * deterministic decoder stalls to force it. Passing a persist_dir (or
 * setting SURF_PERSIST_DIR) snapshots the deformed-code cache there, so
 * a second invocation warm-starts its decoders from disk. The --fab_*
 * flags break the chip before the run starts: defective qubits/couplers
 * are sampled at the given rates, the strategy adapts the patch around
 * them (bandage super-stabilizers), and every cosmic-ray deformation
 * then stacks on top of the broken-chip baseline.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "scenario/scenario_experiment.hh"
#include "util/status.hh"
#include "util/thread_pool.hh"

using namespace surf;

int
main(int argc, char **argv)
{
    ScenarioConfig cfg;

    // Pull the --fab_* flags out first; the rest stays positional.
    auto fabFlag = [](const char *arg, const char *name,
                      double &out) -> bool {
        const size_t n = std::strlen(name);
        if (std::strncmp(arg, name, n) != 0 || arg[n] != '=')
            return false;
        out = std::atof(arg + n + 1);
        return true;
    };
    int keep = 1;
    double fab_seed = 0.0;
    for (int i = 1; i < argc; ++i) {
        if (fabFlag(argv[i], "--fab_q_rate", cfg.fabDefects.qubitRate) ||
            fabFlag(argv[i], "--fab_c_rate", cfg.fabDefects.couplerRate))
            continue;
        if (fabFlag(argv[i], "--fab_seed", fab_seed)) {
            cfg.fabDefects.seed = static_cast<uint64_t>(fab_seed);
            continue;
        }
        argv[keep++] = argv[i];
    }
    argc = keep;

    cfg.timeline.strategy = Strategy::SurfDeformer;
    cfg.timeline.d = argc > 1 ? std::atoi(argv[1]) : 7;
    cfg.timeline.deltaD = 2;
    cfg.timeline.horizonRounds =
        argc > 2 ? static_cast<uint64_t>(std::atoll(argv[2])) : 240;
    cfg.timeline.windowRounds = 20;
    // Scale the cosmic-ray model to a simulable horizon: bursts persist
    // for ~2 windows instead of 25k cycles, and the event rate is cranked
    // so a short demo run sees a few strikes.
    cfg.defectModel.durationSec = 40e-6;
    cfg.defectModel.regionDiameter = 2;
    cfg.eventRateScale = 20000.0;
    cfg.numTimelines = 1;
    cfg.noise.p = 2e-3;
    cfg.maxShotsPerTimeline = 4096;
    cfg.batchShots = 2048;
    cfg.threads = argc > 3
                      ? static_cast<size_t>(std::max(0, std::atoi(argv[3])))
                      : 0;
    cfg.seed = argc > 4 ? static_cast<uint64_t>(std::atoll(argv[4]))
                        : 20240610;
    cfg.decodeDeadlineNs =
        argc > 5 ? static_cast<uint64_t>(std::atoll(argv[5])) : 0;
    if (argc > 6)
        cfg.persistDir = argv[6];

    const size_t threads =
        cfg.threads ? cfg.threads : ThreadPool::hardwareThreads();
    std::printf("Surf-Deformer scenario: d=%d memory-Z for %lu rounds, "
                "deformation window %lu rounds, p=%.0e, %lu shots, "
                "%zu decode thread%s\n\n",
                cfg.timeline.d,
                static_cast<unsigned long>(cfg.timeline.horizonRounds),
                static_cast<unsigned long>(cfg.timeline.windowRounds),
                cfg.noise.p,
                static_cast<unsigned long>(cfg.maxShotsPerTimeline), threads,
                threads == 1 ? "" : "s");

    // The checked entry returns a Status for malformed configs or defect
    // streams instead of killing the process, and picks up SURF_FAULT_PLAN
    // from the environment when cfg.faults is empty.
    const StatusOr<ScenarioResult> run = runScenarioExperimentChecked(cfg);
    if (!run.ok()) {
        std::fprintf(stderr, "scenario failed: %s\n",
                     run.status().str().c_str());
        return 1;
    }
    const ScenarioResult &res = *run;
    if (cfg.fabDefects.enabled()) {
        std::printf("fabrication: %lu defective qubit%s + %lu defective "
                    "coupler%s (q rate %g, c rate %g, seed %lu)\n",
                    static_cast<unsigned long>(res.fabDefectiveQubits),
                    res.fabDefectiveQubits == 1 ? "" : "s",
                    static_cast<unsigned long>(res.fabDefectiveCouplers),
                    res.fabDefectiveCouplers == 1 ? "" : "s",
                    cfg.fabDefects.qubitRate, cfg.fabDefects.couplerRate,
                    static_cast<unsigned long>(cfg.fabDefects.seed));
        if (res.fabDefectiveQubits || res.fabDefectiveCouplers) {
            if (res.fabChipAlive)
                std::printf("  adapted chip: %lu data qubit%s disabled, "
                            "%lu super-stabilizer cluster%s, distance "
                            "%zu/%zu\n\n",
                            static_cast<unsigned long>(res.fabDisabledData),
                            res.fabDisabledData == 1 ? "" : "s",
                            static_cast<unsigned long>(res.fabSuperClusters),
                            res.fabSuperClusters == 1 ? "" : "s",
                            res.fabDistX, res.fabDistZ);
            else
                std::printf("  chip is DEAD after adaptation (distance "
                            "collapsed): a yield loss, every shot counts "
                            "as a logical failure\n\n");
        } else {
            std::printf("  chip came out pristine at these rates\n\n");
        }
    }
    for (const auto &tl : res.timelines) {
        std::printf("timeline: %zu burst event%s -> %zu epoch%s\n",
                    tl.events, tl.events == 1 ? "" : "s", tl.epochs.size(),
                    tl.epochs.size() == 1 ? "" : "s");
        for (const auto &ep : tl.epochs)
            std::printf("  rounds %5lu..%-5lu  %2zu defective sites -> "
                        "distance %zu/%zu  p_epoch = %.3e  (%lu/%lu shots)"
                        "%s\n",
                        static_cast<unsigned long>(ep.startRound),
                        static_cast<unsigned long>(ep.startRound + ep.rounds),
                        ep.activeDefects, ep.distX, ep.distZ, ep.pEpoch(),
                        static_cast<unsigned long>(ep.mismatches),
                        static_cast<unsigned long>(ep.shots),
                        ep.activeDefects ? "  <- deformed" : "");
    }

    std::printf("\nend to end: p_shot = %.3e (+/- %.1e), p_round = %.3e "
                "over %lu rounds\n",
                res.pShot, res.se, res.pRound,
                static_cast<unsigned long>(res.horizonRounds));
    std::printf("segment cache: %lu hits / %lu lookups (%.0f%%) across "
                "%lu epochs\n",
                static_cast<unsigned long>(res.cacheHits),
                static_cast<unsigned long>(res.cacheHits + res.cacheMisses),
                100.0 * res.cacheHits /
                    std::max<uint64_t>(1, res.cacheHits + res.cacheMisses),
                static_cast<unsigned long>(res.totalEpochs));
    if (!res.ledger.empty())
        std::printf("\ndegradation ledger:\n%s", res.ledger.summary().c_str());
    if (!cfg.persistDir.empty())
        std::printf("\npersistence: restored %lu segments in %.1f ms; "
                    "snapshot %.1f KiB in %s\n",
                    static_cast<unsigned long>(res.persistRestoredSegments),
                    1e3 * res.persistRestoreSeconds,
                    res.persistSnapshotBytes / 1024.0,
                    cfg.persistDir.c_str());
    std::printf("\nThe patch returns to its pristine footprint whenever no "
                "event is active; every recurrence of a deformed shape "
                "reuses the cached decoder.\n");
    return 0;
}
