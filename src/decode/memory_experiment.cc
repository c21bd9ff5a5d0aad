#include "decode/memory_experiment.hh"

#include "scenario/patch_signature.hh"
#include "scenario/scenario_experiment.hh"
#include "util/stats.hh"

namespace surf {

MemoryExperimentResult
runMemoryExperiment(const CodePatch &patch, const MemoryExperimentConfig &cfg)
{
    // A memory experiment is the trivial scenario: one epoch holding one
    // frozen patch for the whole horizon. Running it through the scenario
    // engine keeps a single sampling/decoding pipeline in the repository;
    // the one-epoch path is bit-identical to the historical implementation
    // (same circuit, DEM, seed schedule, sharding and early stop).
    ScenarioConfig sc;
    sc.timeline.horizonRounds = static_cast<uint64_t>(cfg.spec.rounds);
    sc.basis = cfg.spec.basis;
    sc.noise = cfg.noise;
    sc.decoder = cfg.decoder;
    sc.mwpmDefectCap = cfg.mwpmDefectCap;
    sc.maxShotsPerTimeline = cfg.maxShots;
    sc.targetFailures = cfg.targetFailures;
    sc.batchShots = cfg.batchShots;
    sc.threads = cfg.threads;
    sc.decoderKnowsDefects = cfg.decoderKnowsDefects;
    sc.seed = cfg.seed;
    // Zero shots, failures, batch size or rounds would hang or trip an
    // invariant further down; reject them as the scenario engine does.
    if (Status s = validateScenarioConfig(sc); !s.ok())
        throw StatusError(s);

    ScenarioPlan plan;
    Epoch epoch;
    epoch.startRound = 0;
    epoch.rounds = static_cast<uint64_t>(cfg.spec.rounds);
    epoch.deformed.patch = patch;
    epoch.residualDefects = cfg.noise.defectiveSites;
    epoch.activeSites = cfg.noise.defectiveSites;
    epoch.structSig = patchSignature(patch);
    plan.epochs.push_back(std::move(epoch));

    DeformedCodeCache cache;
    const TimelineStats tl =
        runPlannedTimeline(plan, sc, cache, cfg.seed, 0);

    MemoryExperimentResult out;
    out.rounds = static_cast<size_t>(cfg.spec.rounds);
    out.shots = tl.shots;
    out.failures = tl.failures;
    out.numDetectors = tl.epochs[0].numDetectors;
    out.decomposedHyperedges = tl.epochs[0].decomposedHyperedges;
    out.undetectableObsProb = tl.epochs[0].undetectableObsProb;
    const auto est = estimateBinomial(out.failures, out.shots);
    out.pShot = est.p;
    out.se = est.stderr;
    out.pRound = perRoundRate(out.pShot, out.rounds);
    return out;
}

} // namespace surf
