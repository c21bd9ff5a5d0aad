/**
 * @file
 * Workload generation and the untraced round: every phase runs through
 * the library's public entry points (runMemoryExperiment and
 * runScenarioExperimentChecked with a long-lived DeformedCodeCache and a
 * persistence directory) and nothing else.
 */

#include <cmath>
#include <filesystem>
#include <map>
#include <set>

#include "bench.hh"
#include "lattice/rotated.hh"

using namespace surf;

namespace perfbench {

uint64_t
mixSeed(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

namespace {

/** The cosmic-ray model of bench_scenario_timeline's workload(): horizon
 *  160, window 20, max epoch 20, burst diameter 2, p = 2e-3. */
ScenarioConfig
cosmicModel(Strategy strategy, int d, int timelines, uint64_t shots,
            size_t threads)
{
    ScenarioConfig cfg;
    cfg.timeline.strategy = strategy;
    cfg.timeline.d = d;
    cfg.timeline.deltaD = 2;
    cfg.timeline.horizonRounds = 160;
    cfg.timeline.windowRounds = 20;
    cfg.timeline.maxEpochRounds = 20;
    cfg.defectModel.durationSec = 40e-6;
    cfg.defectModel.regionDiameter = 2;
    cfg.eventRateScale = 20000.0;
    cfg.noise.p = 2e-3;
    cfg.numTimelines = timelines;
    cfg.maxShotsPerTimeline = shots;
    cfg.batchShots = static_cast<size_t>(shots);
    cfg.threads = threads;
    return cfg;
}

/** Distinct library seeds per role, all derived from the workload seed. */
constexpr uint64_t kSaltBlockA = 1;
constexpr uint64_t kSaltBlockB = 2;
constexpr uint64_t kSaltMemorySetup = 10;
constexpr uint64_t kSaltMemoryCall = 11;

Counts
countsOf(const ScenarioResult &r)
{
    return {r.shots, r.failures, r.totalEpochs, r.deadTimelines};
}

Phase
memoryPhase(const CodePatch &patch,
            const std::vector<MemoryExperimentConfig> &calls)
{
    Phase ph;
    const auto t0 = Clock::now();
    for (const MemoryExperimentConfig &cfg : calls) {
        const MemoryExperimentResult r = runMemoryExperiment(patch, cfg);
        ph.counts.shots += r.shots;
        ph.counts.failures += r.failures;
        ph.counts.epochs += 1; // a memory experiment is a one-epoch timeline
    }
    ph.seconds = secondsSince(t0);
    return ph;
}

Phase
scenarioPhase(const ScenarioConfig &cfg)
{
    Phase ph;
    const auto t0 = Clock::now();
    StatusOr<ScenarioResult> r = runScenarioExperimentChecked(cfg);
    ph.seconds = secondsSince(t0);
    if (!r.ok()) {
        ph.error = r.status().str();
        return ph;
    }
    ph.counts = countsOf(*r);
    ph.cacheHits = r->cacheHits;
    ph.cacheMisses = r->cacheMisses;
    ph.restoredSegments = r->persistRestoredSegments;
    ph.restoredRows = r->persistRestoredRows;
    ph.snapshotBytes = r->persistSnapshotBytes;
    return ph;
}

/** What a block's cost follows: its cosmic-ray events and, once
 *  planned, its residual defect load (defective sites left inside the
 *  code x rounds; burst syndromes to decode) and its segment shapes
 *  (deformed codes to build). */
struct BlockShape
{
    size_t events = 0;
    size_t active = 0; ///< timelines with at least one event
    double residualLoad = 0.0;
    std::map<std::string, double> shapes; ///< shape -> qubits x rounds
};

/** The block's timelines as the engine samples them (timeline t seeds its
 *  sampler with mixSeed(cfg.seed, 0xdefec7 + t)); planned only when
 *  `memo` is given. */
BlockShape
blockShape(const ScenarioConfig &cfg, StrategyMemo *memo)
{
    DefectModelParams model = cfg.defectModel;
    model.eventRatePerQubitSec *= cfg.eventRateScale;
    const CodePatch base = squarePatch(cfg.timeline.d);
    BlockShape out;
    for (int t = 0; t < cfg.numTimelines; ++t) {
        DefectSampler sampler(model, mixSeed(cfg.seed, 0xdefec7 + t));
        const std::vector<DefectEvent> events =
            sampler.sampleEvents(base, cfg.timeline.horizonRounds);
        out.events += events.size();
        out.active += !events.empty();
        if (!memo)
            continue;
        const ScenarioPlan plan = planEpochs(cfg.timeline, events, memo);
        std::string prev = "-";
        for (size_t e = 0; e < plan.epochs.size(); ++e) {
            const Epoch &ep = plan.epochs[e];
            out.residualLoad +=
                static_cast<double>(ep.residualDefects.size() * ep.rounds);
            out.shapes[prev + "|" + ep.structSig + "|" +
                       std::to_string(ep.startRound & 1) +
                       (e == 0 ? "F" : "") +
                       (e + 1 == plan.epochs.size() ? "L" : "") + "|" +
                       std::to_string(ep.activeSites.size())] =
                static_cast<double>(ep.deformed.patch.numPhysicalQubits() *
                                    ep.rounds);
            prev = ep.structSig;
        }
    }
    return out;
}

/** Stratum a block's timelines must fall in; zero fields are free. */
struct Stratum
{
    size_t events = 0;         ///< exactly this many events
    size_t active = 0;         ///< exactly this many timelines with events
    double residualLoad = 0.0; ///< within 3%
    double volume = 0.0;       ///< new shapes' qubits x rounds, within 2%
};

/**
 * Stratified block: the first seed derived from (seed, salt) whose
 * timelines fall in `want`. A block's cost follows its event count, its
 * residual defect load and the deformed shapes new to the cache; pinning
 * them at their typical values leaves the spread between workload seeds
 * to the shapes themselves. `seen` holds the shapes of the round's
 * earlier blocks and receives this block's.
 */
BlockInfo
stratifiedBlock(ScenarioConfig cfg, uint64_t seed, uint64_t salt,
                const Stratum &want, std::set<std::string> &seen)
{
    StrategyMemo memo;
    for (uint64_t k = 0;; ++k) {
        cfg.seed = mixSeed(seed, salt + (k << 8));
        const BlockShape sampled = blockShape(cfg, nullptr);
        if ((want.events && sampled.events != want.events) ||
            (want.active && sampled.active != want.active))
            continue;
        const BlockShape plan = blockShape(cfg, &memo);
        BlockInfo info;
        info.seed = cfg.seed;
        info.events = plan.events;
        info.active = plan.active;
        info.residualLoad = plan.residualLoad;
        for (const auto &[shape, volume] : plan.shapes)
            if (!seen.count(shape)) {
                ++info.newShapes;
                info.newVolume += volume;
            }
        if ((want.residualLoad > 0 &&
             std::abs(info.residualLoad - want.residualLoad) >
                 0.03 * want.residualLoad) ||
            (want.volume > 0 &&
             std::abs(info.newVolume - want.volume) > 0.02 * want.volume))
            continue;
        for (const auto &[shape, volume] : plan.shapes)
            seen.insert(shape);
        return info;
    }
}

} // namespace

bool
makeWorkload(const std::string &name, uint64_t seed, bool smoke,
             size_t threads, Workload &out)
{
    out = Workload{};
    out.name = name;
    if (name == "memory_d9") {
        out.kind = Kind::Memory;
        const int d = smoke ? 5 : 9;
        out.patch = squarePatch(d);
        MemoryExperimentConfig cfg;
        cfg.spec.rounds = d;
        cfg.noise.p = 3e-3;
        cfg.maxShots = smoke ? 2048 : 16384;
        cfg.targetFailures = UINT64_MAX; // fixed budget: no early stop
        cfg.threads = threads;
        out.memorySetup = cfg;
        out.memorySetup.maxShots = 1;
        out.memorySetup.seed = mixSeed(seed, kSaltMemorySetup);
        const int calls = smoke ? 1 : 2;
        for (int i = 0; i < calls; ++i) {
            cfg.seed = mixSeed(seed, kSaltMemoryCall + i);
            out.memoryCalls.push_back(cfg);
        }
        return true;
    }
    // Strata are the typical values of each block at full size (medians
    // over 30 workload seeds); smoke runs leave blocks unstratified.
    const int d = smoke ? 5 : 7;
    std::set<std::string> seen;
    if (name == "cosmic_cold_d7" || name == "cosmic_restart_d7") {
        out.kind = name == "cosmic_cold_d7" ? Kind::CosmicCold
                                            : Kind::CosmicRestart;
        out.blockA = cosmicModel(Strategy::SurfDeformer, d, smoke ? 4 : 16,
                                 16, threads);
        out.blocks.push_back(stratifiedBlock(
            out.blockA, seed, kSaltBlockA,
            smoke ? Stratum{} : Stratum{19, 12, 0.0, 112900.0}, seen));
        out.blockA.seed = out.blocks.back().seed;
        out.blockB = out.blockA;
        if (out.kind == Kind::CosmicCold) {
            out.blocks.push_back(stratifiedBlock(
                out.blockB, seed, kSaltBlockB,
                smoke ? Stratum{} : Stratum{19, 12, 0.0, 104300.0}, seen));
            out.blockB.seed = out.blocks.back().seed;
        } else {
            out.timedPasses = 2;
        }
        return true;
    }
    if (name == "q3de_burst_d7") {
        out.kind = Kind::Q3deBurst;
        // Q3DE keeps the struck qubits inside the enlarged code at the
        // saturated rate noise.pDefect = 0.5: burst syndromes.
        out.blockA = cosmicModel(Strategy::Q3de, d, smoke ? 2 : 8,
                                 smoke ? 64 : 128, threads);
        out.blockA.noise.pDefect = 0.5;
        out.blocks.push_back(stratifiedBlock(
            out.blockA, seed, kSaltBlockA,
            smoke ? Stratum{} : Stratum{10, 6, 1480.0, 64400.0}, seen));
        out.blockA.seed = out.blocks.back().seed;
        out.blockB = out.blockA;
        out.timedPasses = 3;
        return true;
    }
    return false;
}

Round
runUntracedRound(const Workload &w, const std::string &scratchDir)
{
    Round round;
    if (w.kind == Kind::Memory) {
        round.setup = memoryPhase(w.patch, {w.memorySetup});
        round.timed.push_back(memoryPhase(w.patch, w.memoryCalls));
        return round;
    }
    DeformedCodeCache cache;
    ScenarioConfig a = w.blockA, b = w.blockB;
    if (w.kind == Kind::CosmicRestart) {
        // Set-up: the cold run writes cache.snap and per-timeline
        // checkpoints. Timed: a fresh in-memory cache (the engine's own)
        // restores the snapshot, reruns the block and rewrites it.
        std::filesystem::remove_all(scratchDir);
        a.persistDir = b.persistDir = scratchDir;
    } else {
        a.cache = b.cache = &cache;
    }
    round.setup = scenarioPhase(a);
    for (int i = 0; i < w.timedPasses && round.setup.error.empty(); ++i) {
        round.timed.push_back(scenarioPhase(b));
        if (!round.timed.back().error.empty())
            break;
    }
    if (w.kind == Kind::CosmicRestart)
        std::filesystem::remove_all(scratchDir);
    return round;
}

} // namespace perfbench
