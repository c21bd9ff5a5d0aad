#include "scenario/scenario_experiment.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <optional>
#include <string_view>

#include <unistd.h>

#include "lattice/rotated.hh"
#include "persist/cache_snapshot.hh"
#include "persist/checkpoint.hh"
#include "scenario/patch_signature.hh"
#include "sim/dem.hh"
#include "sim/frame.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "util/thread_pool.hh"

namespace surf {

namespace {

/** SplitMix64-style timeline seed derivation (deterministic, decorrelated
 *  from the per-batch sampling seeds). */
uint64_t
mixSeed(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** Per-timeline stride of the batch-seed sequence; timeline 0 starts at
 *  cfg.seed exactly so one-timeline scenarios share the memory pipeline's
 *  seed schedule. */
constexpr uint64_t kTimelineSeedStride = 0x51ed5eed9e3779b9ULL;

/** Soft budget armed when a fault plan injects decoder stalls but the
 *  config sets no explicit decodeDeadlineNs: 10 ms, a fifth of the
 *  default 50 ms injected stall, so stall plans force the ladder out of
 *  the box. */
constexpr uint64_t kDefaultStallDeadlineNs = 10'000'000;

/** Fault-salt tags keep the cache snapshot's and the checkpoint's
 *  snap.* corruption streams decorrelated. */
constexpr uint64_t kSnapSaltCache = 1;
constexpr uint64_t kSnapSaltCheckpoint = 2;

std::string
noiseSignature(const NoiseParams &noise)
{
    // Round-trippable float encoding: std::to_string's fixed six decimals
    // would collide distinct sub-1e-6 rates into one cache key.
    char buf[96];
    std::snprintf(buf, sizeof buf, "p%.17g,pd%.17g,pc%.17g,df:", noise.p,
                  noise.pDefect, noise.pCorrelated2q);
    return buf + coordSetSignature(noise.defectiveSites);
}

const char *
backendTag(MatchingBackend b)
{
    switch (b) {
      case MatchingBackend::Dense:
        return "dense";
      case MatchingBackend::SparseBlossom:
        return "sblossom";
      default:
        return "sparse";
    }
}

/** Canonical identity of one decode-ready segment (see the cache doc). */
std::string
segmentCacheKey(const std::string &prevSig, const std::string &curSig,
                const std::set<Coord> &removedUntrusted,
                const std::vector<Coord> &prevTracked,
                const std::vector<Coord> &curTracked,
                const SegmentSpec &spec, const NoiseParams &decoderNoise,
                const ScenarioConfig &cfg)
{
    std::string key = "cur:" + curSig + "\nprev:" + prevSig;
    key += "\nuntrusted:" + coordSetSignature(removedUntrusted);
    key += "\ntrack:" +
           coordSetSignature({prevTracked.begin(), prevTracked.end()}) +
           ">" + coordSetSignature({curTracked.begin(), curTracked.end()});
    key += "\nr" + std::to_string(spec.rounds);
    key += " s" + std::to_string(spec.startRound & 1);
    key += spec.first ? " F" : "";
    key += spec.last ? " L" : "";
    key += (spec.basis == PauliType::Z) ? " bZ" : " bX";
    key += "\nnoise:" + noiseSignature(decoderNoise);
    key += "\ndec:";
    key += backendTag(cfg.matching);
    key += " rb" + std::to_string(cfg.mwpmRowBudget);
    return key;
}

/**
 * Identity of a whole stitched timeline: the decode-relevant scenario
 * config plus every epoch's structural signature, defect sets and
 * placement. Everything the stitched circuit and its decode segments
 * depend on is a pure function of this key, which is what makes
 * timeline cache hits bit-identical to rebuilds.
 */
std::string
timelineCacheKey(const ScenarioPlan &plan, const ScenarioConfig &cfg)
{
    std::string key = "tl:";
    key += (cfg.basis == PauliType::Z) ? "bZ" : "bX";
    if (cfg.decoderKnowsDefects)
        key += " dk";
    key += " dec:";
    key += backendTag(cfg.matching);
    key += " rb" + std::to_string(cfg.mwpmRowBudget);
    key += "\nnoise:" + noiseSignature(cfg.noise);
    for (const Epoch &ep : plan.epochs) {
        key += "\n@" + std::to_string(ep.startRound) + "+" +
               std::to_string(ep.rounds);
        key += " act:" + coordSetSignature(ep.activeSites);
        key += " res:" + coordSetSignature(ep.residualDefects);
        key += "\n" + ep.structSig;
    }
    return key;
}

/** Deterministic all-loss timeline (dead chip, plan or seam). */
TimelineStats
deadTimeline(const ScenarioConfig &cfg, size_t events)
{
    TimelineStats tl;
    tl.events = events;
    tl.dead = true;
    tl.shots = cfg.maxShotsPerTimeline;
    tl.failures = cfg.maxShotsPerTimeline;
    return tl;
}

/** One decode worker's scratch and per-timeline tallies. */
struct Worker
{
    MwpmScratch mwpm;
    UfScratch uf;
    std::vector<uint32_t> ids; ///< one epoch's fired detectors
    DecodeDeadline deadline;
    DegradationLedger ledger;
    uint64_t failures = 0;
    std::vector<uint64_t> mism; ///< per epoch
};

/** What the stages of one run share. runPlannedTimeline uses the decode
 *  half (config through workers); the scenario driver fills the rest. */
struct RunContext
{
    RunContext(const ScenarioConfig &c, DeformedCodeCache *external)
        : cfg(c), cache(external ? *external : localCache),
          inject(c.faults), snapInject(inject.enabled() ? &inject : nullptr),
          pool(c.threads), workers(pool.size()), memos(pool.size())
    {
        // Stall plans arm a default budget on the virtual clock, so
        // every ladder choice (and recorded latency) is deterministic.
        const uint64_t deadline_ns =
            cfg.decodeDeadlineNs ? cfg.decodeDeadlineNs
            : cfg.faults.hasDecoderStalls() ? kDefaultStallDeadlineNs
                                            : 0;
        ladderOn = deadline_ns != 0 && cfg.decoder != DecoderKind::UnionFind;
        if (ladderOn)
            for (Worker &w : workers)
                w.deadline.configure(deadline_ns,
                                     inject.virtualClockNeeded());
    }

    const ScenarioConfig cfg; ///< environment-merged
    DeformedCodeCache localCache;
    DeformedCodeCache &cache; ///< the caller's cache, else localCache
    /** Decisions are pure hashes of (plan seed, site, salt, indices);
     *  the salt is the timeline's batch-seed base, so they differ per
     *  timeline yet match at any thread count. */
    const FaultInjector inject;
    const FaultInjector *snapInject; ///< snap.* corruption; null: no plan
    bool ladderOn = false;
    ThreadPool pool;
    std::vector<Worker> workers; ///< one per pool worker

    ScenarioResult out;
    std::string ckptPath; ///< set when persistence is on
    uint64_t configSig = 0;
    CodePatch base;
    /** One per pool worker: outcomes are pure functions of the defect
     *  set, so which worker plans a timeline never changes its plan. */
    std::vector<StrategyMemo> memos;
    FabDefectSample chip;                   ///< the run's base chip
    std::optional<FabAdaptation> chipAdapt; ///< set when chip non-empty
};

/** Stage validate: the environment fills an empty fault plan
 *  (SURF_FAULT_PLAN) and persist dir (SURF_PERSIST_DIR), so any entry
 *  point can be fault tested or persisted unchanged; then the merged
 *  config is checked. */
StatusOr<ScenarioConfig>
validate(const ScenarioConfig &userCfg)
{
    ScenarioConfig cfg = userCfg;
    if (!cfg.faults.enabled()) {
        StatusOr<FaultPlan> env = faultPlanFromEnv();
        if (!env.ok())
            return env.status();
        cfg.faults = *env;
    }
    const char *dir = std::getenv("SURF_PERSIST_DIR");
    if (cfg.persistDir.empty() && dir)
        cfg.persistDir = dir;
    if (Status s = validateScenarioConfig(cfg); !s.ok())
        return s;
    return cfg;
}

/** Stage account: the one result tally, for resumed and fresh timelines.
 *  `adapt` adds a fresh timeline's yield counters (resumed ones carry
 *  theirs in their ledger). */
void
account(RunContext &ctx, TimelineStats tl, const FabAdaptation *adapt)
{
    if (adapt && adapt->outcome.alive) {
        tl.ledger.fabAdaptedPatches += 1;
        tl.ledger.fabDistanceLoss += adapt->distanceLoss;
    } else if (adapt) {
        tl.ledger.fabDeadPatches += 1;
    }
    ScenarioResult &out = ctx.out;
    out.shots += tl.shots;
    out.failures += tl.failures;
    out.totalEpochs += tl.epochs.size();
    out.deadTimelines += tl.dead ? 1 : 0;
    out.ledger.merge(tl.ledger);
    out.timelines.push_back(std::move(tl));
}

/**
 * Stage restore: load the cache snapshot, then replay a checkpoint of
 * this config through account(). Every failure shape (missing file, torn
 * tail, flipped bit, version skew, semantic mismatch) degrades to a cold
 * start with a ledger count; restored state never changes results.
 */
void
restore(RunContext &ctx)
{
    const ScenarioConfig &cfg = ctx.cfg;
    ScenarioResult &out = ctx.out;
    if (cfg.persistDir.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(cfg.persistDir, ec);
    if (ec)
        throw StatusError(Status::invalidArgument(
            "persist dir: cannot create '" + cfg.persistDir +
            "': " + ec.message()));
    ctx.configSig = scenarioConfigSignature(cfg);
    char sig_hex[24];
    std::snprintf(sig_hex, sizeof sig_hex, "%016llx",
                  static_cast<unsigned long long>(ctx.configSig));
    ctx.ckptPath = cfg.persistDir + "/run-" + sig_hex + ".ckpt";

    const auto t0 = std::chrono::steady_clock::now();
    const std::string snap_path = cfg.persistDir + "/cache.snap";
    if (cfg.useCache && snapshotFileExists(snap_path)) {
        StatusOr<SnapshotRestoreStats> restored =
            loadCacheSnapshot(ctx.cache, snap_path);
        if (restored.ok()) {
            out.persistRestoredSegments = restored->segments;
            out.persistRestoredTimelines = restored->timelines;
            out.persistSnapshotBytes = restored->fileBytes;
            out.ledger.snapRestoredEntries +=
                restored->segments + restored->timelines;
            // A torn tail also drops its torn record.
            out.ledger.snapRejectedRecords +=
                restored->rejectedRecords + (restored->truncated ? 1 : 0);
        } else {
            ++out.ledger.snapRecoveries;
        }
    }
    if (snapshotFileExists(ctx.ckptPath)) {
        // A valid checkpoint of another config is stale, not a recovery.
        StatusOr<RunCheckpoint> ckpt = loadRunCheckpoint(ctx.ckptPath);
        if (!ckpt.ok()) {
            ++out.ledger.snapRecoveries;
        } else if (ckpt->configSignature == ctx.configSig) {
            for (TimelineStats &tl : ckpt->completed)
                account(ctx, std::move(tl), nullptr);
            out.resumedTimelines = out.timelines.size();
        }
    }
    out.persistRestoreSeconds = secondsSince(t0);
}

/** The strategy's adaptation of a chip sample (none for a pristine one). */
std::optional<FabAdaptation>
adaptChip(const ScenarioConfig &cfg, const FabDefectSample &sample)
{
    if (sample.empty())
        return std::nullopt;
    return std::move(adaptFabDefectsChecked(cfg.timeline.strategy,
                                            cfg.timeline.d,
                                            cfg.timeline.deltaD, sample)
                         .value());
}

/** Stage chip(t): the base chip plus the fault plan's fab defects for
 *  this timeline, adapted into `own`. Without fab injection every
 *  timeline shares the base chip's adaptation. Null on a pristine chip. */
const FabAdaptation *
chip(const RunContext &ctx, uint64_t salt, std::optional<FabAdaptation> &own)
{
    if (ctx.cfg.faults.fabQubitProb > 0.0 ||
        ctx.cfg.faults.fabCouplerProb > 0.0) {
        FabDefectSample sample = ctx.chip;
        ctx.inject.injectFabDefects(salt, ctx.base, sample);
        own = adaptChip(ctx.cfg, sample);
        return own ? &*own : nullptr;
    }
    return ctx.chipAdapt ? &*ctx.chipAdapt : nullptr;
}

/** Stage plan(t): sample timeline t's defect stream, apply the fault
 *  plan's stream faults, validate it and plan epochs around the chip's
 *  disabled sites. A dead chip's plan is not alive. */
ScenarioPlan
plan(const RunContext &ctx, int t, uint64_t salt, const FabAdaptation *adapt,
     StrategyMemo &memo)
{
    const ScenarioConfig &cfg = ctx.cfg;
    std::vector<DefectEvent> events;
    if (cfg.eventRateScale > 0.0) {
        DefectModelParams model = cfg.defectModel;
        model.eventRatePerQubitSec *= cfg.eventRateScale;
        DefectSampler sampler(model, mixSeed(cfg.seed, 0xdefec7 + t));
        events = sampler.sampleEvents(ctx.base, cfg.timeline.horizonRounds);
    }
    if (ctx.inject.enabled())
        ctx.inject.mutateStream(salt, events);
    // The sampler's own streams always pass; mutated ones may not.
    if (Status s = validateDefectStream(events, cfg); !s.ok())
        throw StatusError(s);
    if (adapt && !adapt->outcome.alive) {
        ScenarioPlan dead;
        dead.alive = false;
        dead.numEvents = events.size();
        return dead;
    }
    EpochPlannerConfig tcfg = cfg.timeline;
    if (adapt)
        tcfg.permanentSites.insert(adapt->disabledSites.begin(),
                                   adapt->disabledSites.end());
    return planEpochs(tcfg, events, &memo);
}

/** What one epoch's standalone decode segment is built from. */
struct SegmentInputs
{
    const CodePatch *patch = nullptr;
    const CodePatch *prevPatch = nullptr; ///< null for the first epoch
    SegmentSpec spec;                     ///< standalone: no oracle probes
    NoiseParams decoderNoise;
    SeamPlan seam;
};

/** A decode-ready segment: standalone circuit, DEM and both decoders. A
 *  pure function of its inputs, so pool workers may build in parallel. */
CachedSegment
buildSegment(const ScenarioConfig &cfg, const SegmentInputs &in)
{
    const uint8_t tag = (cfg.basis == PauliType::Z) ? 1 : 0;
    CachedSegment cs;
    cs.circuit = buildStandaloneSegment(*in.patch, in.spec, in.decoderNoise,
                                        in.seam, in.prevPatch);
    cs.dem = buildDem(cs.circuit, cfg.basis);
    cs.mwpm = std::make_unique<MwpmDecoder>(cs.dem, tag, nullptr,
                                            cfg.matching);
    if (cfg.mwpmRowBudget)
        cs.mwpm->setRowBudget(cfg.mwpmRowBudget);
    cs.uf = std::make_unique<UnionFindDecoder>(cs.dem, tag);
    return cs;
}

/**
 * Stitch a plan's sampling circuit and resolve its decode segments: a
 * pure function of (plan, decode-relevant config), the timeline key.
 * Three passes:
 *  - seam (sequential, each seam depends on the previous epoch): the
 *    stitched circuit plus every epoch's segment key and build inputs; a
 *    dead seam returns here, before anything is built or looked up;
 *  - build: on the run's pool, every key that is not resident and is
 *    the first of its kind in this timeline (so two epochs with one key
 *    build once); each task keeps its own seconds and exception;
 *  - resolve (epoch order): replay the epoch-build storms, raise the
 *    lowest epoch's build error, insert prebuilt segments with their
 *    measured cost, rebuild inline any key evicted since its build pass
 *    check, and check detector counts.
 * The cache sees the lookups, insertions and storms of a serial build in
 * the same order, so its counters match one. `cost` is the seam pass's
 * seconds (the timeline entry's own cost).
 */
CachedTimeline
stitch(RunContext &ctx, const ScenarioPlan &plan, DegradationLedger &ledger,
       double &cost)
{
    const auto t0 = std::chrono::steady_clock::now();
    const ScenarioConfig &cfg = ctx.cfg;
    CachedTimeline out;
    const size_t n_epochs = plan.epochs.size();
    std::map<Coord, uint32_t> qubit_id;
    SeamState carry;
    const CodePatch *prev_patch = nullptr;
    const std::string *prev_sig = nullptr;
    std::vector<Coord> tracked; ///< representative carried across seams
    std::vector<SegmentInputs> inputs(n_epochs);
    out.epochs.resize(n_epochs);

    for (size_t e = 0; e < n_epochs; ++e) {
        const Epoch &ep = plan.epochs[e];
        SegmentInputs &in = inputs[e];
        in.patch = &ep.deformed.patch;
        in.prevPatch = prev_patch;
        SegmentSpec spec;
        spec.basis = cfg.basis;
        spec.rounds = static_cast<int>(ep.rounds);
        spec.startRound = ep.startRound;
        spec.first = (e == 0);
        spec.last = (e + 1 == n_epochs);
        spec.epochProbes = true; ///< opening/closing oracle probes

        const std::vector<Coord> prev_tracked = tracked;
        in.seam = computeSeamPlan(prev_patch, *in.patch, cfg.basis,
                                  ep.activeSites, ep.startRound,
                                  e ? &prev_tracked : nullptr);
        if (!in.seam.obsCarryValid) {
            // No continuation of the tracked logical exists in the new
            // code: the burst effectively destroyed the stored qubit.
            CachedTimeline dead;
            dead.alive = false;
            cost = secondsSince(t0);
            return dead;
        }
        tracked = in.seam.trackedLogical;

        // Sampling view: residual defects inside the code, plus active
        // defects on qubits being measured out at the seam (their readouts
        // are junk, which is exactly why the seam plan distrusts them).
        NoiseParams samp_noise = cfg.noise;
        samp_noise.defectiveSites = ep.residualDefects;
        std::set<Coord> removed_untrusted;
        for (const Coord &q : in.seam.removed)
            if (ep.activeSites.count(q)) {
                samp_noise.defectiveSites.insert(q);
                removed_untrusted.insert(q);
            }

        const SegmentResult res =
            appendSegment(out.circuit, qubit_id, *in.patch, spec, samp_noise,
                          in.seam, e ? &carry : nullptr, false);
        carry = std::move(res.carry);
        // Decoder view: defect-unaware unless configured otherwise.
        in.decoderNoise = cfg.noise;
        in.decoderNoise.defectiveSites = cfg.decoderKnowsDefects
                                             ? ep.residualDefects
                                             : std::set<Coord>{};
        CachedTimelineEpoch &ce = out.epochs[e];
        ce.segKey = segmentCacheKey(
            prev_sig ? *prev_sig : std::string("-"), ep.structSig,
            removed_untrusted, prev_tracked, in.seam.trackedLogical, spec,
            in.decoderNoise, cfg);
        in.spec = spec;
        in.spec.epochProbes = false;
        ce.startRound = ep.startRound;
        ce.rounds = ep.rounds;
        ce.distX = ep.deformed.distX;
        ce.distZ = ep.deformed.distZ;
        ce.activeDefects = ep.activeSites.size();
        ce.detBegin = res.detBegin;
        ce.detEnd = res.detEnd;

        prev_patch = in.patch;
        prev_sig = &ep.structSig;
    }
    cost = secondsSince(t0);

    struct Built
    {
        std::shared_ptr<const CachedSegment> seg;
        double seconds = 0.0;
        std::exception_ptr error;
    };
    std::vector<Built> built(n_epochs);
    std::vector<size_t> first(n_epochs); ///< first epoch with this key
    std::vector<size_t> todo;
    std::map<std::string_view, size_t> seen;
    for (size_t e = 0; e < n_epochs; ++e) {
        const std::string &key = out.epochs[e].segKey;
        const auto [it, fresh] = seen.emplace(key, e);
        first[e] = it->second;
        if (fresh && !(cfg.useCache && ctx.cache.peekSegment(key)))
            todo.push_back(e);
    }
    ctx.pool.parallelFor(todo.size(), [&](size_t i, size_t) {
        Built &b = built[todo[i]];
        const auto b0 = std::chrono::steady_clock::now();
        try {
            b.seg = std::make_shared<const CachedSegment>(
                buildSegment(cfg, inputs[todo[i]]));
        } catch (...) {
            b.error = std::current_exception();
        }
        b.seconds = secondsSince(b0);
    });

    for (size_t e = 0; e < n_epochs; ++e) {
        if (ctx.inject.enabled() && ctx.inject.stormAtEpochBuild(0, e)) {
            ctx.cache.evictAll();
            ++ledger.cacheStorms;
        }
        CachedTimelineEpoch &ce = out.epochs[e];
        Built &b = built[e];
        if (b.error)
            std::rethrow_exception(b.error);
        if (!cfg.useCache)
            ce.seg = built[first[e]].seg;
        else if (b.seg)
            ce.seg = ctx.cache.get(ce.segKey, std::move(b.seg), b.seconds);
        else
            ce.seg = ctx.cache.get(ce.segKey,
                                   [&] { return buildSegment(cfg, inputs[e]); });
        if (ce.seg->dem.numDetectors != ce.detEnd - ce.detBegin)
            // A structurally inconsistent epoch plan (or a malformed
            // cached DEM) surfaces as a value at the checked boundary
            // instead of killing a long-running service.
            throw StatusError(Status::internal(
                "stitched timeline: standalone segment of epoch " +
                std::to_string(e) + " has " +
                std::to_string(ce.seg->dem.numDetectors) +
                " detectors but the concatenated circuit reserved " +
                std::to_string(ce.detEnd - ce.detBegin)));
    }
    return out;
}

/** Stage build: resolve the stitched timeline. One lookup covers seam
 *  classification, stitching and every epoch's decode segment, so warm
 *  sweeps and quiet timelines go straight to sampling. */
std::shared_ptr<const CachedTimeline>
build(RunContext &ctx, const ScenarioPlan &plan, DegradationLedger &ledger)
{
    SURF_ASSERT(!plan.epochs.empty(), "planned timeline has no epochs");
    const auto stitched = [&](double &cost) {
        return stitch(ctx, plan, ledger, cost);
    };
    if (ctx.cfg.useCache)
        return ctx.cache.getTimeline(timelineCacheKey(plan, ctx.cfg),
                                     stitched);
    double cost = 0.0;
    return std::make_shared<const CachedTimeline>(stitched(cost));
}

/**
 * Stage sample/decode: runMemoryExperiment's pipeline discipline.
 * Sampling is serial per batch, shots decode independently per epoch,
 * and worker tallies merge in a fixed order, so the result is
 * bit-identical for any thread count.
 */
void
sampleDecode(RunContext &ctx, const CachedTimeline &tlc, uint64_t salt,
             uint64_t failuresSoFar, TimelineStats &tl)
{
    const ScenarioConfig &cfg = ctx.cfg;
    const FaultInjector &inject = ctx.inject;
    const size_t n_epochs = tlc.epochs.size();
    for (const CachedTimelineEpoch &ce : tlc.epochs)
        tl.epochs.push_back({ce.startRound, ce.rounds, ce.distX, ce.distZ,
                             ce.activeDefects, ce.detEnd - ce.detBegin,
                             ce.seg->dem.decomposedComponents,
                             ce.seg->dem.undetectableObsProb});
    for (Worker &w : ctx.workers) {
        w.ledger = DegradationLedger{};
        w.failures = 0;
        w.mism.assign(n_epochs, 0);
    }
    // MWPM decode under the fallback ladder when a deadline is armed:
    // blossom → rows inside the decoder, then the union-find floor here
    // when both overran. Every trip lands in the worker's ledger.
    const auto mwpmDecode = [&](const CachedTimelineEpoch &ce, Worker &w,
                                uint64_t shot, size_t e) -> bool {
        MwpmScratch &msc = w.mwpm;
        if (!ctx.ladderOn)
            return ce.seg->mwpm->decode(w.ids.data(), w.ids.size(), msc);
        DecodeDeadline &dl = w.deadline;
        msc.deadline = &dl;
        msc.stallNs = {};
        if (inject.enabled()) {
            msc.stallNs[kStageBlossom] =
                inject.stallNs(salt, shot, e, kStageBlossom);
            msc.stallNs[kStageRows] = inject.stallNs(salt, shot, e, kStageRows);
        }
        bool predicted = ce.seg->mwpm->decode(w.ids.data(), w.ids.size(), msc);
        msc.deadline = nullptr;
        for (uint8_t st = 0; st < kNumDecodeStages; ++st)
            if ((msc.ladder.attempted >> st) & 1 && msc.stallNs[st])
                ++w.ledger.injectedStalls;
        if (msc.timedOut) {
            // The union-find floor always completes: the shot degrades
            // but never blocks.
            dl.beginStage(0);
            predicted = ce.seg->uf->decode(w.ids.data(), w.ids.size(), w.uf);
            msc.ladder.note(kStageUnionFind, dl.stageElapsedNs(), false);
            msc.ladder.answer = kStageUnionFind;
        }
        if (msc.ladder.attempted)
            w.ledger.record(msc.ladder);
        return predicted;
    };

    SparseSyndromes syndromes;
    std::unique_ptr<FrameSimulator> sim;
    uint64_t batch_seed = salt;
    uint64_t batch_index = 0;
    while (tl.shots < cfg.maxShotsPerTimeline &&
           failuresSoFar + tl.failures < cfg.targetFailures) {
        if (inject.enabled() && inject.stormAtBatch(salt, batch_index)) {
            // Decoding goes on through the pinned segments; later
            // lookups rebuild. Only cost can change.
            ctx.cache.evictAll();
            ++tl.ledger.cacheStorms;
        }
        ++batch_index;
        const uint64_t shots_before = tl.shots;
        const size_t batch = static_cast<size_t>(std::min<uint64_t>(
            cfg.batchShots, cfg.maxShotsPerTimeline - tl.shots));
        if (!sim || sim->shots() != batch) {
            sim = std::make_unique<FrameSimulator>(tlc.circuit, batch,
                                                   batch_seed++);
        } else {
            sim->reset(batch_seed++);
            sim->run();
        }
        sim->sparseFiredDetectors(syndromes);
        const BitVec &obs_bits = sim->observableBits(0);
        const size_t n_shards = std::min(batch, ctx.pool.size() * 4);
        ctx.pool.parallelFor(n_shards, [&](size_t shard, size_t worker) {
            Worker &w = ctx.workers[worker];
            const size_t end = batch * (shard + 1) / n_shards;
            for (size_t s = batch * shard / n_shards; s < end; ++s) {
                const uint32_t *fired = syndromes.data(s);
                const size_t n_fired = syndromes.count(s);
                const uint64_t shot = shots_before + s;
                size_t idx = 0;
                bool total = false;
                for (size_t e = 0; e < n_epochs; ++e) {
                    const CachedTimelineEpoch &ce = tlc.epochs[e];
                    // Detector ranges are contiguous and ascending, so one
                    // sweep slices the sorted fired list per epoch.
                    w.ids.clear();
                    for (; idx < n_fired && fired[idx] < ce.detEnd; ++idx)
                        w.ids.push_back(
                            static_cast<uint32_t>(fired[idx] - ce.detBegin));
                    if (inject.enabled()) {
                        const size_t added = inject.injectBurst(
                            salt, shot, e, ce.detEnd - ce.detBegin, w.ids);
                        w.ledger.injectedBursts += added ? 1 : 0;
                        w.ledger.injectedBurstDetectors += added;
                    }
                    // Auto: MWPM up to the per-epoch defect cap.
                    const bool mwpm =
                        cfg.decoder == DecoderKind::Mwpm ||
                        (cfg.decoder != DecoderKind::UnionFind &&
                         w.ids.size() <= cfg.mwpmDefectCap);
                    const bool predicted =
                        mwpm ? mwpmDecode(ce, w, shot, e)
                             : ce.seg->uf->decode(w.ids.data(), w.ids.size(),
                                                  w.uf);
                    // Oracle truth of this epoch: the frame its tracked
                    // representative accrued between the opening probe
                    // (2e-1; none for epoch 0) and the closing probe (2e).
                    // Seam updates and readout noise live only in the
                    // observable, so per-epoch truths are diagnostics and
                    // the failure check uses the observable.
                    const bool open_frame =
                        e ? sim->probeBits(2 * e - 1).get(s) : false;
                    const bool close_frame = sim->probeBits(2 * e).get(s);
                    w.mism[e] += predicted != (open_frame ^ close_frame);
                    total ^= predicted;
                }
                w.failures += total != obs_bits.get(s);
            }
        });
        tl.failures = 0;
        for (const Worker &w : ctx.workers)
            tl.failures += w.failures;
        tl.shots += batch;
    }
    // Fixed worker order keeps the merged ledger deterministic whenever
    // the per-shot traces are (virtual clock / no real deadline).
    for (const Worker &w : ctx.workers) {
        tl.ledger.merge(w.ledger);
        for (size_t e = 0; e < n_epochs; ++e)
            tl.epochs[e].mismatches += w.mism[e];
    }
    for (EpochStats &st : tl.epochs)
        st.shots = tl.shots;
}

/** build → sample/decode for one plan. A plan that is not alive (dead
 *  chip or deformation window) and a seam with no continuation of the
 *  logical take the one dead path: all shots a deterministic loss. */
TimelineStats
runTimeline(RunContext &ctx, const ScenarioPlan &plan, uint64_t salt,
            uint64_t failuresSoFar)
{
    TimelineStats tl;
    std::shared_ptr<const CachedTimeline> tlc;
    if (plan.alive)
        tlc = build(ctx, plan, tl.ledger);
    if (!tlc || !tlc->alive)
        return deadTimeline(ctx.cfg, plan.numEvents);
    tl.events = plan.numEvents;
    sampleDecode(ctx, *tlc, salt, failuresSoFar, tl);
    return tl;
}

/** Stage checkpoint: rewrite the checkpoint (atomic rename) after every
 *  timeline, so a kill loses at most the one in flight; a failed write
 *  only warns. The fault plan's snap.kill crashes the run here. */
void
checkpoint(RunContext &ctx)
{
    const bool persist_on = !ctx.cfg.persistDir.empty();
    if (persist_on)
        if (Status s = saveRunCheckpoint(ctx.ckptPath, ctx.configSig,
                                         ctx.out.timelines, ctx.snapInject,
                                         kSnapSaltCheckpoint);
            !s.ok())
            warn("scenario checkpoint: " + s.str());
    const uint32_t kill = ctx.inject.killAfterTimelines();
    if (kill && ctx.out.timelines.size() == kill)
        // A resumed run starts past `kill` timelines and never re-fires.
        throw StatusError(Status::aborted(
            "fault injection: simulated crash after " +
            std::to_string(kill) + " completed timelines" +
            (persist_on
                 ? " (checkpoint '" + ctx.ckptPath + "' is resumable)"
                 : std::string())));
}

/** Stage save: a completed run rewrites the cache snapshot and drops its
 *  checkpoint. */
void
save(RunContext &ctx)
{
    const ScenarioConfig &cfg = ctx.cfg;
    if (cfg.persistDir.empty())
        return;
    if (cfg.useCache) {
        StatusOr<SnapshotSaveStats> saved =
            saveCacheSnapshot(ctx.cache, cfg.persistDir + "/cache.snap",
                              ctx.snapInject, kSnapSaltCache);
        if (saved.ok())
            ctx.out.persistSnapshotBytes = saved->fileBytes;
        else
            warn("scenario cache snapshot: " + saved.status().str());
    }
    ::unlink(ctx.ckptPath.c_str());
}

} // namespace

Status
validateScenarioConfig(const ScenarioConfig &cfg)
{
    auto bad = [](const std::string &msg) {
        return Status::invalidArgument("scenario config: " + msg);
    };
    auto prob_ok = [](double p) {
        return std::isfinite(p) && p >= 0.0 && p <= 1.0;
    };
    // An enum value outside its named set (e.g. cast from bad input).
    auto unknown = [&bad](const char *type, auto v,
                          std::initializer_list<decltype(v)> known) {
        return std::find(known.begin(), known.end(), v) == known.end()
                   ? bad(std::string("unknown ") + type + " value " +
                         std::to_string(static_cast<int>(v)))
                   : Status::okStatus();
    };
    if (cfg.timeline.d < 2 || cfg.timeline.d > 512)
        return bad("code distance d=" + std::to_string(cfg.timeline.d) +
                   " out of range [2, 512]");
    if (cfg.timeline.deltaD < 0)
        return bad("deltaD must be >= 0");
    if (Status s = unknown("Strategy", cfg.timeline.strategy,
                           {Strategy::LatticeSurgery, Strategy::Ascs,
                            Strategy::Q3de, Strategy::Q3deRevised,
                            Strategy::SurfDeformer});
        !s.ok())
        return s;
    if (!prob_ok(cfg.fabDefects.qubitRate))
        return bad("fabDefects.qubitRate must be a probability in [0, 1]");
    if (!prob_ok(cfg.fabDefects.couplerRate))
        return bad("fabDefects.couplerRate must be a probability in "
                   "[0, 1]");
    if (cfg.timeline.horizonRounds < 1)
        return bad("horizonRounds must be >= 1 (zero-round scenarios "
                   "have no syndrome data to decode)");
    if (cfg.timeline.windowRounds < 1)
        return bad("windowRounds must be >= 1");
    if (cfg.numTimelines < 1)
        return bad("numTimelines must be >= 1");
    if (cfg.maxShotsPerTimeline < 1)
        return bad("maxShotsPerTimeline must be >= 1");
    if (cfg.batchShots < 1)
        return bad("batchShots must be >= 1");
    if (cfg.targetFailures < 1)
        return bad("targetFailures must be >= 1 (the run would stop "
                   "before its first shot)");
    if (!(std::isfinite(cfg.eventRateScale) && cfg.eventRateScale >= 0.0))
        return bad("eventRateScale must be finite and >= 0");
    if (!prob_ok(cfg.noise.p))
        return bad("noise.p must be a probability in [0, 1]");
    if (!prob_ok(cfg.noise.pDefect))
        return bad("noise.pDefect must be a probability in [0, 1]");
    if (!prob_ok(cfg.noise.pCorrelated2q))
        return bad("noise.pCorrelated2q must be a probability in [0, 1]");
    if (!(std::isfinite(cfg.defectModel.eventRatePerQubitSec) &&
          cfg.defectModel.eventRatePerQubitSec >= 0.0))
        return bad("defectModel.eventRatePerQubitSec must be finite and "
                   ">= 0");
    if (!(std::isfinite(cfg.defectModel.durationSec) &&
          cfg.defectModel.durationSec >= 0.0))
        return bad("defectModel.durationSec must be finite and >= 0");
    if (!(std::isfinite(cfg.defectModel.cycleTimeSec) &&
          cfg.defectModel.cycleTimeSec > 0.0))
        return bad("defectModel.cycleTimeSec must be finite and > 0");
    if (Status s = unknown("DecoderKind", cfg.decoder,
                           {DecoderKind::Mwpm, DecoderKind::UnionFind,
                            DecoderKind::Auto});
        !s.ok())
        return s;
    if (Status s = unknown("MatchingBackend", cfg.matching,
                           {MatchingBackend::Dense, MatchingBackend::Sparse,
                            MatchingBackend::SparseBlossom});
        !s.ok())
        return s;
    if (cfg.basis != PauliType::X && cfg.basis != PauliType::Z)
        return bad("basis must be Pauli X or Z");
    return validateFaultPlan(cfg.faults);
}

Status
validateDefectStream(const std::vector<DefectEvent> &events,
                     const ScenarioConfig &cfg)
{
    // Any site a deformation could ever reach lives well inside this
    // box (patch coordinates are ~[0, 2d] plus the enlargement slack);
    // a "teleported" corrupt center lands far outside it.
    const int bound = 4 * (cfg.timeline.d + cfg.timeline.deltaD) + 16;
    auto inBox = [bound](Coord c) {
        return c.x >= -bound && c.x <= bound && c.y >= -bound &&
               c.y <= bound;
    };
    for (size_t i = 0; i < events.size(); ++i) {
        const DefectEvent &ev = events[i];
        const std::string tag = "defect stream event " + std::to_string(i);
        if (ev.endCycle <= ev.startCycle)
            return Status::dataLoss(
                tag + ": empty or inverted cycle interval [" +
                std::to_string(ev.startCycle) + ", " +
                std::to_string(ev.endCycle) + ")");
        if (ev.sites.empty())
            return Status::dataLoss(tag + ": no affected sites");
        if (!inBox(ev.center))
            return Status::dataLoss(
                tag + ": center (" + std::to_string(ev.center.x) + ", " +
                std::to_string(ev.center.y) + ") is off the lattice "
                "(|coord| bound " + std::to_string(bound) + ")");
        for (const Coord &q : ev.sites)
            if (!inBox(q))
                return Status::dataLoss(
                    tag + ": site (" + std::to_string(q.x) + ", " +
                    std::to_string(q.y) + ") is off the lattice");
    }
    return Status::okStatus();
}

TimelineStats
runPlannedTimeline(const ScenarioPlan &plan, const ScenarioConfig &cfg,
                   DeformedCodeCache &cache, uint64_t batchSeedBase,
                   uint64_t failuresSoFar)
{
    RunContext ctx(cfg, &cache);
    return runTimeline(ctx, plan, batchSeedBase, failuresSoFar);
}

StatusOr<ScenarioResult>
runScenarioExperimentChecked(const ScenarioConfig &userCfg)
{
    StatusOr<ScenarioConfig> merged = validate(userCfg);
    if (!merged.ok())
        return merged.status();
    const ScenarioConfig &cfg = merged.value();

    try {
        RunContext ctx(cfg, cfg.cache);
        ScenarioResult &out = ctx.out;
        out.horizonRounds = cfg.timeline.horizonRounds;
        if (cfg.cacheMaxBytes || cfg.cacheMaxEntries)
            ctx.cache.setBudget(cfg.cacheMaxBytes, cfg.cacheMaxEntries);
        const uint64_t hits0 = ctx.cache.hits();
        const uint64_t misses0 = ctx.cache.misses();
        const uint64_t evictions0 = ctx.cache.evictions();

        restore(ctx);

        // The run's base chip, sampled and adapted once. A disabled model
        // leaves it empty, and then the fab layer is bit-identical to a
        // config without it.
        ctx.base = squarePatch(cfg.timeline.d);
        if (cfg.fabDefects.enabled())
            ctx.chip = std::move(
                sampleFabDefectsChecked(ctx.base, cfg.fabDefects).value());
        ctx.chipAdapt = adaptChip(cfg, ctx.chip);
        out.fabDefectiveQubits = ctx.chip.qubits.size();
        out.fabDefectiveCouplers = ctx.chip.couplers.size();
        if (ctx.chipAdapt) {
            out.fabDisabledData = ctx.chipAdapt->disabledData;
            out.fabSuperClusters = ctx.chipAdapt->superClusters;
            out.fabDistX = ctx.chipAdapt->outcome.distX;
            out.fabDistZ = ctx.chipAdapt->outcome.distZ;
            out.fabChipAlive = ctx.chipAdapt->outcome.alive;
        }

        // Resume at the first unfinished timeline. Per-timeline seeds
        // derive from t alone (not from any predecessor), so skipping
        // completed timelines reproduces the uninterrupted run exactly.
        // A window of timelines is chipped and planned ahead on the pool,
        // then run in order; an error surfaces when its timeline comes
        // up, and a stop discards the plans left in the window.
        struct Planned
        {
            std::optional<FabAdaptation> injected;
            const FabAdaptation *adapt = nullptr;
            ScenarioPlan plan;
            std::exception_ptr error;
        };
        const auto saltOf = [&](int t) {
            return cfg.seed + static_cast<uint64_t>(t) * kTimelineSeedStride;
        };
        std::vector<Planned> ahead(ctx.pool.size());
        int t = static_cast<int>(out.timelines.size());
        while (t < cfg.numTimelines && out.failures < cfg.targetFailures) {
            const int t0 = t;
            const size_t window =
                std::min<size_t>(ahead.size(), cfg.numTimelines - t0);
            ctx.pool.parallelFor(window, [&](size_t i, size_t worker) {
                Planned &p = ahead[i];
                p = Planned{};
                const int ti = t0 + static_cast<int>(i);
                try {
                    p.adapt = chip(ctx, saltOf(ti), p.injected);
                    p.plan = plan(ctx, ti, saltOf(ti), p.adapt,
                                  ctx.memos[worker]);
                } catch (...) {
                    p.error = std::current_exception();
                }
            });
            for (size_t i = 0;
                 i < window && out.failures < cfg.targetFailures; ++i, ++t) {
                const Planned &p = ahead[i];
                if (p.error)
                    std::rethrow_exception(p.error);
                account(ctx, runTimeline(ctx, p.plan, saltOf(t), out.failures),
                        p.adapt);
                checkpoint(ctx);
            }
        }
        save(ctx);

        out.cacheHits = ctx.cache.hits() - hits0;
        out.cacheMisses = ctx.cache.misses() - misses0;
        out.cacheEvictions = ctx.cache.evictions() - evictions0;
        const auto est = estimateBinomial(out.failures, out.shots);
        out.pShot = est.p;
        out.se = est.stderr;
        out.pRound = perRoundRate(
            out.pShot, static_cast<size_t>(cfg.timeline.horizonRounds));
        return std::move(out);
    } catch (const StatusError &e) {
        // Deep-layer failures (epoch planner, cache builders, decode
        // workers via the pool's first-exception rethrow) surface here
        // as values.
        return e.status();
    }
}

} // namespace surf
