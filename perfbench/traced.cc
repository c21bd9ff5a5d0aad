/**
 * @file
 * Traced round: the untraced round's work driven layer by layer through
 * each layer's public functions, in the engine's order (see
 * runScenarioExperimentChecked / runPlannedTimeline in
 * src/scenario/scenario_experiment.cc), with a span around every call.
 *
 * The mirror covers the configurations the workloads use: no fault plan,
 * no decode deadline, no fabrication defects, the segment and timeline
 * caches on. Its shot, failure and epoch counts must equal the untraced
 * round's; the driver gates on that, so a drift between this mirror and
 * the engine shows up as a failed run rather than as silently different
 * numbers.
 *
 * Decode workers run on several threads at once, so their time is
 * recorded per worker (calls timed one by one, bucketed by the path the
 * decoder takes) and folded back into the batch's wall time: a bucket's
 * wall share is its worker-seconds divided by the worker count, and the
 * worker-seconds spent waiting for the slowest shard are the pool's idle
 * share. The virtual child spans of a batch therefore tile it exactly.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>

#include <unistd.h>

#include "bench.hh"
#include "lattice/rotated.hh"
#include "persist/cache_snapshot.hh"
#include "persist/checkpoint.hh"
#include "persist/snapshot.hh"
#include "scenario/patch_signature.hh"
#include "sim/dem.hh"
#include "sim/frame.hh"
#include "util/thread_pool.hh"

using namespace surf;

namespace perfbench {

namespace {

// --- Cache identities. The engine keeps these builders private; they are
// restated here so the traced run hits and misses exactly where the
// engine does (a snapshot written by one is restorable by the other).

/** Per-timeline stride of the batch-seed sequence (engine constant). */
constexpr uint64_t kTimelineSeedStride = 0x51ed5eed9e3779b9ULL;

std::string
noiseSignature(const NoiseParams &noise)
{
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

/** Tracer plus the counters of the phase being traced. */
struct Ctx
{
    Tracer &tr;
    LayerCounts &lc;
};

CachedTimeline
stitchTimeline(const ScenarioPlan &plan, const ScenarioConfig &cfg,
               DeformedCodeCache &cache, ThreadPool &pool, Ctx &c)
{
    CachedTimeline out;
    const size_t n_epochs = plan.epochs.size();
    const uint8_t tag = (cfg.basis == PauliType::Z) ? 1 : 0;
    std::map<Coord, uint32_t> qubit_id;
    SeamState carry;
    const CodePatch *prev_patch = nullptr;
    const std::string *prev_sig = nullptr;
    std::vector<Coord> tracked;
    out.epochs.reserve(n_epochs);

    for (size_t e = 0; e < n_epochs; ++e) {
        const Epoch &ep = plan.epochs[e];
        const CodePatch &patch = ep.deformed.patch;
        SegmentSpec spec;
        spec.basis = cfg.basis;
        spec.rounds = static_cast<int>(ep.rounds);
        spec.startRound = ep.startRound;
        spec.first = (e == 0);
        spec.last = (e + 1 == n_epochs);
        spec.epochProbes = true;

        const std::vector<Coord> prev_tracked = tracked;
        SeamPlan seam;
        {
            Scope s(c.tr, "sim.stitch");
            seam = computeSeamPlan(prev_patch, patch, cfg.basis,
                                   ep.activeSites, ep.startRound,
                                   e ? &prev_tracked : nullptr);
        }
        if (!seam.obsCarryValid) {
            out.alive = false;
            out.circuit = Circuit{};
            out.epochs.clear();
            return out;
        }
        tracked = seam.trackedLogical;

        NoiseParams samp_noise = cfg.noise;
        samp_noise.defectiveSites = ep.residualDefects;
        std::set<Coord> removed_untrusted;
        for (const Coord &q : seam.removed)
            if (ep.activeSites.count(q)) {
                samp_noise.defectiveSites.insert(q);
                removed_untrusted.insert(q);
            }

        SegmentResult res;
        {
            Scope s(c.tr, "sim.stitch");
            res = appendSegment(out.circuit, qubit_id, patch, spec,
                                samp_noise, seam, e ? &carry : nullptr,
                                false);
        }
        carry = std::move(res.carry);
        NoiseParams dec_noise = cfg.noise;
        dec_noise.defectiveSites = cfg.decoderKnowsDefects
                                       ? ep.residualDefects
                                       : std::set<Coord>{};
        auto build = [&] {
            SegmentSpec standalone_spec = spec;
            standalone_spec.epochProbes = false;
            CachedSegment cs;
            {
                Scope s(c.tr, "sim.segment");
                cs.circuit = buildStandaloneSegment(
                    patch, standalone_spec, dec_noise, seam, prev_patch);
            }
            {
                Scope s(c.tr, "sim.dem");
                cs.dem = buildDem(cs.circuit, cfg.basis);
            }
            c.lc.demEdges += cs.dem.edges[0].size() + cs.dem.edges[1].size();
            {
                Scope s(c.tr, "decode.graph_build");
                cs.mwpm = std::make_unique<MwpmDecoder>(cs.dem, tag, &pool,
                                                        cfg.matching);
                if (cfg.mwpmRowBudget)
                    cs.mwpm->setRowBudget(cfg.mwpmRowBudget);
                cs.uf = std::make_unique<UnionFindDecoder>(cs.dem, tag);
            }
            return cs;
        };
        CachedTimelineEpoch ce;
        {
            Scope s(c.tr, "scenario.cache");
            ce.segKey = segmentCacheKey(
                prev_sig ? *prev_sig : std::string("-"), ep.structSig,
                removed_untrusted, prev_tracked, seam.trackedLogical, spec,
                dec_noise, cfg);
            ce.seg = cache.get(ce.segKey, build);
        }
        if (ce.seg->dem.numDetectors != res.detEnd - res.detBegin)
            throw StatusError(Status::internal(
                "traced stitch: detector range mismatch at epoch " +
                std::to_string(e)));
        ce.startRound = ep.startRound;
        ce.rounds = ep.rounds;
        ce.distX = ep.deformed.distX;
        ce.distZ = ep.deformed.distZ;
        ce.activeDefects = ep.activeSites.size();
        ce.detBegin = res.detBegin;
        ce.detEnd = res.detEnd;
        out.epochs.push_back(std::move(ce));

        prev_patch = &patch;
        prev_sig = &ep.structSig;
    }
    return out;
}

/** Per-worker decode accounting, padded against false sharing. */
struct alignas(64) WorkerAcc
{
    double rows = 0.0, blossom = 0.0, uf = 0.0, busy = 0.0;
    uint64_t rowsCalls = 0, blossomCalls = 0, ufCalls = 0;
    std::vector<uint64_t> hist;
};

enum class Path
{
    Rows,
    Blossom,
    UnionFind
};

/** The path a decode takes (decoder dispatch rules of mwpm.cc and the
 *  engine's Auto cap), decided from the shot's defect count. */
Path
decodePath(const ScenarioConfig &cfg, const MwpmDecoder &mwpm,
           const std::vector<uint32_t> &ids)
{
    if (cfg.decoder == DecoderKind::UnionFind ||
        (cfg.decoder == DecoderKind::Auto && ids.size() > cfg.mwpmDefectCap))
        return Path::UnionFind;
    if (mwpm.backend() == MatchingBackend::SparseBlossom)
        return Path::Blossom;
    if (mwpm.backend() == MatchingBackend::Dense)
        return Path::Rows;
    size_t k = 0;
    for (uint32_t id : ids)
        k += mwpm.graph().localOf(id) >= 0;
    return k >= mwpm.blossomThreshold() ? Path::Blossom : Path::Rows;
}

TimelineStats
tracedTimeline(const ScenarioPlan &plan, const ScenarioConfig &cfg,
               DeformedCodeCache &cache, uint64_t batchSeedBase,
               uint64_t failuresSoFar, Ctx &c)
{
    if (!plan.alive)
        return deadTimeline(cfg, plan.numEvents);
    TimelineStats tl;
    tl.events = plan.numEvents;
    std::unique_ptr<ThreadPool> pool_owner;
    {
        Scope s(c.tr, "scenario.pool");
        pool_owner = std::make_unique<ThreadPool>(cfg.threads);
    }
    ThreadPool &pool = *pool_owner;

    std::shared_ptr<const CachedTimeline> tlc;
    {
        Scope s(c.tr, "scenario.cache");
        tlc = cache.getTimeline(timelineCacheKey(plan, cfg), [&] {
            return stitchTimeline(plan, cfg, cache, pool, c);
        });
    }
    if (!tlc->alive) {
        Scope s(c.tr, "scenario.pool");
        pool_owner.reset();
        return deadTimeline(cfg, plan.numEvents);
    }
    const Circuit &ckt = tlc->circuit;
    const size_t n_epochs = tlc->epochs.size();
    tl.epochs.resize(n_epochs);
    for (size_t e = 0; e < n_epochs; ++e) {
        const CachedTimelineEpoch &ce = tlc->epochs[e];
        EpochStats &st = tl.epochs[e];
        st.startRound = ce.startRound;
        st.rounds = ce.rounds;
        st.distX = ce.distX;
        st.distZ = ce.distZ;
        st.activeDefects = ce.activeDefects;
        st.numDetectors = ce.detEnd - ce.detBegin;
        st.decomposedHyperedges = ce.seg->dem.decomposedComponents;
        st.undetectableObsProb = ce.seg->dem.undetectableObsProb;
    }

    const size_t workers = pool.size();
    std::vector<MwpmScratch> mwpm_scratch(workers);
    std::vector<UfScratch> uf_scratch(workers);
    std::vector<uint64_t> worker_failures(workers);
    std::vector<std::vector<uint32_t>> local_ids(workers);
    std::vector<std::vector<uint64_t>> worker_mism(
        workers, std::vector<uint64_t>(n_epochs));
    std::vector<WorkerAcc> acc(workers);
    for (WorkerAcc &a : acc)
        a.hist.assign(c.lc.firedHist.size(), 0);
    const size_t hist_top = c.lc.firedHist.size() - 1;
    SparseSyndromes syndromes;
    std::unique_ptr<FrameSimulator> sim;

    uint64_t batch_seed = batchSeedBase;
    while (tl.shots < cfg.maxShotsPerTimeline &&
           failuresSoFar + tl.failures < cfg.targetFailures) {
        const size_t batch = static_cast<size_t>(std::min<uint64_t>(
            cfg.batchShots, cfg.maxShotsPerTimeline - tl.shots));
        {
            Scope s(c.tr, "sim.sample");
            if (!sim || sim->shots() != batch) {
                sim = std::make_unique<FrameSimulator>(ckt, batch,
                                                       batch_seed++);
            } else {
                sim->reset(batch_seed++);
                sim->run();
            }
            sim->sparseFiredDetectors(syndromes);
        }
        const BitVec &obs_bits = sim->observableBits(0);

        std::fill(worker_failures.begin(), worker_failures.end(), 0);
        for (auto &m : worker_mism)
            std::fill(m.begin(), m.end(), 0);
        for (WorkerAcc &a : acc)
            a.rows = a.blossom = a.uf = a.busy = 0.0;
        const size_t n_shards = std::min(batch, workers * 4);
        const int batch_span = c.tr.open("decode.batch");
        const double w0 = c.tr.now();
        pool.parallelFor(n_shards, [&](size_t shard, size_t worker) {
            const auto shard_t0 = Clock::now();
            WorkerAcc &a = acc[worker];
            const size_t begin = batch * shard / n_shards;
            const size_t end = batch * (shard + 1) / n_shards;
            uint64_t failures = 0;
            for (size_t s = begin; s < end; ++s) {
                const uint32_t *fired = syndromes.data(s);
                const size_t n_fired = syndromes.count(s);
                size_t idx = 0;
                bool total = false;
                for (size_t e = 0; e < n_epochs; ++e) {
                    const CachedTimelineEpoch &ce = tlc->epochs[e];
                    auto &ids = local_ids[worker];
                    ids.clear();
                    while (idx < n_fired && fired[idx] < ce.detEnd) {
                        ids.push_back(static_cast<uint32_t>(fired[idx] -
                                                            ce.detBegin));
                        ++idx;
                    }
                    ++a.hist[std::min(ids.size(), hist_top)];
                    const Path path = decodePath(cfg, *ce.seg->mwpm, ids);
                    const auto t0 = Clock::now();
                    const bool predicted =
                        path == Path::UnionFind
                            ? ce.seg->uf->decode(ids.data(), ids.size(),
                                                 uf_scratch[worker])
                            : ce.seg->mwpm->decode(ids.data(), ids.size(),
                                                   mwpm_scratch[worker]);
                    const double dt =
                        std::chrono::duration<double>(Clock::now() - t0)
                            .count();
                    switch (path) {
                      case Path::Rows:
                        a.rows += dt;
                        ++a.rowsCalls;
                        break;
                      case Path::Blossom:
                        a.blossom += dt;
                        ++a.blossomCalls;
                        break;
                      case Path::UnionFind:
                        a.uf += dt;
                        ++a.ufCalls;
                        break;
                    }
                    const bool open_frame =
                        e ? sim->probeBits(2 * e - 1).get(s) : false;
                    const bool close_frame = sim->probeBits(2 * e).get(s);
                    worker_mism[worker][e] +=
                        predicted != (open_frame ^ close_frame);
                    total ^= predicted;
                }
                failures += total != obs_bits.get(s);
            }
            worker_failures[worker] += failures;
            a.busy += secondsSince(shard_t0);
        });
        // Tile the batch's wall time with its worker-time shares.
        const double w1 = c.tr.now();
        const double wall = w1 - w0;
        double rows = 0, blossom = 0, uf = 0, busy = 0;
        for (const WorkerAcc &a : acc) {
            rows += a.rows;
            blossom += a.blossom;
            uf += a.uf;
            busy += a.busy;
        }
        const double n = static_cast<double>(workers);
        const double idle = std::max(0.0, n * wall - busy);
        const double scale = wall > 0 ? wall / ((busy + idle) / n) : 0.0;
        double t = w0;
        const auto tile = [&](const char *name, double worker_seconds) {
            const double d = worker_seconds / n * scale;
            c.tr.add(name, t, t + d);
            t += d;
        };
        tile("decode.rows", rows);
        tile("decode.blossom", blossom);
        tile("decode.uf", uf);
        tile("decode.loop", busy - rows - blossom - uf);
        tile("decode.idle", idle);
        c.tr.close(batch_span);
        c.lc.workerBusy += busy;
        c.lc.workerIdle += idle;

        for (uint64_t f : worker_failures)
            tl.failures += f;
        for (const auto &m : worker_mism)
            for (size_t e = 0; e < n_epochs; ++e)
                tl.epochs[e].mismatches += m[e];
        for (size_t e = 0; e < n_epochs; ++e)
            tl.epochs[e].shots += batch;
        tl.shots += batch;
    }
    for (WorkerAcc &a : acc) {
        c.lc.rowsCalls += a.rowsCalls;
        c.lc.blossomCalls += a.blossomCalls;
        c.lc.ufCalls += a.ufCalls;
        for (size_t i = 0; i < a.hist.size(); ++i)
            c.lc.firedHist[i] += a.hist[i];
    }
    {
        Scope s(c.tr, "scenario.pool");
        pool_owner.reset();
    }
    return tl;
}

uint64_t
rowsBuilt(const DeformedCodeCache &cache)
{
    uint64_t rows = 0;
    cache.forEachSegment(
        [&](const std::string &, const CachedSegment &seg, double) {
            rows += seg.mwpm->graph().rowsBuilt();
        });
    return rows;
}

/** The memory experiment as runMemoryExperiment plans it: one epoch
 *  holding the frozen patch, a fresh cache per call. */
Phase
tracedMemoryPhase(const CodePatch &patch,
                  const std::vector<MemoryExperimentConfig> &calls, Ctx &c)
{
    Phase ph;
    const auto t0 = Clock::now();
    for (const MemoryExperimentConfig &mc : calls) {
        Scope call(c.tr, "call");
        ScenarioConfig sc;
        sc.timeline.d = 0;
        sc.timeline.horizonRounds = static_cast<uint64_t>(mc.spec.rounds);
        sc.basis = mc.spec.basis;
        sc.noise = mc.noise;
        sc.decoder = mc.decoder;
        sc.mwpmDefectCap = mc.mwpmDefectCap;
        sc.maxShotsPerTimeline = mc.maxShots;
        sc.targetFailures = mc.targetFailures;
        sc.batchShots = mc.batchShots;
        sc.threads = mc.threads;
        sc.decoderKnowsDefects = mc.decoderKnowsDefects;
        sc.seed = mc.seed;

        ScenarioPlan plan;
        {
            Scope s(c.tr, "scenario.plan");
            Epoch epoch;
            epoch.startRound = 0;
            epoch.rounds = static_cast<uint64_t>(mc.spec.rounds);
            epoch.deformed.patch = patch;
            epoch.residualDefects = mc.noise.defectiveSites;
            epoch.activeSites = mc.noise.defectiveSites;
            epoch.structSig = patchSignature(patch);
            plan.epochs.push_back(std::move(epoch));
        }
        auto cache = std::make_unique<DeformedCodeCache>();
        const TimelineStats tl =
            tracedTimeline(plan, sc, *cache, mc.seed, 0, c);
        ph.counts.shots += tl.shots;
        ph.counts.failures += tl.failures;
        ph.counts.epochs += 1;
        c.lc.rowsBuilt += rowsBuilt(*cache);
        c.lc.cacheHits += cache->hits();
        c.lc.cacheMisses += cache->misses();
        c.lc.cacheBuildSeconds += cache->buildSeconds();
        c.lc.cacheEntries = cache->size();
        c.lc.cacheResidentMiB = cache->bytesUsed() / 1048576.0;
        Scope s(c.tr, "scenario.cache"); // cache teardown
        cache.reset();
    }
    ph.seconds = secondsSince(t0);
    return ph;
}

/** runScenarioExperimentChecked, layer by layer. */
Phase
tracedScenarioPhase(const ScenarioConfig &cfg, DeformedCodeCache *external,
                    Ctx &c)
{
    Phase ph;
    const auto t0 = Clock::now();
    if (cfg.faults.enabled() || cfg.fabDefects.enabled() ||
        cfg.decodeDeadlineNs || !cfg.useCache) {
        ph.error = "traced driver: configuration outside the mirrored path";
        return ph;
    }
    if (Status s = validateScenarioConfig(cfg); !s.ok()) {
        ph.error = s.str();
        return ph;
    }
    try {
        std::unique_ptr<DeformedCodeCache> local_cache;
        if (!external)
            local_cache = std::make_unique<DeformedCodeCache>();
        DeformedCodeCache &cache = external ? *external : *local_cache;
        const uint64_t hits0 = cache.hits(), misses0 = cache.misses();
        const double build0 = cache.buildSeconds();
        const uint64_t rows0 = rowsBuilt(cache);

        const bool persist_on = !cfg.persistDir.empty();
        std::string ckpt_path, snap_path;
        uint64_t config_sig = 0;
        if (persist_on) {
            Scope s(c.tr, "persist.restore");
            std::filesystem::create_directories(cfg.persistDir);
            snap_path = cfg.persistDir + "/cache.snap";
            config_sig = scenarioConfigSignature(cfg);
            char sig_hex[24];
            std::snprintf(sig_hex, sizeof sig_hex, "%016llx",
                          static_cast<unsigned long long>(config_sig));
            ckpt_path = cfg.persistDir + "/run-" + sig_hex + ".ckpt";
            if (snapshotFileExists(snap_path)) {
                StatusOr<SnapshotRestoreStats> restored =
                    loadCacheSnapshot(cache, snap_path);
                if (!restored.ok()) {
                    ph.error = "traced restore: " + restored.status().str();
                    return ph;
                }
                ph.restoredSegments = restored->segments;
                ph.restoredRows = restored->rows;
                ph.snapshotBytes = restored->fileBytes;
                c.lc.restoredRows += restored->rows;
            }
            if (snapshotFileExists(ckpt_path)) {
                ph.error = "traced driver: unexpected resumable checkpoint";
                return ph;
            }
        }

        StrategyMemo memo;
        const CodePatch base = squarePatch(cfg.timeline.d);
        DefectModelParams model = cfg.defectModel;
        model.eventRatePerQubitSec *= cfg.eventRateScale;
        std::vector<TimelineStats> done;
        for (int t = 0; t < cfg.numTimelines; ++t) {
            if (ph.counts.failures >= cfg.targetFailures)
                break;
            Scope timeline(c.tr, "timeline");
            const uint64_t timeline_salt =
                cfg.seed + static_cast<uint64_t>(t) * kTimelineSeedStride;
            std::vector<DefectEvent> events;
            if (cfg.eventRateScale > 0.0) {
                Scope s(c.tr, "defects.sample");
                DefectSampler sampler(model, mixSeed(cfg.seed, 0xdefec7 + t));
                events =
                    sampler.sampleEvents(base, cfg.timeline.horizonRounds);
            }
            {
                Scope s(c.tr, "scenario.plan");
                if (Status st = validateDefectStream(events, cfg); !st.ok()) {
                    ph.error = st.str();
                    return ph;
                }
            }
            ScenarioPlan plan;
            {
                Scope s(c.tr, "scenario.plan");
                plan = planEpochs(cfg.timeline, events, &memo);
            }
            TimelineStats tl = tracedTimeline(plan, cfg, cache, timeline_salt,
                                              ph.counts.failures, c);
            ph.counts.shots += tl.shots;
            ph.counts.failures += tl.failures;
            ph.counts.epochs += tl.epochs.size();
            ph.counts.deadTimelines += tl.dead ? 1 : 0;
            done.push_back(std::move(tl));
            if (persist_on) {
                Scope s(c.tr, "persist.checkpoint");
                if (Status st = saveRunCheckpoint(ckpt_path, config_sig, done);
                    !st.ok()) {
                    ph.error = "traced checkpoint: " + st.str();
                    return ph;
                }
            }
        }
        if (persist_on) {
            Scope s(c.tr, "persist.save");
            StatusOr<SnapshotSaveStats> saved =
                saveCacheSnapshot(cache, snap_path);
            if (!saved.ok()) {
                ph.error = "traced snapshot: " + saved.status().str();
                return ph;
            }
            ph.snapshotBytes = saved->fileBytes;
            c.lc.snapshotBytes = saved->fileBytes;
            ::unlink(ckpt_path.c_str());
        }
        ph.cacheHits = cache.hits() - hits0;
        ph.cacheMisses = cache.misses() - misses0;
        c.lc.cacheHits += ph.cacheHits;
        c.lc.cacheMisses += ph.cacheMisses;
        c.lc.cacheBuildSeconds += cache.buildSeconds() - build0;
        c.lc.rowsBuilt += rowsBuilt(cache) - rows0;
        c.lc.cacheEntries = cache.size();
        c.lc.cacheResidentMiB = cache.bytesUsed() / 1048576.0;
        Scope s(c.tr, "scenario.cache"); // the engine's cache teardown
        local_cache.reset();
    } catch (const StatusError &e) {
        ph.error = e.status().str();
    }
    ph.seconds = secondsSince(t0);
    return ph;
}

/** Throughput of the snapshot format's CRC over a real snapshot. */
double
crcMiBPerSec(const std::string &path)
{
    StatusOr<std::string> bytes = readFileBytes(path);
    if (!bytes.ok() || bytes->empty())
        return 0.0;
    uint32_t sink = 0;
    size_t passes = 0;
    const auto t0 = Clock::now();
    do {
        sink ^= crc32(bytes->data(), bytes->size());
        ++passes;
    } while (secondsSince(t0) < 0.2);
    const double secs = secondsSince(t0);
    // Keep the checksums observable so the loop cannot be elided.
    if (sink == 0x12345678u)
        std::fprintf(stderr, "crc sink %u\n", sink);
    return static_cast<double>(bytes->size()) * passes / 1048576.0 / secs;
}

} // namespace

Round
runTracedRound(const Workload &w, const std::string &scratchDir,
               Tracer &tracer, LayerCounts &counts)
{
    Round round;
    LayerCounts setup_counts;
    Ctx setup{tracer, setup_counts};
    Ctx timed{tracer, counts};
    if (w.kind == Kind::Memory) {
        {
            Scope s(tracer, "setup");
            round.setup = tracedMemoryPhase(w.patch, {w.memorySetup}, setup);
        }
        Scope s(tracer, "timed");
        round.timed.push_back(
            tracedMemoryPhase(w.patch, w.memoryCalls, timed));
        return round;
    }
    DeformedCodeCache cache;
    ScenarioConfig a = w.blockA, b = w.blockB;
    const bool restart = w.kind == Kind::CosmicRestart;
    if (restart) {
        std::filesystem::remove_all(scratchDir);
        a.persistDir = b.persistDir = scratchDir;
    }
    DeformedCodeCache *shared = restart ? nullptr : &cache;
    {
        Scope s(tracer, "setup");
        round.setup = tracedScenarioPhase(a, shared, setup);
    }
    for (int i = 0; i < w.timedPasses && round.setup.error.empty(); ++i) {
        Scope s(tracer, "timed");
        round.timed.push_back(tracedScenarioPhase(b, shared, timed));
        if (!round.timed.back().error.empty())
            break;
    }
    if (restart) {
        counts.crcMiBPerSec = crcMiBPerSec(scratchDir + "/cache.snap");
        std::filesystem::remove_all(scratchDir);
    }
    return round;
}

} // namespace perfbench
