#include "persist/checkpoint.hh"

#include <cmath>
#include <cstring>

#include "persist/snapshot.hh"

namespace surf {

namespace {

enum RecordType : uint8_t
{
    kRecMeta = 1,
    kRecTimeline = 2,
};

/** FNV-1a accumulator for the config signature. */
struct SigHash
{
    uint64_t h = 0xcbf29ce484222325ull;
    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    void
    f64(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }
};

void
writeLedger(ByteWriter &w, const DegradationLedger &led)
{
    w.u64(led.ladderDecodes);
    w.u64(led.degradedDecodes);
    for (size_t s = 0; s < kNumDecodeStages; ++s) {
        w.u64(led.stageAttempts[s]);
        w.u64(led.stageTimeouts[s]);
        w.u64(led.stageCompleted[s]);
        const LatencyHistogram &hist = led.stageLatency[s];
        for (uint64_t b : hist.buckets)
            w.u64(b);
        w.u64(hist.samples);
        w.u64(hist.totalNs);
        w.u64(hist.maxNs);
    }
    w.u64(led.injectedStalls);
    w.u64(led.injectedBursts);
    w.u64(led.injectedBurstDetectors);
    w.u64(led.cacheStorms);
    w.u64(led.snapRestoredEntries);
    w.u64(led.snapRejectedRecords);
    w.u64(led.snapRecoveries);
    w.u64(led.fabDeadPatches);
    w.u64(led.fabAdaptedPatches);
    w.u64(led.fabDistanceLoss);
}

bool
readLedger(ByteReader &r, DegradationLedger &led)
{
    led.ladderDecodes = r.u64();
    led.degradedDecodes = r.u64();
    for (size_t s = 0; s < kNumDecodeStages; ++s) {
        led.stageAttempts[s] = r.u64();
        led.stageTimeouts[s] = r.u64();
        led.stageCompleted[s] = r.u64();
        LatencyHistogram &hist = led.stageLatency[s];
        for (uint64_t &b : hist.buckets)
            b = r.u64();
        hist.samples = r.u64();
        hist.totalNs = r.u64();
        hist.maxNs = r.u64();
    }
    led.injectedStalls = r.u64();
    led.injectedBursts = r.u64();
    led.injectedBurstDetectors = r.u64();
    led.cacheStorms = r.u64();
    led.snapRestoredEntries = r.u64();
    led.snapRejectedRecords = r.u64();
    led.snapRecoveries = r.u64();
    led.fabDeadPatches = r.u64();
    led.fabAdaptedPatches = r.u64();
    led.fabDistanceLoss = r.u64();
    return r.ok();
}

void
writeTimelineStats(ByteWriter &w, const TimelineStats &tl)
{
    w.u64(tl.shots);
    w.u64(tl.failures);
    w.u64(tl.events);
    w.u8(tl.dead ? 1 : 0);
    w.u64(tl.epochs.size());
    for (const EpochStats &ep : tl.epochs) {
        w.u64(ep.startRound);
        w.u64(ep.rounds);
        w.u64(ep.distX);
        w.u64(ep.distZ);
        w.u64(ep.activeDefects);
        w.u64(ep.numDetectors);
        w.u64(ep.decomposedHyperedges);
        w.f64(ep.undetectableObsProb);
        w.u64(ep.shots);
        w.u64(ep.mismatches);
    }
    writeLedger(w, tl.ledger);
}

bool
readTimelineStats(ByteReader &r, TimelineStats &tl)
{
    tl.shots = r.u64();
    tl.failures = r.u64();
    tl.events = static_cast<size_t>(r.u64());
    const uint8_t dead = r.u8();
    const uint64_t n_epochs = r.u64();
    if (!r.ok() || dead > 1 || n_epochs > r.remaining())
        return false;
    tl.dead = dead != 0;
    tl.epochs.reserve(static_cast<size_t>(n_epochs));
    for (uint64_t i = 0; i < n_epochs; ++i) {
        EpochStats ep;
        ep.startRound = r.u64();
        ep.rounds = r.u64();
        ep.distX = static_cast<size_t>(r.u64());
        ep.distZ = static_cast<size_t>(r.u64());
        ep.activeDefects = static_cast<size_t>(r.u64());
        ep.numDetectors = static_cast<size_t>(r.u64());
        ep.decomposedHyperedges = static_cast<size_t>(r.u64());
        ep.undetectableObsProb = r.f64();
        ep.shots = r.u64();
        ep.mismatches = r.u64();
        if (!r.ok())
            return false;
        tl.epochs.push_back(ep);
    }
    return readLedger(r, tl.ledger);
}

} // namespace

uint64_t
scenarioConfigSignature(const ScenarioConfig &cfg)
{
    SigHash sig;
    // Epoch planner.
    sig.u64(static_cast<uint64_t>(cfg.timeline.strategy));
    sig.u64(static_cast<uint64_t>(cfg.timeline.d));
    sig.u64(static_cast<uint64_t>(cfg.timeline.deltaD));
    sig.u64(cfg.timeline.horizonRounds);
    sig.u64(cfg.timeline.windowRounds);
    sig.u64(cfg.timeline.maxEpochRounds);
    sig.u64(cfg.timeline.forceEpochBoundaries);
    // Caller-pinned permanent defects (distinct from cfg.fabDefects,
    // whose sites the engine derives and must not double-hash).
    sig.u64(cfg.timeline.permanentSites.size());
    for (const Coord &c : cfg.timeline.permanentSites) {
        sig.u64(static_cast<uint64_t>(static_cast<int64_t>(c.x)));
        sig.u64(static_cast<uint64_t>(static_cast<int64_t>(c.y)));
    }
    // Fabrication-defect chip model (canonical zeros when disabled, so a
    // config predating the field keeps its signature).
    const bool fab_on = cfg.fabDefects.enabled();
    sig.f64(fab_on ? cfg.fabDefects.qubitRate : 0.0);
    sig.f64(fab_on ? cfg.fabDefects.couplerRate : 0.0);
    sig.u64(fab_on ? cfg.fabDefects.seed : 0);
    // Defect model + event stream.
    sig.f64(cfg.defectModel.eventRatePerQubitSec);
    sig.f64(cfg.defectModel.durationSec);
    sig.u64(static_cast<uint64_t>(cfg.defectModel.regionQubits));
    sig.u64(static_cast<uint64_t>(cfg.defectModel.regionDiameter));
    sig.f64(cfg.defectModel.cycleTimeSec);
    sig.f64(cfg.eventRateScale);
    sig.u64(static_cast<uint64_t>(cfg.numTimelines));
    // Noise (defectiveSites is per-epoch planner output, not config).
    sig.f64(cfg.noise.p);
    sig.f64(cfg.noise.pDefect);
    sig.f64(cfg.noise.pCorrelated2q);
    // Decode configuration.
    sig.u64(static_cast<uint64_t>(cfg.basis));
    sig.u64(static_cast<uint64_t>(cfg.decoder));
    sig.u64(cfg.mwpmDefectCap);
    sig.u64(static_cast<uint64_t>(cfg.matching));
    // Shot schedule + seeding.
    sig.u64(cfg.maxShotsPerTimeline);
    sig.u64(cfg.targetFailures);
    sig.u64(cfg.batchShots);
    sig.u64(cfg.decoderKnowsDefects);
    sig.u64(cfg.seed);
    sig.u64(cfg.decodeDeadlineNs);
    // Fault plan, minus the snap.* clauses: snapshot corruption and the
    // simulated crash change durability, never the decoded results, so a
    // resume may drop or alter them (the kill/resume harness does).
    // When no non-snap clause is live the whole plan (seed included) is
    // result-inert, and a snap-only killed run must match a later clean
    // resume — hash canonical zeros in that case.
    const FaultPlan &f = cfg.faults;
    const bool live_faults = f.stallProb > 0.0 || f.stormEveryEpochs ||
                             f.stormEveryBatches || f.truncateFrac >= 0.0 ||
                             f.corruptProb > 0.0 || f.burstProb > 0.0 ||
                             f.fabQubitProb > 0.0 || f.fabCouplerProb > 0.0;
    sig.u64(live_faults ? f.seed : 0);
    sig.f64(live_faults ? f.stallProb : 0.0);
    sig.u64(live_faults ? f.stallNs : 0);
    sig.u64(live_faults ? f.stormEveryEpochs : 0);
    sig.u64(live_faults ? f.stormEveryBatches : 0);
    sig.f64(live_faults ? f.truncateFrac : 0.0);
    sig.f64(live_faults ? f.corruptProb : 0.0);
    sig.f64(live_faults ? f.burstProb : 0.0);
    sig.u64(live_faults ? f.burstSize : 0);
    sig.f64(live_faults ? f.fabQubitProb : 0.0);
    sig.f64(live_faults ? f.fabCouplerProb : 0.0);
    // Deliberately excluded (result-invariant by the engine's contract):
    // threads, useCache, cache pointer, cacheMaxBytes/Entries,
    // mwpmRowBudget, persistDir, snap.*.
    return sig.h;
}

Status
saveRunCheckpoint(const std::string &path, uint64_t configSignature,
                  const std::vector<TimelineStats> &completed,
                  const FaultInjector *inject, uint64_t faultSalt)
{
    SnapshotWriter snap;
    {
        std::string &payload = snap.beginRecord(kRecMeta);
        ByteWriter w(payload);
        w.u64(configSignature);
        w.u64(completed.size());
        snap.endRecord();
    }
    for (const TimelineStats &tl : completed) {
        std::string &payload = snap.beginRecord(kRecTimeline);
        ByteWriter w(payload);
        writeTimelineStats(w, tl);
        snap.endRecord();
    }
    return snap.finish(path, inject, faultSalt);
}

StatusOr<RunCheckpoint>
loadRunCheckpoint(const std::string &path)
{
    StatusOr<std::string> bytes = readFileBytes(path);
    if (!bytes.ok())
        return bytes.status();
    StatusOr<SnapshotReader> reader = SnapshotReader::open(std::move(*bytes));
    if (!reader.ok())
        return reader.status();
    SnapshotReader &snap = reader.value();

    RunCheckpoint out;
    uint8_t type = 0;
    ByteReader payload(nullptr, 0);
    if (!snap.next(type, payload) || type != kRecMeta)
        return Status::corruptSnapshot(
            "checkpoint '" + path + "' has no meta record");
    out.configSignature = payload.u64();
    const uint64_t declared = payload.u64();
    if (!payload.ok())
        return Status::corruptSnapshot(
            "checkpoint '" + path + "': meta record truncated");
    while (snap.next(type, payload)) {
        if (type != kRecTimeline)
            return Status::corruptSnapshot(
                "checkpoint '" + path + "': unexpected record type " +
                std::to_string(type));
        TimelineStats tl;
        if (!readTimelineStats(payload, tl))
            return Status::corruptSnapshot(
                "checkpoint '" + path + "': malformed timeline record " +
                std::to_string(out.completed.size()));
        out.completed.push_back(std::move(tl));
    }
    // A torn tail (fewer records than declared) is the state of an
    // earlier checkpoint — a valid resume point. More than declared
    // means the meta record lies: reject.
    if (out.completed.size() > declared)
        return Status::corruptSnapshot(
            "checkpoint '" + path + "': " +
            std::to_string(out.completed.size()) +
            " timeline records but meta declares " +
            std::to_string(declared));
    return out;
}

} // namespace surf
