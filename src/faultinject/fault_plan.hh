/**
 * @file
 * Deterministic fault injection for the scenario service. A FaultPlan
 * names what goes wrong and how often; a FaultInjector turns it into
 * per-site decisions that are pure hash functions of (plan seed, site,
 * indices) — no mutable state, so decisions are identical at any thread
 * count and any replay with the same seed. The layer is compiled always
 * and enabled only by a non-empty plan (ScenarioConfig::faults or the
 * SURF_FAULT_PLAN environment variable); an empty plan short-circuits
 * every query to "no fault".
 *
 * Sites:
 *  - decoder stalls (stall.*): virtual time charged to the rows stage
 *    at stage entry, forcing the deadline's fallback to union-find
 *    deterministically (util/deadline.hh, virtual clock mode);
 *  - cache-eviction storms (storm.*): DeformedCodeCache::evictAll() fired
 *    mid-timeline between epoch builds and between shot batches, while
 *    live decodes still hold shared_ptr handles into evicted entries;
 *  - defect-stream truncation/corruption (truncate.frac / corrupt.p):
 *    models a malformed upstream producer — truncation drops the tail of
 *    the sampled event list (still valid, results change deterministically),
 *    corruption mangles events into invalid ones that the engine's input
 *    validation must reject with a Status, never UB;
 *  - adversarial burst syndromes (burst.*): a contiguous run of extra
 *    fired detectors spliced into a shot's defect list ahead of decoding,
 *    the worst-case input shape for the matching backends;
 *  - fabrication defects (fab.q.p / fab.c.p): per-timeline broken
 *    hardware — extra defective qubits/couplers added to the scenario's
 *    chip sample (defects/fab_defects.hh), forcing the bandage adapter
 *    and the dead-patch yield accounting;
 *  - snapshot faults (snap.*): corruption applied to warm-start snapshot
 *    bytes as they are written (src/persist) — torn-write truncation,
 *    seeded single-bit flips, a stale format-version stamp — plus
 *    snap.kill=N, which aborts the run (Status ABORTED) after N
 *    timelines complete, the kill/resume checkpoint harness.
 *
 * SURF_FAULT_PLAN syntax: semicolon-separated key=value clauses, e.g.
 *   seed=7;stall.p=1;stall.ns=50e6;
 *   storm.epochs=2;storm.batches=3;truncate.frac=0.5;corrupt.p=0.1;
 *   burst.p=0.05;burst.size=40;fab.q.p=0.01;fab.c.p=0.005;
 *   snap.torn=0.6;snap.bitflip.p=1e-4;snap.stale=1;snap.kill=3
 * Unknown keys and out-of-range values are INVALID_ARGUMENT errors.
 */

#ifndef SURF_FAULTINJECT_FAULT_PLAN_HH
#define SURF_FAULTINJECT_FAULT_PLAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "defects/defect_sampler.hh"
#include "util/status.hh"

namespace surf {

struct FabDefectSample; // defects/fab_defects.hh

/** Declarative fault schedule (empty = everything disabled). */
struct FaultPlan
{
    uint64_t seed = 0; ///< decision seed (independent of the run seed)

    // --- decoder stalls -------------------------------------------------
    double stallProb = 0.0;        ///< per (shot, epoch)
    uint64_t stallNs = 50'000'000; ///< virtual stall per hit (50 ms)

    // --- cache-eviction storms ------------------------------------------
    uint32_t stormEveryEpochs = 0;  ///< evictAll() before every Nth epoch build
    uint32_t stormEveryBatches = 0; ///< evictAll() before every Nth shot batch

    // --- defect-stream faults -------------------------------------------
    double truncateFrac = -1.0; ///< keep this fraction of events (<0 = off)
    double corruptProb = 0.0;   ///< per event: mangle into an invalid one

    // --- adversarial burst syndromes ------------------------------------
    double burstProb = 0.0;  ///< per (shot, epoch)
    uint32_t burstSize = 32; ///< contiguous detectors per injected burst

    // --- fabrication defects (fab.q.p / fab.c.p) ------------------------
    // Per-timeline extra broken hardware on top of any configured
    // FabDefectModel chip: each physical qubit / coupler of the base
    // patch is independently defective with these probabilities, decided
    // by pure hashes of (plan seed, timeline salt, site) — so replays of
    // a defective chip are identical at any thread count, like every
    // other injected fault.
    double fabQubitProb = 0.0;   ///< per physical qubit, per timeline
    double fabCouplerProb = 0.0; ///< per ancilla-data coupler, per timeline

    // --- snapshot faults (src/persist) ----------------------------------
    double snapTornFrac = -1.0;   ///< truncate written snapshots to this
                                  ///< fraction of their bytes (<0 = off);
                                  ///< models a torn write / full disk
    double snapBitflipProb = 0.0; ///< per written snapshot byte: flip one
                                  ///< seeded bit (media corruption)
    bool snapStale = false;       ///< stamp an alien format version (with
                                  ///< a matching header CRC) — version
                                  ///< skew from an older/newer writer
    uint32_t snapKillTimelines = 0; ///< abort the run once this many
                                    ///< timelines have completed
                                    ///< cumulatively (0 = off) — the
                                    ///< kill/resume harness

    bool
    enabled() const
    {
        return stallProb > 0.0 || stormEveryEpochs || stormEveryBatches ||
               truncateFrac >= 0.0 || corruptProb > 0.0 || burstProb > 0.0 ||
               fabQubitProb > 0.0 || fabCouplerProb > 0.0 ||
               snapTornFrac >= 0.0 || snapBitflipProb > 0.0 || snapStale ||
               snapKillTimelines;
    }
    bool hasDecoderStalls() const { return stallProb > 0.0; }

    /** One-line description for logs and bench output. */
    std::string summary() const;
};

/** Parse a SURF_FAULT_PLAN-syntax spec. Empty string = empty plan. */
StatusOr<FaultPlan> parseFaultPlan(const std::string &spec);

/** Range-check a (possibly hand-built) plan. */
Status validateFaultPlan(const FaultPlan &plan);

/** The SURF_FAULT_PLAN environment plan; empty plan when unset. */
StatusOr<FaultPlan> faultPlanFromEnv();

/**
 * Stateless decision oracle for one plan. Every query hashes the plan
 * seed with the site id and the caller's indices; the `salt` argument is
 * the per-timeline decorrelator (the engine passes its batch-seed base,
 * which is unique per timeline and stable across thread counts).
 */
class FaultInjector
{
  public:
    FaultInjector() = default; ///< disabled
    explicit FaultInjector(const FaultPlan &plan) : plan_(plan) {}

    const FaultPlan &plan() const { return plan_; }
    bool enabled() const { return plan_.enabled(); }
    bool
    virtualClockNeeded() const
    {
        return plan_.hasDecoderStalls();
    }

    /** Virtual stall (ns) charged to this decode's rows stage; 0 =
     *  none. */
    uint64_t stallNs(uint64_t salt, uint64_t shot, uint64_t epoch) const;

    /** Fire a cache-eviction storm before this epoch build? */
    bool stormAtEpochBuild(uint64_t salt, uint64_t epochIndex) const;

    /** Fire a cache-eviction storm before this shot batch? */
    bool stormAtBatch(uint64_t salt, uint64_t batchIndex) const;

    /**
     * Apply the plan's stream faults to a sampled event list in place:
     * deterministic tail truncation, then per-event corruption (swapped
     * cycle interval, cleared site set, far out-of-range center — shapes
     * validateDefectStream must reject).
     */
    void mutateStream(uint64_t salt, std::vector<DefectEvent> &events) const;

    /**
     * Maybe splice an adversarial burst into a shot's epoch-local fired
     * detector list (kept sorted and deduplicated, ids < numDetectors).
     * @return number of detector ids added (0 = no burst)
     */
    size_t injectBurst(uint64_t salt, uint64_t shot, uint64_t epoch,
                       size_t numDetectors,
                       std::vector<uint32_t> &ids) const;

    /**
     * Add the plan's per-timeline fabrication defects (fab.q.p /
     * fab.c.p) to a chip sample in place: every physical qubit and
     * coupler of `patch` is independently defective by a pure hash of
     * (plan seed, salt, site), so the same timeline always breaks the
     * same hardware — thread-count-invariant defective-chip replays.
     */
    void injectFabDefects(uint64_t salt, const CodePatch &patch,
                          FabDefectSample &sample) const;

    /**
     * Apply the plan's snapshot faults to a finished snapshot byte image
     * just before it reaches the filesystem (persist/SnapshotWriter):
     * stale version stamp (with a recomputed header CRC, so the version
     * check itself fires, not the CRC), seeded per-byte single-bit
     * flips, then tail truncation — torn write last, like real media.
     * The loader must degrade every shape to a cold rebuild.
     */
    void mutateSnapshotBytes(uint64_t salt, std::string &bytes) const;

    /** Cumulative completed-timeline count at which the engine simulates
     *  a crash (Status ABORTED); 0 = never. */
    uint32_t killAfterTimelines() const { return plan_.snapKillTimelines; }

  private:
    FaultPlan plan_;
};

} // namespace surf

#endif // SURF_FAULTINJECT_FAULT_PLAN_HH
