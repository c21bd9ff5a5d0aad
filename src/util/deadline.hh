/**
 * @file
 * Soft decode deadlines and the graceful-degradation ledger.
 *
 * A real-time decoding service cannot block on a slow shot: a late exact
 * answer stalls the control loop, while an on-time approximate answer
 * merely costs a little accuracy. DecodeDeadline gives every shot a soft
 * per-stage time budget and the decoders cooperative cancellation points;
 * when a stage overruns, the engine downgrades along a staged fallback
 * ladder — memoized-rows MWPM → union-find — and the union-find floor
 * always completes, so a decode can degrade but never block. Every
 * downgrade is recorded in a DegradationLedger (per-stage
 * attempt/timeout/completion counts plus log2-bucket latency
 * histograms), which the scenario engine aggregates per run.
 *
 * Two clock modes:
 *  - Real (default): stage elapsed time is a monotonic stopwatch. Stage
 *    choices then depend on wall time, so degraded results are
 *    best-effort, not reproducible — the production mode.
 *  - Virtual: the wall clock is ignored; stage elapsed time is exactly
 *    the stall injected by a fault plan (faultinject/fault_plan.hh).
 *    Stage choices and recorded latencies become pure functions of the
 *    plan seed, which is what makes fault-injection replays bit-identical
 *    at any thread count — the testing mode.
 *
 * With no deadline armed (softNs == 0, the default everywhere) every
 * cooperative check is a null-pointer test and results are bit-identical
 * to a build without this subsystem.
 */

#ifndef SURF_UTIL_DEADLINE_HH
#define SURF_UTIL_DEADLINE_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

namespace surf {

/** Stages of the fallback ladder, in downgrade order. */
enum DecodeStage : uint8_t
{
    kStageRows = 0,      ///< memoized-rows MWPM
    kStageUnionFind = 1, ///< union-find floor: always completes
    kNumDecodeStages = 2,
};

/** Human-readable stage tag ("rows" / "uf"). */
const char *decodeStageName(DecodeStage stage);

/**
 * Per-shot soft decode budget with cooperative cancellation.
 *
 * The owner configures the budget once (configure), then per shot arms
 * stages in ladder order: beginStage() starts the stage clock, the
 * decoder polls expired() at coarse work boundaries (per Dijkstra row,
 * per solve), and the owner reads stageElapsedNs() for the ledger when
 * the stage ends. In virtual mode the stage clock is the
 * injected stall alone, so expiry is deterministic.
 */
class DecodeDeadline
{
  public:
    /** @param softNs per-stage soft budget; 0 disables the deadline
     *  @param virtualClock true = deterministic fault-replay mode */
    void
    configure(uint64_t softNs, bool virtualClock)
    {
        soft_ns_ = softNs;
        virtual_ = virtualClock;
    }

    bool armed() const { return soft_ns_ != 0; }
    uint64_t softNs() const { return soft_ns_; }
    bool virtualClock() const { return virtual_; }

    /** Start a stage's clock; `stallNs` is the fault-injected stall
     *  charged to this stage (0 when no fault plan is active). */
    void
    beginStage(uint64_t stallNs = 0)
    {
        stall_ns_ = stallNs;
        if (!virtual_)
            start_ = std::chrono::steady_clock::now();
    }

    /** Elapsed time of the current stage: injected stall plus (in real
     *  mode) the monotonic stopwatch. */
    uint64_t
    stageElapsedNs() const
    {
        if (virtual_)
            return stall_ns_;
        const auto dt = std::chrono::steady_clock::now() - start_;
        return stall_ns_ +
               static_cast<uint64_t>(
                   std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                       .count());
    }

    /** Cooperative cancellation point. */
    bool
    expired() const
    {
        return armed() && stageElapsedNs() > soft_ns_;
    }

  private:
    uint64_t soft_ns_ = 0;
    uint64_t stall_ns_ = 0;
    bool virtual_ = false;
    std::chrono::steady_clock::time_point start_{};
};

/**
 * Trace of one shot's trip down the ladder, filled by MwpmDecoder and
 * (for the union-find floor) the engine; merged into the worker's
 * DegradationLedger after each decode.
 */
struct ShotLadderTrace
{
    uint8_t attempted = 0;                     ///< bitmask of DecodeStage
    uint8_t timedOut = 0;                      ///< bitmask of DecodeStage
    DecodeStage answer = kStageRows;           ///< stage that produced it
    std::array<uint64_t, kNumDecodeStages> ns{}; ///< per-stage latency

    void
    reset()
    {
        attempted = 0;
        timedOut = 0;
        answer = kStageRows;
        ns = {};
    }
    void
    note(DecodeStage stage, uint64_t elapsedNs, bool expired)
    {
        attempted |= uint8_t{1} << stage;
        if (expired)
            timedOut |= uint8_t{1} << stage;
        ns[stage] = elapsedNs;
    }
};

/** log2-bucketed latency histogram (bucket b: [2^(b-1), 2^b) ns). */
struct LatencyHistogram
{
    static constexpr size_t kBuckets = 44; ///< up to ~2.4 hours
    std::array<uint64_t, kBuckets> buckets{};
    uint64_t samples = 0;
    uint64_t totalNs = 0;
    uint64_t maxNs = 0;

    void add(uint64_t ns);
    void merge(const LatencyHistogram &other);
    double meanNs() const;
    /** Smallest bucket upper bound covering >= q of the samples (a
     *  conservative quantile; exact enough for ladder diagnostics). */
    uint64_t quantileUpperBoundNs(double q) const;
};

/**
 * Per-run accounting of the fallback ladder and injected faults. One
 * ledger per worker, merged in fixed worker order, so totals are
 * deterministic whenever the per-shot traces are (virtual clock mode).
 */
struct DegradationLedger
{
    uint64_t ladderDecodes = 0;   ///< decodes run under the ladder
    uint64_t degradedDecodes = 0; ///< decodes that fell past stage one
    std::array<uint64_t, kNumDecodeStages> stageAttempts{};
    std::array<uint64_t, kNumDecodeStages> stageTimeouts{};
    std::array<uint64_t, kNumDecodeStages> stageCompleted{}; ///< gave answer
    std::array<LatencyHistogram, kNumDecodeStages> stageLatency{};

    // Injected-fault accounting (engine-side sites).
    uint64_t injectedStalls = 0;
    uint64_t injectedBursts = 0;
    uint64_t injectedBurstDetectors = 0;
    uint64_t cacheStorms = 0;

    // Warm-start persistence accounting (src/persist; all zero when no
    // persist directory is configured). Recovery counters record every
    // time corrupted or stale persisted state was detected and the run
    // degraded to a cold rebuild instead — the crash-safety contract.
    uint64_t snapRestoredEntries = 0;  ///< cache entries rehydrated
    uint64_t snapRejectedRecords = 0;  ///< records dropped (CRC/semantic)
    uint64_t snapRecoveries = 0;       ///< whole-file cold fallbacks

    // Fabrication-defect accounting (src/defects/fab_defects; all zero
    // on pristine chips). Dead patches are the yield contract: a chip
    // whose adapted distance collapsed runs as a deterministic all-loss
    // timeline — tallied here, never aborting the run.
    uint64_t fabDeadPatches = 0;    ///< timelines on a dead adapted chip
    uint64_t fabAdaptedPatches = 0; ///< timelines on a live adapted chip
    uint64_t fabDistanceLoss = 0;   ///< cumulative d - minDist (live chips)

    void record(const ShotLadderTrace &trace);
    void merge(const DegradationLedger &other);
    bool
    empty() const
    {
        return ladderDecodes == 0 && injectedStalls == 0 &&
               injectedBursts == 0 && cacheStorms == 0 &&
               fabDeadPatches == 0 && fabAdaptedPatches == 0;
    }
    /** Multi-line human-readable summary (README "ledger fields"). */
    std::string summary() const;
};

} // namespace surf

#endif // SURF_UTIL_DEADLINE_HH
