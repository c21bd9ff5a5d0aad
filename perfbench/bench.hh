/**
 * @file
 * Shared definitions of the deformation-pipeline benchmark driver: the
 * four seeded workloads, the per-phase physics counts the correctness
 * gate compares, and the in-memory span recorder of the traced run.
 *
 * Every workload run is a sequence of identical *rounds*. A round starts
 * from empty state (fresh cache, fresh persistence directory), runs an
 * untimed-but-measured set-up phase and then a timed phase. Rounds are
 * pure functions of (workload, seed), so their physics counts must agree
 * round to round, with the stored reference, and between the untraced
 * (library entry point) and traced (layer-by-layer) drivers.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "decode/memory_experiment.hh"
#include "scenario/scenario_experiment.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** SplitMix64 finalizer: derives every library seed from the workload
 *  seed, so the library only ever sees the generated configs. */
uint64_t mixSeed(uint64_t seed, uint64_t salt);

enum class Kind
{
    Memory,        ///< memory_d9
    CosmicCold,    ///< cosmic_cold_d7
    CosmicRestart, ///< cosmic_restart_d7
    Q3deBurst,     ///< q3de_burst_d7
};

/** Input properties of one generated scenario block: its library seed,
 *  cosmic-ray events, timelines with events, residual defect load
 *  (defective sites left inside the code x rounds) and the planned
 *  segment shapes new to the round with their qubits x rounds. */
struct BlockInfo
{
    uint64_t seed = 0;
    size_t events = 0, active = 0, newShapes = 0;
    double residualLoad = 0.0, newVolume = 0.0;
};

/** A fully generated workload: everything the library receives. */
struct Workload
{
    std::string name;
    Kind kind = Kind::Memory;

    // memory_d9: one-shot cold set-up call, then `memoryCalls` timed
    // calls with a fixed shot budget each (no early stop).
    surf::CodePatch patch;
    surf::MemoryExperimentConfig memorySetup;
    std::vector<surf::MemoryExperimentConfig> memoryCalls;

    // Scenario workloads: block A (set-up) and block B (timed; equal to
    // A where the timed phase replays the set-up timelines).
    surf::ScenarioConfig blockA;
    surf::ScenarioConfig blockB;

    int timedPasses = 1; ///< timed passes per round
    std::vector<BlockInfo> blocks; ///< A, then B when it differs
};

/** Generate `name` from the workload seed; `smoke` shrinks every size so
 *  the whole suite runs in seconds. Returns false for an unknown name. */
bool makeWorkload(const std::string &name, uint64_t seed, bool smoke,
                  size_t threads, Workload &out);

/** Physics outcome of one phase: what the correctness gate compares. */
struct Counts
{
    uint64_t shots = 0;
    uint64_t failures = 0;
    uint64_t epochs = 0;
    uint64_t deadTimelines = 0;
    bool
    operator==(const Counts &o) const
    {
        return shots == o.shots && failures == o.failures &&
               epochs == o.epochs && deadTimelines == o.deadTimelines;
    }
};

/** One measured phase. `error` is non-empty when the library returned a
 *  non-OK Status (a failed operation). */
struct Phase
{
    double seconds = 0.0;
    Counts counts;
    std::string error;
    uint64_t cacheHits = 0, cacheMisses = 0;
    uint64_t restoredSegments = 0, restoredRows = 0;
    uint64_t snapshotBytes = 0;
};

/** One round: a set-up phase, then the timed phase once or, where it
 *  replays the set-up's timelines and leaves the state it found, several
 *  times (each pass is one sample). */
struct Round
{
    Phase setup;
    std::vector<Phase> timed;
};

/** Untraced round through the library's public entry points.
 *  `scratchDir` holds the round's persistence directory. */
Round runUntracedRound(const Workload &w, const std::string &scratchDir);

// --------------------------------------------------------------- tracing

/** One recorded span: name, start, end (seconds from the tracer's epoch)
 *  and parent span index (-1 = root). */
struct Span
{
    const char *name;
    double start = 0.0, end = 0.0;
    int parent = -1;
};

/**
 * In-memory span recorder for the orchestrating thread. Spans nest by
 * construction order (RAII scopes); decode-worker time, which runs on
 * several threads at once, is accounted by the traced driver in
 * worker-seconds and folded into wall time there.
 */
class Tracer
{
  public:
    Tracer() : t0_(Clock::now()) {}

    int
    open(const char *name)
    {
        spans_.push_back({name, now(), 0.0, cur_});
        cur_ = static_cast<int>(spans_.size()) - 1;
        return cur_;
    }
    void
    close(int id)
    {
        spans_[id].end = now();
        cur_ = spans_[id].parent;
    }
    /** Record a finished child of the current span directly (virtual
     *  spans apportioned from worker time). */
    void
    add(const char *name, double start, double end)
    {
        spans_.push_back({name, start, end, cur_});
    }
    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - t0_).count();
    }
    const std::vector<Span> &spans() const { return spans_; }

  private:
    Clock::time_point t0_;
    std::vector<Span> spans_;
    int cur_ = -1;
};

class Scope
{
  public:
    Scope(Tracer &t, const char *name) : t_(t), id_(t.open(name)) {}
    ~Scope() { t_.close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
    int id_;
};

/** Counters the traced driver records at the same layer boundaries. */
struct LayerCounts
{
    uint64_t rowsCalls = 0, blossomCalls = 0, ufCalls = 0;
    double workerBusy = 0.0;  ///< worker-seconds inside shards
    double workerIdle = 0.0;  ///< worker-seconds waiting for stragglers
    uint64_t rowsBuilt = 0;   ///< memoized Dijkstra rows built
    uint64_t demEdges = 0;    ///< edges of DEMs built
    uint64_t cacheHits = 0, cacheMisses = 0;
    uint64_t cacheEntries = 0;
    double cacheResidentMiB = 0.0;
    double cacheBuildSeconds = 0.0;
    uint64_t restoredRows = 0;
    uint64_t snapshotBytes = 0;
    double crcMiBPerSec = 0.0;
    /** Histogram of fired detectors per (shot, epoch) decode; the last
     *  bin collects everything at or above it. */
    std::vector<uint64_t> firedHist = std::vector<uint64_t>(1024, 0);
};

/** Traced counterpart of runUntracedRound: the same work driven through
 *  each layer's public functions, with spans around every call. Spans
 *  of the timed passes are those under root spans named "timed". */
Round runTracedRound(const Workload &w, const std::string &scratchDir,
                     Tracer &tracer, LayerCounts &counts);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
