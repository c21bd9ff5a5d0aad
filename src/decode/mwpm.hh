/**
 * @file
 * Minimum-weight perfect-matching decoder (the PyMatching-equivalent):
 * fired detectors are matched pairwise or to the boundary along shortest
 * paths of the decoding graph; the predicted observable flip is the XOR
 * of the observable parities along the matched paths.
 *
 * Every solve goes through one exact solver, the sparse blossom's
 * mirrorMatch (sparse_blossom.hh). The three backends (graph.hh) differ
 * only in how they find the candidate pairs they hand it:
 *
 *  - Sparse (default) and Dense read them off memoized shortest-path
 *    rows, one per fired defect node (DecodingGraph::row): rows are
 *    built lazily by the decode workers, shared lock-free, and persist
 *    with the graph, so a decoder living in the DeformedCodeCache
 *    answers later shots at table-lookup speed while never paying for
 *    rows no defect touches. The edge list is every defect pair a row
 *    witnesses, plus each defect's boundary edge.
 *  - SparseBlossom grows bounded balls on the CSR adjacency instead
 *    (sparseBlossomDecode); Sparse dispatches burst shots to it too.
 *
 * Exactness ladder of the rows path:
 *  - Dense, or Sparse with setTruncation(SIZE_MAX): exact rows — rows
 *    cover the whole graph, every finite pair is offered, no burst
 *    dispatch.
 *  - Sparse default (truncation K): rows are radius-bounded at
 *    2 d(src, B); since max(2 d(i,B), 2 d(j,B)) >= d(i,B) + d(j,B),
 *    every pair that could appear in a minimum-weight perfect matching
 *    (farther pairs lose to matching both ends into the boundary) is
 *    present in at least one endpoint's row, so the returned matching
 *    is still minimum-weight. Shots with more than K+1 defects
 *    additionally keep only the pairs in which one endpoint is among the
 *    other's K nearest fellow defects (the PyMatching-style
 *    approximation), with an untruncated retry whenever that leaves no
 *    perfect matching.
 */

#ifndef SURF_DECODE_MWPM_HH
#define SURF_DECODE_MWPM_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "decode/graph.hh"
#include "decode/sparse_blossom.hh"
#include "util/deadline.hh"

namespace surf {

class ThreadPool;

/** Default K of the Sparse backend's K-nearest mask: each defect's
 *  pairs to its K nearest fellow defects are kept, so any shot with at
 *  most K+1 defects is matched over every pair its rows witness. */
inline constexpr size_t kDefaultNearestDefects = 16;

/** Floor of the automatic sparse-blossom dispatch threshold: the Sparse
 *  backend hands a shot to the matrix-free matcher when its defect
 *  count reaches max(kDefaultBlossomDefects, numNodes() / 12). The
 *  density guard is what separates the two regimes on real workloads:
 *  a fired-defect count that is a sizable fraction of the whole graph
 *  only happens for contiguous burst clusters (cosmic-ray events),
 *  while scattered syndromes of any realistic count keep the
 *  memoized-rows path. Override with setBlossomThreshold(). */
inline constexpr size_t kDefaultBlossomDefects = 16;

/**
 * Reusable per-thread decode workspace. The defect list, the row
 * handles, the Dijkstra search state and both matcher arenas keep their
 * heap buffers across calls, so a steady-state decode loop performs no
 * allocation here. Epoch-stamped arrays (Dijkstra state, ball covers)
 * reset in O(1). Each worker thread owns one scratch; the decoder itself
 * stays immutable and shareable, and one scratch may serve decoders of
 * different sizes.
 */
struct MwpmScratch
{
    std::vector<int> defects;

    // Rows path: lazy-search state, the shot's row handles and the
    // K-nearest selection buffers.
    DijkstraScratch dijkstra;
    /** Shared row handles held for the duration of one shot, so a row
     *  budget eviction can never free a row mid-decode. */
    std::vector<std::shared_ptr<const DecodingGraph::Row>> rows;
    std::vector<std::pair<float, int>> nearCand;
    /** Per defect: its K-th nearest (distance, slot), the last pair the
     *  K-nearest mask keeps for it. */
    std::vector<std::pair<float, int>> nearLimit;
    MirrorMatchScratch mirror; ///< the rows path's instance + solver

    // Matrix-free matcher arena (ball growth, candidate hash, blossom
    // solver); used by the SparseBlossom backend and by burst shots the
    // Sparse backend dispatches past the blossom threshold.
    SparseBlossomScratch blossom;

    /** Total weight of the last decode's matching, in the shared
     *  quantization (sum of llround(w * 1024) over matched pair and
     *  boundary paths). Exact rows and the matrix-free matcher report
     *  the same value on every shot — the cross-backend equivalence
     *  gates compare it directly; the default's K-nearest mask can
     *  only make it heavier, on rare shots. */
    int64_t lastWeight = 0;

    // --- Soft-deadline ladder (see util/deadline.hh). All default-off:
    // with `deadline` null every cooperative check is one pointer test
    // and decode() is bit-identical to a deadline-free build.
    /** Non-owning per-shot budget; armed by the engine, polled at
     *  coarse work boundaries inside the sparse decode paths. */
    DecodeDeadline *deadline = nullptr;
    /** Fault-injected virtual stall charged to each ladder stage at
     *  stage entry (all zero without a fault plan). */
    std::array<uint64_t, kNumDecodeStages> stallNs{};
    /** Trace of the last ladder decode (stages tried, latencies). */
    ShotLadderTrace ladder;
    /** True when the deadline expired before MWPM produced a trusted
     *  answer: the caller must fall back to the union-find floor. */
    bool timedOut = false;
};

/** MWPM decoder for one basis tag of a detector error model. */
class MwpmDecoder
{
  public:
    /**
     * @param pool unused: decoders build in O(edges) with no table
     *             precompute to parallelise (kept for source
     *             compatibility)
     * @param backend candidate-pair source (see the file comment)
     */
    MwpmDecoder(const DetectorErrorModel &dem, uint8_t tag,
                [[maybe_unused]] ThreadPool *pool = nullptr,
                MatchingBackend backend = MatchingBackend::Sparse)
        : graph_(dem, tag, backend)
    {
    }

    const DecodingGraph &graph() const { return graph_; }
    MatchingBackend backend() const { return graph_.backend(); }

    /** Sparse truncation knob: each defect keeps pairs to its K nearest
     *  fellow defects only, and rows are radius-bounded via boundary
     *  distances. SIZE_MAX = fully exact: no truncation, no radius
     *  bound, no burst dispatch — the Dense backend. Ignored by Dense,
     *  which is always exact. */
    void setTruncation(size_t k) { truncate_k_ = k ? k : 1; }
    size_t truncation() const { return truncate_k_; }

    /** Fired-defect count at which Sparse-backend shots go to the
     *  matrix-free sparse blossom (0 = always, SIZE_MAX = never). The
     *  default is automatic: max(kDefaultBlossomDefects, nodes / 12) —
     *  see blossomThreshold() for the resolved value. The SparseBlossom
     *  backend ignores this and always uses the matcher; Dense never
     *  dispatches. */
    void
    setBlossomThreshold(size_t k)
    {
        blossom_threshold_ = k;
        auto_threshold_ = false;
    }
    size_t
    blossomThreshold() const
    {
        return auto_threshold_
                   ? std::max(kDefaultBlossomDefects, graph_.numNodes() / 12)
                   : blossom_threshold_;
    }

    /** Rough heap footprint (cache accounting). */
    size_t memoryBytes() const { return graph_.memoryBytes(); }

    /** LRU bound on the memoized Dijkstra row pool (see
     *  DecodingGraph::setRowBudget); 0 = unbounded. */
    void setRowBudget(size_t max_rows) { graph_.setRowBudget(max_rows); }

    /**
     * Decode one shot: `fired` points at `n_fired` fired detector ids
     * (global); detectors of other tags are ignored. Thread-safe given a
     * per-thread scratch.
     *
     * When `scratch.deadline` is armed, the shot runs the staged
     * fallback ladder instead: sparse blossom (burst shots only) →
     * memoized-rows MWPM, each stage under the soft per-stage budget.
     * A stage that overruns is abandoned and the next stage tried; if
     * the rows stage also overruns, the partial answer is returned with
     * `scratch.timedOut` set and the caller is expected to downgrade to
     * its union-find floor.
     * `scratch.ladder` records stages tried and per-stage latencies.
     * @return predicted observable flip
     */
    bool decode(const uint32_t *fired, size_t n_fired,
                MwpmScratch &scratch) const;

  private:
    /** Exact rows: Dense, or Sparse at truncation SIZE_MAX. */
    bool
    exactRows() const
    {
        return graph_.backend() == MatchingBackend::Dense ||
               truncate_k_ == SIZE_MAX;
    }
    /** Whether a shot of k defects goes to the matrix-free matcher. */
    bool
    burst(size_t k) const
    {
        return graph_.backend() == MatchingBackend::SparseBlossom ||
               (!exactRows() && k >= blossomThreshold());
    }
    bool decodeRows(MwpmScratch &scratch) const;
    /** Deadline-armed path: blossom → rows with per-stage budgets. */
    bool decodeLadder(MwpmScratch &scratch) const;

    DecodingGraph graph_;
    size_t truncate_k_ = kDefaultNearestDefects;
    size_t blossom_threshold_ = 0;
    bool auto_threshold_ = true;
};

} // namespace surf

#endif // SURF_DECODE_MWPM_HH
