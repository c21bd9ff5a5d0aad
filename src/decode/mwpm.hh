/**
 * @file
 * Minimum-weight perfect-matching decoder (the PyMatching-equivalent):
 * fired detectors are matched pairwise or to the boundary along shortest
 * paths of the decoding graph; the predicted observable flip is the XOR
 * of the observable parities along the matched paths.
 *
 * There is one candidate source and one solver. Each fired defect
 * contributes its memoized shortest-path row (DecodingGraph::row):
 * rows are built lazily by the decode workers, shared lock-free, and
 * persist with the graph, so a decoder living in the DeformedCodeCache
 * answers later shots at table-lookup speed while never paying for rows
 * no defect touches. The candidate pairs are every defect pair a row
 * witnesses, plus each defect's boundary edge; the sparse blossom's
 * mirrorMatch (sparse_blossom.hh) solves them. The two backends
 * (graph.hh) differ only in which pairs they offer:
 *
 *  - Dense: full-graph rows, every finite pair offered.
 *  - Sparse (default): rows are radius-bounded at 2 d(src, B); since
 *    max(2 d(i,B), 2 d(j,B)) >= d(i,B) + d(j,B), every pair that could
 *    appear in a minimum-weight perfect matching (farther pairs lose to
 *    matching both ends into the boundary) is present in at least one
 *    endpoint's row, so the returned matching is still minimum-weight.
 *    Shots with K+1 < k < blossomThreshold() defects additionally keep
 *    only the pairs in which one endpoint is among the other's K nearest
 *    fellow defects (the PyMatching-style approximation), with an
 *    unmasked retry whenever that leaves no perfect matching. Burst
 *    shots (k >= blossomThreshold()) are matched over every witnessed
 *    pair.
 *
 * Unmasked shots of both backends minimise the same tie-break-perturbed
 * weights (match_weights.hh), so they pick the same matching.
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

/** Floor of the automatic burst threshold: the Sparse backend matches a
 *  shot without the K-nearest mask once its defect count reaches
 *  max(kDefaultBlossomDefects, numNodes() / 12). A fired-defect count
 *  that is a sizable fraction of the whole graph only happens for
 *  contiguous burst clusters (cosmic-ray events), whose pairs the mask
 *  would cut the most. Override with setBlossomThreshold(). */
inline constexpr size_t kDefaultBlossomDefects = 16;

/**
 * Reusable per-thread decode workspace. The defect list, the row
 * handles, the Dijkstra search state and the matcher arena keep their
 * heap buffers across calls, so a steady-state decode loop performs no
 * allocation here. The Dijkstra state is epoch-stamped and resets in
 * O(1). Each worker thread owns one scratch; the decoder itself stays
 * immutable and shareable, and one scratch may serve decoders of
 * different sizes.
 */
struct MwpmScratch
{
    std::vector<int> defects;

    // Lazy-search state, the shot's row handles and the K-nearest
    // selection buffers.
    DijkstraScratch dijkstra;
    /** Shared row handles held for the duration of one shot, so a row
     *  budget eviction can never free a row mid-decode. */
    std::vector<std::shared_ptr<const DecodingGraph::Row>> rows;
    std::vector<std::pair<float, int>> nearCand;
    /** Per defect: its K-th nearest (distance, slot), the last pair the
     *  K-nearest mask keeps for it. */
    std::vector<std::pair<float, int>> nearLimit;
    MirrorMatchScratch mirror; ///< the shot's instance + solver

    /** Total weight of the last decode's matching, in the shared
     *  quantization (sum of llround(w * 1024) over matched pair and
     *  boundary paths). Unmasked shots report the same value on either
     *  backend — the cross-backend equivalence gates compare it
     *  directly; the default's K-nearest mask can only make it heavier,
     *  on rare shots. */
    int64_t lastWeight = 0;

    // --- Soft-deadline ladder (see util/deadline.hh). All default-off:
    // with `deadline` null every cooperative check is one pointer test
    // and decode() is bit-identical to a deadline-free build.
    /** Non-owning per-shot budget; armed by the engine, polled before
     *  each row build and each solve. */
    DecodeDeadline *deadline = nullptr;
    /** Fault-injected virtual stall charged to the rows stage at stage
     *  entry (zero without a fault plan). */
    uint64_t stallNs = 0;
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
     * @param backend candidate-pair policy (see the file comment);
     *             MatchingBackend::SparseBlossom is retired and throws
     *             StatusError
     */
    MwpmDecoder(const DetectorErrorModel &dem, uint8_t tag,
                [[maybe_unused]] ThreadPool *pool = nullptr,
                MatchingBackend backend = MatchingBackend::Sparse)
        : graph_(dem, tag, backend)
    {
    }

    const DecodingGraph &graph() const { return graph_; }
    MatchingBackend backend() const { return graph_.backend(); }

    /** K of the Sparse backend's K-nearest mask, which binds on shots of
     *  K+1 < k < blossomThreshold() defects. SIZE_MAX = never mask.
     *  Ignored by Dense, which never masks. */
    void setTruncation(size_t k) { truncate_k_ = k ? k : 1; }
    size_t truncation() const { return truncate_k_; }

    /** Fired-defect count from which Sparse-backend shots are matched
     *  without the K-nearest mask (0 = never mask, SIZE_MAX = mask every
     *  shot past K+1). The default is automatic:
     *  max(kDefaultBlossomDefects, nodes / 12) — see blossomThreshold()
     *  for the resolved value. Ignored by Dense. */
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
     * When `scratch.deadline` is armed, the shot runs the first stage of
     * the fallback ladder (rows → union-find) under the soft budget: if
     * the rows stage overruns, the partial answer is returned with
     * `scratch.timedOut` set and the caller is expected to downgrade to
     * its union-find floor. `scratch.ladder` records the stages tried
     * and their latencies.
     * @return predicted observable flip
     */
    bool decode(const uint32_t *fired, size_t n_fired,
                MwpmScratch &scratch) const;

  private:
    bool decodeRows(MwpmScratch &scratch) const;

    DecodingGraph graph_;
    size_t truncate_k_ = kDefaultNearestDefects;
    size_t blossom_threshold_ = 0;
    bool auto_threshold_ = true;
};

} // namespace surf

#endif // SURF_DECODE_MWPM_HH
