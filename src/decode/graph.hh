/**
 * @file
 * Matching graph for one CSS basis: detector nodes plus a virtual
 * boundary node with edge weights w = log((1-p)/p), stored as a CSR
 * adjacency. Construction is O(edges); there is no precompute.
 * Shortest-path questions are answered by memoized rows: one lazy
 * Dijkstra row per fired defect node, built by whichever decode worker
 * first needs it and shared lock-free afterwards, using caller-owned
 * epoch-stamped scratch state (reset is O(1), steady state allocates
 * nothing).
 *
 * One row policy per graph, fixed by its backend: Dense rows cover the
 * full graph ("exact"), Sparse rows are radius-bounded. row() is the
 * only way a row enters the graph: the cache snapshot stores the DEM
 * and the CSR digest, not rows, so a restored graph starts empty and
 * rebuilds its rows on demand like a cold one.
 *
 * Every row comes out of one Dijkstra kernel (fixed relaxation order,
 * epsilon and float rounding), so a row's entries are pure functions of
 * its source and the graph's backend.
 */

#ifndef SURF_DECODE_GRAPH_HH
#define SURF_DECODE_GRAPH_HH

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "sim/dem.hh"

namespace surf {

/** Candidate-pair policy of the MWPM decoder (see mwpm.hh). Both live
 *  backends read memoized rows and solve through the same sparse
 *  blossom. */
enum class MatchingBackend : uint8_t
{
    /** Exact rows: full-graph rows, every finite pair offered, no
     *  K-nearest mask. */
    Dense,
    /** Radius-bounded rows, with the K-nearest mask below the burst
     *  threshold. */
    Sparse,
    /** Retired (the matrix-free matcher left the library): scenario
     *  validation rejects it, DecodingGraph throws StatusError for it
     *  and cache snapshots naming it are rejected. The enumerator stays
     *  only until perfbench's traced engine mirror, which still names
     *  it, is deleted. */
    SparseBlossom,
};

/**
 * Caller-owned state for on-demand Dijkstra queries. Arrays are
 * epoch-stamped (a generation counter marks which entries belong to the
 * current search), so resetting between searches is O(1) and a decode
 * loop performs no allocation in steady state. One scratch per thread;
 * a scratch may be shared across graphs of different sizes (arrays only
 * ever grow).
 */
struct DijkstraScratch
{
    std::vector<std::pair<double, int>> heap;
    std::vector<double> dist;
    std::vector<uint8_t> par;
    std::vector<uint32_t> gen;
    uint32_t cur = 0;

    /** Grow the arrays to cover `n` nodes (no-op when large enough). */
    void
    bind(size_t n)
    {
        if (dist.size() < n) {
            heap.reserve(n);
            dist.resize(n);
            par.resize(n);
            gen.resize(n, 0);
        }
    }
};

/** Decoding graph over the detectors of one basis tag. */
class DecodingGraph
{
  public:
    /**
     * @param tag 0 = X-check detectors, 1 = Z-check detectors
     * @param backend row policy (Dense: full-graph rows, Sparse:
     *                radius-bounded), also recorded for snapshot
     *                identity; throws StatusError (INVALID_ARGUMENT) for
     *                the retired SparseBlossom
     */
    DecodingGraph(const DetectorErrorModel &dem, uint8_t tag,
                  MatchingBackend backend = MatchingBackend::Sparse);
    ~DecodingGraph();

    DecodingGraph(const DecodingGraph &) = delete;
    DecodingGraph &operator=(const DecodingGraph &) = delete;

    size_t numNodes() const { return global_of_.size(); }
    int boundaryNode() const { return static_cast<int>(numNodes()); }
    MatchingBackend backend() const { return backend_; }
    /** The detector tag this graph was built over (snapshot identity). */
    uint8_t tag() const { return tag_; }

    /** Read-only CSR adjacency over numNodes()+1 nodes (last = the
     *  boundary), in DEM edge order — the shared relaxation order. */
    const std::vector<uint32_t> &csrOffsets() const { return csr_off_; }
    const std::vector<int> &csrTargets() const { return csr_to_; }
    const std::vector<double> &csrWeights() const { return csr_w_; }
    const std::vector<uint8_t> &csrObsFlips() const { return csr_obs_; }

    /** Local node for a global detector id (-1 when not this tag). */
    int localOf(uint32_t global_det) const;

    /**
     * One memoized shortest-path row: distances and parities from a
     * source node to everything within `radius` (infinity elsewhere:
     * beyond the radius, or unreachable). Immutable once published;
     * shared lock-free across decode workers.
     */
    struct Row
    {
        double radius = 0.0;
        std::vector<float> dist; ///< numNodes()+1 entries, inf = absent
        std::vector<uint8_t> par;
    };

    /**
     * Memoized row for `src`. Rows are built lazily by whichever
     * decode worker first needs them — the scratch supplies the
     * Dijkstra state — and then shared: a decoder that lives in the
     * DeformedCodeCache answers later shots and later epochs at
     * table-lookup speed, while a shape that is decoded once only ever
     * pays for the rows its own defects touch.
     *
     * On a Dense graph the row covers the full graph. On a Sparse
     * graph it is truncated at radius 2 * d(src, boundary): for any
     * defect pair (i, j), max(2 d(i,B), 2 d(j,B)) >= d(i,B) + d(j,B), so
     * every pair that could appear in a minimum-weight perfect matching
     * (farther pairs lose to matching both ends into the boundary) is
     * present in at least one of its endpoints' rows.
     *
     * Concurrent builders may race; the first publication wins and the
     * values are identical either way, so results never depend on the
     * winner. The returned shared_ptr keeps the row alive for the
     * caller even if the row budget evicts it mid-shot; rows are pure
     * functions of their source, so eviction and rebuild can never
     * change results, only cost.
     */
    std::shared_ptr<const Row> row(int src, DijkstraScratch &sc) const;

    /**
     * Bound the memoized row pool: at most `max_rows` rows stay
     * resident (0 = unbounded). When a newly published row pushes the
     * pool past the budget, the least-recently-used rows are dropped —
     * long d >= 21 sweeps can no longer grow O(n^2) row memory. In-use
     * rows are safe (shared_ptr), and results are unchanged by
     * construction. Set the budget before decode workers start: the
     * first non-zero budget permanently switches readers from the
     * lock-free unbudgeted fast path to owned handles, and that switch
     * must not race in-flight row() calls.
     */
    void setRowBudget(size_t max_rows);
    size_t rowBudget() const
    {
        return row_budget_.load(std::memory_order_relaxed);
    }

    /** Rows currently resident (<= budget when one is set). */
    size_t rowsResident() const
    {
        return rows_resident_.load(std::memory_order_relaxed);
    }

    /** Total rows published over the graph's lifetime (diagnostics;
     *  counts rebuilds after eviction). */
    size_t rowsBuilt() const
    {
        return rows_built_.load(std::memory_order_relaxed);
    }

    /** Rough heap footprint (cache accounting). */
    size_t memoryBytes() const;

    /**
     * Structural digest of the CSR adjacency (offsets, targets, weight
     * bit patterns, parity flags). Two graphs built from the same DEM
     * have equal digests; the snapshot loader compares a restored
     * entry's recorded digest against the graph it rebuilds to catch
     * semantically inconsistent snapshots (a payload that passed its
     * CRC but belongs to different code) before the entry is cached.
     */
    uint64_t csrDigest() const;

    static constexpr double kInf = std::numeric_limits<double>::infinity();

  private:
    /**
     * The one Dijkstra kernel behind every row: fixed relaxation order
     * (CSR neighbour order), tie epsilon and float rounding. Every
     * settled node is written into the new row. On a Sparse graph it
     * explores freely until the boundary settles, then caps the radius
     * at 2 * d(src, boundary) plus a quantized-tie margin; on a Dense
     * graph the radius stays infinite.
     */
    Row *buildRow(int src, DijkstraScratch &sc) const;

    MatchingBackend backend_;
    uint8_t tag_ = 0;
    std::vector<uint32_t> global_of_;
    std::vector<int> local_of_;
    // CSR adjacency over numNodes()+1 nodes (last = boundary). Neighbor
    // order matches the DEM edge order, which fixes the relaxation
    // order of every search.
    std::vector<uint32_t> csr_off_;
    std::vector<int> csr_to_;
    std::vector<double> csr_w_;
    std::vector<uint8_t> csr_obs_;
    /** Drop least-recently-used rows until the pool fits the budget. */
    void enforceRowBudget() const;

    // Lazily built, immutable-once-published rows.
    // Slots are atomic shared_ptrs so the budget can evict concurrently
    // with readers; per-slot use stamps drive the LRU choice. While no
    // budget has ever been set (the default), a published row is never
    // replaced or freed before the graph, so readers take a lock-free
    // raw-pointer fast path instead (fast_rows_ mirrors the slots); the
    // first setRowBudget permanently switches readers to owned handles.
    mutable std::vector<std::atomic<std::shared_ptr<const Row>>> rows_;
    mutable std::vector<std::atomic<const Row *>> fast_rows_;
    mutable std::vector<std::atomic<uint64_t>> row_stamp_;
    mutable std::atomic<uint64_t> row_tick_{0};
    mutable std::atomic<size_t> rows_built_{0};
    mutable std::atomic<size_t> rows_resident_{0};
    std::atomic<size_t> row_budget_{0};      ///< 0 = unbounded
    std::atomic<bool> row_budget_ever_{false};
    mutable std::mutex evict_mutex_;
};

} // namespace surf

#endif // SURF_DECODE_GRAPH_HH
