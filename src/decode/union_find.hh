/**
 * @file
 * Union-Find decoder (Delfosse-Nickerson weighted cluster growth plus
 * peeling). Almost-linear-time alternative to MWPM with slightly worse
 * accuracy; used as an ablation decoder and as the fast path for very
 * high defect densities.
 *
 * Growth follows synchronous rounds: in each round every unfused edge
 * gains +1 per active endpoint cluster (odd parity, no boundary), edges
 * are applied in increasing index order, a union made by one edge is
 * seen by every later edge of the same round, and a fused edge merges
 * the cluster of its `b` end into the cluster of its `a` end. The
 * implementation is frontier-driven but fuses exactly the same forest
 * edges, in the same order, as a full scan of every edge in every round
 * would:
 *
 *  - each cluster keeps a frontier list of its incident edges, seeded
 *    lazily from a CSR incidence array, merged small-into-large, with
 *    fused and interior edges dropped lazily. The boundary cluster can
 *    never become active, so its (very long) list is never built;
 *  - rounds in which no edge would fuse are skipped in one step: with
 *    t = min over frontier edges of ceil((units - growth) / add), every
 *    frontier edge gains (t-1)·add and round t is replayed exactly;
 *  - the replayed round's queue is a bitset over edge ids scanned in
 *    index order; when a cluster turns active mid-round, the bits of its
 *    edges past the current one are set.
 *
 * Every replayed round fuses at least one edge, so a decode costs
 * O(real rounds × frontier) instead of O(rounds × all edges). Measured
 * on a 4-core x86-64 container against the full-scan version: one d = 7
 * Q3DE burst decode (pDefect = 0.5, 20 rounds, 10,884 edges, ~340
 * fired detectors) fell from 1.08 ms to 0.28 ms single-threaded, and
 * the `q3de_burst_d7` benchmark workload went from 984 to 2236 shots/s
 * (median of 10 runs each).
 */

#ifndef SURF_DECODE_UNION_FIND_HH
#define SURF_DECODE_UNION_FIND_HH

#include <cstdint>
#include <vector>

#include "sim/dem.hh"

namespace surf {

/**
 * Reusable per-thread workspace for the union-find decoder. Node and
 * edge state is reset by bumping an epoch stamp, so a decode touches
 * only the part of the graph its clusters reach; buffers only ever
 * grow. One scratch per worker thread (it may be shared across decoders
 * of different sizes); the decoder itself is immutable and shareable.
 */
struct UfScratch
{
    struct Node
    {
        uint32_t stamp;   ///< epoch of the last reset
        int parent;       ///< union-find parent
        int list;         ///< frontier list slot; -1: own incident edges
        int deg, xr;      ///< peeling: forest degree, XOR of forest edges
        uint8_t defect;   ///< fired (peeling: subtree parity)
        uint8_t parity;   ///< cluster defect parity (valid at roots)
        uint8_t boundary; ///< cluster touches the boundary (roots)
        uint8_t queued;   ///< listed in `active`
    };
    struct EdgeState
    {
        uint32_t stamp;
        int growth; ///< growth units so far; INT_MAX once fused
    };

    std::vector<Node> node;
    std::vector<EdgeState> edge;
    std::vector<uint64_t> queue; ///< in-round edge queue, one bit per edge
    std::vector<std::vector<int>> lists; ///< frontier list pool
    size_t lists_used = 0;               ///< pool slots handed out
    std::vector<int> free_lists;         ///< slots returned by merges
    std::vector<int> active;             ///< active cluster roots
    std::vector<int> leaves;             ///< peeling queue
    /** Edges fused into the spanning forest by the last decode, in fuse
     *  order. */
    std::vector<int> forest;
    uint32_t epoch = 0;

    /** Start a decode over a graph of `n` nodes (boundary included) and
     *  `n_edges` edges: bump the epoch and grow buffers if needed. */
    void prepare(size_t n, size_t n_edges);
};

/** Union-find decoder over one basis tag of a detector error model. */
class UnionFindDecoder
{
  public:
    UnionFindDecoder(const DetectorErrorModel &dem, uint8_t tag);

    /**
     * Decode one shot from `n_fired` global detector ids; thread-safe
     * given a per-thread scratch.
     * @return predicted observable flip
     */
    bool decode(const uint32_t *fired, size_t n_fired,
                UfScratch &scratch) const;

    /** Rough heap footprint (cache accounting). */
    size_t memoryBytes() const;

  private:
    struct Edge
    {
        int a, b;      ///< node ids; boundary = numNodes_
        int units;     ///< quantized weight (growth units)
        bool obs;
    };

    int numNodes_ = 0;
    std::vector<int> local_of_;
    std::vector<Edge> edges_;
    // Non-boundary node -> incident edge ids, CSR: incident_[off_[v]..
    // off_[v+1]) in increasing edge order.
    std::vector<int> off_, incident_;
};

} // namespace surf

#endif // SURF_DECODE_UNION_FIND_HH
