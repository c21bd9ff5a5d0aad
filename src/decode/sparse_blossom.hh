/**
 * @file
 * The one exact matching solver of the MWPM decoder.
 *
 * sparseMinWeightPerfectMatching is an adjacency-list blossom solver
 * (alternating-tree growth with dual variables, region merging via
 * blossom contraction, greedy mutual-best initialization) for minimum
 * perfect matching on any edge list; mirrorMatch solves a
 * pair-or-boundary decoding instance with it. Every MWPM decode goes
 * through mirrorMatch: the rows path (mwpm.hh) hands it the pairs its
 * memoized rows witness, each weighted by the shared tie-break
 * perturbation of match_weights.hh.
 *
 * All state lives in caller-owned scratch arenas whose buffers only
 * grow, so steady-state decoding performs no allocation.
 */

#ifndef SURF_DECODE_SPARSE_BLOSSOM_HH
#define SURF_DECODE_SPARSE_BLOSSOM_HH

#include <cstdint>
#include <vector>

namespace surf {

/** One weighted edge of a sparse matching graph. */
struct SparseMatchEdge
{
    int a = 0;
    int b = 0;
    int64_t w = 0;
};

/**
 * Reusable arena of the sparse blossom solver: alternating-tree labels,
 * blossom structure (children / cyclic edges), dual variables and the
 * scan queue. Buffers only ever grow; one arena may serve graphs of any
 * size.
 */
struct SparseMatcherScratch
{
    // Edge incidence (CSR over directed endpoints).
    std::vector<int> endpoint;   ///< endpoint[p]: vertex at endpoint p
    std::vector<int64_t> edgeW;  ///< transformed (maximization) weights
    std::vector<uint32_t> neighOff;
    std::vector<int> neigh;      ///< remote endpoint indices per vertex
    // Per-vertex / per-blossom state (2n slots: n vertices + n blossoms).
    std::vector<int8_t> label;
    std::vector<int> labelEnd;
    std::vector<int> inBlossom;
    std::vector<int> blossomParent;
    std::vector<int> blossomBase;
    std::vector<std::vector<int>> blossomChilds;
    std::vector<std::vector<int>> blossomEndps;
    std::vector<int64_t> dual;
    std::vector<uint8_t> allowEdge;
    std::vector<int> unusedBlossoms;
    std::vector<int> queue;
    std::vector<int> mate; ///< remote endpoint index or -1
    // Temporaries.
    std::vector<int> path;        ///< scanBlossom trail
    std::vector<int> leafStack;   ///< blossomLeaves traversal
    std::vector<uint32_t> fill;   ///< CSR incidence fill cursor
};

/**
 * Minimum-weight perfect matching on a sparse graph given as an edge
 * list (parallel edges allowed; the cheapest wins). Exact: total weight
 * equals the optimum over the equivalent complete graph with absent
 * pairs forbidden.
 *
 * @param n vertex count
 * @param edges undirected weighted edges, weights >= 0
 * @param mate output: mate[v] partner vertex, or -1 when no perfect
 *             matching exists (mate is then all -1)
 * @param totalWeight optional: sum of matched edge weights
 * @return true iff a perfect matching exists
 */
bool sparseMinWeightPerfectMatching(int n,
                                    const std::vector<SparseMatchEdge> &edges,
                                    SparseMatcherScratch &scratch,
                                    std::vector<int> &mate,
                                    int64_t *totalWeight = nullptr);

/**
 * Reusable arena of mirrorMatch: the caller's pair-or-boundary
 * instance over k defect slots, the doubled matching graph and the
 * solver arena.
 */
struct MirrorMatchScratch
{
    /** Input: defect-slot pair edges (a, b < k), perturbed weights. */
    std::vector<SparseMatchEdge> pairs;
    /** Input: per defect slot, its perturbed boundary weight, or -1
     *  when the boundary is unreachable. */
    std::vector<int64_t> boundary;
    std::vector<SparseMatchEdge> edges; ///< the doubled instance
    SparseMatcherScratch matcher; ///< solver arena
    /** Output: mate[t] for t < k is the partner slot, or k + t when
     *  defect t matches the boundary. */
    std::vector<int> mate;
};

/**
 * Minimum-weight pair-or-boundary matching of k defect slots through
 * the mirror reduction: nodes 0..k-1 are the defects, k..2k-1 their
 * mirrors; every pair edge appears in both copies and each defect joins
 * its own mirror at twice its boundary weight. Both copies cost the
 * optimum, so the minimum perfect matching restricted to the first copy
 * is an optimal assignment (its doubled instance has twice its weight).
 *
 * @return true iff a perfect matching exists (every defect can be
 *         paired or sent to the boundary)
 */
bool mirrorMatch(int k, MirrorMatchScratch &sc);

} // namespace surf

#endif // SURF_DECODE_SPARSE_BLOSSOM_HH
