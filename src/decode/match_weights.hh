/**
 * @file
 * Shared integer weight construction of the MWPM decode paths. Every
 * backend (exact rows, default rows) and the test-side oracle build
 * their matching instances through these helpers, which is what makes
 * their results comparable shot for shot:
 *
 *  - distances are quantized at 1/1024 (llround(w * 1024)), so total
 *    matched weight is an exact cross-backend invariant;
 *  - below the quantized weight, kMatchTieBits low-order bits hold a
 *    deterministic hash of the endpoint *node ids*, so equal-weight
 *    matchings become generically distinct and every backend picks the
 *    same optimum on ties instead of an arbitrary algorithm-dependent
 *    one. Node ids are backend-independent, which makes the perturbed
 *    instance, and therefore the matching, backend-independent too.
 *
 * The hash never reorders two single edges (it stays below one 1/1024
 * step), but it can reorder two matchings: summed over a matching's
 * edges, the hashes can outweigh a step, so the minimum perturbed sum
 * may belong to a matching 1/1024 heavier than the true optimum (3 of
 * 16,384 shots at d=7, 20 rounds, p=5e-3). All backends minimise the
 * same perturbed sum, so they still agree shot for shot; lastWeight
 * reports the true weight of that matching.
 */

#ifndef SURF_DECODE_MATCH_WEIGHTS_HH
#define SURF_DECODE_MATCH_WEIGHTS_HH

#include <cmath>
#include <cstdint>

namespace surf {

/** Quantization scale of matching weights (1/1024 granularity). */
inline constexpr double kMatchWeightScale = 1024.0;

/** Low-order bits reserved for the deterministic tie-break hash. */
inline constexpr int kMatchTieBits = 16;

/** Quantize a path distance (no tie-break bits). */
inline int64_t
quantizeMatchWeight(double w)
{
    return static_cast<int64_t>(std::llround(w * kMatchWeightScale));
}

/** Symmetric tie-break hash of an unordered node-id pair, < 2^16. */
inline int64_t
matchTieBreak(int a, int b)
{
    const auto lo = static_cast<uint64_t>(a < b ? a : b);
    const auto hi = static_cast<uint64_t>(a < b ? b : a);
    uint64_t h = (lo + 1) * 0x9e3779b97f4a7c15ULL ^
                 (hi + 1) * 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 29;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 32;
    return static_cast<int64_t>(h & 0xffffu);
}

/** Full matching weight: quantized distance + endpoint tie-break. */
inline int64_t
perturbedMatchWeight(double w, int node_a, int node_b)
{
    return (quantizeMatchWeight(w) << kMatchTieBits) |
           matchTieBreak(node_a, node_b);
}

/** Recover the quantized (true) weight of one perturbed edge. */
inline int64_t
trueMatchWeight(int64_t perturbed)
{
    return perturbed >> kMatchTieBits;
}

} // namespace surf

#endif // SURF_DECODE_MATCH_WEIGHTS_HH
