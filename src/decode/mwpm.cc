#include "decode/mwpm.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "decode/match_weights.hh"
#include "util/logging.hh"

namespace surf {

bool
MwpmDecoder::decode(const uint32_t *fired, size_t n_fired,
                    MwpmScratch &scratch) const
{
    auto &defects = scratch.defects;
    defects.clear();
    for (size_t i = 0; i < n_fired; ++i) {
        const int l = graph_.localOf(fired[i]);
        if (l >= 0)
            defects.push_back(l);
    }
    // Both paths rely on ascending defect node ids (the rows path's
    // lower-id witness, the matcher's binary-searched landing
    // collisions). Sorted fired lists (the simulator's CSR output) pass
    // the check for free; arbitrary callers get sorted here.
    if (!std::is_sorted(defects.begin(), defects.end()))
        std::sort(defects.begin(), defects.end());
    scratch.lastWeight = 0;
    scratch.timedOut = false;
    if (scratch.deadline != nullptr && scratch.deadline->armed())
        // Even empty shots clear the trace, so a caller that records the
        // ladder per decode never re-reads a previous shot's trip.
        scratch.ladder.reset();
    if (defects.empty())
        return false;
    if (scratch.deadline != nullptr && scratch.deadline->armed())
        return decodeLadder(scratch);
    // Burst dispatch: past the threshold the matrix-free matcher avoids
    // building a full row per defect.
    if (burst(defects.size()))
        return sparseBlossomDecode(graph_, defects, scratch.blossom,
                                   &scratch.lastWeight);
    return decodeRows(scratch);
}

bool
MwpmDecoder::decodeLadder(MwpmScratch &sc) const
{
    DecodeDeadline &dl = *sc.deadline;
    sc.ladder.reset();

    // Stage 1 — matrix-free sparse blossom, for the shots that would
    // use it anyway (SparseBlossom backend, or Sparse past the burst
    // threshold). Non-burst shots skip straight to the rows stage: the
    // matcher is slower there and a downgrade must never be one.
    if (burst(sc.defects.size())) {
        dl.beginStage(sc.stallNs[kStageBlossom]);
        bool timed_out = false;
        const bool obs =
            sparseBlossomDecode(graph_, sc.defects, sc.blossom,
                                &sc.lastWeight, &dl, &timed_out);
        sc.ladder.note(kStageBlossom, dl.stageElapsedNs(), timed_out);
        if (!timed_out) {
            sc.ladder.answer = kStageBlossom;
            return obs;
        }
        sc.lastWeight = 0; // abandoned stage: discard partial weight
    }

    // Stage 2 — memoized-rows MWPM under its own fresh budget.
    dl.beginStage(sc.stallNs[kStageRows]);
    const bool obs = decodeRows(sc);
    sc.ladder.note(kStageRows, dl.stageElapsedNs(), sc.timedOut);
    if (!sc.timedOut) {
        sc.ladder.answer = kStageRows;
        return obs;
    }
    // Stage 3 (union-find) lives with the caller: sc.timedOut tells it
    // to discard this answer and run its floor decoder.
    sc.lastWeight = 0;
    return obs;
}

bool
MwpmDecoder::decodeRows(MwpmScratch &sc) const
{
    const auto &defects = sc.defects; // ascending local node ids
    const int k = static_cast<int>(defects.size());
    const int bnode = graph_.boundaryNode();
    const bool exact = exactRows();
    // Cooperative deadline poll (no-op with a null/disarmed deadline):
    // row construction and the matching solve are the two unbounded
    // work chunks of this path, so the budget is checked before each
    // row build and before each solve.
    auto outOfTime = [&sc] {
        if (sc.deadline == nullptr || !sc.deadline->expired())
            return false;
        sc.timedOut = true;
        return true;
    };
    // One memoized row per defect (a lazy bounded Dijkstra, built at
    // most once per graph and shared across shots, epochs and cache
    // reuses).
    sc.rows.clear();
    for (int i = 0; i < k; ++i) {
        if (outOfTime())
            return false;
        sc.rows.push_back(graph_.row(defects[static_cast<size_t>(i)],
                                     exact, sc.dijkstra));
    }
    auto rowOf = [&sc](int i) -> const DecodingGraph::Row & {
        return *sc.rows[static_cast<size_t>(i)];
    };
    struct Path
    {
        float dist;
        uint8_t par;
    };
    auto toBoundary = [&](int i) {
        const auto b = static_cast<size_t>(bnode);
        return Path{rowOf(i).dist[b], rowOf(i).par[b]};
    };
    // A pair is witnessed by the lower node id's row when that row holds
    // it, and by the other endpoint's row otherwise: for any pair that
    // can matter to the matching, max(2 d(i,B), 2 d(j,B)) >= d(i,B) +
    // d(j,B) puts it within at least one of the two radii. Infinite
    // distance = neither row holds the pair.
    auto pairPath = [&](int i, int j) {
        const int lo = std::min(i, j), hi = std::max(i, j);
        const auto tl = static_cast<size_t>(defects[static_cast<size_t>(lo)]);
        const auto th = static_cast<size_t>(defects[static_cast<size_t>(hi)]);
        if (std::isfinite(rowOf(lo).dist[th]))
            return Path{rowOf(lo).dist[th], rowOf(lo).par[th]};
        return Path{rowOf(hi).dist[tl], rowOf(hi).par[tl]};
    };

    // Closed forms for the overwhelmingly common low-weight syndromes.
    // k = 1: the only perfect matching sends the defect to the boundary.
    // k = 2: either the defects match each other or both go to the
    // boundary; pick the lighter total.
    if (k == 1) {
        const Path b = toBoundary(0);
        if (std::isfinite(b.dist))
            sc.lastWeight = quantizeMatchWeight(b.dist);
        return b.par != 0;
    }
    if (k == 2) {
        const Path p = pairPath(0, 1), b0 = toBoundary(0),
                   b1 = toBoundary(1);
        const double pair_w = p.dist;
        const double bdry_w =
            static_cast<double>(b0.dist) + static_cast<double>(b1.dist);
        if (pair_w <= bdry_w) {
            if (!std::isfinite(pair_w))
                return false;
            sc.lastWeight = quantizeMatchWeight(p.dist);
            return p.par != 0;
        }
        sc.lastWeight =
            quantizeMatchWeight(b0.dist) + quantizeMatchWeight(b1.dist);
        return (b0.par ^ b1.par) != 0;
    }

    // K-nearest truncation (PyMatching-style): when the shot has more
    // than K+1 defects, a pair is offered only if one endpoint is among
    // the other's K nearest fellow defects. Each defect's K nearest are
    // the K smallest (distance, slot) keys, so the mask is one limit key
    // per defect.
    const bool truncate =
        !exact && static_cast<size_t>(k - 1) > truncate_k_;
    if (truncate) {
        sc.nearLimit.assign(static_cast<size_t>(k),
                            {std::numeric_limits<float>::infinity(),
                             std::numeric_limits<int>::max()});
        for (int i = 0; i < k; ++i) {
            sc.nearCand.clear();
            for (int j = 0; j < k; ++j) {
                if (j == i)
                    continue;
                const float d = pairPath(i, j).dist;
                if (std::isfinite(d))
                    sc.nearCand.push_back({d, j});
            }
            if (sc.nearCand.size() > truncate_k_) {
                const auto kth = sc.nearCand.begin() +
                                 static_cast<std::ptrdiff_t>(truncate_k_ - 1);
                std::nth_element(sc.nearCand.begin(), kth,
                                 sc.nearCand.end());
                sc.nearLimit[static_cast<size_t>(i)] = *kth;
            }
        }
    }
    auto offered = [&sc](int i, int j, float d) {
        return std::make_pair(d, j) <= sc.nearLimit[static_cast<size_t>(i)] ||
               std::make_pair(d, i) <= sc.nearLimit[static_cast<size_t>(j)];
    };

    // Pair-or-boundary instance over defect slots, with the shared
    // perturbed weights, solved through the mirror reduction.
    MirrorMatchScratch &mm = sc.mirror;
    mm.boundary.assign(static_cast<size_t>(k), -1);
    for (int i = 0; i < k; ++i) {
        const float db = toBoundary(i).dist;
        if (std::isfinite(db))
            mm.boundary[static_cast<size_t>(i)] = perturbedMatchWeight(
                db, defects[static_cast<size_t>(i)], bnode);
    }
    auto solve = [&](bool use_mask) {
        mm.pairs.clear();
        for (int i = 0; i < k; ++i)
            for (int j = i + 1; j < k; ++j) {
                const float d = pairPath(i, j).dist;
                if (std::isfinite(d) && (!use_mask || offered(i, j, d)))
                    mm.pairs.push_back(
                        {i, j,
                         perturbedMatchWeight(
                             d, defects[static_cast<size_t>(i)],
                             defects[static_cast<size_t>(j)])});
            }
        return mirrorMatch(k, mm);
    };
    if (outOfTime())
        return false;
    bool found = solve(truncate);
    if (!found && truncate) {
        // Truncation left the instance without a perfect matching
        // (isolated far-apart defects): retry with every known pair.
        if (outOfTime())
            return false;
        found = solve(false);
    }
    bool obs = false;
    for (int i = 0; i < k; ++i) {
        const int m = found ? mm.mate[static_cast<size_t>(i)] : k + i;
        if (m < i)
            continue; // counted from the partner's side
        // Genuinely disconnected leftovers (no perfect matching) fall
        // back to matching every defect to the boundary.
        const Path p = m < k ? pairPath(i, m) : toBoundary(i);
        obs ^= p.par != 0;
        if (std::isfinite(p.dist))
            sc.lastWeight += quantizeMatchWeight(p.dist);
    }
    return obs;
}

} // namespace surf
