/**
 * @file
 * Test-side oracle for the MWPM decoder: matrix-based matching
 * pipelines that share no solver code with the library's sparse
 * blossom, so the equivalence tests compare against an independent
 * implementation.
 *
 *  - minWeightPerfectMatching: the exact dense O(n^3) blossom on a
 *    k x k weight matrix (kMatchForbidden marks absent pairs).
 *  - DenseTables: all-pairs shortest-path distance and observable
 *    parity tables, computed by a copy of the decoding graph's Dijkstra
 *    kernel (same CSR relaxation order, tie epsilon and float
 *    rounding), so exact rows must match them entry for entry.
 *  - TableDecoder: tables + dense blossom, the former Dense backend.
 *  - RowsMatrixDecoder: the decoder's own memoized rows + K-nearest mask
 *    + k x k matrix + dense blossom, the former rows path; burst shots
 *    are matched maskless, as the Sparse backend does.
 *
 * Every path builds its matrix from match_weights.hh, like the library,
 * so weights and tie-breaks are the library's own.
 */

#ifndef SURF_TESTS_DENSE_MATCHING_ORACLE_HH
#define SURF_TESTS_DENSE_MATCHING_ORACLE_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "decode/graph.hh"
#include "decode/match_weights.hh"
#include "decode/mwpm.hh"
#include "sim/dem.hh"
#include "util/logging.hh"

namespace surf::oracle {

/** Sentinel weight marking a forbidden pair (far above any real weight,
 *  including the tie-break-perturbed ones — see match_weights.hh). */
inline constexpr int64_t kMatchForbidden = INT64_C(1) << 58;

namespace detail {

/**
 * Dense O(n^3) maximum-weight general matching with blossoms and dual
 * variables (the classic formulation with outer-vertex relabeling; see
 * Galil's survey). Vertices are 1-indexed; indices above n denote
 * contracted blossoms.
 */
class MaxWeightMatcher
{
  public:
    explicit MaxWeightMatcher(int n)
        : n_(n), n_x_(n), g_((2 * n + 1) * (2 * n + 1)),
          lab_(2 * n + 1, 0), match_(2 * n + 1, 0), slack_(2 * n + 1, 0),
          st_(2 * n + 1, 0), pa_(2 * n + 1, 0),
          flower_from_((2 * n + 1) * (n + 1), 0), s_(2 * n + 1, 0),
          vis_(2 * n + 1, 0), flower_(2 * n + 1)
    {
        for (int u = 1; u <= n_; ++u)
            for (int v = 1; v <= n_; ++v)
                edge(u, v) = {u, v, 0};
    }

    void
    setWeight(int u, int v, int64_t w)
    {
        // Internally doubled so dual variables stay integral.
        edge(u + 1, v + 1).w = 2 * w;
        edge(v + 1, u + 1).w = 2 * w;
    }

    /** Run; returns (total weight, matched pairs). mate is 0-indexed. */
    std::pair<int64_t, std::vector<int>>
    solve()
    {
        std::fill(s_.begin(), s_.end(), -1);
        std::fill(match_.begin(), match_.end(), 0);
        n_x_ = n_;
        int64_t w_max = 0;
        for (int u = 1; u <= n_; ++u) {
            st_[u] = u;
            flower_[u].clear();
            for (int v = 1; v <= n_; ++v) {
                flowerFrom(u, v) = (u == v) ? u : 0;
                w_max = std::max(w_max, edge(u, v).w);
            }
        }
        for (int u = 1; u <= n_; ++u)
            lab_[u] = w_max;
        while (matching()) {
        }
        int64_t total = 0;
        std::vector<int> mate(n_, -1);
        for (int u = 1; u <= n_; ++u) {
            if (match_[u] && match_[u] > u)
                total += edge(u, match_[u]).w / 2;
            mate[u - 1] = match_[u] ? match_[u] - 1 : -1;
        }
        return {total, mate};
    }

  private:
    struct E
    {
        int u, v;
        int64_t w;
    };

    int n_, n_x_;
    std::vector<E> g_;
    std::vector<int64_t> lab_;
    std::vector<int> match_, slack_, st_, pa_;
    std::vector<int> flower_from_;
    std::vector<int> s_, vis_;
    std::vector<std::vector<int>> flower_;
    std::deque<int> q_;
    int lca_tick_ = 0; ///< getLca() visit stamp; vis_ starts all-zero

    E &edge(int u, int v) { return g_[u * (2 * n_ + 1) + v]; }
    int &flowerFrom(int b, int x) { return flower_from_[b * (n_ + 1) + x]; }

    int64_t
    eDelta(const E &e) const
    {
        return lab_[e.u] + lab_[e.v] - g_[e.u * (2 * n_ + 1) + e.v].w * 2;
    }

    void
    updateSlack(int u, int x)
    {
        if (!slack_[x] || eDelta(edge(u, x)) < eDelta(edge(slack_[x], x)))
            slack_[x] = u;
    }

    void
    setSlack(int x)
    {
        slack_[x] = 0;
        for (int u = 1; u <= n_; ++u)
            if (edge(u, x).w > 0 && st_[u] != x && s_[st_[u]] == 0)
                updateSlack(u, x);
    }

    void
    qPush(int x)
    {
        if (x <= n_) {
            q_.push_back(x);
        } else {
            for (int t : flower_[x])
                qPush(t);
        }
    }

    void
    setSt(int x, int b)
    {
        st_[x] = b;
        if (x > n_)
            for (int t : flower_[x])
                setSt(t, b);
    }

    int
    getPr(int b, int xr)
    {
        auto &f = flower_[b];
        const int pr = static_cast<int>(
            std::find(f.begin(), f.end(), xr) - f.begin());
        if (pr % 2 == 1) {
            std::reverse(f.begin() + 1, f.end());
            return static_cast<int>(f.size()) - pr;
        }
        return pr;
    }

    void
    setMatch(int u, int v)
    {
        match_[u] = edge(u, v).v;
        if (u <= n_)
            return;
        const E &e = edge(u, v);
        const int xr = flowerFrom(u, e.u);
        const int pr = getPr(u, xr);
        auto &f = flower_[u];
        for (int i = 0; i < pr; ++i)
            setMatch(f[i], f[i ^ 1]);
        setMatch(xr, v);
        std::rotate(f.begin(), f.begin() + pr, f.end());
    }

    void
    augment(int u, int v)
    {
        for (;;) {
            const int xnv = st_[match_[u]];
            setMatch(u, v);
            if (!xnv)
                return;
            setMatch(xnv, st_[pa_[xnv]]);
            u = st_[pa_[xnv]];
            v = xnv;
        }
    }

    int
    getLca(int u, int v)
    {
        // Per-instance visit tick (a function-local static here would be
        // shared across the concurrent per-worker solvers and race).
        int &t = lca_tick_;
        for (++t; u || v; std::swap(u, v)) {
            if (u == 0)
                continue;
            if (vis_[u] == t)
                return u;
            vis_[u] = t;
            u = st_[match_[u]];
            if (u)
                u = st_[pa_[u]];
        }
        return 0;
    }

    void
    addBlossom(int u, int lca, int v)
    {
        int b = n_ + 1;
        while (b <= n_x_ && st_[b])
            ++b;
        if (b > n_x_)
            ++n_x_;
        lab_[b] = 0;
        s_[b] = 0;
        match_[b] = match_[lca];
        flower_[b].clear();
        flower_[b].push_back(lca);
        for (int x = u, y; x != lca; x = st_[pa_[y]]) {
            flower_[b].push_back(x);
            y = st_[match_[x]];
            flower_[b].push_back(y);
            qPush(y);
        }
        std::reverse(flower_[b].begin() + 1, flower_[b].end());
        for (int x = v, y; x != lca; x = st_[pa_[y]]) {
            flower_[b].push_back(x);
            y = st_[match_[x]];
            flower_[b].push_back(y);
            qPush(y);
        }
        setSt(b, b);
        for (int x = 1; x <= n_x_; ++x) {
            edge(b, x).w = 0;
            edge(x, b).w = 0;
        }
        for (int x = 1; x <= n_; ++x)
            flowerFrom(b, x) = 0;
        for (int xs : flower_[b]) {
            for (int x = 1; x <= n_x_; ++x) {
                if (edge(b, x).w == 0 ||
                    eDelta(edge(xs, x)) < eDelta(edge(b, x))) {
                    edge(b, x) = edge(xs, x);
                    edge(x, b) = edge(x, xs);
                }
            }
            for (int x = 1; x <= n_; ++x)
                if (flowerFrom(xs, x))
                    flowerFrom(b, x) = xs;
        }
        setSlack(b);
    }

    void
    expandBlossom(int b)
    {
        for (int t : flower_[b])
            setSt(t, t);
        const int xr = flowerFrom(b, edge(b, pa_[b]).u);
        const int pr = getPr(b, xr);
        auto &f = flower_[b];
        for (int i = 0; i < pr; i += 2) {
            const int xs = f[i];
            const int xns = f[i + 1];
            pa_[xs] = edge(xns, xs).u;
            s_[xs] = 1;
            s_[xns] = 0;
            slack_[xs] = 0;
            setSlack(xns);
            qPush(xns);
        }
        s_[xr] = 1;
        pa_[xr] = pa_[b];
        for (size_t i = pr + 1; i < f.size(); ++i) {
            s_[f[i]] = -1;
            setSlack(f[i]);
        }
        st_[b] = 0;
    }

    bool
    onFoundEdge(const E &e)
    {
        const int u = st_[e.u], v = st_[e.v];
        if (s_[v] == -1) {
            pa_[v] = e.u;
            s_[v] = 1;
            const int nu = st_[match_[v]];
            slack_[v] = 0;
            slack_[nu] = 0;
            s_[nu] = 0;
            qPush(nu);
        } else if (s_[v] == 0) {
            const int lca = getLca(u, v);
            if (!lca) {
                augment(u, v);
                augment(v, u);
                return true;
            }
            addBlossom(u, lca, v);
        }
        return false;
    }

    bool
    matching()
    {
        std::fill(s_.begin(), s_.begin() + n_x_ + 1, -1);
        std::fill(slack_.begin(), slack_.begin() + n_x_ + 1, 0);
        q_.clear();
        for (int x = 1; x <= n_x_; ++x) {
            if (st_[x] == x && !match_[x]) {
                pa_[x] = 0;
                s_[x] = 0;
                qPush(x);
            }
        }
        if (q_.empty())
            return false;
        for (;;) {
            while (!q_.empty()) {
                const int u = q_.front();
                q_.pop_front();
                if (s_[st_[u]] == 1)
                    continue;
                for (int v = 1; v <= n_; ++v) {
                    if (edge(u, v).w > 0 && st_[u] != st_[v]) {
                        if (eDelta(edge(u, v)) == 0) {
                            if (onFoundEdge(edge(u, v)))
                                return true;
                        } else {
                            updateSlack(u, st_[v]);
                        }
                    }
                }
            }
            int64_t d = INT64_MAX;
            for (int b = n_ + 1; b <= n_x_; ++b)
                if (st_[b] == b && s_[b] == 1)
                    d = std::min(d, lab_[b] / 2);
            for (int x = 1; x <= n_x_; ++x)
                if (st_[x] == x && slack_[x]) {
                    if (s_[x] == -1)
                        d = std::min(d, eDelta(edge(slack_[x], x)));
                    else if (s_[x] == 0)
                        d = std::min(d, eDelta(edge(slack_[x], x)) / 2);
                }
            if (d == INT64_MAX)
                return false; // no dual move exists: trees cannot grow
            for (int u = 1; u <= n_; ++u) {
                if (s_[st_[u]] == 0) {
                    if (lab_[u] <= d)
                        return false;
                    lab_[u] -= d;
                } else if (s_[st_[u]] == 1) {
                    lab_[u] += d;
                }
            }
            for (int b = n_ + 1; b <= n_x_; ++b) {
                if (st_[b] == b) {
                    if (s_[st_[b]] == 0)
                        lab_[b] += d * 2;
                    else if (s_[st_[b]] == 1)
                        lab_[b] -= d * 2;
                }
            }
            q_.clear();
            for (int x = 1; x <= n_x_; ++x)
                if (st_[x] == x && slack_[x] && st_[slack_[x]] != x &&
                    eDelta(edge(slack_[x], x)) == 0) {
                    if (onFoundEdge(edge(slack_[x], x)))
                        return true;
                }
            for (int b = n_ + 1; b <= n_x_; ++b)
                if (st_[b] == b && s_[b] == 1 && lab_[b] == 0)
                    expandBlossom(b);
        }
        return false;
    }
};

} // namespace detail

/**
 * Minimum-weight perfect matching on a dense graph, writing mate[v]
 * into the caller's buffer.
 *
 * @param n number of vertices (must be even for a perfect matching)
 * @param w n-by-n symmetric weight matrix (row-major);
 *          kMatchForbidden for forbidden pairs
 * @return true iff a perfect matching exists (mate is cleared when not)
 */
inline bool
minWeightPerfectMatching(int n, const std::vector<int64_t> &w,
                         std::vector<int> &mate)
{
    SURF_ASSERT(n >= 0 && w.size() == static_cast<size_t>(n) * n,
                "weight matrix size mismatch");
    mate.clear();
    if (n == 0)
        return true;
    if (n % 2 != 0)
        return false;
    // Convert min-weight to max-weight with a large offset; forbidden
    // pairs keep weight 0 (the matcher ignores w == 0 edges).
    int64_t max_w = 1;
    for (int64_t x : w)
        if (x != kMatchForbidden)
            max_w = std::max(max_w, x < 0 ? -x : x);
    const int64_t offset = 4 * max_w * n + 1;
    detail::MaxWeightMatcher matcher(n);
    for (int u = 0; u < n; ++u) {
        for (int v = u + 1; v < n; ++v) {
            const int64_t x = w[static_cast<size_t>(u) * n + v];
            if (x == kMatchForbidden)
                continue;
            matcher.setWeight(u, v, offset - x);
        }
    }
    auto [total, solved] = matcher.solve();
    (void)total;
    // Perfect matching check.
    for (int u = 0; u < n; ++u)
        if (solved[u] < 0)
            return false;
    mate = std::move(solved);
    return true;
}

inline std::vector<int>
minWeightPerfectMatching(int n, const std::vector<int64_t> &w)
{
    std::vector<int> mate;
    minWeightPerfectMatching(n, w, mate);
    return mate;
}

/**
 * All-pairs shortest-path tables over a decoding graph's nodes plus its
 * boundary: flat upper-triangular float distances and observable
 * parities. The src-rooted search fills the (src, t >= src) cells, so
 * the lower node id's path is each pair's parity witness.
 */
class DenseTables
{
  public:
    explicit DenseTables(const DecodingGraph &g) : n_(g.numNodes() + 1)
    {
        dist_.assign(n_ * (n_ + 1) / 2,
                     std::numeric_limits<float>::infinity());
        obs_.assign(n_ * (n_ + 1) / 2, 0);
        const auto &off = g.csrOffsets();
        const auto &to = g.csrTargets();
        const auto &wt = g.csrWeights();
        const auto &flip = g.csrObsFlips();
        std::vector<double> dist(n_);
        std::vector<uint8_t> par(n_), seen(n_);
        std::vector<std::pair<double, int>> heap;
        const auto by_dist = std::greater<std::pair<double, int>>();
        for (size_t src = 0; src < n_; ++src) {
            std::fill(seen.begin(), seen.end(), 0);
            heap.clear();
            dist[src] = 0.0;
            par[src] = 0;
            seen[src] = 1;
            heap.push_back({0.0, static_cast<int>(src)});
            while (!heap.empty()) {
                std::pop_heap(heap.begin(), heap.end(), by_dist);
                const auto [dv, v] = heap.back();
                heap.pop_back();
                const auto vi = static_cast<size_t>(v);
                if (dv > dist[vi])
                    continue;
                for (uint32_t i = off[vi]; i < off[vi + 1]; ++i) {
                    const auto t = static_cast<size_t>(to[i]);
                    const double nd = dv + wt[i];
                    if (!seen[t] || nd < dist[t] - 1e-12) {
                        seen[t] = 1;
                        dist[t] = nd;
                        par[t] = par[vi] ^ flip[i];
                        heap.push_back({nd, to[i]});
                        std::push_heap(heap.begin(), heap.end(), by_dist);
                    }
                }
            }
            for (size_t t = src; t < n_; ++t)
                if (seen[t]) {
                    dist_[index(src, t)] = static_cast<float>(dist[t]);
                    obs_[index(src, t)] = par[t];
                }
        }
    }

    double
    dist(int a, int b) const
    {
        return dist_[index(a, b)];
    }
    bool
    obsParity(int a, int b) const
    {
        return obs_[index(a, b)] != 0;
    }

  private:
    size_t
    index(size_t a, size_t b) const
    {
        const size_t lo = std::min(a, b), hi = std::max(a, b);
        return lo * n_ - lo * (lo + 1) / 2 + hi;
    }
    size_t
    index(int a, int b) const
    {
        return index(static_cast<size_t>(a), static_cast<size_t>(b));
    }

    size_t n_;
    std::vector<float> dist_;
    std::vector<uint8_t> obs_;
};

/** Per-thread workspace of the oracle decoders. */
struct OracleScratch
{
    std::vector<int> defects;
    /** Per-shot path cache over defect slots (slot k = boundary), one
     *  (lo, hi) cell per pair. */
    std::vector<float> pathDist;
    std::vector<uint8_t> pathPar;
    std::vector<uint8_t> pairKeep; ///< K-nearest mask, k x k
    std::vector<std::pair<float, int>> nearCand;
    std::vector<int64_t> weights; ///< 2k x 2k matching matrix
    std::vector<int> mate;
    DijkstraScratch dijkstra;
    std::vector<std::shared_ptr<const DecodingGraph::Row>> rows;
    int64_t lastWeight = 0; ///< same quantization as MwpmScratch
};

namespace detail {

/** Local defect nodes of a fired list, ascending. */
inline void
localDefects(const DecodingGraph &g, const uint32_t *fired, size_t n,
             std::vector<int> &defects)
{
    defects.clear();
    for (size_t i = 0; i < n; ++i) {
        const int l = g.localOf(fired[i]);
        if (l >= 0)
            defects.push_back(l);
    }
    std::sort(defects.begin(), defects.end());
}

/**
 * Match from a filled path cache: closed forms for k <= 2, otherwise
 * the 2k x 2k matrix (defect i <-> defect j at path distance, i <-> its
 * own virtual at boundary distance, virtuals pairwise free), optionally
 * K-nearest masked with an unmasked retry, on the dense blossom; no
 * perfect matching sends every defect to the boundary.
 */
inline bool
matrixMatch(int bnode, size_t truncate_k, OracleScratch &sc)
{
    const auto &defects = sc.defects;
    const int k = static_cast<int>(defects.size());
    const size_t cols = static_cast<size_t>(k) + 1;
    auto tri = [cols](int a, int b) {
        const auto lo = static_cast<size_t>(a < b ? a : b);
        const auto hi = static_cast<size_t>(a < b ? b : a);
        return lo * cols + hi;
    };
    sc.lastWeight = 0;
    if (k == 0)
        return false;
    if (k == 1) {
        if (std::isfinite(sc.pathDist[tri(0, 1)]))
            sc.lastWeight = quantizeMatchWeight(sc.pathDist[tri(0, 1)]);
        return sc.pathPar[tri(0, 1)] != 0;
    }
    if (k == 2) {
        const double pair_w = sc.pathDist[tri(0, 1)];
        const double bdry_w = static_cast<double>(sc.pathDist[tri(0, 2)]) +
                              static_cast<double>(sc.pathDist[tri(1, 2)]);
        if (pair_w <= bdry_w) {
            if (!std::isfinite(pair_w))
                return false;
            sc.lastWeight = quantizeMatchWeight(pair_w);
            return sc.pathPar[tri(0, 1)] != 0;
        }
        sc.lastWeight = quantizeMatchWeight(sc.pathDist[tri(0, 2)]) +
                        quantizeMatchWeight(sc.pathDist[tri(1, 2)]);
        return (sc.pathPar[tri(0, 2)] ^ sc.pathPar[tri(1, 2)]) != 0;
    }

    const bool truncate = static_cast<size_t>(k - 1) > truncate_k;
    if (truncate) {
        sc.pairKeep.assign(static_cast<size_t>(k) * k, 0);
        for (int i = 0; i < k; ++i) {
            sc.nearCand.clear();
            for (int j = 0; j < k; ++j) {
                if (j == i)
                    continue;
                const float d = sc.pathDist[tri(i, j)];
                if (std::isfinite(d))
                    sc.nearCand.push_back({d, j});
            }
            if (sc.nearCand.size() > truncate_k)
                std::nth_element(
                    sc.nearCand.begin(),
                    sc.nearCand.begin() +
                        static_cast<std::ptrdiff_t>(truncate_k),
                    sc.nearCand.end());
            const size_t keep = std::min(truncate_k, sc.nearCand.size());
            for (size_t c = 0; c < keep; ++c)
                sc.pairKeep[static_cast<size_t>(i) * k +
                            sc.nearCand[c].second] = 1;
        }
    }

    const int n = 2 * k;
    auto &w = sc.weights;
    auto at = [&](int a, int b) -> int64_t & {
        return w[static_cast<size_t>(a) * n + b];
    };
    auto buildMatrix = [&](bool use_mask) {
        w.assign(static_cast<size_t>(n) * n, kMatchForbidden);
        for (int i = 0; i < k; ++i) {
            for (int j = i + 1; j < k; ++j) {
                if (use_mask &&
                    !(sc.pairKeep[static_cast<size_t>(i) * k + j] |
                      sc.pairKeep[static_cast<size_t>(j) * k + i]))
                    continue;
                const double d = sc.pathDist[tri(i, j)];
                if (std::isfinite(d)) {
                    const int64_t iw = perturbedMatchWeight(
                        d, defects[static_cast<size_t>(i)],
                        defects[static_cast<size_t>(j)]);
                    at(i, j) = iw;
                    at(j, i) = iw;
                }
            }
            const double db = sc.pathDist[tri(i, k)];
            if (std::isfinite(db)) {
                const int64_t iw = perturbedMatchWeight(
                    db, defects[static_cast<size_t>(i)], bnode);
                at(i, k + i) = iw;
                at(k + i, i) = iw;
            }
            for (int j = 0; j < k; ++j)
                if (j != i) {
                    at(k + i, k + j) = 0;
                    at(k + j, k + i) = 0;
                }
        }
    };
    buildMatrix(truncate);
    bool found = minWeightPerfectMatching(n, w, sc.mate);
    if (!found && truncate) {
        buildMatrix(false);
        found = minWeightPerfectMatching(n, w, sc.mate);
    }
    bool obs = false;
    if (!found) {
        for (int i = 0; i < k; ++i) {
            obs ^= sc.pathPar[tri(i, k)] != 0;
            if (std::isfinite(sc.pathDist[tri(i, k)]))
                sc.lastWeight += quantizeMatchWeight(sc.pathDist[tri(i, k)]);
        }
        return obs;
    }
    for (int i = 0; i < k; ++i) {
        const int m = sc.mate[static_cast<size_t>(i)];
        if (m < k) {
            if (m > i) {
                obs ^= sc.pathPar[tri(i, m)] != 0;
                sc.lastWeight += trueMatchWeight(at(i, m));
            }
        } else {
            obs ^= sc.pathPar[tri(i, k)] != 0;
            sc.lastWeight += trueMatchWeight(at(i, k + i));
        }
    }
    return obs;
}

} // namespace detail

/** All-pairs tables + dense blossom: the former Dense backend. */
class TableDecoder
{
  public:
    TableDecoder(const DetectorErrorModel &dem, uint8_t tag)
        : graph_(dem, tag), tables_(graph_)
    {
    }

    const DecodingGraph &graph() const { return graph_; }
    const DenseTables &tables() const { return tables_; }

    bool
    decode(const uint32_t *fired, size_t n_fired, OracleScratch &sc) const
    {
        detail::localDefects(graph_, fired, n_fired, sc.defects);
        const int k = static_cast<int>(sc.defects.size());
        const int bnode = graph_.boundaryNode();
        const size_t cols = static_cast<size_t>(k) + 1;
        sc.pathDist.assign(cols * cols,
                           std::numeric_limits<float>::infinity());
        sc.pathPar.assign(cols * cols, 0);
        for (int i = 0; i < k; ++i)
            for (int j = i + 1; j <= k; ++j) {
                const int a = sc.defects[static_cast<size_t>(i)];
                const int b =
                    j < k ? sc.defects[static_cast<size_t>(j)] : bnode;
                const size_t idx = static_cast<size_t>(i) * cols +
                                   static_cast<size_t>(j);
                sc.pathDist[idx] = static_cast<float>(tables_.dist(a, b));
                sc.pathPar[idx] = tables_.obsParity(a, b);
            }
        return detail::matrixMatch(bnode, SIZE_MAX, sc);
    }

  private:
    DecodingGraph graph_;
    DenseTables tables_;
};

/**
 * Memoized rows + K-nearest mask + k x k matrix + dense blossom: the
 * former rows path over the Sparse backend's radius-bounded rows. Burst
 * shots (at least max(kDefaultBlossomDefects, nodes / 12) defects,
 * unless `dispatch` is off) are matched without the mask, as the Sparse
 * backend matches them.
 */
class RowsMatrixDecoder
{
  public:
    RowsMatrixDecoder(const DetectorErrorModel &dem, uint8_t tag,
                      size_t truncate_k = kDefaultNearestDefects,
                      bool dispatch = true)
        : graph_(dem, tag), truncate_k_(truncate_k), dispatch_(dispatch)
    {
    }

    const DecodingGraph &graph() const { return graph_; }

    /** Whether a shot of k local defects is matched maskless. */
    bool
    burst(size_t k) const
    {
        return dispatch_ &&
               k >= std::max(kDefaultBlossomDefects,
                             graph_.numNodes() / 12);
    }

    bool
    decode(const uint32_t *fired, size_t n_fired, OracleScratch &sc) const
    {
        detail::localDefects(graph_, fired, n_fired, sc.defects);
        const auto &defects = sc.defects;
        const int k = static_cast<int>(defects.size());
        sc.lastWeight = 0;
        if (k == 0)
            return false;
        const size_t cols = static_cast<size_t>(k) + 1;
        const auto bnode = static_cast<size_t>(graph_.boundaryNode());
        sc.pathDist.assign(cols * cols,
                           std::numeric_limits<float>::infinity());
        sc.pathPar.assign(cols * cols, 0);
        sc.rows.clear();
        for (int i = 0; i < k; ++i)
            sc.rows.push_back(
                graph_.row(defects[static_cast<size_t>(i)], sc.dijkstra));
        for (int i = 0; i < k; ++i) {
            const DecodingGraph::Row &ri = *sc.rows[static_cast<size_t>(i)];
            const size_t bi = static_cast<size_t>(i) * cols + k;
            sc.pathDist[bi] = ri.dist[bnode];
            sc.pathPar[bi] = ri.par[bnode];
            for (int j = i + 1; j < k; ++j) {
                const DecodingGraph::Row &rj =
                    *sc.rows[static_cast<size_t>(j)];
                const auto ti =
                    static_cast<size_t>(defects[static_cast<size_t>(i)]);
                const auto tj =
                    static_cast<size_t>(defects[static_cast<size_t>(j)]);
                const size_t idx = static_cast<size_t>(i) * cols + j;
                const DecodingGraph::Row &w =
                    std::isfinite(ri.dist[tj]) ? ri : rj;
                const size_t t = &w == &ri ? tj : ti;
                sc.pathDist[idx] = w.dist[t];
                sc.pathPar[idx] = w.par[t];
            }
        }
        return detail::matrixMatch(graph_.boundaryNode(),
                                   burst(defects.size()) ? SIZE_MAX
                                                         : truncate_k_,
                                   sc);
    }

  private:
    DecodingGraph graph_;
    size_t truncate_k_;
    bool dispatch_;
};

} // namespace surf::oracle

#endif // SURF_TESTS_DENSE_MATCHING_ORACLE_HH
