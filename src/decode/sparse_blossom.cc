#include "decode/sparse_blossom.hh"

#include <algorithm>

#include "util/logging.hh"

namespace surf {

namespace {

/**
 * The sparse blossom solver: maximum-weight general matching on an
 * adjacency-list graph, primal-dual with alternating trees, blossom
 * contraction and expansion. The architecture follows the classic
 * multiple-tree formulation (Galil's survey; the well-known reference
 * implementation is van Rantwijk's): vertices 0..n-1, contracted
 * blossoms n..2n-1, labels S/T per top-level blossom, one shared scan
 * queue, and dual updates computed by a direct scan over the edge list
 * (matrix-free: every per-edge quantity is recomputed from the duals on
 * demand; nothing is ever stored per vertex pair).
 *
 * Weights are pre-transformed by the caller so that maximization solves
 * the minimum-weight perfect-matching instance. Called with integer
 * (internally doubled) weights, all duals and slacks stay integral.
 */
class SparseMatcher
{
  public:
    SparseMatcher(int n, size_t n_edges, SparseMatcherScratch &sc)
        : n_(n), m_(static_cast<int>(n_edges)), sc_(sc)
    {
        sc_.endpoint.resize(2 * n_edges);
        sc_.edgeW.resize(n_edges);
        sc_.label.assign(2 * static_cast<size_t>(n), 0);
        sc_.labelEnd.assign(2 * static_cast<size_t>(n), -1);
        sc_.inBlossom.resize(n);
        sc_.blossomParent.assign(2 * static_cast<size_t>(n), -1);
        sc_.blossomBase.resize(2 * static_cast<size_t>(n));
        if (sc_.blossomChilds.size() < 2 * static_cast<size_t>(n)) {
            sc_.blossomChilds.resize(2 * static_cast<size_t>(n));
            sc_.blossomEndps.resize(2 * static_cast<size_t>(n));
        }
        sc_.dual.assign(2 * static_cast<size_t>(n), 0);
        sc_.allowEdge.assign(n_edges, 0);
        sc_.unusedBlossoms.clear();
        for (int b = 2 * n - 1; b >= n; --b)
            sc_.unusedBlossoms.push_back(b);
        sc_.queue.clear();
        sc_.mate.assign(n, -1);
        for (int v = 0; v < n; ++v) {
            sc_.inBlossom[v] = v;
            sc_.blossomBase[v] = v;
        }
        for (int b = n; b < 2 * n; ++b)
            sc_.blossomBase[b] = -1;
    }

    /** Load edge e = (i, j, w); weights must be pre-transformed. */
    void
    setEdge(int e, int i, int j, int64_t w)
    {
        sc_.endpoint[2 * static_cast<size_t>(e)] = i;
        sc_.endpoint[2 * static_cast<size_t>(e) + 1] = j;
        sc_.edgeW[static_cast<size_t>(e)] = w;
    }

    /**
     * Run the solver. mate[v] afterwards holds the remote endpoint index
     * of v's matched edge (-1 = unmatched); edge index = mate[v] / 2.
     */
    void
    solve()
    {
        buildIncidence();
        // Greedy initialization (Blossom-V style): start each dual at
        // its vertex's maximum incident weight — feasible under the
        // slack convention y_u + y_v >= 2 w_uv, and tight exactly on
        // mutual-best edges — then pre-match those tight edges
        // outright. On burst clusters this matches most defects to an
        // immediate neighbour before the first alternating tree grows.
        for (int v = 0; v < n_; ++v)
            sc_.dual[static_cast<size_t>(v)] = 0;
        for (int e = 0; e < m_; ++e) {
            const int i = sc_.endpoint[2 * static_cast<size_t>(e)];
            const int j = sc_.endpoint[2 * static_cast<size_t>(e) + 1];
            const int64_t we = sc_.edgeW[static_cast<size_t>(e)];
            sc_.dual[static_cast<size_t>(i)] =
                std::max(sc_.dual[static_cast<size_t>(i)], we);
            sc_.dual[static_cast<size_t>(j)] =
                std::max(sc_.dual[static_cast<size_t>(j)], we);
        }
        for (int e = 0; e < m_; ++e) {
            const int i = sc_.endpoint[2 * static_cast<size_t>(e)];
            const int j = sc_.endpoint[2 * static_cast<size_t>(e) + 1];
            if (sc_.mate[static_cast<size_t>(i)] == -1 &&
                sc_.mate[static_cast<size_t>(j)] == -1 && slack(e) == 0) {
                sc_.mate[static_cast<size_t>(i)] = 2 * e + 1;
                sc_.mate[static_cast<size_t>(j)] = 2 * e;
            }
        }

        for (int stage = 0; stage < n_; ++stage) {
            std::fill(sc_.label.begin(),
                      sc_.label.begin() + 2 * static_cast<size_t>(n_), 0);
            std::fill(sc_.allowEdge.begin(),
                      sc_.allowEdge.begin() + static_cast<size_t>(m_), 0);
            sc_.queue.clear();
            for (int v = 0; v < n_; ++v)
                if (sc_.mate[static_cast<size_t>(v)] == -1 &&
                    label(inBlossom(v)) == 0)
                    assignLabel(v, 1, -1);
            bool augmented = false;
            for (;;) {
                while (!sc_.queue.empty() && !augmented) {
                    const int v = sc_.queue.back();
                    sc_.queue.pop_back();
                    SURF_ASSERT(label(inBlossom(v)) == 1);
                    const uint32_t b0 = sc_.neighOff[static_cast<size_t>(v)];
                    const uint32_t b1 =
                        sc_.neighOff[static_cast<size_t>(v) + 1];
                    for (uint32_t pi = b0; pi < b1; ++pi) {
                        const int p = sc_.neigh[pi];
                        const int e = p >> 1;
                        const int w = sc_.endpoint[static_cast<size_t>(p)];
                        if (inBlossom(v) == inBlossom(w))
                            continue;
                        if (!sc_.allowEdge[static_cast<size_t>(e)] &&
                            slack(e) <= 0)
                            sc_.allowEdge[static_cast<size_t>(e)] = 1;
                        if (!sc_.allowEdge[static_cast<size_t>(e)])
                            continue;
                        const int bw = inBlossom(w);
                        if (label(bw) == 0) {
                            assignLabel(w, 2, p ^ 1);
                        } else if (label(bw) == 1) {
                            const int base = scanBlossom(v, w);
                            if (base >= 0) {
                                addBlossom(base, e);
                            } else {
                                augmentMatching(e);
                                augmented = true;
                                break;
                            }
                        } else if (label(w) == 0) {
                            SURF_ASSERT(label(bw) == 2);
                            setLabel(w, 2);
                            sc_.labelEnd[static_cast<size_t>(w)] = p ^ 1;
                        }
                    }
                }
                if (augmented)
                    break;

                // Dual update: the minimum over (2) slack of S-to-free
                // edges, (3) half-slack of S-to-S edges across blossoms
                // and (4) duals of top-level T-blossoms, found by a
                // direct edge scan. No min-dual stop rule: the weights
                // are offset-transformed so maximum weight coincides
                // with maximum cardinality, and the stage simply ends
                // when no tree can grow any further (which also makes
                // the greedy non-uniform dual start valid).
                int deltatype = -1;
                int64_t delta = 0;
                int deltaedge = -1, deltablossom = -1;
                for (int e = 0; e < m_; ++e) {
                    const int i = sc_.endpoint[2 * static_cast<size_t>(e)];
                    const int j =
                        sc_.endpoint[2 * static_cast<size_t>(e) + 1];
                    const int bi = inBlossom(i), bj = inBlossom(j);
                    if (bi == bj)
                        continue;
                    const int li = label(bi), lj = label(bj);
                    if ((li == 1 && lj == 0) || (li == 0 && lj == 1)) {
                        const int64_t d = slack(e);
                        if (deltatype == -1 || d < delta) {
                            delta = d;
                            deltatype = 2;
                            deltaedge = e;
                        }
                    } else if (li == 1 && lj == 1) {
                        const int64_t d = slack(e) / 2;
                        if (deltatype == -1 || d < delta) {
                            delta = d;
                            deltatype = 3;
                            deltaedge = e;
                        }
                    }
                }
                for (int b = n_; b < 2 * n_; ++b) {
                    if (sc_.blossomBase[static_cast<size_t>(b)] >= 0 &&
                        sc_.blossomParent[static_cast<size_t>(b)] == -1 &&
                        label(b) == 2 &&
                        (deltatype == -1 ||
                         sc_.dual[static_cast<size_t>(b)] < delta)) {
                        delta = sc_.dual[static_cast<size_t>(b)];
                        deltatype = 4;
                        deltablossom = b;
                    }
                }
                if (deltatype == -1)
                    break; // no growable structure: stage is optimal

                for (int v = 0; v < n_; ++v) {
                    const int l = label(inBlossom(v));
                    if (l == 1)
                        sc_.dual[static_cast<size_t>(v)] -= delta;
                    else if (l == 2)
                        sc_.dual[static_cast<size_t>(v)] += delta;
                }
                for (int b = n_; b < 2 * n_; ++b) {
                    if (sc_.blossomBase[static_cast<size_t>(b)] >= 0 &&
                        sc_.blossomParent[static_cast<size_t>(b)] == -1) {
                        if (label(b) == 1)
                            sc_.dual[static_cast<size_t>(b)] += delta;
                        else if (label(b) == 2)
                            sc_.dual[static_cast<size_t>(b)] -= delta;
                    }
                }

                if (deltatype == 2) {
                    sc_.allowEdge[static_cast<size_t>(deltaedge)] = 1;
                    int i = sc_.endpoint[2 * static_cast<size_t>(deltaedge)];
                    if (label(inBlossom(i)) == 0)
                        i = sc_.endpoint[2 * static_cast<size_t>(deltaedge) +
                                         1];
                    SURF_ASSERT(label(inBlossom(i)) == 1);
                    sc_.queue.push_back(i);
                } else if (deltatype == 3) {
                    sc_.allowEdge[static_cast<size_t>(deltaedge)] = 1;
                    const int i =
                        sc_.endpoint[2 * static_cast<size_t>(deltaedge)];
                    SURF_ASSERT(label(inBlossom(i)) == 1);
                    sc_.queue.push_back(i);
                } else {
                    expandBlossom(deltablossom, false);
                }
            }
            if (!augmented)
                break;
            // End of stage: expand S-blossoms whose dual fell to zero.
            for (int b = n_; b < 2 * n_; ++b)
                if (sc_.blossomParent[static_cast<size_t>(b)] == -1 &&
                    sc_.blossomBase[static_cast<size_t>(b)] >= 0 &&
                    label(b) == 1 && sc_.dual[static_cast<size_t>(b)] == 0)
                    expandBlossom(b, true);
        }
    }

  private:
    int n_, m_;
    SparseMatcherScratch &sc_;

    int label(int b) const { return sc_.label[static_cast<size_t>(b)]; }
    void setLabel(int b, int8_t l) { sc_.label[static_cast<size_t>(b)] = l; }
    int inBlossom(int v) const
    {
        return sc_.inBlossom[static_cast<size_t>(v)];
    }

    /** slack of edge e under the current duals (>= 0 on unmatched
     *  tight-tree edges; 0 = tight). */
    int64_t
    slack(int e) const
    {
        const int i = sc_.endpoint[2 * static_cast<size_t>(e)];
        const int j = sc_.endpoint[2 * static_cast<size_t>(e) + 1];
        return sc_.dual[static_cast<size_t>(i)] +
               sc_.dual[static_cast<size_t>(j)] -
               2 * sc_.edgeW[static_cast<size_t>(e)];
    }

    void
    buildIncidence()
    {
        sc_.neighOff.assign(static_cast<size_t>(n_) + 1, 0);
        for (int e = 0; e < m_; ++e) {
            ++sc_.neighOff[static_cast<size_t>(
                               sc_.endpoint[2 * static_cast<size_t>(e)]) +
                           1];
            ++sc_.neighOff[static_cast<size_t>(
                               sc_.endpoint[2 * static_cast<size_t>(e) + 1]) +
                           1];
        }
        for (int v = 0; v < n_; ++v)
            sc_.neighOff[static_cast<size_t>(v) + 1] +=
                sc_.neighOff[static_cast<size_t>(v)];
        sc_.neigh.resize(2 * static_cast<size_t>(m_));
        auto &fill = sc_.fill;
        fill.assign(sc_.neighOff.begin(), sc_.neighOff.end() - 1);
        for (int e = 0; e < m_; ++e) {
            const int i = sc_.endpoint[2 * static_cast<size_t>(e)];
            const int j = sc_.endpoint[2 * static_cast<size_t>(e) + 1];
            // The neighbour list of i holds the *remote* endpoint index.
            sc_.neigh[fill[static_cast<size_t>(i)]++] = 2 * e + 1;
            sc_.neigh[fill[static_cast<size_t>(j)]++] = 2 * e;
        }
    }

    /** Push every vertex inside blossom b onto the scan queue. */
    void
    queueLeaves(int b)
    {
        auto &stack = sc_.leafStack;
        stack.clear();
        stack.push_back(b);
        while (!stack.empty()) {
            const int x = stack.back();
            stack.pop_back();
            if (x < n_) {
                sc_.queue.push_back(x);
            } else {
                for (int t : sc_.blossomChilds[static_cast<size_t>(x)])
                    stack.push_back(t);
            }
        }
    }

    /** Visit every vertex inside blossom b. */
    template <typename F>
    void
    forLeaves(int b, F &&f)
    {
        auto &stack = sc_.leafStack;
        stack.clear();
        stack.push_back(b);
        while (!stack.empty()) {
            const int x = stack.back();
            stack.pop_back();
            if (x < n_) {
                f(x);
            } else {
                for (int t : sc_.blossomChilds[static_cast<size_t>(x)])
                    stack.push_back(t);
            }
        }
    }

    void
    assignLabel(int w, int8_t t, int p)
    {
        const int b = inBlossom(w);
        SURF_ASSERT(label(w) == 0 && label(b) == 0);
        setLabel(w, t);
        setLabel(b, t);
        sc_.labelEnd[static_cast<size_t>(w)] = p;
        sc_.labelEnd[static_cast<size_t>(b)] = p;
        if (t == 1) {
            queueLeaves(b);
        } else {
            const int base = sc_.blossomBase[static_cast<size_t>(b)];
            const int m = sc_.mate[static_cast<size_t>(base)];
            SURF_ASSERT(m >= 0);
            assignLabel(sc_.endpoint[static_cast<size_t>(m)], 1, m ^ 1);
        }
    }

    /** Trace back from v and w towards their tree roots; returns the
     *  base of the first common blossom (the LCA), or -1 when the paths
     *  reach two distinct roots (an augmenting path was found). */
    int
    scanBlossom(int v, int w)
    {
        auto &path = sc_.path;
        path.clear();
        int base = -1;
        while (v != -1 || w != -1) {
            int b = inBlossom(v);
            if (label(b) & 4) {
                base = sc_.blossomBase[static_cast<size_t>(b)];
                break;
            }
            SURF_ASSERT(label(b) == 1);
            path.push_back(b);
            setLabel(b, 5);
            SURF_ASSERT(
                sc_.labelEnd[static_cast<size_t>(b)] ==
                sc_.mate[static_cast<size_t>(
                    sc_.blossomBase[static_cast<size_t>(b)])]);
            if (sc_.labelEnd[static_cast<size_t>(b)] == -1) {
                v = -1; // reached a root
            } else {
                v = sc_.endpoint[static_cast<size_t>(
                    sc_.labelEnd[static_cast<size_t>(b)])];
                b = inBlossom(v);
                SURF_ASSERT(label(b) == 2);
                SURF_ASSERT(sc_.labelEnd[static_cast<size_t>(b)] >= 0);
                v = sc_.endpoint[static_cast<size_t>(
                    sc_.labelEnd[static_cast<size_t>(b)])];
            }
            if (w != -1)
                std::swap(v, w);
        }
        for (int b : path)
            setLabel(b, 1);
        return base;
    }

    /** Contract the odd cycle through edge e and base vertex `base`
     *  into a new blossom (region merging). */
    void
    addBlossom(int base, int e)
    {
        int v = sc_.endpoint[2 * static_cast<size_t>(e)];
        int w = sc_.endpoint[2 * static_cast<size_t>(e) + 1];
        const int bb = inBlossom(base);
        int bv = inBlossom(v);
        int bw = inBlossom(w);
        SURF_ASSERT(!sc_.unusedBlossoms.empty());
        const int b = sc_.unusedBlossoms.back();
        sc_.unusedBlossoms.pop_back();
        sc_.blossomBase[static_cast<size_t>(b)] = base;
        sc_.blossomParent[static_cast<size_t>(b)] = -1;
        sc_.blossomParent[static_cast<size_t>(bb)] = b;
        auto &childs = sc_.blossomChilds[static_cast<size_t>(b)];
        auto &endps = sc_.blossomEndps[static_cast<size_t>(b)];
        childs.clear();
        endps.clear();
        while (bv != bb) {
            sc_.blossomParent[static_cast<size_t>(bv)] = b;
            childs.push_back(bv);
            endps.push_back(sc_.labelEnd[static_cast<size_t>(bv)]);
            SURF_ASSERT(sc_.labelEnd[static_cast<size_t>(bv)] >= 0);
            v = sc_.endpoint[static_cast<size_t>(
                sc_.labelEnd[static_cast<size_t>(bv)])];
            bv = inBlossom(v);
        }
        childs.push_back(bb);
        std::reverse(childs.begin(), childs.end());
        std::reverse(endps.begin(), endps.end());
        endps.push_back(2 * e);
        while (bw != bb) {
            sc_.blossomParent[static_cast<size_t>(bw)] = b;
            childs.push_back(bw);
            endps.push_back(sc_.labelEnd[static_cast<size_t>(bw)] ^ 1);
            SURF_ASSERT(sc_.labelEnd[static_cast<size_t>(bw)] >= 0);
            w = sc_.endpoint[static_cast<size_t>(
                sc_.labelEnd[static_cast<size_t>(bw)])];
            bw = inBlossom(w);
        }
        SURF_ASSERT(label(bb) == 1);
        setLabel(b, 1);
        sc_.labelEnd[static_cast<size_t>(b)] =
            sc_.labelEnd[static_cast<size_t>(bb)];
        sc_.dual[static_cast<size_t>(b)] = 0;
        forLeaves(b, [&](int x) {
            if (label(inBlossom(x)) == 2)
                sc_.queue.push_back(x);
            sc_.inBlossom[static_cast<size_t>(x)] = b;
        });
    }

    /** Python-style cyclic indexing into a blossom's child list. */
    static int
    cyc(const std::vector<int> &v, int j)
    {
        const int len = static_cast<int>(v.size());
        return v[static_cast<size_t>(((j % len) + len) % len)];
    }

    /** Dissolve blossom b back into its children. Mid-stage (a T-blossom
     *  whose dual reached zero) the even alternating path from the entry
     *  child to the base keeps T/S labels; other children become free. */
    void
    expandBlossom(int b, bool endstage)
    {
        auto &childs = sc_.blossomChilds[static_cast<size_t>(b)];
        auto &endps = sc_.blossomEndps[static_cast<size_t>(b)];
        for (int s : childs) {
            sc_.blossomParent[static_cast<size_t>(s)] = -1;
            if (s < n_) {
                sc_.inBlossom[static_cast<size_t>(s)] = s;
            } else if (endstage && sc_.dual[static_cast<size_t>(s)] == 0) {
                expandBlossom(s, endstage);
            } else {
                forLeaves(s, [&](int x) {
                    sc_.inBlossom[static_cast<size_t>(x)] = s;
                });
            }
        }
        if (!endstage && label(b) == 2) {
            const int entry_v = sc_.endpoint[static_cast<size_t>(
                sc_.labelEnd[static_cast<size_t>(b)] ^ 1)];
            const int entrychild = inBlossom(entry_v);
            int j = static_cast<int>(
                std::find(childs.begin(), childs.end(), entrychild) -
                childs.begin());
            int jstep, endptrick;
            if (j & 1) {
                j -= static_cast<int>(childs.size());
                jstep = 1;
                endptrick = 0;
            } else {
                jstep = -1;
                endptrick = 1;
            }
            int p = sc_.labelEnd[static_cast<size_t>(b)];
            while (j != 0) {
                // Relabel the T-sub-blossom.
                const int q = cyc(endps, j - endptrick) ^ endptrick;
                setLabel(sc_.endpoint[static_cast<size_t>(p ^ 1)], 0);
                setLabel(sc_.endpoint[static_cast<size_t>(q ^ 1)], 0);
                assignLabel(sc_.endpoint[static_cast<size_t>(p ^ 1)], 2, p);
                sc_.allowEdge[static_cast<size_t>(q >> 1)] = 1;
                j += jstep;
                p = cyc(endps, j - endptrick) ^ endptrick;
                sc_.allowEdge[static_cast<size_t>(p >> 1)] = 1;
                j += jstep;
            }
            // Relabel the base T-sub-blossom without stepping through to
            // its mate (so the label chain is kept consistent).
            const int bv = cyc(childs, j);
            setLabel(sc_.endpoint[static_cast<size_t>(p ^ 1)], 2);
            setLabel(bv, 2);
            sc_.labelEnd[static_cast<size_t>(
                sc_.endpoint[static_cast<size_t>(p ^ 1)])] = p;
            sc_.labelEnd[static_cast<size_t>(bv)] = p;
            // Continue along the blossom until we get back to entrychild;
            // leave the remaining sub-blossoms unlabelled (any that carry
            // a vertex-level T label get properly relabelled).
            j += jstep;
            while (cyc(childs, j) != entrychild) {
                const int bx = cyc(childs, j);
                if (label(bx) == 1) {
                    j += jstep;
                    continue;
                }
                int labelled_v = -1;
                forLeaves(bx, [&](int x) {
                    if (labelled_v == -1 && label(x) != 0)
                        labelled_v = x;
                });
                if (labelled_v >= 0) {
                    SURF_ASSERT(label(labelled_v) == 2);
                    SURF_ASSERT(inBlossom(labelled_v) == bx);
                    setLabel(labelled_v, 0);
                    setLabel(sc_.endpoint[static_cast<size_t>(
                                 sc_.mate[static_cast<size_t>(
                                     sc_.blossomBase[static_cast<size_t>(
                                         bx)])])],
                             0);
                    assignLabel(labelled_v, 2,
                                sc_.labelEnd[static_cast<size_t>(
                                    labelled_v)]);
                }
                j += jstep;
            }
        }
        setLabel(b, -1);
        sc_.labelEnd[static_cast<size_t>(b)] = -1;
        sc_.blossomBase[static_cast<size_t>(b)] = -1;
        childs.clear();
        endps.clear();
        sc_.unusedBlossoms.push_back(b);
    }

    /** Swap matched/unmatched edges around blossom b so that vertex v
     *  becomes its base. */
    void
    augmentBlossom(int b, int v)
    {
        int t = v;
        while (sc_.blossomParent[static_cast<size_t>(t)] != b)
            t = sc_.blossomParent[static_cast<size_t>(t)];
        if (t >= n_)
            augmentBlossom(t, v);
        auto &childs = sc_.blossomChilds[static_cast<size_t>(b)];
        auto &endps = sc_.blossomEndps[static_cast<size_t>(b)];
        const int i = static_cast<int>(
            std::find(childs.begin(), childs.end(), t) - childs.begin());
        int j = i;
        int jstep, endptrick;
        if (i & 1) {
            j -= static_cast<int>(childs.size());
            jstep = 1;
            endptrick = 0;
        } else {
            jstep = -1;
            endptrick = 1;
        }
        while (j != 0) {
            j += jstep;
            int tc = cyc(childs, j);
            const int p = cyc(endps, j - endptrick) ^ endptrick;
            if (tc >= n_)
                augmentBlossom(tc, sc_.endpoint[static_cast<size_t>(p)]);
            j += jstep;
            tc = cyc(childs, j);
            if (tc >= n_)
                augmentBlossom(tc,
                               sc_.endpoint[static_cast<size_t>(p ^ 1)]);
            sc_.mate[static_cast<size_t>(
                sc_.endpoint[static_cast<size_t>(p)])] = p ^ 1;
            sc_.mate[static_cast<size_t>(
                sc_.endpoint[static_cast<size_t>(p ^ 1)])] = p;
        }
        std::rotate(childs.begin(), childs.begin() + i, childs.end());
        std::rotate(endps.begin(), endps.begin() + i, endps.end());
        sc_.blossomBase[static_cast<size_t>(b)] =
            sc_.blossomBase[static_cast<size_t>(childs[0])];
        SURF_ASSERT(sc_.blossomBase[static_cast<size_t>(b)] == v);
    }

    /** Augment the matching along the path through tight edge e. */
    void
    augmentMatching(int e)
    {
        const int ev = sc_.endpoint[2 * static_cast<size_t>(e)];
        const int ew = sc_.endpoint[2 * static_cast<size_t>(e) + 1];
        for (const auto &[sv, sp] :
             {std::pair<int, int>{ev, 2 * e + 1},
              std::pair<int, int>{ew, 2 * e}}) {
            int s = sv;
            int p = sp;
            for (;;) {
                const int bs = inBlossom(s);
                SURF_ASSERT(label(bs) == 1);
                SURF_ASSERT(
                    sc_.labelEnd[static_cast<size_t>(bs)] ==
                    sc_.mate[static_cast<size_t>(
                        sc_.blossomBase[static_cast<size_t>(bs)])]);
                if (bs >= n_)
                    augmentBlossom(bs, s);
                sc_.mate[static_cast<size_t>(s)] = p;
                if (sc_.labelEnd[static_cast<size_t>(bs)] == -1)
                    break; // reached a root
                const int t = sc_.endpoint[static_cast<size_t>(
                    sc_.labelEnd[static_cast<size_t>(bs)])];
                const int bt = inBlossom(t);
                SURF_ASSERT(label(bt) == 2);
                SURF_ASSERT(sc_.labelEnd[static_cast<size_t>(bt)] >= 0);
                s = sc_.endpoint[static_cast<size_t>(
                    sc_.labelEnd[static_cast<size_t>(bt)])];
                const int jv = sc_.endpoint[static_cast<size_t>(
                    sc_.labelEnd[static_cast<size_t>(bt)] ^ 1)];
                SURF_ASSERT(sc_.blossomBase[static_cast<size_t>(bt)] == t);
                if (bt >= n_)
                    augmentBlossom(bt, jv);
                sc_.mate[static_cast<size_t>(jv)] =
                    sc_.labelEnd[static_cast<size_t>(bt)];
                p = sc_.labelEnd[static_cast<size_t>(bt)] ^ 1;
            }
        }
    }
};

} // namespace

bool
sparseMinWeightPerfectMatching(int n,
                               const std::vector<SparseMatchEdge> &edges,
                               SparseMatcherScratch &scratch,
                               std::vector<int> &mate, int64_t *totalWeight)
{
    mate.assign(static_cast<size_t>(n), -1);
    if (totalWeight)
        *totalWeight = 0;
    if (n == 0)
        return true;
    if (n % 2 != 0)
        return false;

    // Transform minimization into maximization: w' = offset - w with an
    // offset large enough that higher-cardinality matchings always win,
    // then doubled so every dual quantity stays integral.
    int64_t max_w = 1;
    for (const SparseMatchEdge &e : edges)
        max_w = std::max(max_w, e.w);
    const int64_t offset = max_w * (n / 2 + 1) + 1;
    SparseMatcher matcher(n, edges.size(), scratch);
    for (size_t e = 0; e < edges.size(); ++e) {
        SURF_ASSERT(edges[e].a != edges[e].b && edges[e].a >= 0 &&
                        edges[e].b >= 0 && edges[e].a < n &&
                        edges[e].b < n && edges[e].w >= 0,
                    "malformed sparse matching edge");
        matcher.setEdge(static_cast<int>(e), edges[e].a, edges[e].b,
                        2 * (offset - edges[e].w));
    }
    matcher.solve();

    int64_t total = 0;
    for (int v = 0; v < n; ++v) {
        const int p = scratch.mate[static_cast<size_t>(v)];
        if (p < 0) {
            mate.assign(static_cast<size_t>(n), -1);
            return false;
        }
        const int partner = scratch.endpoint[static_cast<size_t>(p)];
        mate[static_cast<size_t>(v)] = partner;
        if (partner > v)
            total += edges[static_cast<size_t>(p >> 1)].w;
    }
    if (totalWeight)
        *totalWeight = total;
    return true;
}

bool
mirrorMatch(int k, MirrorMatchScratch &sc)
{
    SURF_ASSERT(sc.boundary.size() == static_cast<size_t>(k),
                "mirror instance needs one boundary weight per defect");
    sc.edges.clear();
    for (const SparseMatchEdge &e : sc.pairs) {
        sc.edges.push_back(e);
        sc.edges.push_back({k + e.a, k + e.b, e.w});
    }
    for (int t = 0; t < k; ++t)
        if (sc.boundary[static_cast<size_t>(t)] >= 0)
            sc.edges.push_back(
                {t, k + t, 2 * sc.boundary[static_cast<size_t>(t)]});
    return sparseMinWeightPerfectMatching(2 * k, sc.edges, sc.matcher,
                                          sc.mate, nullptr);
}

} // namespace surf
