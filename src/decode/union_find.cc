#include "decode/union_find.hh"

#include <algorithm>
#include <bit>
#include <climits>
#include <cmath>

#include "util/logging.hh"

namespace surf {

namespace {

constexpr int kFused = INT_MAX;

} // namespace

UnionFindDecoder::UnionFindDecoder(const DetectorErrorModel &dem, uint8_t tag)
{
    local_of_.assign(dem.numDetectors, -1);
    for (uint32_t d = 0; d < dem.numDetectors; ++d)
        if (dem.detectorTag[d] == tag)
            local_of_[d] = numNodes_++;
    for (const DemEdge &e : dem.edges[tag]) {
        const int a = (e.a < 0) ? numNodes_
                                : local_of_[static_cast<size_t>(e.a)];
        const int b = (e.b < 0) ? numNodes_
                                : local_of_[static_cast<size_t>(e.b)];
        if (a == b)
            continue;
        const double p = std::clamp(e.p, 1e-14, 0.499999);
        const double w = std::log((1.0 - p) / p);
        const int units = std::max<int>(1, static_cast<int>(
                                               std::llround(4.0 * w)));
        edges_.push_back({a, b, units, e.flipsObs});
    }
    // The boundary cluster is never active, so only real nodes need
    // incidence lists.
    off_.assign(static_cast<size_t>(numNodes_) + 1, 0);
    for (const Edge &e : edges_)
        for (int v : {e.a, e.b})
            if (v != numNodes_)
                ++off_[static_cast<size_t>(v) + 1];
    for (size_t v = 1; v < off_.size(); ++v)
        off_[v] += off_[v - 1];
    incident_.resize(static_cast<size_t>(off_.back()));
    std::vector<int> fill(off_.begin(), off_.end() - 1);
    for (size_t id = 0; id < edges_.size(); ++id)
        for (int v : {edges_[id].a, edges_[id].b})
            if (v != numNodes_)
                incident_[static_cast<size_t>(
                    fill[static_cast<size_t>(v)]++)] = static_cast<int>(id);
}

void
UfScratch::prepare(size_t n, size_t n_edges)
{
    if (++epoch == 0) {
        for (Node &v : node)
            v.stamp = 0;
        for (EdgeState &e : edge)
            e.stamp = 0;
        epoch = 1;
    }
    if (node.size() < n)
        node.resize(n, Node{});
    if (edge.size() < n_edges)
        edge.resize(n_edges, EdgeState{});
    // Every decode drains the queue, so it is all zero between decodes.
    const size_t words = (n_edges + 63) / 64;
    if (queue.size() < words)
        queue.resize(words, 0);
    lists_used = 0;
    free_lists.clear();
    active.clear();
    leaves.clear();
    forest.clear();
}

size_t
UnionFindDecoder::memoryBytes() const
{
    return local_of_.capacity() * sizeof(int) +
           edges_.capacity() * sizeof(Edge) +
           (off_.capacity() + incident_.capacity()) * sizeof(int);
}

bool
UnionFindDecoder::decode(const uint32_t *fired, size_t n_fired,
                         UfScratch &sc) const
{
    using Node = UfScratch::Node;
    const int nb = numNodes_; // boundary node id
    sc.prepare(static_cast<size_t>(numNodes_) + 1, edges_.size());
    const uint32_t ep = sc.epoch;
    Node *node = sc.node.data();
    UfScratch::EdgeState *edge_state = sc.edge.data();
    uint64_t *queue = sc.queue.data();

    auto touch = [&](int v) -> Node & {
        Node &x = node[v];
        if (x.stamp != ep)
            x = {ep, v, -1, 0, 0, 0, 0, static_cast<uint8_t>(v == nb), 0};
        return x;
    };
    auto find = [&](int v) {
        touch(v);
        while (node[v].parent != v) {
            node[v].parent = node[node[v].parent].parent;
            v = node[v].parent;
        }
        return v;
    };
    auto active = [&](int root) {
        return node[root].parity && !node[root].boundary;
    };
    auto growth = [&](int e) -> int & {
        UfScratch::EdgeState &s = edge_state[e];
        if (s.stamp != ep)
            s = {ep, 0};
        return s.growth;
    };
    auto pooled = [&](int slot) -> std::vector<int> & {
        return sc.lists[static_cast<size_t>(slot)];
    };
    // Frontier of cluster root `r`: its pooled list, or, while `r` is
    // still a singleton, its own CSR incidence range.
    auto for_frontier = [&](int r, auto &&fn) {
        if (node[r].list < 0) {
            for (int i = off_[static_cast<size_t>(r)];
                 i < off_[static_cast<size_t>(r) + 1]; ++i)
                fn(incident_[static_cast<size_t>(i)]);
        } else {
            for (int e : pooled(node[r].list))
                fn(e);
        }
    };
    auto append_incident = [&](std::vector<int> &to, int v) {
        to.insert(to.end(), incident_.begin() + off_[static_cast<size_t>(v)],
                  incident_.begin() + off_[static_cast<size_t>(v) + 1]);
    };
    auto release = [&](int r) {
        if (node[r].list >= 0)
            sc.free_lists.push_back(node[r].list);
        node[r].list = -1;
    };
    // Merge rb's frontier into ra's: the larger pooled list absorbs the
    // other side (list order is irrelevant, the queue sorts by edge id).
    auto merge_frontiers = [&](int ra, int rb) {
        int keep = node[ra].list, other = node[rb].list, from = rb;
        if (keep < 0 ||
            (other >= 0 && pooled(keep).size() < pooled(other).size())) {
            std::swap(keep, other);
            from = ra;
        }
        if (keep < 0) { // two singletons
            if (!sc.free_lists.empty()) {
                keep = sc.free_lists.back();
                sc.free_lists.pop_back();
            } else {
                if (sc.lists_used == sc.lists.size())
                    sc.lists.emplace_back();
                keep = static_cast<int>(sc.lists_used++);
            }
            pooled(keep).clear();
            append_incident(pooled(keep), rb);
        }
        std::vector<int> &to = pooled(keep);
        if (other < 0) {
            append_incident(to, from);
        } else {
            to.insert(to.end(), pooled(other).begin(), pooled(other).end());
            sc.free_lists.push_back(other);
        }
        node[ra].list = keep;
        node[rb].list = -1;
    };

    for (size_t i = 0; i < n_fired; ++i) {
        const int l = local_of_[fired[i]];
        if (l >= 0) {
            Node &x = touch(l);
            x.defect ^= 1;
            x.parity ^= 1;
        }
    }
    for (size_t i = 0; i < n_fired; ++i) {
        const int l = local_of_[fired[i]];
        if (l >= 0 && node[l].defect && !node[l].queued) {
            node[l].queued = 1;
            sc.active.push_back(l);
        }
    }
    int n_active = static_cast<int>(sc.active.size());

    int rounds = 0;
    while (n_active > 0) {
        // Every replayed round fuses at least one edge.
        SURF_ASSERT(++rounds <= numNodes_ + 1,
                    "union-find growth failed to halt");
        size_t kept = 0;
        for (int v : sc.active) {
            if (node[v].parent == v && active(v))
                sc.active[kept++] = v;
            else
                node[v].queued = 0;
        }
        sc.active.resize(kept);

        // Rounds until the first fusion, with activity frozen: each live
        // frontier edge gains +1 per active endpoint cluster per round.
        // Interior edges leave the frontier lists here.
        int t = INT_MAX;
        for (int r : sc.active) {
            auto live = [&](int e) {
                const Edge &ed = edges_[static_cast<size_t>(e)];
                int other = find(ed.a);
                if (other == r && (other = find(ed.b)) == r)
                    return false;
                const int add = 1 + active(other);
                t = std::min(t, (ed.units - growth(e) + add - 1) / add);
                return true;
            };
            if (node[r].list < 0) {
                for_frontier(r, live);
            } else {
                std::vector<int> &list = pooled(node[r].list);
                size_t w = 0;
                for (int e : list)
                    if (live(e))
                        list[w++] = e;
                list.resize(w);
            }
        }
        SURF_ASSERT(t != INT_MAX,
                    "union-find growth failed to halt: an odd cluster "
                    "has no edge left to grow");

        // Skip the t-1 rounds in which nothing fuses, then queue round t.
        size_t lo = SIZE_MAX, hi = 0;
        auto enqueue = [&](int e) {
            const size_t w = static_cast<size_t>(e) >> 6;
            queue[w] |= uint64_t{1} << (e & 63);
            lo = std::min(lo, w);
            hi = std::max(hi, w);
        };
        const int skip = t - 1;
        for (int r : sc.active)
            for_frontier(r, [&](int e) {
                growth(e) += skip;
                enqueue(e);
            });

        // Replay round t exactly, in edge order.
        for (size_t w = lo; w <= hi; ++w) {
            while (queue[w]) {
                const int e = static_cast<int>(
                    w * 64 + static_cast<size_t>(std::countr_zero(queue[w])));
                queue[w] &= queue[w] - 1;
                int &g = growth(e);
                if (g == kFused)
                    continue;
                const Edge &ed = edges_[static_cast<size_t>(e)];
                const int ra = find(ed.a), rb = find(ed.b);
                if (ra == rb) {
                    g = kFused;
                    continue;
                }
                const bool act_a = active(ra), act_b = active(rb);
                if (!act_a && !act_b)
                    continue;
                g += act_a + act_b;
                if (g < ed.units)
                    continue;
                g = kFused;
                sc.forest.push_back(e);
                // Union rb into ra.
                node[rb].parent = ra;
                node[ra].parity ^= node[rb].parity;
                node[ra].boundary |= node[rb].boundary;
                const bool now = active(ra);
                n_active += now - act_a - act_b;
                if (node[ra].boundary) {
                    release(ra);
                    release(rb);
                    continue;
                }
                if (now) {
                    // The formerly inactive side grows from here on.
                    for_frontier(act_a ? rb : ra, [&](int f) {
                        if (f > e)
                            enqueue(f);
                    });
                    if (!node[ra].queued) {
                        node[ra].queued = 1;
                        sc.active.push_back(ra);
                    }
                }
                merge_frontiers(ra, rb);
            }
        }
    }

    // Peeling over the spanning forest: include an edge iff the side
    // hanging off it has odd defect parity. Leaves are peeled inward (a
    // leaf's one remaining forest edge is the XOR of its edge ids); the
    // boundary is never peeled, so boundary trees are rooted there.
    // Every other tree has even parity, so its root does not matter.
    for (int e : sc.forest)
        for (int v : {edges_[static_cast<size_t>(e)].a,
                      edges_[static_cast<size_t>(e)].b}) {
            ++node[v].deg;
            node[v].xr ^= e;
        }
    for (int e : sc.forest)
        for (int v : {edges_[static_cast<size_t>(e)].a,
                      edges_[static_cast<size_t>(e)].b})
            if (v != nb && node[v].deg == 1)
                sc.leaves.push_back(v);
    bool obs = false;
    for (size_t i = 0; i < sc.leaves.size(); ++i) {
        Node &x = node[sc.leaves[i]];
        if (x.deg != 1)
            continue;
        const int e = x.xr;
        const Edge &ed = edges_[static_cast<size_t>(e)];
        const int u = ed.a == sc.leaves[i] ? ed.b : ed.a;
        Node &y = node[u];
        x.deg = 0;
        if (x.defect) {
            obs ^= ed.obs;
            y.defect ^= 1;
        }
        y.xr ^= e;
        if (--y.deg == 1 && u != nb)
            sc.leaves.push_back(u);
    }
    return obs;
}

} // namespace surf
