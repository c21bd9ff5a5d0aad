/**
 * @file
 * Tests for the frontier-driven union-find decoder against a full-scan
 * oracle: a straight implementation of synchronous Delfosse-Nickerson
 * growth that scans every edge and every node in every round. The
 * decoder must fuse the same forest edges in the same order and predict
 * the same observable flip on low-weight, random-graph, deformed-patch
 * and Q3DE burst syndromes, under scratch reuse across decoders of
 * different sizes, and when shared across threads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <thread>

#include "baselines/strategies.hh"
#include "decode/union_find.hh"
#include "defects/defect_sampler.hh"
#include "lattice/rotated.hh"
#include "sim/dem.hh"
#include "sim/frame.hh"
#include "sim/syndrome_circuit.hh"
#include "util/rng.hh"

namespace surf {
namespace {

/** Full-scan union-find: every round grows every edge in index order
 *  and then scans every node for an active root. */
class FullScanUnionFind
{
  public:
    FullScanUnionFind(const DetectorErrorModel &dem, uint8_t tag)
    {
        local_of_.assign(dem.numDetectors, -1);
        for (uint32_t d = 0; d < dem.numDetectors; ++d)
            if (dem.detectorTag[d] == tag)
                local_of_[d] = n_++;
        for (const DemEdge &e : dem.edges[tag]) {
            const int a = e.a < 0 ? n_ : local_of_[static_cast<size_t>(e.a)];
            const int b = e.b < 0 ? n_ : local_of_[static_cast<size_t>(e.b)];
            if (a == b)
                continue;
            const double p = std::clamp(e.p, 1e-14, 0.499999);
            const int units = std::max<int>(
                1, static_cast<int>(std::llround(4.0 * std::log((1 - p) / p))));
            edges_.push_back({a, b, units, e.flipsObs});
        }
    }

    /** Decode one shot; `forest` receives the fused edges in order. */
    bool decode(const std::vector<uint32_t> &fired,
                std::vector<int> &forest) const
    {
        forest.clear();
        const size_t n = static_cast<size_t>(n_) + 1;
        std::vector<uint8_t> defect(n, 0);
        for (uint32_t id : fired)
            if (local_of_[id] >= 0)
                defect[static_cast<size_t>(local_of_[id])] ^= 1;
        std::vector<int> parent(n);
        std::iota(parent.begin(), parent.end(), 0);
        std::vector<uint8_t> parity = defect, boundary(n, 0);
        boundary[static_cast<size_t>(n_)] = 1;
        std::vector<int> growth(edges_.size(), 0);
        std::vector<uint8_t> fused(edges_.size(), 0);
        auto find = [&](int v) {
            while (parent[static_cast<size_t>(v)] != v)
                v = parent[static_cast<size_t>(v)] =
                    parent[static_cast<size_t>(parent[static_cast<size_t>(v)])];
            return v;
        };
        auto active = [&](int r) {
            return parity[static_cast<size_t>(r)] &&
                   !boundary[static_cast<size_t>(r)];
        };
        for (bool any = true; any;) {
            any = false;
            for (size_t e = 0; e < edges_.size(); ++e) {
                if (fused[e])
                    continue;
                const int ra = find(edges_[e].a), rb = find(edges_[e].b);
                if (ra == rb) {
                    fused[e] = 1;
                    continue;
                }
                const int add = active(ra) + active(rb);
                if (add == 0)
                    continue;
                growth[e] += add;
                if (growth[e] >= edges_[e].units) {
                    fused[e] = 1;
                    forest.push_back(static_cast<int>(e));
                    parent[static_cast<size_t>(rb)] = ra;
                    parity[static_cast<size_t>(ra)] ^=
                        parity[static_cast<size_t>(rb)];
                    boundary[static_cast<size_t>(ra)] |=
                        boundary[static_cast<size_t>(rb)];
                }
            }
            for (int v = 0; v <= n_ && !any; ++v)
                any = find(v) == v && active(v);
        }
        // Peel: BFS from the boundary, then from every other tree's
        // lowest node; include an edge iff its subtree parity is odd.
        std::vector<std::vector<std::pair<int, int>>> tree(n);
        for (int e : forest) {
            const Edge &ed = edges_[static_cast<size_t>(e)];
            tree[static_cast<size_t>(ed.a)].push_back({e, ed.b});
            tree[static_cast<size_t>(ed.b)].push_back({e, ed.a});
        }
        std::vector<uint8_t> visited(n, 0);
        std::vector<std::pair<int, int>> up(n, {-1, -1});
        std::vector<int> order;
        auto bfs = [&](int root) {
            visited[static_cast<size_t>(root)] = 1;
            order.push_back(root);
            for (size_t h = order.size() - 1; h < order.size(); ++h) {
                const int v = order[h];
                for (const auto &[e, to] : tree[static_cast<size_t>(v)])
                    if (!visited[static_cast<size_t>(to)]) {
                        visited[static_cast<size_t>(to)] = 1;
                        up[static_cast<size_t>(to)] = {e, v};
                        order.push_back(to);
                    }
            }
        };
        bfs(n_);
        for (int v = 0; v < n_; ++v)
            if (!visited[static_cast<size_t>(v)] &&
                !tree[static_cast<size_t>(v)].empty())
                bfs(v);
        bool obs = false;
        for (size_t i = order.size(); i-- > 0;) {
            const int v = order[i];
            const auto [e, par] = up[static_cast<size_t>(v)];
            if (e >= 0 && defect[static_cast<size_t>(v)]) {
                obs ^= edges_[static_cast<size_t>(e)].obs;
                defect[static_cast<size_t>(par)] ^= 1;
            }
        }
        return obs;
    }

  private:
    struct Edge
    {
        int a, b, units;
        bool obs;
    };
    int n_ = 0;
    std::vector<int> local_of_;
    std::vector<Edge> edges_;
};

/** The decoder under test beside its full-scan oracle. */
struct Pair
{
    Pair(const DetectorErrorModel &dem, uint8_t tag)
        : uf(dem, tag), ref(dem, tag)
    {
    }
    UnionFindDecoder uf;
    FullScanUnionFind ref;
};

/** Decode with both; require the same prediction and the same forest. */
void
expectSame(const Pair &p, const std::vector<uint32_t> &fired, UfScratch &sc,
           const char *what, size_t shot)
{
    std::vector<int> forest;
    const bool want = p.ref.decode(fired, forest);
    const bool got = p.uf.decode(fired.data(), fired.size(), sc);
    ASSERT_EQ(got, want) << what << " shot " << shot;
    ASSERT_EQ(sc.forest, forest) << what << " shot " << shot;
}

DetectorErrorModel
memoryDem(const CodePatch &patch, int rounds, const NoiseParams &noise,
          BuiltCircuit *built = nullptr)
{
    MemorySpec spec;
    spec.rounds = rounds;
    BuiltCircuit b = buildMemoryCircuit(patch, spec, noise);
    DetectorErrorModel dem = buildDem(b.circuit, PauliType::Z);
    if (built)
        *built = std::move(b);
    return dem;
}

std::vector<std::vector<uint32_t>>
sampleShots(const Circuit &circuit, size_t shots, uint64_t seed)
{
    FrameSimulator sim(circuit, shots, seed);
    const SparseSyndromes s = sim.sparseFiredDetectors();
    std::vector<std::vector<uint32_t>> out;
    for (size_t i = 0; i < s.shots(); ++i)
        out.push_back(s.shotVector(i));
    return out;
}

/** Q3DE at pDefect = 0.5: the enlarged code keeps a burst inside. The
 *  scenario engine's default decoder is defect-unaware (`dem`); a
 *  defect-aware one (`aware`) sees the struck sites as p = 0.5 edges,
 *  one growth unit each. */
struct Q3deBurst
{
    DetectorErrorModel dem, aware;
    std::vector<std::vector<uint32_t>> shots;
};

Q3deBurst
q3deBurst(int d, size_t shots, uint64_t seed)
{
    const auto out =
        applyStrategy(Strategy::Q3de, d, 2,
                      DefectSampler::regionSites({d - 1, d - 1}, 3));
    EXPECT_TRUE(out.alive);
    EXPECT_FALSE(out.residualDefects.empty());
    NoiseParams noise;
    noise.p = 2e-3;
    noise.pDefect = 0.5;
    noise.defectiveSites = out.residualDefects;
    Q3deBurst q;
    BuiltCircuit built;
    q.aware = memoryDem(out.patch, 4, noise, &built);
    noise.defectiveSites.clear();
    q.dem = memoryDem(out.patch, 4, noise);
    EXPECT_EQ(q.dem.numDetectors, built.circuit.numDetectors());
    q.shots = sampleShots(built.circuit, shots, seed);
    return q;
}

TEST(UnionFind, ExhaustiveWeightOneAndTwoAtD3)
{
    NoiseParams noise;
    noise.p = 1e-3;
    const auto dem = memoryDem(squarePatch(3), 3, noise);
    UfScratch sc;
    for (uint8_t tag : {uint8_t{0}, uint8_t{1}}) {
        const Pair p(dem, tag);
        std::vector<uint32_t> ids;
        for (uint32_t d = 0; d < dem.numDetectors; ++d)
            if (dem.detectorTag[d] == tag)
                ids.push_back(d);
        ASSERT_GT(ids.size(), 4u);
        for (size_t i = 0; i < ids.size(); ++i) {
            expectSame(p, {ids[i]}, sc, "weight-1", i);
            for (size_t j = i + 1; j < ids.size(); ++j)
                expectSame(p, {ids[i], ids[j]}, sc, "weight-2", j);
        }
    }
}

/** Random graph per tag: isolated nodes, heavy boundary attachment, and
 *  weights from certain (units 1) to near-impossible (large units).
 *  Every non-isolated component gets a boundary edge so every odd
 *  cluster can halt; `live` lists the detectors that may fire. */
DetectorErrorModel
randomDem(Rng &rng, size_t n, std::vector<uint32_t> &live)
{
    DetectorErrorModel dem;
    dem.numDetectors = n;
    for (size_t i = 0; i < n; ++i)
        dem.detectorTag.push_back(static_cast<uint8_t>(rng.below(2)));
    std::vector<uint8_t> isolated(n);
    for (size_t i = 0; i < n; ++i)
        isolated[i] = rng.bernoulli(0.1);
    auto prob = [&] {
        const double x = rng.uniform();
        return x < 0.2 ? 0.5 : std::pow(10.0, -1.0 - 8.0 * x);
    };
    std::vector<int> comp(n);
    std::iota(comp.begin(), comp.end(), 0);
    auto find = [&](int v) {
        while (comp[static_cast<size_t>(v)] != v)
            v = comp[static_cast<size_t>(v)];
        return v;
    };
    std::vector<uint8_t> has_boundary(n, 0);
    for (uint8_t tag : {uint8_t{0}, uint8_t{1}}) {
        std::vector<int> nodes;
        for (size_t i = 0; i < n; ++i)
            if (dem.detectorTag[i] == tag && !isolated[i])
                nodes.push_back(static_cast<int>(i));
        if (nodes.empty())
            continue;
        const size_t m = nodes.size() * (1 + rng.below(3));
        for (size_t k = 0; k < m; ++k) {
            const int a = nodes[rng.below(nodes.size())];
            if (rng.bernoulli(0.35)) {
                dem.edges[tag].push_back({a, -1, prob(), rng.bernoulli(0.5)});
                has_boundary[static_cast<size_t>(find(a))] = 1;
                continue;
            }
            const int b = nodes[rng.below(nodes.size())];
            dem.edges[tag].push_back({a, b, prob(), rng.bernoulli(0.3)});
            const int ra = find(a), rb = find(b);
            if (ra != rb) {
                comp[static_cast<size_t>(rb)] = ra;
                has_boundary[static_cast<size_t>(ra)] |=
                    has_boundary[static_cast<size_t>(rb)];
            }
        }
        for (int v : nodes)
            if (!has_boundary[static_cast<size_t>(find(v))]) {
                dem.edges[tag].push_back({v, -1, prob(), false});
                has_boundary[static_cast<size_t>(find(v))] = 1;
            }
    }
    live.clear();
    for (size_t i = 0; i < n; ++i)
        if (!isolated[i])
            live.push_back(static_cast<uint32_t>(i));
    return dem;
}

TEST(UnionFind, RandomGraphsWithIsolatedNodesAndBoundaryEdges)
{
    Rng rng(20240611);
    UfScratch sc;
    for (int graph = 0; graph < 40; ++graph) {
        std::vector<uint32_t> live;
        const auto dem = randomDem(rng, 20 + rng.below(200), live);
        for (uint8_t tag : {uint8_t{0}, uint8_t{1}}) {
            const Pair p(dem, tag);
            for (size_t shot = 0; shot < 60; ++shot) {
                std::vector<uint32_t> fired;
                const double density = rng.uniform() * 0.6;
                for (uint32_t v : live)
                    if (rng.bernoulli(density))
                        fired.push_back(v);
                expectSame(p, fired, sc, "random graph", shot);
            }
        }
    }
}

TEST(UnionFind, DeformedPatches)
{
    UfScratch sc;
    const std::vector<std::set<Coord>> defects = {
        {{4, 5}}, {{5, 4}, {6, 5}}, DefectSampler::regionSites({4, 4}, 2)};
    for (size_t k = 0; k < defects.size(); ++k) {
        const auto out =
            applyStrategy(Strategy::SurfDeformer, 5, 2, defects[k]);
        ASSERT_TRUE(out.alive);
        NoiseParams noise;
        noise.p = 8e-3;
        BuiltCircuit built;
        const auto dem = memoryDem(out.patch, 4, noise, &built);
        const Pair p(dem, 1);
        const auto shots = sampleShots(built.circuit, 800, 11 + k);
        for (size_t s = 0; s < shots.size(); ++s)
            expectSame(p, shots[s], sc, "deformed", s);
    }
}

TEST(UnionFind, Q3deBurstsAtSaturatedDefectRate)
{
    const Q3deBurst q = q3deBurst(5, 1000, 3);
    size_t fired = 0;
    for (const auto &shot : q.shots)
        fired += shot.size();
    EXPECT_GT(fired / q.shots.size(), 40u);
    const auto saturated = std::count_if(
        q.aware.edges[1].begin(), q.aware.edges[1].end(),
        [](const DemEdge &e) { return e.p > 0.45; });
    EXPECT_GT(saturated, 10);
    UfScratch sc;
    for (const DetectorErrorModel *dem : {&q.dem, &q.aware}) {
        const Pair p(*dem, 1);
        for (size_t s = 0; s < q.shots.size(); ++s)
            expectSame(p, q.shots[s], sc, "q3de burst", s);
    }
}

TEST(UnionFind, DuplicateFiredIdsCancel)
{
    const Q3deBurst q = q3deBurst(5, 300, 5);
    const Pair p(q.dem, 1);
    UfScratch sc;
    Rng rng(9);
    for (size_t s = 0; s < q.shots.size(); ++s) {
        std::vector<uint32_t> fired = q.shots[s];
        // Every id twice: all defects cancel.
        std::vector<uint32_t> twice = fired;
        twice.insert(twice.end(), fired.begin(), fired.end());
        expectSame(p, twice, sc, "all cancelled", s);
        EXPECT_TRUE(sc.forest.empty());
        // Some ids repeated, two or three times.
        const size_t n = fired.size();
        for (size_t i = 0; i < n; ++i)
            for (uint64_t r = rng.below(3); r-- > 0;)
                fired.push_back(fired[i]);
        for (size_t i = fired.size(); i > 1; --i)
            std::swap(fired[i - 1], fired[rng.below(i)]);
        expectSame(p, fired, sc, "partly cancelled", s);
    }
}

TEST(UnionFind, ScratchReusedAcrossDecodersOfDifferentSizes)
{
    NoiseParams noise;
    noise.p = 8e-3;
    BuiltCircuit small_c, mid_c;
    const auto small_dem = memoryDem(squarePatch(3), 3, noise, &small_c);
    const auto mid_dem = memoryDem(squarePatch(5), 5, noise, &mid_c);
    const Q3deBurst big = q3deBurst(5, 400, 7);
    const Pair small(small_dem, 1), mid(mid_dem, 1), large(big.dem, 1);
    const auto small_shots = sampleShots(small_c.circuit, 400, 1);
    const auto mid_shots = sampleShots(mid_c.circuit, 400, 2);
    UfScratch sc;
    for (size_t s = 0; s < 400; ++s) {
        expectSame(large, big.shots[s], sc, "interleaved large", s);
        expectSame(small, small_shots[s], sc, "interleaved small", s);
        expectSame(mid, mid_shots[s], sc, "interleaved mid", s);
    }
}

TEST(UnionFind, SharedDecoderAcrossThreads)
{
    const Q3deBurst q = q3deBurst(5, 600, 13);
    const UnionFindDecoder uf(q.dem, 1);
    std::vector<uint8_t> serial(q.shots.size());
    UfScratch sc;
    for (size_t s = 0; s < q.shots.size(); ++s)
        serial[s] = uf.decode(q.shots[s].data(), q.shots[s].size(), sc);
    for (size_t threads : {4u, 8u}) {
        std::vector<uint8_t> got(q.shots.size(), 2);
        std::vector<std::thread> pool;
        for (size_t t = 0; t < threads; ++t)
            pool.emplace_back([&, t] {
                UfScratch own;
                // Strided, so every thread decodes every region of the run.
                for (size_t s = t; s < q.shots.size(); s += threads)
                    got[s] = uf.decode(q.shots[s].data(), q.shots[s].size(),
                                       own);
            });
        for (auto &th : pool)
            th.join();
        EXPECT_EQ(got, serial) << threads << " threads";
    }
}

} // namespace
} // namespace surf
