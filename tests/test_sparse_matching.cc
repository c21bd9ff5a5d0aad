/**
 * @file
 * Equivalence tests for the MWPM decoder's backends against the
 * test-side oracle (dense_matching_oracle.hh: all-pairs tables, the
 * former rows + K-nearest mask + k x k matrix path, and the dense
 * O(k^3) blossom they both ran): bit-identical predictions of exact
 * rows on random graphlike DEMs and on deformed-patch circuits at both
 * basis tags, query-level agreement of memoized rows with the tables,
 * identical predictions and weights of the masked default config, and
 * weight equality of the sparse solver and the matrix-free matcher.
 * Also: truncation fallback behavior, union-find invariance, and the
 * d=13 smoke test.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "baselines/strategies.hh"
#include "burst_syndromes.hh"
#include "decode/memory_experiment.hh"
#include "decode/mwpm.hh"
#include "decode/sparse_blossom.hh"
#include "decode/union_find.hh"
#include "dense_matching_oracle.hh"
#include "lattice/rotated.hh"
#include "scenario/scenario_experiment.hh"
#include "sim/dem.hh"
#include "sim/frame.hh"
#include "sim/syndrome_circuit.hh"
#include "util/rng.hh"

namespace surf {
namespace {

using oracle::kMatchForbidden;
using oracle::minWeightPerfectMatching;
using oracle::OracleScratch;
using oracle::TableDecoder;

/** Random graphlike DEM: per-tag detector sets with random pairwise and
 *  boundary edges (connected enough to be interesting, but components
 *  and boundary-free islands are allowed and exercised). */
DetectorErrorModel
randomDem(Rng &rng)
{
    DetectorErrorModel dem;
    dem.numDetectors = 12 + rng.below(28);
    dem.detectorTag.resize(dem.numDetectors);
    std::vector<int> by_tag[2];
    for (uint32_t d = 0; d < dem.numDetectors; ++d) {
        dem.detectorTag[d] = static_cast<uint8_t>(rng.below(2));
        by_tag[dem.detectorTag[d]].push_back(static_cast<int>(d));
    }
    for (int tag = 0; tag < 2; ++tag) {
        const auto &dets = by_tag[tag];
        if (dets.empty())
            continue;
        const size_t n_edges = dets.size() + rng.below(2 * dets.size() + 1);
        for (size_t e = 0; e < n_edges; ++e) {
            DemEdge edge;
            edge.a = dets[rng.below(dets.size())];
            // ~1 in 5 edges touch the boundary.
            edge.b = rng.below(5) == 0
                         ? -1
                         : dets[rng.below(dets.size())];
            if (edge.a == edge.b)
                continue;
            edge.p = 1e-4 + 0.3 * rng.uniform();
            edge.flipsObs = rng.below(2) == 0;
            dem.edges[tag].push_back(edge);
        }
    }
    return dem;
}

TEST(SparseMatching, BitIdenticalToDenseOnRandomDems)
{
    Rng rng(0xfeedf00d);
    for (int trial = 0; trial < 30; ++trial) {
        const DetectorErrorModel dem = randomDem(rng);
        for (uint8_t tag : {0, 1}) {
            const TableDecoder dense(dem, tag);
            MwpmDecoder sparse(dem, tag, nullptr, MatchingBackend::Sparse);
            ASSERT_EQ(sparse.backend(), MatchingBackend::Sparse);
            // Fully exact sparse mode: bit-identity is guaranteed for
            // every syndrome, including ties between equal-weight
            // matchings (which random weights do produce).
            sparse.setTruncation(SIZE_MAX);
            // The Dense backend is exact rows by construction.
            const MwpmDecoder exact_rows(dem, tag, nullptr,
                                         MatchingBackend::Dense);
            OracleScratch ds;
            MwpmScratch ss;
            for (int shot = 0; shot < 40; ++shot) {
                std::set<uint32_t> fired_set;
                const size_t n = rng.below(12);
                for (size_t i = 0; i < n; ++i)
                    fired_set.insert(
                        static_cast<uint32_t>(rng.below(dem.numDetectors)));
                const std::vector<uint32_t> fired(fired_set.begin(),
                                                  fired_set.end());
                const bool dn = dense.decode(fired.data(), fired.size(), ds);
                ASSERT_EQ(dn, sparse.decode(fired.data(), fired.size(), ss))
                    << "trial " << trial << " tag " << int(tag) << " shot "
                    << shot;
                ASSERT_EQ(dn,
                          exact_rows.decode(fired.data(), fired.size(), ss))
                    << "Dense backend, trial " << trial << " tag "
                    << int(tag) << " shot " << shot;
            }
        }
    }
}

TEST(SparseMatching, BitIdenticalToDenseOnDeformedPatchBothBases)
{
    // A Surf-Deformer-deformed patch (removal + enlargement around a
    // burst region) exercises irregular boundaries and seamed weights.
    const auto out = applyStrategyChecked(Strategy::SurfDeformer, 5, 2,
                                          {{5, 5}, {6, 6}})
                         .value();
    ASSERT_TRUE(out.alive);
    for (PauliType basis : {PauliType::Z, PauliType::X}) {
        MemorySpec spec;
        spec.rounds = 5;
        spec.basis = basis;
        NoiseParams noise;
        noise.p = 3e-3;
        const BuiltCircuit built =
            buildMemoryCircuit(out.patch, spec, noise);
        const auto dem = buildDem(built.circuit, basis);
        const uint8_t tag = (basis == PauliType::Z) ? 1 : 0;
        const TableDecoder dense(dem, tag);
        MwpmDecoder sparse(dem, tag, nullptr, MatchingBackend::Sparse);
        // Fully exact sparse queries: bit-identity must hold on every
        // sampled shot, whatever its defect count.
        sparse.setTruncation(SIZE_MAX);
        FrameSimulator sim(built.circuit, 1500, 0xd0d0);
        const SparseSyndromes syndromes = sim.sparseFiredDetectors();
        MwpmDecoder deflt(dem, tag, nullptr, MatchingBackend::Sparse);
        OracleScratch ds;
        MwpmScratch ss;
        size_t default_disagree = 0;
        for (size_t s = 0; s < sim.shots(); ++s) {
            const bool dn =
                dense.decode(syndromes.data(s), syndromes.count(s), ds);
            ASSERT_EQ(dn, sparse.decode(syndromes.data(s),
                                        syndromes.count(s), ss))
                << "basis " << (basis == PauliType::Z ? "Z" : "X")
                << " shot " << s;
            // The default config (truncated, radius-bounded) returns a
            // minimum-weight matching too; it may only differ from the
            // dense pick on equal-weight ties, which are rare on real
            // surface-code graphs.
            default_disagree +=
                dn != deflt.decode(syndromes.data(s), syndromes.count(s),
                                   ss);
        }
        EXPECT_LE(default_disagree, sim.shots() / 100)
            << "default sparse config diverges from dense far more often "
               "than tie-breaking can explain";
    }
}

TEST(SparseMatching, MemoizedRowsMatchDenseTables)
{
    MemorySpec spec;
    spec.rounds = 4;
    NoiseParams noise;
    noise.p = 2e-3;
    const BuiltCircuit built = buildMemoryCircuit(squarePatch(5), spec, noise);
    const auto dem = buildDem(built.circuit, PauliType::Z);
    const DecodingGraph exact_rows(dem, 1);
    const DecodingGraph bounded_rows(dem, 1, MatchingBackend::Sparse);
    const oracle::DenseTables dense(exact_rows);
    const int n = static_cast<int>(exact_rows.numNodes());
    const int bnode = exact_rows.boundaryNode();
    ASSERT_GT(n, 10);

    DijkstraScratch sc;
    for (int src = 0; src < n; src += 3) {
        // Exact rows: bit-identical to the dense table, entry for
        // entry. (Parity witnesses are compared for targets >= src,
        // where the dense table stores the src-rooted path.)
        const auto ex_p = exact_rows.row(src, true, sc);
        const DecodingGraph::Row &ex = *ex_p;
        EXPECT_EQ(ex.radius, DecodingGraph::kInf);
        for (int t = 0; t <= n; ++t) {
            const double dd = dense.dist(src, t);
            if (std::isfinite(dd)) {
                ASSERT_EQ(static_cast<double>(
                              ex.dist[static_cast<size_t>(t)]),
                          dd)
                    << "src " << src << " target " << t;
                if (t >= src)
                    ASSERT_EQ(ex.par[static_cast<size_t>(t)] != 0,
                              dense.obsParity(src, t))
                        << "src " << src << " target " << t;
            } else {
                ASSERT_FALSE(std::isfinite(
                    ex.dist[static_cast<size_t>(t)]));
            }
        }

        // Bounded rows: radius-capped at 2 d(src, B); everything within
        // the radius is present with the dense table's exact value.
        const auto bd_p = bounded_rows.row(src, false, sc);
        const DecodingGraph::Row &bd = *bd_p;
        const double db = dense.dist(src, bnode);
        ASSERT_TRUE(std::isfinite(db));
        EXPECT_GE(bd.radius, 2.0 * db);
        ASSERT_TRUE(std::isfinite(bd.dist[static_cast<size_t>(bnode)]));
        for (int t = 0; t <= n; ++t) {
            const double dd = dense.dist(src, t);
            if (std::isfinite(dd) && dd <= 2.0 * db)
                ASSERT_EQ(static_cast<double>(
                              bd.dist[static_cast<size_t>(t)]),
                          dd)
                    << "src " << src << " target " << t;
        }

        // Asking the bounded graph for an exact row upgrades in place.
        const auto up_p = bounded_rows.row(src, true, sc);
        const DecodingGraph::Row &up = *up_p;
        EXPECT_EQ(up.radius, DecodingGraph::kInf);
        for (int t = 0; t <= n; ++t)
            ASSERT_EQ(static_cast<double>(up.dist[static_cast<size_t>(t)]),
                      static_cast<double>(
                          ex.dist[static_cast<size_t>(t)]));
    }
    EXPECT_GT(exact_rows.rowsBuilt(), 0u);
}

TEST(SparseMatching, TinyTruncationStillDecodesAndFallsBackExactly)
{
    // K = 1 forces heavy truncation; the exact fallback must kick in
    // whenever the truncated matching graph has no perfect matching, so
    // predictions stay valid (and, for k <= 2, bit-identical to dense).
    MemorySpec spec;
    spec.rounds = 3;
    NoiseParams noise;
    noise.p = 2e-2; // dense syndromes: plenty of k > 2 shots
    const BuiltCircuit built = buildMemoryCircuit(squarePatch(5), spec, noise);
    const auto dem = buildDem(built.circuit, PauliType::Z);
    const TableDecoder dense(dem, 1);
    MwpmDecoder sparse(dem, 1, nullptr, MatchingBackend::Sparse);
    sparse.setTruncation(1);
    EXPECT_EQ(sparse.truncation(), 1u);
    FrameSimulator sim(built.circuit, 400, 99);
    const SparseSyndromes syndromes = sim.sparseFiredDetectors();
    OracleScratch ds;
    MwpmScratch ss;
    size_t big_shots = 0;
    for (size_t s = 0; s < sim.shots(); ++s) {
        const bool sp =
            sparse.decode(syndromes.data(s), syndromes.count(s), ss);
        const bool dn =
            dense.decode(syndromes.data(s), syndromes.count(s), ds);
        if (syndromes.count(s) <= 2)
            EXPECT_EQ(sp, dn) << "shot " << s;
        else
            ++big_shots;
    }
    EXPECT_GT(big_shots, 20u) << "noise too low to exercise truncation";

    // Flipping the same decoder to fully-exact afterwards upgrades its
    // memoized truncated rows in place (old rows are retired, not
    // freed under readers) and restores bit-identity with dense.
    sparse.setTruncation(SIZE_MAX);
    for (size_t s = 0; s < sim.shots(); ++s)
        ASSERT_EQ(sparse.decode(syndromes.data(s), syndromes.count(s), ss),
                  dense.decode(syndromes.data(s), syndromes.count(s), ds))
            << "post-upgrade shot " << s;
}

/** Counts of one masked-mode oracle comparison. */
struct MaskedRun
{
    size_t masked = 0;     ///< rows-path shots with the K-nearest mask live
    size_t mismatches = 0; ///< prediction or weight differences
};

/**
 * Decoders against the former rows + K-nearest mask + k x k matrix +
 * dense blossom path on the same instance, with equal predictions and
 * equal matched weight required on every shot: the default Sparse
 * decoder (mask, burst dispatch), a rows-pinned one (no dispatch), and
 * a rows-pinned one at K = 4, where the mask binds on most shots.
 */
MaskedRun
compareMaskedRows(const DetectorErrorModel &dem, const SparseSyndromes &syn,
                  const char *what)
{
    const MwpmDecoder deflt(dem, 1);
    EXPECT_EQ(deflt.blossomThreshold(),
              std::max(kDefaultBlossomDefects,
                       deflt.graph().numNodes() / 12));
    MwpmDecoder rows(dem, 1), tight(dem, 1);
    rows.setBlossomThreshold(SIZE_MAX);
    tight.setBlossomThreshold(SIZE_MAX);
    tight.setTruncation(4);
    const oracle::RowsMatrixDecoder ref(dem, 1);
    const oracle::RowsMatrixDecoder ref_rows(dem, 1, kDefaultNearestDefects,
                                             false);
    const oracle::RowsMatrixDecoder ref_tight(dem, 1, 4, false);
    const std::pair<const MwpmDecoder *, const oracle::RowsMatrixDecoder *>
        cases[] = {{&deflt, &ref}, {&rows, &ref_rows}, {&tight, &ref_tight}};
    const char *names[] = {"default", "rows-pinned", "K=4"};
    OracleScratch os;
    MwpmScratch ms;
    MaskedRun run;
    for (size_t s = 0; s < syn.shots(); ++s) {
        for (size_t c = 0; c < 3; ++c) {
            const bool want =
                cases[c].second->decode(syn.data(s), syn.count(s), os);
            const bool got =
                cases[c].first->decode(syn.data(s), syn.count(s), ms);
            if ((got != want || ms.lastWeight != os.lastWeight) &&
                run.mismatches++ == 0)
                ADD_FAILURE() << what << " " << names[c] << " shot " << s
                              << " k " << os.defects.size() << ": got "
                              << got << "/" << ms.lastWeight << ", oracle "
                              << want << "/" << os.lastWeight;
        }
        const size_t k = os.defects.size();
        run.masked += k > kDefaultNearestDefects + 1 && !ref.burst(k);
    }
    return run;
}

TEST(SparseMatching, MaskedDefaultMatchesRowsMatrixOracle)
{
    // The memory_d9 benchmark code: d=9, 9 rounds, p=3e-3. Roughly half
    // the shots carry more than K+1 = 17 defects, so the K-nearest mask
    // is live on them.
    MemorySpec spec;
    spec.rounds = 9;
    NoiseParams noise;
    noise.p = 3e-3;
    const BuiltCircuit built = buildMemoryCircuit(squarePatch(9), spec, noise);
    const auto dem = buildDem(built.circuit, PauliType::Z);
    FrameSimulator sim(built.circuit, 2048, 0x6d61736b);
    const MaskedRun run =
        compareMaskedRows(dem, sim.sparseFiredDetectors(), "memory d=9");
    EXPECT_EQ(run.mismatches, 0u);
    EXPECT_GT(run.masked, sim.shots() / 4) << "mask rarely live";
}

TEST(SparseMatching, MaskedDefaultMatchesRowsMatrixOracleDefectAware)
{
    // A saturated data qubit (pDefect = 0.5) in the middle of a d=9
    // patch, decoded by a defect-aware decoder: its p = 0.5 edges weigh
    // next to nothing, so shots fire long defect chains around it.
    MemorySpec spec;
    spec.rounds = 9;
    NoiseParams noise;
    noise.p = 3e-3;
    noise.pDefect = 0.5;
    noise.defectiveSites = {{9, 9}};
    const BuiltCircuit built = buildMemoryCircuit(squarePatch(9), spec, noise);
    const auto dem = buildDem(built.circuit, PauliType::Z);
    FrameSimulator sim(built.circuit, 512, 0x73617475);
    const MaskedRun run = compareMaskedRows(
        dem, sim.sparseFiredDetectors(), "saturated qubit d=9");
    EXPECT_EQ(run.mismatches, 0u);
    EXPECT_GT(run.masked, sim.shots() / 4) << "mask rarely live";
}

TEST(SparseMatching, UnionFindUnchangedByBackendChoice)
{
    // The union-find decoder shares no state with the matching backend;
    // its predictions must be identical however the MWPM graphs are
    // built, and across scratch reuse after the workspace rework.
    const auto out =
        applyStrategyChecked(Strategy::SurfDeformer, 5, 2, {{4, 5}}).value();
    ASSERT_TRUE(out.alive);
    MemorySpec spec;
    spec.rounds = 4;
    NoiseParams noise;
    noise.p = 5e-3;
    const BuiltCircuit built = buildMemoryCircuit(out.patch, spec, noise);
    const auto dem = buildDem(built.circuit, PauliType::Z);
    const UnionFindDecoder uf(dem, 1);
    const MwpmDecoder mwpm_dense(dem, 1, nullptr, MatchingBackend::Dense);
    const MwpmDecoder mwpm_sparse(dem, 1, nullptr, MatchingBackend::Sparse);
    FrameSimulator sim(built.circuit, 500, 3);
    const SparseSyndromes syndromes = sim.sparseFiredDetectors();
    UfScratch reused;
    MwpmScratch ms;
    for (size_t s = 0; s < sim.shots(); ++s) {
        UfScratch fresh;
        const bool a =
            uf.decode(syndromes.data(s), syndromes.count(s), reused);
        const bool b =
            uf.decode(syndromes.data(s), syndromes.count(s), fresh);
        ASSERT_EQ(a, b) << "shot " << s;
        // Interleave MWPM decodes of both backends to prove no shared
        // mutable state leaks into the union-find result.
        (void)mwpm_dense.decode(syndromes.data(s), syndromes.count(s), ms);
        (void)mwpm_sparse.decode(syndromes.data(s), syndromes.count(s), ms);
    }
}

TEST(SparseBlossom, SolverMatchesDenseBlossomOnRandomGraphs)
{
    // The adjacency-list blossom solver must be exact: on every random
    // sparse graph it reports a perfect matching iff the dense blossom
    // does, with identical total weight (the matchings themselves may
    // differ among equal-weight optima).
    Rng rng(0xb1055);
    SparseMatcherScratch scratch;
    std::vector<int> smate;
    for (int trial = 0; trial < 400; ++trial) {
        const int n = 2 * static_cast<int>(1 + rng.below(10)); // 2..20
        std::vector<SparseMatchEdge> edges;
        std::vector<int64_t> w(static_cast<size_t>(n) * n, kMatchForbidden);
        // Sparse-ish edge count, duplicates allowed (cheapest wins).
        const size_t m = rng.below(static_cast<uint64_t>(2 * n) + 1);
        for (size_t e = 0; e < m; ++e) {
            const int a = static_cast<int>(rng.below(n));
            const int b = static_cast<int>(rng.below(n));
            if (a == b)
                continue;
            const auto wt = static_cast<int64_t>(rng.below(1000));
            edges.push_back({a, b, wt});
            auto &slot = w[static_cast<size_t>(a) * n + b];
            auto &slot2 = w[static_cast<size_t>(b) * n + a];
            slot = std::min(slot, wt);
            slot2 = std::min(slot2, wt);
        }
        std::vector<int> dmate;
        const bool dok = minWeightPerfectMatching(n, w, dmate);
        int64_t stotal = -1;
        const bool sok = sparseMinWeightPerfectMatching(n, edges, scratch,
                                                        smate, &stotal);
        ASSERT_EQ(dok, sok) << "trial " << trial << " n " << n;
        if (!dok)
            continue;
        int64_t dtotal = 0;
        for (int v = 0; v < n; ++v) {
            ASSERT_GE(smate[static_cast<size_t>(v)], 0);
            ASSERT_EQ(smate[static_cast<size_t>(
                          smate[static_cast<size_t>(v)])],
                      v)
                << "trial " << trial;
            if (dmate[static_cast<size_t>(v)] > v)
                dtotal += w[static_cast<size_t>(v) * n +
                            dmate[static_cast<size_t>(v)]];
        }
        ASSERT_EQ(stotal, dtotal) << "trial " << trial << " n " << n;
    }
}

TEST(SparseBlossom, SolverHandlesDenseTieHeavyGraphs)
{
    // Near-complete graphs with tiny weight ranges produce many blossoms
    // and equal-weight optima — the stress case for contraction and
    // expansion. Weight equality with the dense blossom must still hold.
    Rng rng(0x70505);
    SparseMatcherScratch scratch;
    std::vector<int> smate;
    for (int trial = 0; trial < 150; ++trial) {
        const int n = 2 * static_cast<int>(2 + rng.below(7)); // 4..16
        std::vector<SparseMatchEdge> edges;
        std::vector<int64_t> w(static_cast<size_t>(n) * n, kMatchForbidden);
        for (int a = 0; a < n; ++a)
            for (int b = a + 1; b < n; ++b) {
                if (rng.below(5) == 0)
                    continue; // drop ~20% of pairs
                const auto wt = static_cast<int64_t>(rng.below(4));
                edges.push_back({a, b, wt});
                w[static_cast<size_t>(a) * n + b] = wt;
                w[static_cast<size_t>(b) * n + a] = wt;
            }
        std::vector<int> dmate;
        const bool dok = minWeightPerfectMatching(n, w, dmate);
        int64_t stotal = -1;
        const bool sok = sparseMinWeightPerfectMatching(n, edges, scratch,
                                                        smate, &stotal);
        ASSERT_EQ(dok, sok) << "trial " << trial << " n " << n;
        if (!dok)
            continue;
        int64_t dtotal = 0;
        for (int v = 0; v < n; ++v)
            if (dmate[static_cast<size_t>(v)] > v)
                dtotal += w[static_cast<size_t>(v) * n +
                            dmate[static_cast<size_t>(v)]];
        ASSERT_EQ(stotal, dtotal) << "trial " << trial << " n " << n;
    }
}

TEST(SparseBlossom, WeightEqualsDenseOnRandomDems)
{
    // The matrix-free matcher must produce matchings of exactly the
    // dense blossom's total weight on every shot — including graphs
    // with boundary-free islands (forbidden pairs) and boundary-heavy
    // regions. Predictions may differ only among equal-weight optima.
    Rng rng(0xbeefb105);
    size_t checked = 0, pred_diff = 0;
    for (int trial = 0; trial < 30; ++trial) {
        const DetectorErrorModel dem = randomDem(rng);
        for (uint8_t tag : {0, 1}) {
            const TableDecoder dense(dem, tag);
            const MwpmDecoder sb(dem, tag, nullptr,
                                 MatchingBackend::SparseBlossom);
            ASSERT_EQ(sb.backend(), MatchingBackend::SparseBlossom);
            OracleScratch ds;
            MwpmScratch ss;
            for (int shot = 0; shot < 40; ++shot) {
                std::set<uint32_t> fired_set;
                const size_t n = rng.below(14);
                for (size_t i = 0; i < n; ++i)
                    fired_set.insert(
                        static_cast<uint32_t>(rng.below(dem.numDetectors)));
                const std::vector<uint32_t> fired(fired_set.begin(),
                                                  fired_set.end());
                const bool dp = dense.decode(fired.data(), fired.size(), ds);
                const bool sp = sb.decode(fired.data(), fired.size(), ss);
                ASSERT_EQ(ds.lastWeight, ss.lastWeight)
                    << "trial " << trial << " tag " << int(tag) << " shot "
                    << shot << " k " << fired.size();
                ++checked;
                pred_diff += dp != sp;
            }
        }
    }
    // Differing predictions can only come from equal-weight optima with
    // different parity; they must stay rare even on random weights.
    EXPECT_LE(pred_diff, checked / 20)
        << "matcher diverges from dense far more often than equal-weight "
           "ties can explain";
}

TEST(SparseBlossom, WeightEqualsDenseOnDeformedPatchBothBases)
{
    const auto out = applyStrategyChecked(Strategy::SurfDeformer, 5, 2,
                                          {{5, 5}, {6, 6}})
                         .value();
    ASSERT_TRUE(out.alive);
    for (PauliType basis : {PauliType::Z, PauliType::X}) {
        MemorySpec spec;
        spec.rounds = 5;
        spec.basis = basis;
        NoiseParams noise;
        noise.p = 4e-3;
        const BuiltCircuit built = buildMemoryCircuit(out.patch, spec, noise);
        const auto dem = buildDem(built.circuit, basis);
        const uint8_t tag = (basis == PauliType::Z) ? 1 : 0;
        const TableDecoder dense(dem, tag);
        const MwpmDecoder sb(dem, tag, nullptr,
                             MatchingBackend::SparseBlossom);
        FrameSimulator sim(built.circuit, 1200, 0xc0de);
        const SparseSyndromes syndromes = sim.sparseFiredDetectors();
        OracleScratch ds;
        MwpmScratch ss;
        size_t pred_diff = 0;
        for (size_t s = 0; s < sim.shots(); ++s) {
            const bool dp =
                dense.decode(syndromes.data(s), syndromes.count(s), ds);
            const bool sp =
                sb.decode(syndromes.data(s), syndromes.count(s), ss);
            ASSERT_EQ(ds.lastWeight, ss.lastWeight)
                << "basis " << (basis == PauliType::Z ? "Z" : "X")
                << " shot " << s << " k " << syndromes.count(s);
            pred_diff += dp != sp;
        }
        // Real surface-code weights rarely tie: predictions should
        // agree essentially always.
        EXPECT_LE(pred_diff, sim.shots() / 100);
    }
}

TEST(SparseBlossom, BurstSyndromeWeightEqualityAtHighDefectCounts)
{
    // High-defect burst syndromes on a deformed d=9 patch: clusters of
    // 16..96 fired detectors (the paper's cosmic-ray events light up
    // whole regions). Weight equality with the dense blossom must hold
    // at every size, through the Sparse backend's dispatch as well.
    const auto out =
        applyStrategyChecked(Strategy::SurfDeformer, 9, 2, {{8, 9}}).value();
    ASSERT_TRUE(out.alive);
    MemorySpec spec;
    spec.rounds = 9;
    NoiseParams noise;
    noise.p = 2e-3;
    const BuiltCircuit built = buildMemoryCircuit(out.patch, spec, noise);
    const auto dem = buildDem(built.circuit, PauliType::Z);
    const TableDecoder dense(dem, 1);
    const MwpmDecoder sb(dem, 1, nullptr, MatchingBackend::SparseBlossom);
    MwpmDecoder dispatch(dem, 1, nullptr, MatchingBackend::Sparse);
    dispatch.setBlossomThreshold(8);
    Rng rng(0xbadc0de);
    OracleScratch ds;
    MwpmScratch ss, ps;
    for (size_t target : {16u, 32u, 64u, 96u}) {
        for (int rep = 0; rep < 8; ++rep) {
            const std::vector<uint32_t> fired =
                benchutil::burstCluster(dem, dense.graph(), target, rng);
            ASSERT_GE(fired.size(), target / 2);
            (void)dense.decode(fired.data(), fired.size(), ds);
            (void)sb.decode(fired.data(), fired.size(), ss);
            (void)dispatch.decode(fired.data(), fired.size(), ps);
            ASSERT_EQ(ds.lastWeight, ss.lastWeight)
                << "cluster " << target << " rep " << rep << " k "
                << fired.size();
            ASSERT_EQ(ds.lastWeight, ps.lastWeight)
                << "dispatch path, cluster " << target << " rep " << rep;
        }
    }
}

TEST(SparseBlossom, ScenarioFailureCountsIdenticalAcrossBackends)
{
    // The cosmic-ray scenario workload decoded with each of the three
    // matching backends: identical failure counts and per-epoch
    // mismatch tallies. (Weight equality is exact; on this workload the
    // equal-weight tie-breaks happen to agree as well.)
    ScenarioConfig cfg;
    cfg.timeline.strategy = Strategy::SurfDeformer;
    cfg.timeline.d = 5;
    cfg.timeline.deltaD = 2;
    cfg.timeline.horizonRounds = 60;
    cfg.timeline.windowRounds = 10;
    cfg.timeline.maxEpochRounds = 10;
    cfg.defectModel.durationSec = 20e-6;
    cfg.defectModel.regionDiameter = 2;
    cfg.eventRateScale = 100000.0;
    cfg.numTimelines = 4;
    cfg.noise.p = 4e-3;
    cfg.maxShotsPerTimeline = 96;
    cfg.batchShots = 96;
    cfg.seed = 0x5ce7a210;
    cfg.decoder = DecoderKind::Mwpm;

    bool have_ref = false;
    uint64_t ref_failures = 0;
    std::vector<uint64_t> ref_mism;
    for (MatchingBackend b :
         {MatchingBackend::Dense, MatchingBackend::Sparse,
          MatchingBackend::SparseBlossom}) {
        cfg.matching = b;
        const ScenarioResult res = runScenarioExperimentChecked(cfg).value();
        EXPECT_GT(res.shots, 0u);
        std::vector<uint64_t> mism;
        for (const auto &tl : res.timelines)
            for (const auto &ep : tl.epochs)
                mism.push_back(ep.mismatches);
        if (!have_ref) {
            ref_failures = res.failures;
            ref_mism = mism;
            have_ref = true;
            EXPECT_GT(res.failures, 0u)
                << "workload too quiet to distinguish backends";
        } else {
            EXPECT_EQ(res.failures, ref_failures)
                << "backend " << static_cast<int>(b);
            EXPECT_EQ(mism, ref_mism) << "backend " << static_cast<int>(b);
        }
    }
}

TEST(SparseMatching, RowBudgetBoundsResidencyWithoutChangingResults)
{
    // The LRU row budget caps how many memoized Dijkstra rows stay
    // resident. Rows are pure functions of their source node, so a
    // budgeted decoder must predict identically (and report identical
    // matched weights) to an unbudgeted one on every shot.
    MemorySpec spec;
    spec.rounds = 5;
    NoiseParams noise;
    noise.p = 8e-3; // busy syndromes: many distinct row sources
    const BuiltCircuit built = buildMemoryCircuit(squarePatch(7), spec, noise);
    const auto dem = buildDem(built.circuit, PauliType::Z);
    const MwpmDecoder free_rows(dem, 1, nullptr, MatchingBackend::Sparse);
    MwpmDecoder budgeted(dem, 1, nullptr, MatchingBackend::Sparse);
    budgeted.setRowBudget(12);
    EXPECT_EQ(budgeted.graph().rowBudget(), 12u);
    FrameSimulator sim(built.circuit, 600, 0xb0d6e7);
    const SparseSyndromes syndromes = sim.sparseFiredDetectors();
    MwpmScratch fs, bs;
    for (size_t s = 0; s < sim.shots(); ++s) {
        const bool a =
            free_rows.decode(syndromes.data(s), syndromes.count(s), fs);
        const bool b =
            budgeted.decode(syndromes.data(s), syndromes.count(s), bs);
        ASSERT_EQ(a, b) << "shot " << s;
        ASSERT_EQ(fs.lastWeight, bs.lastWeight) << "shot " << s;
        ASSERT_LE(budgeted.graph().rowsResident(), 12u) << "shot " << s;
    }
    // The budget forced evictions: more rows were built than can stay.
    EXPECT_GT(budgeted.graph().rowsBuilt(),
              budgeted.graph().rowsResident());
    EXPECT_GT(free_rows.graph().rowsResident(), 12u);
    // Memory accounting follows residency, not total builds.
    EXPECT_LT(budgeted.graph().memoryBytes(),
              free_rows.graph().memoryBytes());

    // Tightening the budget evicts immediately.
    budgeted.setRowBudget(4);
    EXPECT_LE(budgeted.graph().rowsResident(), 4u);
}

TEST(SparseMatching, D13MemoryExperimentSmoke)
{
    // d = 13: a per-shape all-pairs table build (triangular tables over
    // ~1200 nodes per tag) would make scenario-scale sweeps
    // impractical; memoized rows run it directly. Smoke-check the full
    // pipeline end to end at the default (sparse) backend.
    MemoryExperimentConfig cfg;
    cfg.spec.rounds = 13;
    cfg.noise.p = 1e-3;
    cfg.maxShots = 256;
    cfg.batchShots = 128;
    cfg.targetFailures = 1u << 30;
    cfg.threads = 2;
    cfg.decoder = DecoderKind::Mwpm;
    const auto res = runMemoryExperiment(squarePatch(13), cfg);
    EXPECT_EQ(res.shots, 256u);
    EXPECT_LT(res.pShot, 0.1);
    EXPECT_GT(res.numDetectors, 1000u);
}

} // namespace
} // namespace surf
