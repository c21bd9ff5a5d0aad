/**
 * @file
 * Integration tests for the full QEC pipeline: logical error rates must
 * be (a) well below physical rates, (b) exponentially suppressed with
 * distance, (c) restored by Surf-Deformer's defect removal compared to
 * untreated defective codes — the code-level claims behind fig. 11(a).
 */

#include <gtest/gtest.h>

#include "core/instructions.hh"
#include "decode/memory_experiment.hh"
#include "lattice/distance.hh"
#include "lattice/rotated.hh"
#include "util/status.hh"

namespace surf {
namespace {

MemoryExperimentConfig
quickConfig(int rounds, uint64_t shots)
{
    MemoryExperimentConfig cfg;
    cfg.spec.rounds = rounds;
    cfg.noise.p = 3e-3;
    cfg.maxShots = shots;
    cfg.targetFailures = 1u << 30; // run all shots
    cfg.seed = 1234;
    return cfg;
}

TEST(MemoryExperiment, LogicalBeatsPhysicalAtD3)
{
    CodePatch p = squarePatch(3);
    const auto res = runMemoryExperiment(p, quickConfig(3, 20000));
    EXPECT_EQ(res.shots, 20000u);
    // Circuit-level p = 3e-3 is well under threshold: the logical error
    // per shot must be far below the accumulated physical error rate.
    EXPECT_LT(res.pShot, 0.05);
    EXPECT_GT(res.failures, 0u); // but not exactly zero at d=3
}

TEST(MemoryExperiment, DistanceSuppressesLogicalErrors)
{
    auto cfg3 = quickConfig(3, 60000);
    cfg3.noise.p = 1e-3;
    const auto r3 = runMemoryExperiment(squarePatch(3), cfg3);
    auto cfg5 = quickConfig(5, 60000);
    cfg5.noise.p = 1e-3;
    const auto r5 = runMemoryExperiment(squarePatch(5), cfg5);
    // Exponential suppression: d=5 must be several times better than
    // d=3 at p ~ 0.1 p_th (generous slack for statistics).
    EXPECT_GT(r3.failures, 10u);
    EXPECT_LT(r5.pRound * 3.0, r3.pRound)
        << "r3=" << r3.pRound << " r5=" << r5.pRound;
}

TEST(MemoryExperiment, MemoryXWorksToo)
{
    auto cfg = quickConfig(3, 10000);
    cfg.spec.basis = PauliType::X;
    const auto res = runMemoryExperiment(squarePatch(3), cfg);
    EXPECT_LT(res.pShot, 0.05);
}

TEST(MemoryExperiment, DeformedCodeStillCorrects)
{
    CodePatch p = squarePatch(5);
    dataQRm(p, {5, 5});
    p.recomputeSupers();
    refreshLogicals(p);
    const auto res = runMemoryExperiment(p, quickConfig(5, 20000));
    // A d=5 code with one interior removal has distance 4: worse than
    // pristine d=5 but still strongly below physical.
    EXPECT_LT(res.pShot, 0.05);
}

TEST(MemoryExperiment, SyndromeRemovalCodeStillCorrects)
{
    CodePatch p = squarePatch(5);
    syndromeQRm(p, {4, 4});
    p.recomputeSupers();
    refreshLogicals(p);
    const auto res = runMemoryExperiment(p, quickConfig(5, 20000));
    EXPECT_LT(res.pShot, 0.05);
}

TEST(MemoryExperiment, RemovalBeatsUntreatedDefects)
{
    // The fig. 11(a) mechanism at test scale: a defective region left in
    // the code (50% error rates) destroys the logical qubit; removing the
    // defective qubits restores error correction.
    const std::set<Coord> defect_sites{{5, 5}, {4, 4}};

    CodePatch untreated = squarePatch(5);
    auto cfg = quickConfig(5, 8000);
    cfg.noise.defectiveSites = defect_sites;
    const auto bad = runMemoryExperiment(untreated, cfg);

    CodePatch treated = squarePatch(5);
    dataQRm(treated, {5, 5});
    syndromeQRm(treated, {4, 4});
    treated.recomputeSupers();
    refreshLogicals(treated);
    auto cfg2 = quickConfig(5, 8000);
    const auto good = runMemoryExperiment(treated, cfg2);

    EXPECT_GT(bad.pShot, 5 * std::max(good.pShot, 1e-4));
}

TEST(MemoryExperiment, UnionFindCloseToMwpm)
{
    auto cfg = quickConfig(3, 20000);
    cfg.noise.p = 5e-3;
    cfg.decoder = DecoderKind::Mwpm;
    const auto mwpm = runMemoryExperiment(squarePatch(3), cfg);
    cfg.decoder = DecoderKind::UnionFind;
    const auto uf = runMemoryExperiment(squarePatch(3), cfg);
    // Union-find is allowed to be worse, but within a small factor, and
    // both must stay far below 50%.
    EXPECT_LT(uf.pShot, 4 * mwpm.pShot + 0.01);
    EXPECT_GE(uf.pShot, 0.5 * mwpm.pShot - 0.01);
}

TEST(MemoryExperiment, EarlyStopOnTargetFailures)
{
    MemoryExperimentConfig cfg;
    cfg.spec.rounds = 2;
    cfg.noise.p = 2e-2; // heavy noise: failures arrive quickly
    cfg.maxShots = 100000;
    cfg.targetFailures = 20;
    cfg.batchShots = 512;
    const auto res = runMemoryExperiment(squarePatch(3), cfg);
    EXPECT_GE(res.failures, 20u);
    EXPECT_LT(res.shots, 100000u);
}

/** Expect runMemoryExperiment to throw StatusError(INVALID_ARGUMENT). */
void
expectRejected(const MemoryExperimentConfig &cfg)
{
    EXPECT_THROW(
        {
            try {
                runMemoryExperiment(squarePatch(3), cfg);
            } catch (const StatusError &e) {
                EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument)
                    << e.what();
                throw;
            }
        },
        StatusError);
}

TEST(MemoryExperiment, InvalidConfigThrowsStatusError)
{
    // Each of these used to hang or abort instead of reporting the bad
    // field: a zero batch never advances the shot loop, zero shots or
    // failures trip the binomial estimator's trials > 0 invariant, and
    // zero rounds trip the segment builder's.
    auto cfg = quickConfig(3, 100);
    cfg.batchShots = 0;
    expectRejected(cfg);
    cfg = quickConfig(3, 100);
    cfg.maxShots = 0;
    expectRejected(cfg);
    cfg = quickConfig(3, 100);
    cfg.targetFailures = 0;
    expectRejected(cfg);
    cfg = quickConfig(3, 100);
    cfg.spec.rounds = 0;
    expectRejected(cfg);
}

} // namespace
} // namespace surf
