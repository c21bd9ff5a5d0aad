/**
 * @file
 * Race-coverage tests, written to run under ThreadSanitizer (the CI tsan
 * job) but also meaningful as plain determinism checks:
 *
 *  - the memoized-row budget evicting rows while other decode threads
 *    hold live shared_ptr row handles and publish replacements;
 *  - DeformedCodeCache eviction mid-timeline (budget pressure and
 *    fault-plan eviction storms) while the threaded decode pipeline is
 *    using pinned shared_ptr segments.
 *
 * Every scenario asserts bit-identical physics against an unbounded /
 * serial reference — eviction may only ever change cost.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "decode/memory_experiment.hh"
#include "decode/mwpm.hh"
#include "lattice/rotated.hh"
#include "scenario/scenario_experiment.hh"
#include "sim/dem.hh"
#include "sim/frame.hh"
#include "sim/syndrome_circuit.hh"

namespace surf {
namespace {

TEST(CacheRaces, RowBudgetEvictionRacesLiveRowHandles)
{
    // One shared exact-rows decoder with a row budget far below the
    // working set, hammered by several threads decoding the same shots:
    // every decode publishes rows, trips LRU eviction and reads rows
    // another thread may be evicting at that instant. The shared_ptr
    // handles must keep in-use rows alive, and every prediction must
    // match the unbudgeted serial reference bit for bit.
    MemorySpec spec;
    spec.rounds = 5;
    NoiseParams noise;
    noise.p = 4e-3;
    const BuiltCircuit built = buildMemoryCircuit(squarePatch(5), spec,
                                                  noise);
    const auto dem = buildDem(built.circuit, PauliType::Z);

    const MwpmDecoder reference(dem, 1, nullptr, MatchingBackend::Dense);
    MwpmDecoder budgeted(dem, 1, nullptr, MatchingBackend::Dense);
    budgeted.setRowBudget(4);

    FrameSimulator sim(built.circuit, 512, 0xace5);
    const SparseSyndromes syndromes = sim.sparseFiredDetectors();
    std::vector<uint8_t> expected(sim.shots());
    MwpmScratch ref_scratch;
    for (size_t s = 0; s < sim.shots(); ++s)
        expected[s] = reference.decode(syndromes.data(s),
                                       syndromes.count(s), ref_scratch);

    constexpr size_t kThreads = 4;
    std::atomic<size_t> mismatches{0};
    std::vector<std::thread> workers;
    for (size_t t = 0; t < kThreads; ++t) {
        workers.emplace_back([&] {
            MwpmScratch scratch; // per-thread scratch, shared decoder
            size_t bad = 0;
            for (size_t s = 0; s < sim.shots(); ++s)
                bad += budgeted.decode(syndromes.data(s),
                                       syndromes.count(s),
                                       scratch) != (expected[s] != 0);
            mismatches.fetch_add(bad, std::memory_order_relaxed);
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(mismatches.load(), 0u)
        << "row eviction under contention changed a prediction";
    EXPECT_LE(budgeted.graph().rowsResident(), 4u);
    EXPECT_GT(budgeted.graph().rowsBuilt(), budgeted.graph().rowsResident())
        << "the budget never evicted: the race was not exercised";
}

/** Segments build on the pool while lookups, insertions and evictions
 *  stay in epoch order: the cache counters match the serial run's. */
void
expectSameCacheCounters(const ScenarioResult &a, const ScenarioResult &b)
{
    EXPECT_EQ(a.cacheHits, b.cacheHits);
    EXPECT_EQ(a.cacheMisses, b.cacheMisses);
    EXPECT_EQ(a.cacheEvictions, b.cacheEvictions);
}

/** Deformation scenario with enough epochs to keep the cache busy. */
ScenarioConfig
racyScenarioConfig()
{
    ScenarioConfig sc;
    sc.timeline.strategy = Strategy::SurfDeformer;
    sc.timeline.d = 5;
    sc.timeline.deltaD = 2;
    sc.timeline.horizonRounds = 60;
    sc.timeline.windowRounds = 10;
    sc.timeline.maxEpochRounds = 10;
    sc.defectModel.durationSec = 20e-6;
    sc.defectModel.regionDiameter = 2;
    sc.eventRateScale = 150000.0;
    sc.numTimelines = 2;
    sc.noise.p = 2e-3;
    sc.maxShotsPerTimeline = 128;
    sc.batchShots = 32; // many batches: many storm / eviction windows
    sc.seed = 99;
    return sc;
}

TEST(CacheRaces, SegmentEvictionMidTimelineUnderThreads)
{
    // Serial, unbounded reference.
    ScenarioConfig ref_cfg = racyScenarioConfig();
    ref_cfg.threads = 1;
    const auto ref = runScenarioExperimentChecked(ref_cfg);
    ASSERT_TRUE(ref.ok()) << ref.status().str();

    // A one-entry cache budget plus a tiny row budget under a threaded
    // pipeline: segments are evicted while earlier epochs' decoders are
    // still decoding through their pinned shared_ptr handles, and the
    // row pools evict under the decode workers' feet.
    ScenarioConfig cfg = racyScenarioConfig();
    cfg.threads = 1;
    cfg.cacheMaxEntries = 1;
    cfg.mwpmRowBudget = 4;
    const auto serial = runScenarioExperimentChecked(cfg);
    ASSERT_TRUE(serial.ok()) << serial.status().str();
    cfg.threads = 4;
    const auto bounded = runScenarioExperimentChecked(cfg);
    ASSERT_TRUE(bounded.ok()) << bounded.status().str();
    EXPECT_EQ(bounded.value().failures, ref.value().failures);
    EXPECT_EQ(bounded.value().totalEpochs, ref.value().totalEpochs);
    EXPECT_GT(bounded.value().cacheEvictions, 0u)
        << "the budget never evicted: the race was not exercised";
    expectSameCacheCounters(bounded.value(), serial.value());
}

TEST(CacheRaces, EvictionStormsUnderThreadedPipeline)
{
    ScenarioConfig ref_cfg = racyScenarioConfig();
    ref_cfg.threads = 1;
    const auto ref = runScenarioExperimentChecked(ref_cfg);
    ASSERT_TRUE(ref.ok()) << ref.status().str();

    // Fault-plan storms clear the whole cache before every batch and
    // epoch build while four workers decode; pinned segments must keep
    // every in-flight decode safe and the physics unchanged.
    ScenarioConfig cfg = racyScenarioConfig();
    cfg.threads = 1;
    auto plan = parseFaultPlan("storm.batches=1;storm.epochs=1");
    ASSERT_TRUE(plan.ok());
    cfg.faults = plan.value();
    const auto serial = runScenarioExperimentChecked(cfg);
    ASSERT_TRUE(serial.ok()) << serial.status().str();
    cfg.threads = 4;
    const auto stormy = runScenarioExperimentChecked(cfg);
    ASSERT_TRUE(stormy.ok()) << stormy.status().str();
    EXPECT_GT(stormy.value().ledger.cacheStorms, 0u);
    EXPECT_EQ(stormy.value().ledger.cacheStorms,
              serial.value().ledger.cacheStorms);
    EXPECT_EQ(stormy.value().failures, ref.value().failures);
    EXPECT_EQ(stormy.value().totalEpochs, ref.value().totalEpochs);
    expectSameCacheCounters(stormy.value(), serial.value());
}

} // namespace
} // namespace surf
