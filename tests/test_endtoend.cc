/**
 * @file
 * Tests for the end-to-end layers: throughput routing, the logical error
 * model, and the retry-risk estimator reproducing the paper's qualitative
 * Table-II / fig. 12 orderings.
 */

#include <gtest/gtest.h>

#include "endtoend/retry_risk.hh"
#include "surgery/throughput.hh"
#include "util/status.hh"

namespace surf {
namespace {

TEST(Throughput, CompletesWithoutDefects)
{
    const auto tasks = makeTaskSet(100, 5, 25, 50, 1);
    ThroughputConfig cfg;
    cfg.defectRatePerQubitStep = 0.0;
    const auto res = simulateThroughput(tasks, cfg);
    EXPECT_FALSE(res.stalled);
    EXPECT_EQ(res.totalOps, 125);
    EXPECT_GT(res.throughput, 1.0); // several ops route in parallel
}

TEST(Throughput, TaskOrderIsSequentialWithinTask)
{
    // A single task of k ops takes at least k steps.
    const auto tasks = makeTaskSet(100, 1, 20, 10, 2);
    ThroughputConfig cfg;
    const auto res = simulateThroughput(tasks, cfg);
    EXPECT_GE(res.steps, 20);
}

TEST(Throughput, Q3deDegradesFasterThanSurfDeformer)
{
    const auto tasks = makeTaskSet(100, 5, 25, 50, 3);
    double q3 = 0, sd = 0;
    for (int r = 0; r < 5; ++r) {
        ThroughputConfig cfg;
        cfg.defectRatePerQubitStep = 2e-4;
        cfg.seed = 10 + static_cast<uint64_t>(r);
        cfg.strategy = Strategy::Q3de;
        q3 += simulateThroughput(tasks, cfg).throughput;
        cfg.strategy = Strategy::SurfDeformer;
        sd += simulateThroughput(tasks, cfg).throughput;
    }
    EXPECT_GT(sd, q3);
}

TEST(LogicalErrorModel, SuppressionLaw)
{
    LogicalErrorModel m;
    m.A = 0.1;
    m.Lambda = 10.0;
    EXPECT_GT(m.perRound(9), m.perRound(11));
    EXPECT_NEAR(m.perRound(9) / m.perRound(11), 10.0, 1e-9);
    EXPECT_EQ(m.perRound(0), 0.5); // destroyed qubit
    EXPECT_LE(m.failureOver(9, 1e9), 1.0);
    EXPECT_GE(m.failureOver(9, 1e9), m.failureOver(9, 1e6));
}

TEST(RetryRisk, StrategyOrderingMatchesPaper)
{
    const auto prog = paperPrograms()[1]; // Simon-900-1500
    LogicalErrorModel model;
    model.A = 0.1;
    model.Lambda = 10.0;

    auto risk_of = [&](Strategy s, int d) {
        RetryRiskConfig cfg;
        cfg.strategy = s;
        cfg.d = d;
        cfg.errorModel = model;
        return estimateRetryRisk(prog, cfg);
    };

    const auto q3 = risk_of(Strategy::Q3de, 21);
    const auto ascs = risk_of(Strategy::Ascs, 21);
    const auto sd = risk_of(Strategy::SurfDeformer, 21);

    // Table II shape: Q3DE over-runs; SD risk is far below ASC-S.
    EXPECT_TRUE(q3.overRuntime);
    EXPECT_FALSE(sd.overRuntime);
    EXPECT_GT(ascs.retryRisk, 10 * sd.retryRisk);
    // SD pays ~20% more qubits than ASC-S at the same d.
    EXPECT_GT(sd.physicalQubits, ascs.physicalQubits);
    EXPECT_LT(static_cast<double>(sd.physicalQubits),
              1.5 * static_cast<double>(ascs.physicalQubits));
}

TEST(RetryRisk, RiskDecreasesWithDistanceForSd)
{
    const auto prog = paperPrograms()[0];
    LogicalErrorModel model;
    model.A = 0.1;
    model.Lambda = 10.0;
    double prev = 1.0;
    for (int d = 17; d <= 25; d += 2) {
        RetryRiskConfig cfg;
        cfg.strategy = Strategy::SurfDeformer;
        cfg.d = d;
        cfg.errorModel = model;
        const auto r = estimateRetryRisk(prog, cfg);
        EXPECT_LT(r.retryRisk, prev);
        prev = r.retryRisk;
    }
}

TEST(RetryRisk, MeasuredLossesAreOrdered)
{
    // SD's residual loss (after enlargement) < ASC-S's removal loss <
    // the untreated saturation loss.
    const double sd = measuredDistanceLoss(Strategy::SurfDeformer, 13, 4,
                                           12, 1, 4);
    const double ascs = measuredDistanceLoss(Strategy::Ascs, 13, 4, 12, 1,
                                             4);
    const double ls = measuredDistanceLoss(Strategy::LatticeSurgery, 13, 4,
                                           12, 1, 4);
    EXPECT_LE(sd, ascs);
    EXPECT_LT(ascs, ls); // untreated adds a spreading penalty on top
    EXPECT_LT(sd, 1.0);  // enlargement restores nearly everything
    EXPECT_GT(ascs, 2.0);
}

TEST(RetryRisk, MeasuredLossRejectsNegativeDeltaD)
{
    // The strategy runs on pool workers; its INVALID_ARGUMENT must reach
    // the caller as a StatusError rethrown by the pool, not end the
    // process from a worker thread.
    EXPECT_THROW(
        {
            try {
                measuredDistanceLoss(Strategy::SurfDeformer, 5, -1, 4, 1, 2);
            } catch (const StatusError &e) {
                EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument)
                    << e.what();
                throw;
            }
        },
        StatusError);
}

TEST(Programs, TableTwoRows)
{
    const auto progs = paperPrograms();
    ASSERT_EQ(progs.size(), 8u);
    EXPECT_EQ(progs[0].name, "Simon-400-1000");
    EXPECT_EQ(progs[5].numQubits, 100);
    EXPECT_EQ(fig12Programs().size(), 4u);
}

} // namespace
} // namespace surf
