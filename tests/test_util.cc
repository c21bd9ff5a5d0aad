/**
 * @file
 * Tests for RNG determinism/statistics, the stats helpers (including the
 * Poisson block-probability math behind the layout generator example in
 * paper Sec. VI), the thread pool's exception contract, the Status
 * result type and the deadline/degradation-ledger primitives.
 */

#include <atomic>
#include <cmath>
#include <stdexcept>

#include <gtest/gtest.h>

#include "util/deadline.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/status.hh"
#include "util/thread_pool.hh"

namespace surf {
namespace {

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(5);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, BelowIsInRange)
{
    Rng rng(6);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, GeometricSkipMeanMatches)
{
    Rng rng(7);
    const double p = 0.01;
    double total = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        total += static_cast<double>(rng.geometricSkip(p));
    // Mean of the geometric (number of failures before success) is (1-p)/p.
    EXPECT_NEAR(total / n, (1 - p) / p, 4.0);
}

TEST(Rng, PoissonMeanMatches)
{
    Rng rng(8);
    for (double lambda : {0.3, 3.0, 80.0}) {
        double total = 0;
        const int n = 20000;
        for (int i = 0; i < n; ++i)
            total += static_cast<double>(rng.poisson(lambda));
        EXPECT_NEAR(total / n, lambda, 5 * std::sqrt(lambda / n) + 0.05)
            << "lambda=" << lambda;
    }
}

TEST(Rng, SampleWithoutReplacementIsDistinct)
{
    Rng rng(9);
    auto sample = rng.sampleWithoutReplacement(50, 20);
    ASSERT_EQ(sample.size(), 20u);
    std::vector<bool> seen(50, false);
    for (uint32_t v : sample) {
        ASSERT_LT(v, 50u);
        EXPECT_FALSE(seen[v]);
        seen[v] = true;
    }
}

TEST(Stats, BinomialEstimate)
{
    const auto est = estimateBinomial(25, 100);
    EXPECT_DOUBLE_EQ(est.p, 0.25);
    EXPECT_NEAR(est.stderr, std::sqrt(0.25 * 0.75 / 100), 1e-12);
}

TEST(Stats, PerRoundRateInvertsCompounding)
{
    const double p_round = 0.001;
    const uint64_t rounds = 50;
    const double p_shot = 1 - std::pow(1 - p_round, rounds);
    EXPECT_NEAR(perRoundRate(p_shot, rounds), p_round, 1e-12);
    EXPECT_EQ(perRoundRate(1.0, 10), 1.0);
    EXPECT_EQ(perRoundRate(0.0, 10), 0.0);
}

TEST(Stats, LinearFitRecoversLine)
{
    std::vector<double> xs{1, 2, 3, 4, 5};
    std::vector<double> ys;
    for (double x : xs)
        ys.push_back(3.0 - 2.0 * x);
    const auto [a, b] = linearFit(xs, ys);
    EXPECT_NEAR(a, 3.0, 1e-9);
    EXPECT_NEAR(b, -2.0, 1e-9);
}

TEST(Stats, PoissonPmfSumsToOne)
{
    const double lambda = 2.5;
    double total = 0;
    for (unsigned k = 0; k < 60; ++k)
        total += poissonPmf(lambda, k);
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Stats, PaperLayoutExample)
{
    // Paper Sec. VI: d=27 code, rho = 0.1Hz/26, T = 25ms.
    // lambda = 2 d^2 rho T ~= 0.14; with Delta_d = 4 and D = 4,
    // p_block = 1 - p(0) - p(1) ~= 0.0089 < 0.01.
    const double rho = 0.1 / 26.0;
    const double T = 25e-3;
    const int d = 27;
    const double lambda = 2.0 * d * d * rho * T;
    EXPECT_NEAR(lambda, 0.14, 0.005);
    const double p_block = poissonTail(lambda, 1);
    EXPECT_LT(p_block, 0.01);
    EXPECT_NEAR(p_block, 0.0089, 0.0015);
}

TEST(ThreadPool, RethrowsFirstTaskException)
{
    // Regression: a throwing task used to escape the worker thread and
    // terminate the process. The pool must capture the first exception,
    // abandon the remaining tasks, and rethrow on the calling thread.
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    try {
        pool.parallelFor(64, [&](size_t t, size_t) {
            if (t == 7)
                throw std::runtime_error("task 7 failed");
            ran.fetch_add(1, std::memory_order_relaxed);
        });
        FAIL() << "parallelFor swallowed the task exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "task 7 failed");
    }
    // Unclaimed tasks are abandoned once the exception is recorded.
    EXPECT_LT(ran.load(), 64);
}

TEST(ThreadPool, UsableAfterTaskException)
{
    ThreadPool pool(3);
    EXPECT_THROW(pool.parallelFor(
                     8, [&](size_t, size_t) { throw StatusError(
                         Status::dataLoss("stream ended")); }),
                 StatusError);
    // The pool must come back clean: later jobs run all their tasks and
    // report no stale error.
    std::atomic<int> ran{0};
    pool.parallelFor(32, [&](size_t, size_t) {
        ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, InlineExecutionPropagatesException)
{
    ThreadPool pool(1); // caller-only pool: tasks run inline
    EXPECT_THROW(pool.parallelFor(
                     4, [&](size_t, size_t) {
                         throw std::logic_error("inline");
                     }),
                 std::logic_error);
}

TEST(Status, CarriesCodeAndMessage)
{
    const Status ok = Status::okStatus();
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(ok.str(), "OK");
    const Status bad = Status::invalidArgument("d must be >= 2");
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(bad.str(), "INVALID_ARGUMENT: d must be >= 2");
}

TEST(Status, StatusOrRoundTrips)
{
    StatusOr<int> good(42);
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(*good, 42);
    StatusOr<int> bad(Status::dataLoss("truncated"));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kDataLoss);
    EXPECT_THROW(bad.value(), StatusError);
}

TEST(Deadline, VirtualClockIsDeterministic)
{
    DecodeDeadline dl;
    dl.configure(1000, /*virtualClock=*/true);
    EXPECT_TRUE(dl.armed());
    dl.beginStage(500); // stall below budget
    EXPECT_EQ(dl.stageElapsedNs(), 500u);
    EXPECT_FALSE(dl.expired());
    dl.beginStage(1500); // stall past budget
    EXPECT_EQ(dl.stageElapsedNs(), 1500u);
    EXPECT_TRUE(dl.expired());
}

TEST(Deadline, DisarmedNeverExpires)
{
    DecodeDeadline dl; // softNs = 0
    dl.beginStage(uint64_t{1} << 40);
    EXPECT_FALSE(dl.armed());
    EXPECT_FALSE(dl.expired());
}

TEST(Deadline, LedgerRecordsLadderTrips)
{
    DegradationLedger led;
    EXPECT_TRUE(led.empty());
    ShotLadderTrace trace;
    trace.reset();
    trace.note(kStageRows, 2000, /*expired=*/true);
    trace.note(kStageUnionFind, 700, /*expired=*/false);
    trace.answer = kStageUnionFind;
    led.record(trace);
    EXPECT_EQ(led.ladderDecodes, 1u);
    EXPECT_EQ(led.degradedDecodes, 1u);
    EXPECT_EQ(led.stageAttempts[kStageRows], 1u);
    EXPECT_EQ(led.stageTimeouts[kStageRows], 1u);
    EXPECT_EQ(led.stageCompleted[kStageRows], 0u);
    EXPECT_EQ(led.stageCompleted[kStageUnionFind], 1u);
    EXPECT_EQ(led.stageLatency[kStageUnionFind].samples, 1u);
    EXPECT_EQ(led.stageLatency[kStageUnionFind].maxNs, 700u);

    DegradationLedger other;
    other.record(trace);
    led.merge(other);
    EXPECT_EQ(led.ladderDecodes, 2u);
    EXPECT_EQ(led.stageAttempts[kStageUnionFind], 2u);
    EXPECT_FALSE(led.summary().empty());
}

TEST(Deadline, HistogramQuantiles)
{
    LatencyHistogram h;
    for (uint64_t ns : {100u, 200u, 400u, 100000u})
        h.add(ns);
    EXPECT_EQ(h.samples, 4u);
    EXPECT_EQ(h.maxNs, 100000u);
    EXPECT_GT(h.meanNs(), 0.0);
    // The p50 upper bound must not be dragged up to the outlier bucket.
    EXPECT_LE(h.quantileUpperBoundNs(0.5), 512u);
    EXPECT_GE(h.quantileUpperBoundNs(0.99), 65536u);
}

} // namespace
} // namespace surf
