/**
 * @file
 * Differential tests for the dense O(n^3) blossom the matching oracle
 * (dense_matching_oracle.hh) runs: hundreds of random dense graphs
 * compared against a brute-force minimum-weight perfect matching, plus
 * structured cases (forbidden edges, odd components). The equivalence
 * tests trust that oracle, so it is checked independently here.
 */

#include <gtest/gtest.h>

#include "dense_matching_oracle.hh"
#include "util/rng.hh"

namespace surf {
namespace {

using oracle::kMatchForbidden;
using oracle::minWeightPerfectMatching;

/** Brute force: try all perfect matchings recursively. */
int64_t
bruteForce(int n, const std::vector<int64_t> &w, std::vector<int> &used)
{
    int first = -1;
    for (int i = 0; i < n; ++i)
        if (!used[i]) {
            first = i;
            break;
        }
    if (first < 0)
        return 0;
    used[first] = 1;
    int64_t best = kMatchForbidden;
    for (int j = first + 1; j < n; ++j) {
        if (used[j] || w[static_cast<size_t>(first) * n + j] ==
                           kMatchForbidden)
            continue;
        used[j] = 1;
        const int64_t rest = bruteForce(n, w, used);
        if (rest != kMatchForbidden)
            best = std::min(best,
                            w[static_cast<size_t>(first) * n + j] + rest);
        used[j] = 0;
    }
    used[first] = 0;
    return best;
}

int64_t
matchingWeight(int n, const std::vector<int64_t> &w,
               const std::vector<int> &mate)
{
    int64_t total = 0;
    for (int i = 0; i < n; ++i) {
        EXPECT_GE(mate[i], 0);
        EXPECT_EQ(mate[mate[i]], i);
        if (mate[i] > i) {
            const int64_t ww = w[static_cast<size_t>(i) * n + mate[i]];
            EXPECT_NE(ww, kMatchForbidden) << "matched a forbidden pair";
            total += ww;
        }
    }
    return total;
}

TEST(Blossom, TrivialPair)
{
    std::vector<int64_t> w{0, 7, 7, 0};
    const auto mate = minWeightPerfectMatching(2, w);
    ASSERT_EQ(mate.size(), 2u);
    EXPECT_EQ(mate[0], 1);
    EXPECT_EQ(mate[1], 0);
}

TEST(Blossom, PicksCheaperPairing)
{
    // 4 nodes: (0-1) + (2-3) costs 2, (0-2) + (1-3) costs 20.
    std::vector<int64_t> w(16, 10);
    auto at = [&](int a, int b) -> int64_t & { return w[a * 4 + b]; };
    at(0, 1) = at(1, 0) = 1;
    at(2, 3) = at(3, 2) = 1;
    at(0, 2) = at(2, 0) = 10;
    at(1, 3) = at(3, 1) = 10;
    at(0, 3) = at(3, 0) = 10;
    at(1, 2) = at(2, 1) = 10;
    const auto mate = minWeightPerfectMatching(4, w);
    ASSERT_EQ(mate.size(), 4u);
    EXPECT_EQ(mate[0], 1);
    EXPECT_EQ(mate[2], 3);
}

TEST(Blossom, RespectsForbiddenPairs)
{
    std::vector<int64_t> w(16, 1);
    auto at = [&](int a, int b) -> int64_t & { return w[a * 4 + b]; };
    at(0, 1) = at(1, 0) = kMatchForbidden;
    at(2, 3) = at(3, 2) = kMatchForbidden;
    const auto mate = minWeightPerfectMatching(4, w);
    ASSERT_EQ(mate.size(), 4u);
    EXPECT_NE(mate[0], 1);
    EXPECT_NE(mate[2], 3);
}

TEST(Blossom, ReturnsEmptyWhenImpossible)
{
    // Odd vertex count cannot have a perfect matching.
    std::vector<int64_t> w(9, 1);
    EXPECT_TRUE(minWeightPerfectMatching(3, w).empty());
    // All pairs forbidden.
    std::vector<int64_t> w2(4, kMatchForbidden);
    EXPECT_TRUE(minWeightPerfectMatching(2, w2).empty());
}

class BlossomRandom : public ::testing::TestWithParam<int>
{
};

TEST_P(BlossomRandom, MatchesBruteForce)
{
    Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 17);
    for (int trial = 0; trial < 40; ++trial) {
        const int n = 2 * (1 + static_cast<int>(rng.below(5))); // 2..10
        std::vector<int64_t> w(static_cast<size_t>(n) * n, 0);
        for (int i = 0; i < n; ++i)
            for (int j = i + 1; j < n; ++j) {
                int64_t ww;
                if (rng.bernoulli(0.15))
                    ww = kMatchForbidden;
                else
                    ww = static_cast<int64_t>(rng.below(1000));
                w[static_cast<size_t>(i) * n + j] = ww;
                w[static_cast<size_t>(j) * n + i] = ww;
            }
        std::vector<int> used(n, 0);
        const int64_t best = bruteForce(n, w, used);
        const auto mate = minWeightPerfectMatching(n, w);
        if (best == kMatchForbidden) {
            EXPECT_TRUE(mate.empty()) << "n=" << n << " trial=" << trial;
        } else {
            ASSERT_FALSE(mate.empty()) << "n=" << n << " trial=" << trial;
            EXPECT_EQ(matchingWeight(n, w, mate), best)
                << "n=" << n << " trial=" << trial;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlossomRandom, ::testing::Range(0, 10));

TEST(Blossom, LargerRandomInstancesAreConsistent)
{
    // For n beyond brute force, check matching validity and local
    // optimality under 2-swaps.
    Rng rng(99);
    for (int trial = 0; trial < 10; ++trial) {
        const int n = 40;
        std::vector<int64_t> w(static_cast<size_t>(n) * n, 0);
        for (int i = 0; i < n; ++i)
            for (int j = i + 1; j < n; ++j) {
                const auto ww = static_cast<int64_t>(rng.below(1000));
                w[static_cast<size_t>(i) * n + j] = ww;
                w[static_cast<size_t>(j) * n + i] = ww;
            }
        const auto mate = minWeightPerfectMatching(n, w);
        ASSERT_FALSE(mate.empty());
        auto at = [&](int a, int b) { return w[static_cast<size_t>(a) * n + b]; };
        for (int a = 0; a < n; ++a)
            for (int b = a + 1; b < n; ++b) {
                const int ma = mate[a], mb = mate[b];
                if (ma == b || mb == a)
                    continue;
                // Rewiring (a,ma),(b,mb) -> (a,b),(ma,mb) must not win.
                EXPECT_GE(at(a, b) + at(ma, mb) + 0,
                          at(a, ma) + at(b, mb) -
                              0) << "2-swap improvement found";
            }
    }
}

} // namespace
} // namespace surf
