/**
 * @file
 * Tests for the golden reference algorithms (Table 2 workloads).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "algorithms/collaborative_filtering.hh"
#include "algorithms/pagerank.hh"
#include "algorithms/spmv.hh"
#include "algorithms/traversal.hh"
#include "graph/generator.hh"

namespace graphr
{
namespace
{

TEST(PageRankTest, RanksSumToOne)
{
    const CooGraph g =
        makeRmat({.numVertices = 500, .numEdges = 4000, .seed = 1});
    const PageRankResult res = pagerank(g, {.maxIterations = 50});
    double sum = 0.0;
    for (Value r : res.ranks)
        sum += r;
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(PageRankTest, ConvergesOnSmallGraph)
{
    const CooGraph g = makeComplete(10);
    const PageRankResult res =
        pagerank(g, {.maxIterations = 100, .tolerance = 1e-10});
    EXPECT_TRUE(res.converged);
    // Complete graph is symmetric: uniform ranks.
    for (Value r : res.ranks)
        EXPECT_NEAR(r, 0.1, 1e-8);
}

TEST(PageRankTest, StarConcentratesRankAtLeaves)
{
    // Star 0 -> {1..9}: hub has no in-edges, so leaves outrank it.
    const CooGraph g = makeStar(10);
    const PageRankResult res = pagerank(g, {.maxIterations = 60});
    for (VertexId v = 1; v < 10; ++v)
        EXPECT_GT(res.ranks[v], res.ranks[0]);
}

TEST(PageRankTest, MatchesHandComputedTwoVertexCycle)
{
    CooGraph g(2, {});
    g.addEdge(0, 1);
    g.addEdge(1, 0);
    const PageRankResult res =
        pagerank(g, {.damping = 0.8, .maxIterations = 200,
                     .tolerance = 1e-12});
    // Symmetric cycle: exact answer 0.5 each.
    EXPECT_NEAR(res.ranks[0], 0.5, 1e-10);
    EXPECT_NEAR(res.ranks[1], 0.5, 1e-10);
}

TEST(PageRankTest, DanglingMassRedistributed)
{
    // 0 -> 1, 1 dangles. Ranks must still sum to 1.
    CooGraph g(2, {});
    g.addEdge(0, 1);
    const PageRankResult res = pagerank(g, {.maxIterations = 100});
    EXPECT_NEAR(res.ranks[0] + res.ranks[1], 1.0, 1e-9);
    EXPECT_GT(res.ranks[1], res.ranks[0]);
}

TEST(BfsTest, ChainLevels)
{
    const CooGraph g = makeChain(8);
    const TraversalResult res = bfs(g, 0);
    for (VertexId v = 0; v < 8; ++v)
        EXPECT_DOUBLE_EQ(res.dist[v], static_cast<double>(v));
    EXPECT_EQ(res.iterations, 8); // last round discovers nothing new
}

TEST(BfsTest, UnreachableStaysInfinite)
{
    CooGraph g(4, {});
    g.addEdge(0, 1);
    const TraversalResult res = bfs(g, 0);
    EXPECT_DOUBLE_EQ(res.dist[1], 1.0);
    EXPECT_TRUE(std::isinf(res.dist[2]));
    EXPECT_TRUE(std::isinf(res.dist[3]));
}

TEST(BfsTest, ParentsFormTree)
{
    const CooGraph g =
        makeRmat({.numVertices = 200, .numEdges = 2000, .seed = 2});
    const TraversalResult res = bfs(g, 0);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (std::isinf(res.dist[v]) || v == 0)
            continue;
        ASSERT_NE(res.parent[v], kInvalidVertex);
        EXPECT_DOUBLE_EQ(res.dist[v], res.dist[res.parent[v]] + 1.0);
    }
}

TEST(SsspTest, PaperFigure16Example)
{
    // The 8-vertex block of paper Fig. 16(c1): sources i0..i3 with
    // initial distances [4,3,1,2], W = [M,1,5,M; M,M,3,1; M,M,M,M;
    // M,M,1,M], initial dest distances [7,6,M,M].
    // We reproduce with explicit vertices: i0..i3 = 0..3, j0..j3 =
    // 4..7, plus a virtual source 8 wired to match initial labels.
    CooGraph g(9, {});
    g.addEdge(8, 0, 4.0);
    g.addEdge(8, 1, 3.0);
    g.addEdge(8, 2, 1.0);
    g.addEdge(8, 3, 2.0);
    g.addEdge(8, 4, 7.0);
    g.addEdge(8, 5, 6.0);
    g.addEdge(0, 5, 1.0);
    g.addEdge(0, 6, 5.0);
    g.addEdge(1, 6, 3.0);
    g.addEdge(1, 7, 1.0);
    g.addEdge(3, 6, 1.0);
    const TraversalResult res = sssp(g, 8);
    // Paper's final labels after t=4: [7,5,3,4] for j0..j3.
    EXPECT_DOUBLE_EQ(res.dist[4], 7.0);
    EXPECT_DOUBLE_EQ(res.dist[5], 5.0);
    EXPECT_DOUBLE_EQ(res.dist[6], 3.0);
    EXPECT_DOUBLE_EQ(res.dist[7], 4.0);
}

TEST(SsspTest, TriangleInequalityInvariant)
{
    const CooGraph g = makeRmat({.numVertices = 300,
                                 .numEdges = 3000,
                                 .maxWeight = 15.0,
                                 .seed = 3});
    const TraversalResult res = sssp(g, 0);
    // Property: for every edge (u, v), dist[v] <= dist[u] + w.
    for (const Edge &e : g.edges()) {
        if (std::isinf(res.dist[e.src]))
            continue;
        EXPECT_LE(res.dist[e.dst], res.dist[e.src] + e.weight + 1e-9);
    }
}

TEST(SsspTest, BfsIsUnitWeightSssp)
{
    CooGraph g = makeRmat({.numVertices = 200, .numEdges = 1500,
                           .seed = 4});
    // Force unit weights, then bfs == sssp.
    g.editEdges([](std::vector<Edge> &edges) {
        for (Edge &e : edges)
            e.weight = 1.0;
    });
    const TraversalResult b = bfs(g, 5);
    const TraversalResult s = sssp(g, 5);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (std::isinf(b.dist[v])) {
            EXPECT_TRUE(std::isinf(s.dist[v]));
        } else {
            EXPECT_DOUBLE_EQ(b.dist[v], s.dist[v]);
        }
    }
}

TEST(SsspTest, GridShortestPathsAreManhattanBounded)
{
    const CooGraph g = makeGrid2d(6, 6, 7, 1.0); // unit weights
    const TraversalResult res = sssp(g, 0);
    for (VertexId y = 0; y < 6; ++y) {
        for (VertexId x = 0; x < 6; ++x) {
            EXPECT_DOUBLE_EQ(res.dist[y * 6 + x],
                             static_cast<double>(x + y));
        }
    }
}

TEST(RelaxationSweepTest, MatchesBatchSssp)
{
    const CooGraph g = makeRmat({.numVertices = 150,
                                 .numEdges = 1200,
                                 .maxWeight = 7.0,
                                 .seed = 5});
    const TraversalResult batch = sssp(g, 0);
    RelaxationSweep sweep(g, 0, false);
    int rounds = 0;
    while (!sweep.done()) {
        sweep.step();
        ++rounds;
    }
    EXPECT_EQ(rounds, batch.iterations);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (std::isinf(batch.dist[v])) {
            EXPECT_TRUE(std::isinf(sweep.dist()[v]));
        } else {
            EXPECT_DOUBLE_EQ(sweep.dist()[v], batch.dist[v]);
        }
    }
}

TEST(SpmvTest, MatchesDenseComputation)
{
    CooGraph g(4, {});
    g.addEdge(0, 2, 3.0);
    g.addEdge(0, 3, 8.0);
    g.addEdge(1, 2, 7.0);
    g.addEdge(2, 0, 1.0);
    g.addEdge(3, 1, 4.0);
    g.addEdge(3, 3, 2.0);
    const std::vector<Value> x = {1.0, 2.0, 3.0, 4.0};
    const std::vector<Value> y = spmvRaw(g, x);
    // y[dst] = sum over edges into dst of x[src] * w.
    EXPECT_DOUBLE_EQ(y[0], 3.0 * 1.0);
    EXPECT_DOUBLE_EQ(y[1], 4.0 * 4.0);
    EXPECT_DOUBLE_EQ(y[2], 1.0 * 3.0 + 2.0 * 7.0);
    EXPECT_DOUBLE_EQ(y[3], 1.0 * 8.0 + 4.0 * 2.0);
}

TEST(SpmvTest, NormalizedVariantUsesOutDegree)
{
    CooGraph g(3, {});
    g.addEdge(0, 1, 1.0);
    g.addEdge(0, 2, 1.0);
    const std::vector<Value> y = spmv(g, {1.0, 0.0, 0.0});
    EXPECT_DOUBLE_EQ(y[1], 0.5);
    EXPECT_DOUBLE_EQ(y[2], 0.5);
}

TEST(CfTest, RmseDecreasesOverEpochs)
{
    const CooGraph ratings = makeBipartiteRatings(200, 50, 4000, 6);
    CfParams params;
    params.numUsers = 200;
    params.featureLength = 8;
    params.epochs = 8;
    const CfResult res = collaborativeFiltering(ratings, params);
    ASSERT_EQ(res.rmsePerEpoch.size(), 8u);
    EXPECT_LT(res.rmsePerEpoch.back(), res.rmsePerEpoch.front());
    EXPECT_LT(res.rmsePerEpoch.back(), 1.5);
}

TEST(CfTest, FactorDimensionsCorrect)
{
    const CooGraph ratings = makeBipartiteRatings(10, 5, 100, 7);
    CfParams params;
    params.numUsers = 10;
    params.featureLength = 4;
    params.epochs = 1;
    const CfResult res = collaborativeFiltering(ratings, params);
    EXPECT_EQ(res.userFactors.size(), 40u);
    EXPECT_EQ(res.itemFactors.size(), 20u);
}

} // namespace
} // namespace graphr
