/**
 * @file
 * Unit tests for the synthetic graph generators and named datasets.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "graph/datasets.hh"
#include "graph/generator.hh"

namespace graphr
{
namespace
{

TEST(RmatTest, ProducesRequestedCounts)
{
    RmatParams p;
    p.numVertices = 1000;
    p.numEdges = 5000;
    const CooGraph g = makeRmat(p);
    EXPECT_EQ(g.numVertices(), 1000u);
    EXPECT_EQ(g.numEdges(), 5000u);
    for (const Edge &e : g.edges()) {
        EXPECT_LT(e.src, 1000u);
        EXPECT_LT(e.dst, 1000u);
        EXPECT_NE(e.src, e.dst); // self loops removed by default
    }
}

TEST(RmatTest, DeterministicForSeed)
{
    RmatParams p;
    p.numVertices = 256;
    p.numEdges = 1024;
    p.seed = 5;
    const CooGraph a = makeRmat(p);
    const CooGraph b = makeRmat(p);
    ASSERT_EQ(a.numEdges(), b.numEdges());
    for (std::size_t i = 0; i < a.numEdges(); ++i)
        EXPECT_EQ(a.edges()[i], b.edges()[i]);
}

TEST(RmatTest, SkewedDegreeDistribution)
{
    RmatParams p;
    p.numVertices = 4096;
    p.numEdges = 40960;
    const CooGraph g = makeRmat(p);
    const auto deg = g.outDegrees();
    EdgeId max_deg = 0;
    for (EdgeId d : deg)
        max_deg = std::max(max_deg, d);
    const double mean =
        static_cast<double>(g.numEdges()) / g.numVertices();
    // R-MAT hubs should far exceed the mean degree.
    EXPECT_GT(static_cast<double>(max_deg), 8.0 * mean);
}

TEST(RmatTest, WeightsWithinRange)
{
    RmatParams p;
    p.numVertices = 128;
    p.numEdges = 512;
    p.maxWeight = 15.0;
    const CooGraph g = makeRmat(p);
    for (const Edge &e : g.edges()) {
        EXPECT_GE(e.weight, 1.0);
        EXPECT_LE(e.weight, 15.0);
        EXPECT_DOUBLE_EQ(e.weight, std::floor(e.weight));
    }
}

/**
 * Pinned graphFingerprint values of makeRmat. Any change to how the
 * generator draws (thresholds, rejections, weights, bit order) shows
 * up here. The cases cover power-of-two and other vertex counts,
 * integer weights, dyadic probabilities (a draw can land exactly on a
 * quadrant threshold), d = 0, kept self loops and dedupe.
 */
TEST(RmatTest, FingerprintsArePinned)
{
    struct Case
    {
        const char *name;
        RmatParams params;
        EdgeId edges;
        std::uint64_t fingerprint;
    };
    const Case cases[] = {
        {"pow2",
         {.numVertices = 1024, .numEdges = 8192, .seed = 1},
         8192, 0xb4d30628dd9f9865ull},
        {"nonpow2",
         {.numVertices = 1000, .numEdges = 5000, .seed = 2},
         5000, 0x420a5d428b747527ull},
        {"weighted",
         {.numVertices = 777, .numEdges = 4096, .maxWeight = 15.0,
          .seed = 3},
         4096, 0x89958dd83c199edfull},
        {"dyadic",
         {.numVertices = 512, .numEdges = 4096, .a = 0.5, .b = 0.25,
          .c = 0.125, .d = 0.125, .seed = 4},
         4096, 0xa55d0d555e033628ull},
        {"d0",
         {.numVertices = 300, .numEdges = 2048, .a = 0.6, .b = 0.2,
          .c = 0.2, .d = 0.0, .seed = 5},
         2048, 0xda75e3bd00514053ull},
        {"selfloops",
         {.numVertices = 64, .numEdges = 2048, .seed = 6,
          .removeSelfLoops = false},
         2048, 0x5de17f4aeb982816ull},
        {"dedupe",
         {.numVertices = 100, .numEdges = 3000, .maxWeight = 4.0,
          .seed = 7, .dedupe = true},
         1469, 0xf8553f7a734a6bb6ull},
        {"two-vertices",
         {.numVertices = 2, .numEdges = 64, .a = 0.25, .b = 0.25,
          .c = 0.25, .d = 0.25, .seed = 8, .removeSelfLoops = false},
         64, 0xf8d51d7a043750e7ull},
    };
    for (const Case &c : cases) {
        const CooGraph g = makeRmat(c.params);
        EXPECT_EQ(g.numEdges(), c.edges) << c.name;
        EXPECT_EQ(graphFingerprint(g), c.fingerprint) << c.name;
    }
}

TEST(ErdosRenyiTest, CountsAndNoSelfLoops)
{
    const CooGraph g = makeErdosRenyi(500, 2000, 3);
    EXPECT_EQ(g.numVertices(), 500u);
    EXPECT_EQ(g.numEdges(), 2000u);
    for (const Edge &e : g.edges())
        EXPECT_NE(e.src, e.dst);
}

TEST(Grid2dTest, StructureIsBidirectional4Connected)
{
    const CooGraph g = makeGrid2d(5, 4);
    EXPECT_EQ(g.numVertices(), 20u);
    // Edges: horizontal 4*4*2 + vertical 5*3*2 = 62.
    EXPECT_EQ(g.numEdges(), 62u);
    // Every edge has its reverse with the same weight.
    for (const Edge &e : g.edges()) {
        bool reverse = false;
        for (const Edge &r : g.edges()) {
            if (r.src == e.dst && r.dst == e.src &&
                r.weight == e.weight) {
                reverse = true;
                break;
            }
        }
        EXPECT_TRUE(reverse);
    }
}

TEST(SimpleTopologiesTest, ChainStarComplete)
{
    const CooGraph chain = makeChain(10);
    EXPECT_EQ(chain.numEdges(), 9u);
    const CooGraph star = makeStar(10);
    EXPECT_EQ(star.numEdges(), 9u);
    EXPECT_EQ(star.outDegrees()[0], 9u);
    const CooGraph complete = makeComplete(5);
    EXPECT_EQ(complete.numEdges(), 20u);
}

TEST(BipartiteTest, EdgesGoUserToItem)
{
    const CooGraph g = makeBipartiteRatings(100, 20, 1000, 9);
    EXPECT_EQ(g.numVertices(), 120u);
    EXPECT_EQ(g.numEdges(), 1000u);
    for (const Edge &e : g.edges()) {
        EXPECT_LT(e.src, 100u);
        EXPECT_GE(e.dst, 100u);
        EXPECT_GE(e.weight, 1.0);
        EXPECT_LE(e.weight, 5.0);
    }
}

TEST(DatasetTest, TableHasSevenEntries)
{
    EXPECT_EQ(allDatasets().size(), 7u);
    EXPECT_EQ(datasetInfo(DatasetId::kWikiVote).shortName, "WV");
    EXPECT_EQ(datasetInfo(DatasetId::kNetflix).bipartite, true);
}

TEST(DatasetTest, ScaledGenerationApproximatesDensity)
{
    const DatasetInfo &info = datasetInfo(DatasetId::kWikiVote);
    const CooGraph g = makeDataset(DatasetId::kWikiVote, 4.0);
    const double paper_density =
        static_cast<double>(info.paperEdges) /
        (static_cast<double>(info.paperVertices) * info.paperVertices);
    // Vertex count scales by sqrt(4)=2, edges by 4: density preserved.
    EXPECT_NEAR(g.density() / paper_density, 1.0, 0.25);
}

TEST(DatasetTest, NetflixStandInIsBipartite)
{
    const CooGraph g = makeDataset(DatasetId::kNetflix, 512.0);
    const DatasetInfo &info = datasetInfo(DatasetId::kNetflix);
    EXPECT_EQ(g.numEdges(),
              static_cast<EdgeId>(info.paperEdges / 512.0));
}

} // namespace
} // namespace graphr
