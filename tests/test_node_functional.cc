/**
 * @file
 * End-to-end functional tests: GraphR's analog datapath must agree
 * with the golden algorithms (integration across graph, rram and
 * graphr modules).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "algorithms/pagerank.hh"
#include "common/random.hh"
#include "algorithms/spmv.hh"
#include "algorithms/traversal.hh"
#include "algorithms/wcc.hh"
#include "graph/generator.hh"
#include "graphr/node.hh"

namespace graphr
{
namespace
{

/** Small tiling so functional runs stay fast. */
GraphRConfig
functionalConfig()
{
    GraphRConfig cfg;
    cfg.tiling.crossbarDim = 4;
    cfg.tiling.crossbarsPerGe = 2;
    cfg.tiling.numGe = 2;
    cfg.functional = true;
    cfg.weightFracBits = 12;
    cfg.inputFracBits = 12;
    return cfg;
}

TEST(NodeFunctionalTest, SsspMatchesGoldenExactly)
{
    const CooGraph g = makeRmat({.numVertices = 60,
                                 .numEdges = 500,
                                 .maxWeight = 15.0,
                                 .seed = 31});
    GraphRNode node(functionalConfig());
    std::vector<Value> dist;
    node.runSssp(g, 0, &dist);

    const TraversalResult golden = sssp(g, 0);
    ASSERT_EQ(dist.size(), golden.dist.size());
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (std::isinf(golden.dist[v])) {
            EXPECT_TRUE(std::isinf(dist[v])) << "vertex " << v;
        } else {
            EXPECT_DOUBLE_EQ(dist[v], golden.dist[v]) << "vertex " << v;
        }
    }
}

TEST(NodeFunctionalTest, BfsMatchesGoldenExactly)
{
    const CooGraph g =
        makeRmat({.numVertices = 80, .numEdges = 700, .seed = 32});
    GraphRNode node(functionalConfig());
    std::vector<Value> dist;
    node.runBfs(g, 1, &dist);

    const TraversalResult golden = bfs(g, 1);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (std::isinf(golden.dist[v])) {
            EXPECT_TRUE(std::isinf(dist[v]));
        } else {
            EXPECT_DOUBLE_EQ(dist[v], golden.dist[v]);
        }
    }
}

TEST(NodeFunctionalTest, SsspOnGridExact)
{
    const CooGraph g = makeGrid2d(6, 5, 3, 9.0);
    GraphRNode node(functionalConfig());
    std::vector<Value> dist;
    node.runSssp(g, 0, &dist);
    const TraversalResult golden = sssp(g, 0);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        EXPECT_DOUBLE_EQ(dist[v], golden.dist[v]);
}

TEST(NodeFunctionalTest, PageRankCloseToGolden)
{
    const CooGraph g =
        makeRmat({.numVertices = 50, .numEdges = 400, .seed = 33});
    GraphRNode node(functionalConfig());
    PageRankParams params;
    params.maxIterations = 15;
    params.tolerance = 0.0; // fixed iteration count on both sides
    std::vector<Value> ranks;
    node.runPageRank(g, params, &ranks);

    const PageRankResult golden = pagerank(g, params);
    double max_err = 0.0;
    double sum = 0.0;
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        max_err = std::max(max_err,
                           std::abs(ranks[v] - golden.ranks[v]));
        sum += ranks[v];
    }
    // 12-bit quantisation error accumulates mildly over 15 rounds.
    EXPECT_LT(max_err, 0.02);
    EXPECT_NEAR(sum, 1.0, 0.05);
}

TEST(NodeFunctionalTest, PageRankRankingPreserved)
{
    // Quantisation must not scramble the ordering of clearly
    // separated ranks: compare top vertex.
    const CooGraph g = makeStar(20);
    GraphRNode node(functionalConfig());
    PageRankParams params;
    params.maxIterations = 20;
    std::vector<Value> ranks;
    node.runPageRank(g, params, &ranks);
    const PageRankResult golden = pagerank(g, params);
    // All leaves equal-ranked above hub in both.
    EXPECT_GT(ranks[1], ranks[0]);
    EXPECT_GT(golden.ranks[1], golden.ranks[0]);
}

TEST(NodeFunctionalTest, SpmvCloseToGolden)
{
    const CooGraph g = makeRmat({.numVertices = 40,
                                 .numEdges = 300,
                                 .maxWeight = 3.0,
                                 .seed = 34});
    GraphRNode node(functionalConfig());
    std::vector<Value> x(g.numVertices());
    Rng rng(5);
    for (auto &v : x)
        v = rng.uniform();
    std::vector<Value> y;
    node.runSpmv(g, x, &y);

    const std::vector<Value> golden = spmv(g, x);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        EXPECT_NEAR(y[v], golden[v], 0.01) << "vertex " << v;
}

TEST(NodeFunctionalTest, VariationDegradesGracefully)
{
    // With mild cell variation the SSSP result may differ, but
    // PageRank ordering of a strongly separated graph survives —
    // the paper's error-resilience claim.
    const CooGraph g = makeStar(16);
    GraphRConfig cfg = functionalConfig();
    cfg.variationSigma = 0.3;
    GraphRNode node(cfg);
    PageRankParams params;
    params.maxIterations = 10;
    std::vector<Value> ranks;
    node.runPageRank(g, params, &ranks);
    EXPECT_GT(ranks[3], ranks[0]);
}

TEST(NodeFunctionalTest, FunctionalAndTimingOnlySameSchedule)
{
    // The SimReport of a functional run and a timing-only run must
    // agree on schedule statistics (tiles, edges) for MAC sweeps.
    const CooGraph g =
        makeRmat({.numVertices = 64, .numEdges = 500, .seed = 35});
    GraphRConfig func_cfg = functionalConfig();
    GraphRConfig time_cfg = functionalConfig();
    time_cfg.functional = false;

    PageRankParams params;
    params.maxIterations = 5;
    params.tolerance = 0.0;

    GraphRNode func_node(func_cfg);
    GraphRNode time_node(time_cfg);
    const SimReport a = func_node.runPageRank(g, params);
    const SimReport b = time_node.runPageRank(g, params);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.tilesProcessed, b.tilesProcessed);
    EXPECT_EQ(a.edgesProcessed, b.edgesProcessed);
    EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
    EXPECT_DOUBLE_EQ(a.joules, b.joules);
}

// ------------------------------------------------------ output digests

/** FNV-1a over the IEEE-754 bit patterns of a result vector. */
std::uint64_t
bitDigest(const std::vector<Value> &values)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const Value v : values) {
        const auto bits = std::bit_cast<std::uint64_t>(v);
        for (int i = 0; i < 8; ++i) {
            h ^= (bits >> (8 * i)) & 0xFFu;
            h *= 1099511628211ull;
        }
    }
    return h;
}

/**
 * A multigraph: R-MAT with its self-loops and duplicate edges kept,
 * plus parallel edges of differing weights added out of input order,
 * so cell merging (sum for MAC, min for add-op) decides results.
 */
CooGraph
digestGraph()
{
    CooGraph g = makeRmat({.numVertices = 96,
                           .numEdges = 1500,
                           .maxWeight = 7.0,
                           .seed = 41,
                           .removeSelfLoops = false});
    g.addEdge(3, 17, 2.0);
    g.addEdge(5, 5, 3.0);
    g.addEdge(3, 17, 5.0);
    g.addEdge(40, 2, 1.0);
    g.addEdge(3, 17, 1.0);
    g.addEdge(40, 2, 6.0);
    return g;
}

/** Bit digests of every functional output on digestGraph(). */
struct OutputDigests
{
    std::uint64_t pagerank = 0;
    std::uint64_t spmv = 0;
    std::uint64_t bfs = 0;
    std::uint64_t sssp = 0;
    std::uint64_t wcc = 0;
};

OutputDigests
runDigests(const GraphRConfig &cfg)
{
    const CooGraph g = digestGraph();
    OutputDigests d;
    PageRankParams params;
    params.maxIterations = 12;
    params.tolerance = 0.0;
    std::vector<Value> out;
    GraphRNode(cfg).runPageRank(g, params, &out);
    d.pagerank = bitDigest(out);

    std::vector<Value> x(g.numVertices());
    Rng rng(9);
    for (Value &v : x)
        v = rng.uniform();
    GraphRNode(cfg).runSpmv(g, x, &out);
    d.spmv = bitDigest(out);

    GraphRNode(cfg).runBfs(g, 0, &out);
    d.bfs = bitDigest(out);
    GraphRNode(cfg).runSssp(g, 0, &out);
    d.sssp = bitDigest(out);

    std::vector<VertexId> labels;
    GraphRNode(cfg).runWcc(g, &labels);
    out.assign(labels.begin(), labels.end());
    d.wcc = bitDigest(out);
    return d;
}

struct DigestCase
{
    std::uint32_t crossbarDim;
    std::uint32_t crossbarsPerGe;
    double sigma;
    ProgramCharging charging;
    OutputDigests expect;
};

/**
 * Pinned bit digests of functional PageRank ranks, SpMV y, BFS/SSSP
 * distances and WCC labels, variation off and on, under both
 * program-charging policies. Any change to the functional datapath
 * (cell merging, quantisation, MVM, reduce order, variation RNG
 * stream) must reproduce these bit for bit.
 */
TEST(NodeFunctionalTest, OutputDigestsArePinned)
{
    const DigestCase cases[] = {
        {4, 2, 0.0, ProgramCharging::kPerSweep,
         {0x8a06b28e82a2e6f8ull, 0x43ed5bda2f669183ull,
          0xcdd787642b71b69aull, 0x8250c68fa8c7569dull,
          0x8822177c5a76539aull}},
        {4, 2, 0.0, ProgramCharging::kOnce,
         {0x8a06b28e82a2e6f8ull, 0x43ed5bda2f669183ull,
          0xcdd787642b71b69aull, 0x8250c68fa8c7569dull,
          0x8822177c5a76539aull}},
        {4, 2, 0.3, ProgramCharging::kPerSweep,
         {0x8b125d6fea2c4fdeull, 0x43ed5bda2f669183ull,
          0x99c698ef4fd6ac9aull, 0xee3921e512143560ull,
          0x8822177c5a76539aull}},
        {4, 2, 0.3, ProgramCharging::kOnce,
         {0x8b125d6fea2c4fdeull, 0x43ed5bda2f669183ull,
          0x99c698ef4fd6ac9aull, 0xee3921e512143560ull,
          0x8822177c5a76539aull}},
        {8, 4, 0.0, ProgramCharging::kPerSweep,
         {0x8a06b28e82a2e6f8ull, 0x43ed5bda2f669183ull,
          0xcdd787642b71b69aull, 0x8250c68fa8c7569dull,
          0x8822177c5a76539aull}},
        {8, 4, 0.0, ProgramCharging::kOnce,
         {0x8a06b28e82a2e6f8ull, 0x43ed5bda2f669183ull,
          0xcdd787642b71b69aull, 0x8250c68fa8c7569dull,
          0x8822177c5a76539aull}},
        {8, 4, 0.3, ProgramCharging::kPerSweep,
         {0x79821835a7e9027bull, 0x43ed5bda2f669183ull,
          0x21eb5af36a19d7baull, 0xa1e838c34ea90807ull,
          0x8822177c5a76539aull}},
        {8, 4, 0.3, ProgramCharging::kOnce,
         {0x79821835a7e9027bull, 0x43ed5bda2f669183ull,
          0x21eb5af36a19d7baull, 0xa1e838c34ea90807ull,
          0x8822177c5a76539aull}},
    };
    for (const DigestCase &c : cases) {
        GraphRConfig cfg = functionalConfig();
        cfg.tiling.crossbarDim = c.crossbarDim;
        cfg.tiling.crossbarsPerGe = c.crossbarsPerGe;
        cfg.variationSigma = c.sigma;
        cfg.programCharging = c.charging;
        const OutputDigests got = runDigests(cfg);
        const std::string label =
            "C=" + std::to_string(c.crossbarDim) + " sigma=" +
            std::to_string(c.sigma) + " once=" +
            std::to_string(c.charging == ProgramCharging::kOnce);
        EXPECT_EQ(got.pagerank, c.expect.pagerank) << label;
        EXPECT_EQ(got.spmv, c.expect.spmv) << label;
        EXPECT_EQ(got.bfs, c.expect.bfs) << label;
        EXPECT_EQ(got.sssp, c.expect.sssp) << label;
        EXPECT_EQ(got.wcc, c.expect.wcc) << label;
    }
}

// ------------------------------------- differential oracle, generated

/** A named generated graph for the differential oracle. */
struct GeneratedGraph
{
    std::string name;
    CooGraph graph;
};

/**
 * Seeded R-MAT multigraphs (self-loops and duplicates kept, integer
 * weights) and degenerate shapes: one vertex, isolated vertices,
 * self-loops only, heavy duplicates.
 */
std::vector<GeneratedGraph>
generatedGraphs()
{
    std::vector<GeneratedGraph> graphs;
    for (const std::uint64_t seed : {101u, 102u, 103u}) {
        graphs.push_back(
            {"rmat" + std::to_string(seed),
             makeRmat({.numVertices = 70 + 13 * (seed % 3),
                       .numEdges = 600,
                       .maxWeight = 9.0,
                       .seed = seed,
                       .removeSelfLoops = false})});
    }
    graphs.push_back({"single_vertex", CooGraph(1, {})});
    graphs.push_back(
        {"single_self_loop", CooGraph(1, {{0, 0, 4.0}})});

    CooGraph isolated(50, {});
    for (VertexId v = 0; v + 1 < 10; ++v)
        isolated.addEdge(v, v + 1, static_cast<Value>(1 + v % 3));
    isolated.addEdge(3, 0, 2.0);
    graphs.push_back({"isolated_vertices", std::move(isolated)});

    CooGraph loops(33, {});
    for (VertexId v = 0; v < 33; ++v)
        loops.addEdge(v, v, static_cast<Value>(1 + v % 5));
    graphs.push_back({"self_loops_only", std::move(loops)});

    CooGraph dups(24, {});
    Rng rng(77);
    for (int rep = 0; rep < 25; ++rep) {
        dups.addEdge(0, 5, static_cast<Value>(1 + rng.below(9)));
        dups.addEdge(5, 17, static_cast<Value>(1 + rng.below(9)));
        dups.addEdge(17, 0, static_cast<Value>(1 + rng.below(9)));
        dups.addEdge(5, 5, static_cast<Value>(1 + rng.below(9)));
        dups.addEdge(0, 23, static_cast<Value>(1 + rng.below(9)));
    }
    graphs.push_back({"heavy_duplicates", std::move(dups)});
    return graphs;
}

void
expectSameDistances(const std::vector<Value> &got,
                    const std::vector<Value> &want,
                    const std::string &label)
{
    ASSERT_EQ(got.size(), want.size()) << label;
    for (std::size_t v = 0; v < want.size(); ++v) {
        if (std::isinf(want[v]))
            EXPECT_TRUE(std::isinf(got[v])) << label << " vertex " << v;
        else
            EXPECT_EQ(got[v], want[v]) << label << " vertex " << v;
    }
}

TEST(NodeFunctionalTest, AddOpMatchesGoldensOnGeneratedGraphs)
{
    for (const GeneratedGraph &gg : generatedGraphs()) {
        const CooGraph &g = gg.graph;
        for (const ProgramCharging charging :
             {ProgramCharging::kPerSweep, ProgramCharging::kOnce}) {
            GraphRConfig cfg = functionalConfig();
            cfg.programCharging = charging;
            GraphRNode node(cfg);
            std::vector<Value> dist;
            node.runBfs(g, 0, &dist);
            expectSameDistances(dist, bfs(g, 0).dist, gg.name + " bfs");
            node.runSssp(g, 0, &dist);
            expectSameDistances(dist, sssp(g, 0).dist,
                                gg.name + " sssp");
            std::vector<VertexId> labels;
            node.runWcc(g, &labels);
            EXPECT_EQ(labels, wcc(g).labels) << gg.name << " wcc";
        }
    }
}

TEST(NodeFunctionalTest, SpmvWithinQuantisationBoundOnGeneratedGraphs)
{
    const GraphRConfig cfg = functionalConfig();
    const double ulp_w = std::ldexp(1.0, -cfg.weightFracBits);
    const double ulp_x = std::ldexp(1.0, -cfg.inputFracBits);
    for (const GeneratedGraph &gg : generatedGraphs()) {
        const CooGraph &g = gg.graph;
        std::vector<Value> x(g.numVertices());
        Rng rng(13);
        for (Value &v : x)
            v = rng.uniform();
        std::vector<Value> y;
        GraphRNode(cfg).runSpmv(g, x, &y);
        const std::vector<Value> golden = spmv(g, x);

        // Each edge's cell holds its weight and its source input to
        // within one ulp each (rounding is half an ulp; merged
        // parallel edges share one cell, so summing per edge is an
        // over-estimate).
        const std::vector<EdgeId> &deg = g.outDegrees();
        std::vector<double> bound(g.numVertices(), 1e-12);
        for (const Edge &e : g.edges()) {
            const double w = e.weight / static_cast<double>(deg[e.src]);
            bound[e.dst] += w * ulp_x + x[e.src] * ulp_w + ulp_w * ulp_x;
        }
        ASSERT_EQ(y.size(), golden.size()) << gg.name;
        for (VertexId v = 0; v < g.numVertices(); ++v)
            EXPECT_NEAR(y[v], golden[v], bound[v])
                << gg.name << " vertex " << v;
    }
}

} // namespace
} // namespace graphr
