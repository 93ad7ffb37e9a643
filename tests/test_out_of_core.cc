/**
 * @file
 * Tests for the out-of-core execution driver (paper Fig. 9).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "algorithms/wcc.hh"
#include "graph/generator.hh"
#include "graph/partition.hh"
#include "graphr/out_of_core.hh"

namespace graphr
{
namespace
{

GraphRConfig
blockedConfig(std::uint32_t block_size)
{
    GraphRConfig cfg;
    cfg.tiling.blockSize = block_size;
    return cfg;
}

TEST(OutOfCoreTest, PageRankStreamsAllEdgesPerIteration)
{
    const CooGraph g = makeRmat(
        {.numVertices = 4000, .numEdges = 30000, .seed = 81});
    OutOfCoreRunner runner(blockedConfig(0), StorageParams{});
    PageRankParams params;
    params.maxIterations = 10;
    params.tolerance = 0.0;
    const OutOfCoreReport rep = runner.runPageRank(g, params);
    EXPECT_EQ(rep.bytesStreamed,
              10ull * g.numEdges() *
                  runner.config().bytesPerEdge);
    EXPECT_GT(rep.diskSeconds, 0.0);
    EXPECT_GE(rep.totalSeconds, rep.node.seconds * 0.999);
    EXPECT_GE(rep.totalSeconds, rep.diskSeconds * 0.999);
}

TEST(OutOfCoreTest, PipelineTakesMaxOfDiskAndCompute)
{
    const CooGraph g = makeRmat(
        {.numVertices = 2000, .numEdges = 16000, .seed = 82});
    PageRankParams params;
    params.maxIterations = 5;
    params.tolerance = 0.0;
    // Very slow disk: end-to-end equals disk time.
    StorageParams slow;
    slow.seqBandwidthGBs = 0.001;
    const OutOfCoreReport rep =
        OutOfCoreRunner(blockedConfig(0), slow).runPageRank(g, params);
    EXPECT_NEAR(rep.totalSeconds, rep.diskSeconds,
                rep.diskSeconds * 1e-9);
    // Very fast disk: end-to-end equals node time.
    StorageParams fast;
    fast.seqBandwidthGBs = 10000.0;
    fast.accessLatencyUs = 0.0;
    const OutOfCoreReport rep2 =
        OutOfCoreRunner(blockedConfig(0), fast).runPageRank(g, params);
    EXPECT_NEAR(rep2.totalSeconds, rep2.node.seconds,
                rep2.node.seconds * 1e-9);
}

TEST(OutOfCoreTest, SmallerBlocksMoreSwitches)
{
    const CooGraph g = makeRmat(
        {.numVertices = 60000, .numEdges = 200000, .seed = 83});
    PageRankParams params;
    params.maxIterations = 2;
    params.tolerance = 0.0;
    const OutOfCoreReport one_block =
        OutOfCoreRunner(blockedConfig(0), StorageParams{})
            .runPageRank(g, params);
    const OutOfCoreReport four_blocks =
        OutOfCoreRunner(blockedConfig(32768), StorageParams{})
            .runPageRank(g, params);
    EXPECT_EQ(one_block.numBlocks, 1u);
    EXPECT_GT(four_blocks.numBlocks, 1u);
    // Extra block switches cost extra disk latency.
    EXPECT_GT(four_blocks.diskSeconds, one_block.diskSeconds);
}

TEST(OutOfCoreTest, SsspStreamsOnlyActiveBlockRows)
{
    const CooGraph g = makeRmat({.numVertices = 60000,
                                 .numEdges = 200000,
                                 .maxWeight = 15.0,
                                 .seed = 84});
    PageRankParams params;
    params.maxIterations = 1;
    params.tolerance = 0.0;
    OutOfCoreRunner runner(blockedConfig(16384), StorageParams{});
    const OutOfCoreReport pr = runner.runPageRank(g, params);
    const OutOfCoreReport ss = runner.runSssp(g, 0);
    // SSSP rounds skip inactive block rows: bytes per round average
    // below a full sweep.
    const double pr_bytes_per_iter =
        static_cast<double>(pr.bytesStreamed);
    const double ss_bytes_per_round =
        static_cast<double>(ss.bytesStreamed) /
        static_cast<double>(ss.node.iterations);
    EXPECT_LT(ss_bytes_per_round, pr_bytes_per_iter * 1.001);
    EXPECT_GT(ss.bytesStreamed, 0u);
}

/**
 * The selective schedule of an independent software replay: run the
 * relaxation round by round and stream every block-row that holds an
 * active source. The runner must charge exactly this, read off the
 * node's own timing rounds.
 */
void
expectReplayedStreaming(const OutOfCoreReport &rep, const CooGraph &graph,
                        RelaxationSweep sweep, const GraphRConfig &cfg,
                        const StorageParams &storage)
{
    const GridPartition part(graph.numVertices(), cfg.tiling);
    std::vector<std::uint64_t> row_bytes(part.blocksPerDim(), 0);
    for (const Edge &e : graph.edges())
        row_bytes[e.src / part.blockSize()] += cfg.bytesPerEdge;
    std::uint64_t bytes = 0;
    double seconds = 0.0;
    while (!sweep.done()) {
        for (std::uint64_t row = 0; row < part.blocksPerDim(); ++row) {
            const std::uint64_t lo = row * part.blockSize();
            const std::uint64_t hi = std::min<std::uint64_t>(
                lo + part.blockSize(), graph.numVertices());
            bool any = false;
            for (std::uint64_t v = lo; v < hi && !any; ++v)
                any = sweep.active()[v];
            if (!any)
                continue;
            bytes += row_bytes[row];
            seconds += static_cast<double>(row_bytes[row]) /
                           (storage.seqBandwidthGBs * 1e9) +
                       static_cast<double>(part.blocksPerDim()) *
                           storage.accessLatencyUs * 1e-6;
        }
        sweep.step();
    }
    EXPECT_EQ(rep.bytesStreamed, bytes);
    EXPECT_EQ(rep.diskSeconds, seconds);
}

TEST(OutOfCoreTest, SelectiveRoundsMatchASoftwareReplay)
{
    const CooGraph g = makeRmat({.numVertices = 3000,
                                 .numEdges = 20000,
                                 .maxWeight = 9.0,
                                 .seed = 86});
    const GraphRConfig cfg = blockedConfig(256);
    const StorageParams storage;
    OutOfCoreRunner runner(cfg, storage);
    expectReplayedStreaming(runner.runBfs(g, 3), g,
                            RelaxationSweep(g, 3, true), cfg, storage);
    expectReplayedStreaming(runner.runSssp(g, 3), g,
                            RelaxationSweep(g, 3, false), cfg, storage);
    const CooGraph sym = symmetrize(g);
    expectReplayedStreaming(runner.runWcc(g), sym, makeWccSweep(sym),
                            cfg, storage);
}

TEST(OutOfCoreTest, EnergyIncludesDisk)
{
    const CooGraph g = makeRmat(
        {.numVertices = 2000, .numEdges = 16000, .seed = 85});
    PageRankParams params;
    params.maxIterations = 5;
    params.tolerance = 0.0;
    const OutOfCoreReport rep =
        OutOfCoreRunner(blockedConfig(0), StorageParams{})
            .runPageRank(g, params);
    EXPECT_GT(rep.diskJoules, 0.0);
    EXPECT_NEAR(rep.totalJoules, rep.node.joules + rep.diskJoules,
                1e-15);
}

} // namespace
} // namespace graphr
