/**
 * @file
 * Tests for the streaming-apply preprocessing (section 3.4).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <numeric>
#include <random>
#include <set>
#include <tuple>

#include "graph/generator.hh"
#include "graph/partition.hh"
#include "graph/preprocess.hh"
#include "graphr/tile_meta.hh"

namespace graphr
{
namespace
{

TilingParams
tiling(std::uint32_t c, std::uint32_t n, std::uint32_t g,
       std::uint32_t b = 0)
{
    TilingParams t;
    t.crossbarDim = c;
    t.crossbarsPerGe = n;
    t.numGe = g;
    t.blockSize = b;
    return t;
}

TEST(PreprocessTest, OutputIsPermutationOfInput)
{
    const CooGraph g = makeRmat({.numVertices = 200,
                                 .numEdges = 1500,
                                 .maxWeight = 15.0,
                                 .seed = 3});
    const GridPartition part(g.numVertices(), tiling(4, 2, 2, 32));
    const OrderedEdgeList ordered(g, part);

    ASSERT_EQ(ordered.edges().size(), g.numEdges());
    std::multiset<std::tuple<VertexId, VertexId, double>> in;
    std::multiset<std::tuple<VertexId, VertexId, double>> out;
    for (const Edge &e : g.edges())
        in.insert({e.src, e.dst, e.weight});
    for (const Edge &e : ordered.edges())
        out.insert({e.src, e.dst, e.weight});
    EXPECT_EQ(in, out);
}

TEST(PreprocessTest, EdgesSortedByGlobalOrderId)
{
    const CooGraph g =
        makeRmat({.numVertices = 300, .numEdges = 2000, .seed = 4});
    const GridPartition part(g.numVertices(), tiling(8, 2, 2));
    const OrderedEdgeList ordered(g, part);
    for (std::size_t i = 1; i < ordered.edges().size(); ++i) {
        const Edge &a = ordered.edges()[i - 1];
        const Edge &b = ordered.edges()[i];
        EXPECT_LE(part.globalOrderId(a.src, a.dst),
                  part.globalOrderId(b.src, b.dst));
    }
}

TEST(PreprocessTest, TileDirectoryCoversAllEdges)
{
    const CooGraph g =
        makeRmat({.numVertices = 128, .numEdges = 900, .seed = 5});
    const GridPartition part(g.numVertices(), tiling(4, 2, 2, 64));
    const OrderedEdgeList ordered(g, part);

    std::uint64_t covered = 0;
    std::uint64_t prev_tile = 0;
    bool first = true;
    for (const TileSpan &span : ordered.tiles()) {
        covered += span.numEdges;
        if (!first)
            EXPECT_GT(span.tileIndex, prev_tile)
                << "tiles must be strictly increasing";
        prev_tile = span.tileIndex;
        first = false;
        // All edges in the span really belong to the tile.
        for (const Edge &e : ordered.tileEdges(span))
            EXPECT_EQ(part.tileIndex(e.src, e.dst), span.tileIndex);
    }
    EXPECT_EQ(covered, g.numEdges());
}

TEST(PreprocessTest, EmptyTilesAbsentFromDirectory)
{
    // A chain has exactly one edge per (v, v+1) cell: most tiles of a
    // fine partition are empty and must not appear.
    const CooGraph g = makeChain(64);
    const GridPartition part(g.numVertices(), tiling(4, 2, 2, 32));
    const OrderedEdgeList ordered(g, part);
    for (const TileSpan &span : ordered.tiles())
        EXPECT_GT(span.numEdges, 0u);
    EXPECT_LT(ordered.numNonEmptyTiles(), part.numTiles());
}

TEST(PreprocessTest, OccupancyBounds)
{
    const CooGraph g =
        makeRmat({.numVertices = 256, .numEdges = 4000, .seed = 6});
    const GridPartition part(g.numVertices(), tiling(8, 2, 2));
    const OrderedEdgeList ordered(g, part);
    EXPECT_GT(ordered.occupancy(), 0.0);
    EXPECT_LE(ordered.occupancy(), 1.0);
}

TEST(PreprocessTest, DenseGraphFillsTiles)
{
    const CooGraph g = makeComplete(16);
    const GridPartition part(g.numVertices(), tiling(4, 2, 2, 16));
    const OrderedEdgeList ordered(g, part);
    // Complete graph: every tile of the single 16x16 block is full
    // except diagonal cells.
    EXPECT_EQ(ordered.numNonEmptyTiles(), part.numTiles());
    EXPECT_NEAR(ordered.occupancy(), 240.0 / 256.0, 1e-12);
}

TEST(PreprocessTest, TilesOfBlockFiltersCorrectly)
{
    const CooGraph g =
        makeRmat({.numVertices = 64, .numEdges = 600, .seed = 8});
    const GridPartition part(g.numVertices(), tiling(4, 2, 2, 32));
    const OrderedEdgeList ordered(g, part);
    std::uint64_t total = 0;
    for (std::uint64_t b = 0; b < part.numBlocks(); ++b) {
        for (const TileSpan &span : ordered.tilesOfBlock(b)) {
            EXPECT_EQ(span.tileIndex / part.tilesPerBlock(), b);
            ++total;
        }
    }
    EXPECT_EQ(total, ordered.numNonEmptyTiles());
}

TEST(PreprocessTest, TilesOfBlockMatchesAScanOverManyBlocks)
{
    // Several blocks, some of them empty: every block's slice of the
    // directory equals a linear filter, in order.
    const CooGraph g =
        makeRmat({.numVertices = 500, .numEdges = 3000, .seed = 12});
    const GridPartition part(g.numVertices(), tiling(4, 2, 2, 48));
    ASSERT_GT(part.numBlocks(), 4u);
    const OrderedEdgeList ordered(g, part);
    std::uint64_t total = 0;
    std::uint64_t empty_blocks = 0;
    for (std::uint64_t b = 0; b < part.numBlocks(); ++b) {
        std::vector<TileSpan> expected;
        for (const TileSpan &span : ordered.tiles())
            if (span.tileIndex / part.tilesPerBlock() == b)
                expected.push_back(span);
        const std::vector<TileSpan> got = ordered.tilesOfBlock(b);
        ASSERT_EQ(got.size(), expected.size()) << "block " << b;
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].tileIndex, expected[i].tileIndex);
            EXPECT_EQ(got[i].firstEdge, expected[i].firstEdge);
            EXPECT_EQ(got[i].numEdges, expected[i].numEdges);
        }
        total += got.size();
        empty_blocks += got.empty();
    }
    EXPECT_EQ(total, ordered.numNonEmptyTiles());
    EXPECT_GT(empty_blocks, 0u);
    EXPECT_TRUE(ordered.tilesOfBlock(part.numBlocks()).empty());
}

TEST(PreprocessTest, DuplicateCellsKeepInputOrder)
{
    // Copies of one (src, dst) cell with distinct weights, between
    // other edges: the weights tell the copies apart, and they come
    // out in input order.
    std::vector<Edge> edges;
    std::vector<double> expected;
    for (int k = 0; k < 300; ++k) {
        if (k % 3 == 0) {
            edges.push_back(Edge{1, 2, static_cast<double>(k)});
            expected.push_back(k);
        } else {
            edges.push_back(Edge{static_cast<VertexId>(k % 8),
                                 static_cast<VertexId>(k * 5 % 8), 1.0});
        }
    }
    const CooGraph g(8, std::move(edges));
    const GridPartition part(g.numVertices(), tiling(4, 2, 2));
    const OrderedEdgeList ordered(g, part);
    std::vector<double> weights;
    for (const Edge &e : ordered.edges())
        if (e.src == 1 && e.dst == 2)
            weights.push_back(e.weight);
    EXPECT_EQ(weights, expected);
}

/** The reference ordering: std::stable_sort by global order ID. */
std::vector<Edge>
referenceOrder(const CooGraph &g, const GridPartition &part)
{
    std::vector<Edge> edges(g.edges().begin(), g.edges().end());
    std::stable_sort(edges.begin(), edges.end(),
                     [&part](const Edge &a, const Edge &b) {
                         return part.globalOrderId(a.src, a.dst) <
                                part.globalOrderId(b.src, b.dst);
                     });
    return edges;
}

/**
 * Per-tile metadata recomputed with sets and a full crossbar scan,
 * independent of the single-pass column-run counting.
 */
void
expectMetaMatchesReference(const OrderedEdgeList &ordered)
{
    const GridPartition &part = ordered.partition();
    const TileMetaTable table(ordered);
    ASSERT_EQ(table.tiles().size(), ordered.tiles().size());
    std::uint64_t total = 0;
    for (std::size_t t = 0; t < ordered.tiles().size(); ++t) {
        const TileSpan &span = ordered.tiles()[t];
        const TileMeta &meta = table.tiles()[t];
        std::uint64_t row0 = 0;
        std::uint64_t col0 = 0;
        part.tileOrigin(part.tileCoord(span.tileIndex), row0, col0);
        std::set<std::uint64_t> cols;
        std::map<std::uint64_t, std::uint64_t> crossbar_rows;
        std::vector<std::uint32_t> row_nnz(part.crossbarDim(), 0);
        for (const Edge &e : ordered.tileEdges(span)) {
            cols.insert(e.dst - col0);
            crossbar_rows[(e.dst - col0) / part.crossbarDim()] |=
                std::uint64_t{1} << (e.src - row0);
            ++row_nnz[e.src - row0];
        }
        std::uint32_t max_rows = 0;
        for (const auto &[cb, mask] : crossbar_rows)
            max_rows = std::max(
                max_rows, static_cast<std::uint32_t>(std::popcount(mask)));
        EXPECT_EQ(meta.tileIndex, span.tileIndex);
        EXPECT_EQ(meta.nnz, span.numEdges);
        EXPECT_EQ(meta.nnzColumns, cols.size()) << "tile " << t;
        EXPECT_EQ(meta.crossbarsUsed, crossbar_rows.size()) << "tile " << t;
        EXPECT_EQ(meta.maxRowsProgrammed, max_rows) << "tile " << t;
        EXPECT_EQ(meta.rowNnz, row_nnz) << "tile " << t;
        total += span.numEdges;
    }
    EXPECT_EQ(table.totalNnz(), total);
}

/** The ordered list equals the stable-sort reference, edge for edge
 *  (weights included), and the directory partitions it by tile. */
void
expectMatchesReference(const CooGraph &g, const GridPartition &part)
{
    const OrderedEdgeList ordered(g, part);
    const std::vector<Edge> expected = referenceOrder(g, part);
    ASSERT_EQ(ordered.edges().size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(ordered.edges()[i].src, expected[i].src) << "edge " << i;
        ASSERT_EQ(ordered.edges()[i].dst, expected[i].dst) << "edge " << i;
        ASSERT_EQ(ordered.edges()[i].weight, expected[i].weight)
            << "edge " << i;
    }
    std::vector<TileSpan> tiles;
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const std::uint64_t tile =
            part.tileIndex(expected[i].src, expected[i].dst);
        if (tiles.empty() || tiles.back().tileIndex != tile)
            tiles.push_back(TileSpan{tile, i, 0});
        ++tiles.back().numEdges;
    }
    ASSERT_EQ(ordered.tiles().size(), tiles.size());
    for (std::size_t t = 0; t < tiles.size(); ++t) {
        EXPECT_EQ(ordered.tiles()[t].tileIndex, tiles[t].tileIndex);
        EXPECT_EQ(ordered.tiles()[t].firstEdge, tiles[t].firstEdge);
        EXPECT_EQ(ordered.tiles()[t].numEdges, tiles[t].numEdges);
    }
    expectMetaMatchesReference(ordered);
}

/** A seeded multigraph with weights that distinguish every copy of a
 *  repeated cell, so any tie-order difference shows. */
CooGraph
seededMultigraph(VertexId vertices, std::size_t edges, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<VertexId> vertex(0, vertices - 1);
    // Few distinct cells relative to edges: plenty of duplicates.
    std::vector<std::pair<VertexId, VertexId>> cells(edges / 4 + 1);
    for (auto &cell : cells)
        cell = {vertex(rng), vertex(rng)};
    std::uniform_int_distribution<std::size_t> pick(0, cells.size() - 1);
    std::vector<Edge> out;
    for (std::size_t e = 0; e < edges; ++e) {
        const auto [src, dst] = cells[pick(rng)];
        out.push_back(Edge{src, dst, static_cast<double>(e)});
    }
    return CooGraph(vertices, std::move(out));
}

TEST(PreprocessDifferentialTest, SeededMultigraphsMatchStableSort)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const CooGraph g = seededMultigraph(
            static_cast<VertexId>(40 + 37 * seed), 400 * seed, seed);
        expectMatchesReference(g, GridPartition(g.numVertices(),
                                                tiling(4, 2, 2)));
        expectMatchesReference(g, GridPartition(g.numVertices(),
                                                tiling(2, 4, 2, 32)));
        expectMatchesReference(g, GridPartition(g.numVertices(),
                                                tiling(8, 1, 1, 16)));
    }
}

TEST(PreprocessDifferentialTest, SelfLoopsMatchStableSort)
{
    std::vector<Edge> edges;
    for (VertexId v = 0; v < 50; ++v) {
        edges.push_back(Edge{v, v, static_cast<double>(v)});
        edges.push_back(Edge{v, (v * 7) % 50, 1.0});
        edges.push_back(Edge{v, v, static_cast<double>(100 + v)});
    }
    const CooGraph g(50, std::move(edges));
    expectMatchesReference(g, GridPartition(50, tiling(4, 2, 2, 16)));
}

TEST(PreprocessDifferentialTest, OneCellRepeatedAThousandTimes)
{
    std::vector<Edge> edges;
    for (int i = 0; i < 1000; ++i)
        edges.push_back(Edge{5, 9, static_cast<double>(1000 - i)});
    edges.push_back(Edge{0, 1, 1.0});
    const CooGraph g(16, std::move(edges));
    const GridPartition part(16, tiling(4, 2, 2));
    expectMatchesReference(g, part);
    const OrderedEdgeList ordered(g, part);
    ASSERT_EQ(ordered.numNonEmptyTiles(), 2u);
    const TileMetaTable table(ordered);
    EXPECT_EQ(table.tiles()[1].nnz, 1000u);
    EXPECT_EQ(table.tiles()[1].nnzColumns, 1u);
    EXPECT_EQ(table.tiles()[1].maxRowsProgrammed, 1u);
}

TEST(PreprocessDifferentialTest, SingleVertex)
{
    const CooGraph g(1, {{0, 0, 2.0}, {0, 0, 1.0}});
    expectMatchesReference(g, GridPartition(1, tiling(4, 2, 2)));
    const CooGraph empty(1, {});
    const OrderedEdgeList ordered(empty, GridPartition(1, tiling(4, 2, 2)));
    EXPECT_TRUE(ordered.edges().empty());
    EXPECT_EQ(ordered.numNonEmptyTiles(), 0u);
}

TEST(PreprocessDifferentialTest, RmatWithBlocksMatchesStableSort)
{
    const CooGraph g = makeRmat({.numVertices = 700,
                                 .numEdges = 6000,
                                 .maxWeight = 9.0,
                                 .seed = 21,
                                 .removeSelfLoops = false});
    expectMatchesReference(g, GridPartition(g.numVertices(),
                                            tiling(4, 4, 2, 64)));
    expectMatchesReference(g, GridPartition(g.numVertices(),
                                            tiling(8, 2, 2, 100)));
}

TEST(PreprocessDifferentialTest, OrderIdsBeyond32BitsTakeAThirdPass)
{
    // The default tiling pads 2^20 vertices to a 2^40-cell grid, so
    // keys need a third 16-bit digit.
    const CooGraph g = makeRmat({.numVertices = 1048576,
                                 .numEdges = 4096,
                                 .maxWeight = 5.0,
                                 .seed = 1});
    const GridPartition part(g.numVertices(), TilingParams{});
    std::uint64_t max_key = 0;
    for (const Edge &e : g.edges())
        max_key = std::max(max_key, part.globalOrderId(e.src, e.dst));
    ASSERT_GE(max_key, std::uint64_t{1} << 32);
    expectMatchesReference(g, part);
}

/** Property sweep: streaming order invariants for many configs. */
class PreprocessPropertyTest
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                     std::uint32_t>>
{
};

TEST_P(PreprocessPropertyTest, BlockMajorThenTileMajorOrder)
{
    const auto [c, n, g_, b] = GetParam();
    const CooGraph graph =
        makeRmat({.numVertices = 96, .numEdges = 1200, .seed = 10});
    const GridPartition part(graph.numVertices(), tiling(c, n, g_, b));
    const OrderedEdgeList ordered(graph, part);

    // Walking the ordered list, the block index must be
    // non-decreasing, and within a block the tile index too.
    std::uint64_t prev_block = 0;
    std::uint64_t prev_tile = 0;
    bool first = true;
    for (const Edge &e : ordered.edges()) {
        const std::uint64_t tile = part.tileIndex(e.src, e.dst);
        const std::uint64_t block = tile / part.tilesPerBlock();
        if (!first) {
            EXPECT_GE(block, prev_block);
            if (block == prev_block)
                EXPECT_GE(tile, prev_tile);
        }
        prev_block = block;
        prev_tile = tile;
        first = false;
    }
}

TEST_P(PreprocessPropertyTest, WithinTileColumnMajor)
{
    const auto [c, n, g_, b] = GetParam();
    const CooGraph graph =
        makeRmat({.numVertices = 96, .numEdges = 1200, .seed = 10});
    const GridPartition part(graph.numVertices(), tiling(c, n, g_, b));
    const OrderedEdgeList ordered(graph, part);

    for (const TileSpan &span : ordered.tiles()) {
        const auto edges = ordered.tileEdges(span);
        for (std::size_t i = 1; i < edges.size(); ++i) {
            // Column-major within the tile: dst (column) groups are
            // non-decreasing; ties ordered by src.
            const Edge &a = edges[i - 1];
            const Edge &e = edges[i];
            const bool ok = a.dst < e.dst ||
                            (a.dst == e.dst && a.src <= e.src);
            EXPECT_TRUE(ok) << "(" << a.src << "," << a.dst << ") then ("
                            << e.src << "," << e.dst << ")";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PreprocessPropertyTest,
    ::testing::Values(std::make_tuple(4u, 2u, 2u, 32u),
                      std::make_tuple(4u, 2u, 2u, 0u),
                      std::make_tuple(8u, 2u, 4u, 0u),
                      std::make_tuple(2u, 4u, 2u, 16u),
                      std::make_tuple(8u, 8u, 1u, 64u),
                      std::make_tuple(16u, 1u, 1u, 32u)));

} // namespace
} // namespace graphr
