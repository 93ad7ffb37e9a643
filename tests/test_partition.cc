/**
 * @file
 * Unit and property tests for the grid partitioner (paper Eqs. 1-9).
 */

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "graph/partition.hh"

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

TEST(PartitionTest, PaperFigure12Geometry)
{
    // Fig. 12: V=64, B=32, C=4, N=2, G=2 -> subgraph 4x16, 16 tiles
    // per block, 4 blocks.
    const GridPartition part(64, tiling(4, 2, 2, 32));
    EXPECT_EQ(part.tileWidth(), 16u);
    EXPECT_EQ(part.blockSize(), 32u);
    EXPECT_EQ(part.paddedVertices(), 64u);
    EXPECT_EQ(part.blocksPerDim(), 2u);
    EXPECT_EQ(part.tileRowsPerBlock(), 8u);
    EXPECT_EQ(part.tileColsPerBlock(), 2u);
    EXPECT_EQ(part.tilesPerBlock(), 16u);
    EXPECT_EQ(part.numBlocks(), 4u);
    EXPECT_EQ(part.numTiles(), 64u);
    EXPECT_EQ(part.tileCapacity(), 64u);
}

TEST(PartitionTest, SingleBlockPadsToTileWidth)
{
    const GridPartition part(100, tiling(8, 4, 4));
    // tileWidth = 8*4*4 = 128; block rounds 100 up to 128.
    EXPECT_EQ(part.tileWidth(), 128u);
    EXPECT_EQ(part.blockSize(), 128u);
    EXPECT_EQ(part.paddedVertices(), 128u);
    EXPECT_EQ(part.numBlocks(), 1u);
}

TEST(PartitionTest, BlockIndexIsColumnMajor)
{
    const GridPartition part(64, tiling(4, 2, 2, 32));
    // B(0,0) -> B(1,0) -> B(0,1) -> B(1,1) per paper section 3.4.
    EXPECT_EQ(part.blockIndex(0, 0), 0u);
    EXPECT_EQ(part.blockIndex(1, 0), 1u);
    EXPECT_EQ(part.blockIndex(0, 1), 2u);
    EXPECT_EQ(part.blockIndex(1, 1), 3u);
}

TEST(PartitionTest, TileIndexColumnMajorWithinBlock)
{
    const GridPartition part(64, tiling(4, 2, 2, 32));
    // Within block 0: tile (row 0, col 0) = 0, (row 1, col 0) = 1,
    // ..., (row 0, col 1) = 8.
    EXPECT_EQ(part.tileIndex(0, 0), 0u);
    EXPECT_EQ(part.tileIndex(4, 0), 1u);
    EXPECT_EQ(part.tileIndex(28, 0), 7u);
    EXPECT_EQ(part.tileIndex(0, 16), 8u);
    // First tile of block B(1,0) (rows 32.., cols 0..).
    EXPECT_EQ(part.tileIndex(32, 0), 16u);
    // First tile of block B(0,1) (rows 0.., cols 32..).
    EXPECT_EQ(part.tileIndex(0, 32), 32u);
}

TEST(PartitionTest, TileCoordRoundTrip)
{
    const GridPartition part(64, tiling(4, 2, 2, 32));
    for (std::uint64_t t = 0; t < part.numTiles(); ++t) {
        const TileCoord coord = part.tileCoord(t);
        std::uint64_t row0 = 0;
        std::uint64_t col0 = 0;
        part.tileOrigin(coord, row0, col0);
        EXPECT_EQ(part.tileIndex(static_cast<VertexId>(row0),
                                 static_cast<VertexId>(col0)),
                  t);
    }
}

TEST(PartitionTest, OrderIdColumnMajorWithinTile)
{
    const GridPartition part(64, tiling(4, 2, 2, 32));
    // Cells of tile 0, column-major: (0,0)=0, (1,0)=1, ..., (0,1)=4.
    EXPECT_EQ(part.globalOrderId(0, 0), 0u);
    EXPECT_EQ(part.globalOrderId(1, 0), 1u);
    EXPECT_EQ(part.globalOrderId(3, 0), 3u);
    EXPECT_EQ(part.globalOrderId(0, 1), 4u);
    // First cell of tile 1 (rows 4..7).
    EXPECT_EQ(part.globalOrderId(4, 0), 64u);
}

/** Property sweep over architectural parameter combinations. */
class PartitionPropertyTest
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                     std::uint32_t, VertexId>>
{
};

TEST_P(PartitionPropertyTest, OrderIdIsABijection)
{
    const auto [c, n, g, b, v] = GetParam();
    const GridPartition part(v, tiling(c, n, g, b));
    const std::uint64_t pv = part.paddedVertices();
    ASSERT_LE(pv * pv, 1u << 20) << "test sweep too large";

    std::set<std::uint64_t> ids;
    for (std::uint64_t i = 0; i < pv; ++i) {
        for (std::uint64_t j = 0; j < pv; ++j) {
            const std::uint64_t id = part.globalOrderId(
                static_cast<VertexId>(i), static_cast<VertexId>(j));
            EXPECT_LT(id, pv * pv);
            ids.insert(id);
            // Inverse is consistent.
            std::uint64_t ri = 0;
            std::uint64_t rj = 0;
            part.cellOfOrderId(id, ri, rj);
            EXPECT_EQ(ri, i);
            EXPECT_EQ(rj, j);
        }
    }
    EXPECT_EQ(ids.size(), pv * pv) << "order ids must be unique";
}

TEST_P(PartitionPropertyTest, OrderIdGroupsTilesContiguously)
{
    const auto [c, n, g, b, v] = GetParam();
    const GridPartition part(v, tiling(c, n, g, b));
    const std::uint64_t pv = part.paddedVertices();
    ASSERT_LE(pv * pv, 1u << 20);

    // All cells of tile k occupy [k*cap, (k+1)*cap).
    for (std::uint64_t i = 0; i < pv; ++i) {
        for (std::uint64_t j = 0; j < pv; ++j) {
            const std::uint64_t id = part.globalOrderId(
                static_cast<VertexId>(i), static_cast<VertexId>(j));
            const std::uint64_t tile = part.tileIndex(
                static_cast<VertexId>(i), static_cast<VertexId>(j));
            EXPECT_EQ(id / part.tileCapacity(), tile);
        }
    }
}

/**
 * globalOrderId against the paper's equations taken step by step: the
 * tile index from Eqs. 1, 4, 5 and 6, then tileCoord and tileOrigin
 * for the tile's first cell, then Eqs. 7 to 9.
 */
TEST_P(PartitionPropertyTest, OrderIdMatchesTileCoordOriginFormula)
{
    const auto [c, n, g, b, v] = GetParam();
    const GridPartition part(v, tiling(c, n, g, b));
    const std::uint64_t pv = part.paddedVertices();
    ASSERT_LE(pv * pv, 1u << 20);

    const std::uint64_t bs = part.blockSize();
    for (std::uint64_t i = 0; i < pv; ++i) {
        for (std::uint64_t j = 0; j < pv; ++j) {
            const std::uint64_t tile =
                part.blockIndex(i / bs, j / bs) * part.tilesPerBlock() +
                (i % bs) / c +
                (j % bs) / part.tileWidth() * part.tileRowsPerBlock();
            std::uint64_t row0 = 0;
            std::uint64_t col0 = 0;
            part.tileOrigin(part.tileCoord(tile), row0, col0);
            const std::uint64_t want = tile * part.tileCapacity() +
                                       (i - row0) + (j - col0) * c;
            const auto vi = static_cast<VertexId>(i);
            const auto vj = static_cast<VertexId>(j);
            ASSERT_EQ(part.globalOrderId(vi, vj), want)
                << "cell (" << i << "," << j << ")";
            ASSERT_EQ(part.tileIndex(vi, vj), tile);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionPropertyTest,
    ::testing::Values(
        std::make_tuple(4u, 2u, 2u, 32u, VertexId{64}),
        std::make_tuple(4u, 2u, 2u, 0u, VertexId{64}),
        std::make_tuple(8u, 2u, 2u, 0u, VertexId{100}),
        std::make_tuple(4u, 4u, 1u, 16u, VertexId{64}),
        std::make_tuple(2u, 2u, 2u, 8u, VertexId{30}),
        std::make_tuple(8u, 4u, 4u, 256u, VertexId{1000}),
        std::make_tuple(16u, 2u, 2u, 0u, VertexId{200})));

TEST(PartitionTest, RejectsZeroParameters)
{
    EXPECT_DEATH(GridPartition(0, tiling(4, 2, 2)), "");
}

} // namespace
} // namespace graphr
