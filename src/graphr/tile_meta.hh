/**
 * @file
 * Precomputed per-tile activity metadata.
 *
 * The cost model needs, per non-empty tile: how many crossbars hold
 * non-zeros, the serial row-write depth, and which source rows carry
 * edges (to intersect with active sets for BFS/SSSP). Computing this
 * once after preprocessing keeps the per-iteration simulation loop a
 * cheap table walk, which matters when iterating large graphs.
 */

#ifndef GRAPHR_GRAPHR_TILE_META_HH
#define GRAPHR_GRAPHR_TILE_META_HH

#include <cstdint>
#include <vector>

#include "graph/preprocess.hh"

namespace graphr
{

/** Static activity facts about one non-empty tile. */
struct TileMeta
{
    std::uint64_t tileIndex = 0;
    std::uint64_t row0 = 0; ///< first source vertex covered
    std::uint64_t col0 = 0; ///< first destination vertex covered
    std::uint64_t nnz = 0;
    std::uint32_t crossbarsUsed = 0;
    std::uint32_t maxRowsProgrammed = 0; ///< deepest crossbar write queue
    std::uint64_t rowMask = 0; ///< bit r set if tile row r has edges
    std::uint64_t nnzColumns = 0; ///< distinct destination columns
    /** Per-row nonzero count (indexed by tile-relative row). */
    std::vector<std::uint32_t> rowNnz;
};

/** Table of metadata for every non-empty tile, in streaming order. */
class TileMetaTable
{
  public:
    explicit TileMetaTable(const OrderedEdgeList &ordered);

    const std::vector<TileMeta> &tiles() const { return tiles_; }

    std::uint64_t
    totalNnz() const
    {
        return totalNnz_;
    }

  private:
    std::vector<TileMeta> tiles_;
    std::uint64_t totalNnz_ = 0;
};

} // namespace graphr

#endif // GRAPHR_GRAPHR_TILE_META_HH
