#include "tile_meta.hh"

#include <algorithm>
#include <bit>
#include <unordered_set>
#include <utility>

#include "common/logging.hh"

namespace graphr
{

TileMetaTable::TileMetaTable(const OrderedEdgeList &ordered)
{
    const GridPartition &part = ordered.partition();
    const std::uint32_t dim = part.crossbarDim();
    GRAPHR_ASSERT(dim <= 64, "tile row mask supports C <= 64");
    const std::uint64_t num_crossbars = part.tileWidth() / dim;

    tiles_.reserve(ordered.tiles().size());
    std::vector<std::uint64_t> cb_rows(num_crossbars, 0);
    for (const TileSpan &span : ordered.tiles()) {
        TileMeta meta;
        meta.tileIndex = span.tileIndex;
        meta.nnz = span.numEdges;
        totalNnz_ += span.numEdges;

        const TileCoord coord = part.tileCoord(span.tileIndex);
        part.tileOrigin(coord, meta.row0, meta.col0);
        meta.rowNnz.assign(dim, 0);

        std::fill(cb_rows.begin(), cb_rows.end(), 0);
        std::unordered_set<std::uint64_t> cols;
        for (const Edge &e : ordered.tileEdges(span)) {
            const std::uint64_t row = e.src - meta.row0;
            const std::uint64_t col = e.dst - meta.col0;
            GRAPHR_ASSERT(row < dim && col < part.tileWidth(),
                          "edge outside its tile");
            meta.rowMask |= std::uint64_t{1} << row;
            ++meta.rowNnz[row];
            cb_rows[col / dim] |= std::uint64_t{1} << row;
            cols.insert(col);
        }
        meta.nnzColumns = cols.size();
        for (std::uint64_t mask : cb_rows) {
            if (mask == 0)
                continue;
            ++meta.crossbarsUsed;
            meta.maxRowsProgrammed = std::max(
                meta.maxRowsProgrammed,
                static_cast<std::uint32_t>(std::popcount(mask)));
        }
        tiles_.push_back(std::move(meta));
    }
}

} // namespace graphr
