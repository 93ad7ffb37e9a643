#include "tile_meta.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/logging.hh"

namespace graphr
{

TileMetaTable::TileMetaTable(const OrderedEdgeList &ordered)
{
    const GridPartition &part = ordered.partition();
    const std::uint32_t dim = part.crossbarDim();
    GRAPHR_ASSERT(dim <= 64, "tile row mask supports C <= 64");
    constexpr std::uint64_t kNone = ~std::uint64_t{0};

    // Edges are column-major within a tile, so one pass sees each
    // column, and each crossbar (C adjacent columns), as one run:
    // distinct columns are column transitions, and a crossbar's row
    // mask is complete when the run of its columns ends.
    tiles_.reserve(ordered.tiles().size());
    for (const TileSpan &span : ordered.tiles()) {
        TileMeta meta;
        meta.tileIndex = span.tileIndex;
        meta.nnz = span.numEdges;
        totalNnz_ += span.numEdges;

        const TileCoord coord = part.tileCoord(span.tileIndex);
        part.tileOrigin(coord, meta.row0, meta.col0);
        meta.rowNnz.assign(dim, 0);

        std::uint64_t prev_col = kNone;
        std::uint64_t cb_rows = 0;
        const auto flush_crossbar = [&meta, &cb_rows] {
            if (cb_rows == 0)
                return;
            ++meta.crossbarsUsed;
            meta.maxRowsProgrammed = std::max(
                meta.maxRowsProgrammed,
                static_cast<std::uint32_t>(std::popcount(cb_rows)));
            cb_rows = 0;
        };
        for (const Edge &e : ordered.tileEdges(span)) {
            const std::uint64_t row = e.src - meta.row0;
            const std::uint64_t col = e.dst - meta.col0;
            GRAPHR_ASSERT(row < dim && col < part.tileWidth(),
                          "edge outside its tile");
            if (col != prev_col) {
                GRAPHR_ASSERT(prev_col == kNone || col > prev_col,
                              "tile edges out of streaming order");
                if (col / dim != prev_col / dim)
                    flush_crossbar();
                ++meta.nnzColumns;
                prev_col = col;
            }
            meta.rowMask |= std::uint64_t{1} << row;
            ++meta.rowNnz[row];
            cb_rows |= std::uint64_t{1} << row;
        }
        flush_crossbar();
        tiles_.push_back(std::move(meta));
    }
}

} // namespace graphr
