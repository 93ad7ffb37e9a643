#include "tile_plan.hh"

#include <utility>

#include "common/logging.hh"

namespace graphr
{

TilePlan::TilePlan(const CooGraph &graph, const TilingParams &tiling)
    : partition(graph.numVertices(), tiling),
      ordered(graph, partition), meta(ordered),
      fingerprint(graphFingerprint(graph))
{
}

TilePlan::TilePlan(VertexId num_vertices, const TilingParams &tiling,
                   std::vector<Edge> edges,
                   std::vector<TileSpan> tile_spans,
                   std::vector<TileMeta> tile_meta,
                   std::uint64_t total_nnz,
                   std::uint64_t graph_fingerprint)
    : partition(num_vertices, tiling),
      ordered(partition, std::move(edges), std::move(tile_spans)),
      meta(std::move(tile_meta), total_nnz),
      fingerprint(graph_fingerprint)
{
    GRAPHR_ASSERT(ordered.tiles().size() == meta.tiles().size(),
                  "tile directory and metadata table disagree");
}

TilePlan::TilePlan(VertexId num_vertices, const TilingParams &tiling,
                   TileChunkSource &chunks,
                   std::uint64_t graph_fingerprint)
    : partition(num_vertices, tiling), ordered(partition, chunks),
      meta(ordered), fingerprint(graph_fingerprint)
{
}

std::size_t
TilePlan::footprintBytes() const
{
    std::size_t bytes = ordered.edges().size() * sizeof(Edge) +
                        ordered.tiles().size() * sizeof(TileSpan);
    for (const TileMeta &tile : meta.tiles())
        bytes += sizeof(TileMeta) +
                 tile.rowNnz.size() * sizeof(std::uint32_t);
    return bytes;
}

} // namespace graphr
