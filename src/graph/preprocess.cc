#include "preprocess.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/logging.hh"
#include "perf/counters.hh"

namespace graphr
{

namespace
{

/** Counts every preprocessing sort, process-wide. */
std::atomic<std::uint64_t> g_sorts_performed{0};

} // namespace

std::uint64_t
OrderedEdgeList::sortsPerformed()
{
    return g_sorts_performed.load(std::memory_order_relaxed);
}

OrderedEdgeList::OrderedEdgeList(const CooGraph &graph,
                                 const GridPartition &partition)
    : partition_(partition)
{
    GRAPHR_ASSERT(graph.numVertices() == partition.numVertices(),
                  "partition built for |V|=", partition.numVertices(),
                  " but graph has |V|=", graph.numVertices());
    g_sorts_performed.fetch_add(1, std::memory_order_relaxed);
    static perf::Counter &sorts =
        perf::Registry::instance().counter("preprocess.sorts");
    sorts.add();

    // A stable LSD radix sort of (I(i, j), input index) pairs, 16
    // bits per pass: each pass is O(E), and there are
    // ceil(bits(max key) / 16) passes, so two whenever the padded grid
    // has at most 2^32 cells. Equal keys keep their input order.
    // Moving memory is the sort's main cost, so: the first pass's
    // histogram is counted while the keys are made; the input index
    // of an entry is only stored once a pass has moved it; and the
    // last pass scatters the edges themselves.
    constexpr unsigned kDigitBits = 16;
    constexpr std::uint64_t kDigitMask = (1u << kDigitBits) - 1;
    const std::span<const Edge> input = graph.edges();
    const std::size_t n = input.size();
    GRAPHR_ASSERT(n <= UINT32_MAX,
                  "preprocessing indexes edges with 32 bits");
    auto keys = std::make_unique_for_overwrite<std::uint64_t[]>(n);
    std::vector<std::uint32_t> offsets(kDigitMask + 1, 0);
    std::uint64_t max_key = 0;
    for (std::size_t e = 0; e < n; ++e) {
        const std::uint64_t key =
            partition_.globalOrderId(input[e].src, input[e].dst);
        keys[e] = key;
        max_key = std::max(max_key, key);
        ++offsets[key & kDigitMask];
    }

    edges_.resize(n);
    const unsigned passes =
        (std::bit_width(max_key) + kDigitBits - 1) / kDigitBits;
    if (passes == 0)
        std::copy(input.begin(), input.end(), edges_.begin());
    auto keys_out = std::make_unique_for_overwrite<std::uint64_t[]>(n);
    // perm[i] is the input index of keys[i] (i itself before pass 0).
    std::unique_ptr<std::uint32_t[]> perm;
    std::unique_ptr<std::uint32_t[]> perm_out;
    for (unsigned pass = 0; pass < passes; ++pass) {
        const unsigned shift = pass * kDigitBits;
        if (pass != 0) {
            std::fill(offsets.begin(), offsets.end(), 0);
            for (std::size_t i = 0; i < n; ++i)
                ++offsets[(keys[i] >> shift) & kDigitMask];
        }
        std::uint32_t sum = 0;
        for (std::uint32_t &slot : offsets)
            sum += std::exchange(slot, sum);
        const bool last = pass + 1 == passes;
        if (!last && !perm_out)
            perm_out = std::make_unique_for_overwrite<std::uint32_t[]>(n);
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t at =
                offsets[(keys[i] >> shift) & kDigitMask]++;
            const auto from =
                pass == 0 ? static_cast<std::uint32_t>(i) : perm[i];
            keys_out[at] = keys[i];
            if (last)
                edges_[at] = input[from];
            else
                perm_out[at] = from;
        }
        keys.swap(keys_out);
        perm.swap(perm_out);
    }

    // One pass over the sorted keys, dividing only where a tile starts.
    const std::uint64_t capacity = partition_.tileCapacity();
    std::uint64_t tile_start = 0;
    for (std::size_t e = 0; e < n; ++e) {
        if (tiles_.empty() || keys[e] - tile_start >= capacity) {
            const std::uint64_t tile = keys[e] / capacity;
            tiles_.push_back(TileSpan{tile, e, 0});
            tile_start = tile * capacity;
        }
        ++tiles_.back().numEdges;
    }
}

OrderedEdgeList::OrderedEdgeList(const GridPartition &partition,
                                 std::vector<Edge> edges,
                                 std::vector<TileSpan> tiles)
    : partition_(partition), edges_(std::move(edges)),
      tiles_(std::move(tiles))
{
}

OrderedEdgeList::OrderedEdgeList(const GridPartition &partition,
                                 TileChunkSource &chunks)
    : partition_(partition)
{
    edges_.reserve(chunks.totalEdges());
    tiles_.reserve(chunks.totalTiles());
    TileChunkSource::Chunk chunk;
    while (chunks.next(chunk)) {
        tiles_.push_back(TileSpan{chunk.tileIndex, edges_.size(),
                                  chunk.edges.size()});
        edges_.insert(edges_.end(), chunk.edges.begin(),
                      chunk.edges.end());
    }
}

double
OrderedEdgeList::occupancy() const
{
    if (tiles_.empty())
        return 0.0;
    const double nnz = static_cast<double>(edges_.size());
    const double cells = static_cast<double>(tiles_.size()) *
                         static_cast<double>(partition_.tileCapacity());
    return nnz / cells;
}

std::vector<TileSpan>
OrderedEdgeList::tilesOfBlock(std::uint64_t block_index) const
{
    // The directory is sorted by tile index and a block's tiles are
    // the contiguous index range [BI * tilesPerBlock, next block).
    const std::uint64_t per_block = partition_.tilesPerBlock();
    const auto by_index = [](const TileSpan &span, std::uint64_t index) {
        return span.tileIndex < index;
    };
    const auto first = std::lower_bound(tiles_.begin(), tiles_.end(),
                                        block_index * per_block, by_index);
    const auto last = std::lower_bound(first, tiles_.end(),
                                       (block_index + 1) * per_block,
                                       by_index);
    return std::vector<TileSpan>(first, last);
}

} // namespace graphr
