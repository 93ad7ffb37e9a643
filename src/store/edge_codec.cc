#include "edge_codec.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>

#include "common/failpoint.hh"
#include "common/logging.hh"
#include "perf/counters.hh"

namespace graphr
{

namespace
{

constexpr unsigned kWeightAllOnes = 0;  ///< every weight is 1.0
constexpr unsigned kWeightConstant = 1; ///< one shared bit pattern
constexpr unsigned kWeightRaw = 2;      ///< per-edge f64 bits

/** LEB128 append. */
void
putVarint(std::vector<unsigned char> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<unsigned char>(v) | 0x80u);
        v >>= 7;
    }
    out.push_back(static_cast<unsigned char>(v));
}

void
putU64(std::vector<unsigned char> &out, std::uint64_t v)
{
    const std::size_t at = out.size();
    out.resize(at + 8);
    std::memcpy(out.data() + at, &v, 8);
}

/** LSB-first bit packer for the fixed-width low-bits plane. */
class BitWriter
{
  public:
    explicit BitWriter(std::vector<unsigned char> &out) : out_(out) {}

    void
    put(std::uint64_t v, unsigned k)
    {
        // nbits_ stays < 8, so a single shift is safe up to k = 56;
        // wider fields (possible only for degenerate huge tilings)
        // split into two chunks.
        if (k > 56) {
            put(v & ((std::uint64_t{1} << 56) - 1), 56);
            put(v >> 56, k - 56);
            return;
        }
        if (k == 0)
            return;
        acc_ |= (k < 64 ? (v & ((std::uint64_t{1} << k) - 1)) : v)
                << nbits_;
        nbits_ += k;
        while (nbits_ >= 8) {
            out_.push_back(static_cast<unsigned char>(acc_));
            acc_ >>= 8;
            nbits_ -= 8;
        }
    }

    void
    flush()
    {
        if (nbits_ > 0) {
            out_.push_back(static_cast<unsigned char>(acc_));
            acc_ = 0;
            nbits_ = 0;
        }
    }

  private:
    std::vector<unsigned char> &out_;
    std::uint64_t acc_ = 0;
    unsigned nbits_ = 0;
};

/** LSB-first bit reader over a fixed byte range (pre-validated). */
class BitReader
{
  public:
    BitReader(const unsigned char *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    std::uint64_t
    get(unsigned k)
    {
        if (k > 56)
            return get(56) | (get(k - 56) << 56);
        while (nbits_ < k) {
            // The plane's byte count was bounds-checked up front, so
            // running dry here cannot happen for in-range reads.
            acc_ |= static_cast<std::uint64_t>(
                        pos_ < size_ ? data_[pos_] : 0u)
                    << nbits_;
            ++pos_;
            nbits_ += 8;
        }
        const std::uint64_t v =
            k == 0 ? 0
                   : acc_ & ((std::uint64_t{1} << k) - 1);
        acc_ >>= k;
        nbits_ -= k;
        return v;
    }

  private:
    const unsigned char *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    std::uint64_t acc_ = 0;
    unsigned nbits_ = 0;
};

/**
 * Pick the low-bits width k minimising the estimated tile size: every
 * delta pays k packed bits, and each delta wider than k pays an
 * exception (its high part as a varint plus ~one run-length byte).
 * The estimate only has to be deterministic and reasonable — the
 * chosen k is written into the tile's flags, so the decoder never
 * re-derives it.
 */
unsigned
chooseLowBits(const std::uint64_t *deltas, std::size_t m)
{
    if (m == 0)
        return 0;
    std::size_t hist[65] = {};
    unsigned max_width = 0;
    for (std::size_t i = 0; i < m; ++i) {
        const unsigned w =
            static_cast<unsigned>(std::bit_width(deltas[i]));
        ++hist[w];
        max_width = std::max(max_width, w);
    }
    unsigned best_k = 0;
    std::uint64_t best_cost = ~std::uint64_t{0};
    for (unsigned k = 0; k <= max_width; ++k) {
        std::uint64_t cost = static_cast<std::uint64_t>(m) * k;
        for (unsigned w = k + 1; w <= max_width; ++w) {
            // High part is w-k bits -> ceil((w-k)/7) varint bytes,
            // plus one run-length byte of bookkeeping.
            cost += static_cast<std::uint64_t>(hist[w]) *
                    (((w - k + 6) / 7 + 1) * 8);
        }
        if (cost < best_cost) {
            best_cost = cost;
            best_k = k;
        }
    }
    return best_k;
}

[[noreturn]] void
malformedInput(const std::string &why)
{
    throw CodecError("edge codec: " + why);
}

/**
 * One encoder pass over the whole tile directory. @p raw_weights
 * forces weight mode 2 on every tile instead of the cheapest mode.
 */
std::vector<unsigned char>
encodeTiles(const GridPartition &partition, std::span<const Edge> edges,
            std::span<const TileSpan> tiles, bool raw_weights)
{
    const std::uint64_t one_bits = std::bit_cast<std::uint64_t>(1.0);
    const std::uint32_t dim = partition.crossbarDim();
    const std::uint64_t width = partition.tileWidth();
    const std::uint64_t capacity = partition.tileCapacity();

    std::vector<unsigned char> out;
    // Dense small deltas dominate, so ~2 bytes/edge is a generous
    // first reservation; the vector grows for exception-heavy tiles.
    out.reserve(16 + 2 * edges.size());
    putVarint(out, tiles.size());
    putVarint(out, edges.size());

    std::vector<std::uint64_t> locals;
    std::vector<std::uint64_t> deltas;
    std::uint64_t prev_tile = 0;
    std::uint64_t covered = 0;
    for (std::size_t t = 0; t < tiles.size(); ++t) {
        const TileSpan &span = tiles[t];
        if (span.numEdges == 0 || span.firstEdge != covered ||
            span.numEdges > edges.size() - covered)
            malformedInput("tile directory is not a contiguous cover");
        if (span.tileIndex >= partition.numTiles() ||
            (t > 0 && span.tileIndex <= prev_tile))
            malformedInput("tile directory out of streaming order");
        covered += span.numEdges;

        std::uint64_t row0 = 0;
        std::uint64_t col0 = 0;
        partition.tileOrigin(partition.tileCoord(span.tileIndex),
                             row0, col0);

        // Local cell IDs (column-major within the tile) and their
        // deltas; also classify the tile's weights in the same pass.
        locals.clear();
        locals.reserve(span.numEdges);
        bool all_ones = true;
        bool constant = true;
        std::uint64_t first_weight = 0;
        for (std::uint64_t e = span.firstEdge;
             e < span.firstEdge + span.numEdges; ++e) {
            const Edge &edge = edges[e];
            const std::uint64_t row = edge.src - row0;
            const std::uint64_t col = edge.dst - col0;
            if (row >= dim || col >= width)
                malformedInput("edge outside its tile window");
            locals.push_back(row + col * dim);
            const std::uint64_t bits = std::bit_cast<std::uint64_t>(
                static_cast<double>(edge.weight));
            if (e == span.firstEdge)
                first_weight = bits;
            all_ones &= bits == one_bits;
            constant &= bits == first_weight;
        }
        deltas.clear();
        deltas.reserve(locals.size());
        for (std::size_t i = 1; i < locals.size(); ++i) {
            if (locals[i] < locals[i - 1])
                malformedInput("tile edges out of streaming order");
            deltas.push_back(locals[i] - locals[i - 1]);
        }
        GRAPHR_ASSERT(locals.front() < capacity &&
                          locals.back() < capacity,
                      "local cell id exceeds tile capacity");

        const unsigned mode = raw_weights ? kWeightRaw
                              : all_ones  ? kWeightAllOnes
                              : constant  ? kWeightConstant
                                          : kWeightRaw;
        const unsigned k = chooseLowBits(deltas.data(), deltas.size());

        putVarint(out, t == 0 ? span.tileIndex
                              : span.tileIndex - prev_tile);
        prev_tile = span.tileIndex;
        putVarint(out, span.numEdges);
        out.push_back(static_cast<unsigned char>(mode | (k << 2)));
        putVarint(out, locals.front());
        if (mode == kWeightConstant)
            putU64(out, first_weight);

        BitWriter plane(out);
        for (const std::uint64_t d : deltas)
            plane.put(d, k);
        plane.flush();

        // Zero-run/varint exception stream over the high parts.
        std::size_t i = 0;
        while (i < deltas.size()) {
            std::size_t run = 0;
            while (i + run < deltas.size() &&
                   (deltas[i + run] >> k) == 0)
                ++run;
            putVarint(out, run);
            i += run;
            if (i < deltas.size()) {
                putVarint(out, deltas[i] >> k);
                ++i;
            }
        }

        if (mode == kWeightRaw) {
            for (std::uint64_t e = span.firstEdge;
                 e < span.firstEdge + span.numEdges; ++e) {
                putU64(out, std::bit_cast<std::uint64_t>(
                                static_cast<double>(
                                    edges[e].weight)));
            }
        }
    }
    if (covered != edges.size())
        malformedInput("tile directory does not cover the edge list");
    return out;
}

} // namespace

std::vector<unsigned char>
encodeEdgeStream(const GridPartition &partition,
                 std::span<const Edge> edges,
                 std::span<const TileSpan> tiles)
{
    static perf::Counter &encoded =
        perf::Registry::instance().counter("store.codec.encoded_edges");

    std::vector<unsigned char> out =
        encodeTiles(partition, edges, tiles, false);
    // A stream so duplicate-heavy that it trips the decoder's expansion
    // bound is re-encoded with raw per-edge weights (>= 8 bytes/edge),
    // so every stream emitted here is one the decoder accepts.
    if (edges.size() > out.size() * kMaxEdgesPerStreamByte)
        out = encodeTiles(partition, edges, tiles, true);
    encoded.add(edges.size());
    return out;
}

EdgeStreamDecoder::EdgeStreamDecoder(const GridPartition &partition,
                                     const unsigned char *data,
                                     std::size_t size)
    : partition_(partition), data_(data), size_(size)
{
    tileCount_ = readVarint("tile count");
    edgeCount_ = readVarint("edge count");
    if (tileCount_ > edgeCount_)
        malformedInput("more tiles than edges declared");
    if (tileCount_ == 0 && edgeCount_ != 0)
        malformedInput("edges declared but no tiles");
    // Allocation safety: bound the declared totals by what the byte
    // count could plausibly encode before reserving anything.
    if (edgeCount_ > size_ * kMaxEdgesPerStreamByte)
        malformedInput("declared edge count implausible for stream "
                       "size");
    if (tileCount_ > size_ / 4)
        malformedInput("declared tile count implausible for stream "
                       "size");
}

std::uint64_t
EdgeStreamDecoder::readVarint(const char *what)
{
    std::uint64_t v = 0;
    unsigned shift = 0;
    for (;;) {
        if (pos_ >= size_)
            malformedInput(std::string("truncated varint (") + what +
                           ")");
        const unsigned char byte = data_[pos_++];
        if (shift == 63 && byte > 1)
            malformedInput(std::string("varint overflows 64 bits (") +
                           what + ")");
        v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0)
            return v;
        shift += 7;
        if (shift > 63)
            malformedInput(std::string("varint overflows 64 bits (") +
                           what + ")");
    }
}

bool
EdgeStreamDecoder::next(Chunk &chunk)
{
    if (GRAPHR_FAILPOINT("store.decode.fail"))
        malformedInput("injected decode fault (store.decode.fail)");

    if (tilesDecoded_ == tileCount_) {
        if (edgesDecoded_ != edgeCount_)
            malformedInput("stream ended short of its declared edge "
                           "count");
        if (pos_ != size_)
            malformedInput("trailing bytes after the final tile");
        return false;
    }

    const std::uint64_t gap = readVarint("tile index");
    std::uint64_t tile_index;
    if (tilesDecoded_ == 0) {
        tile_index = gap;
    } else {
        if (gap == 0)
            malformedInput("tile directory out of streaming order");
        if (gap > ~std::uint64_t{0} - prevTileIndex_)
            malformedInput("tile index overflows");
        tile_index = prevTileIndex_ + gap;
    }
    if (tile_index >= partition_.numTiles())
        malformedInput("tile index outside the grid");

    const std::uint64_t n = readVarint("tile edge count");
    if (n == 0)
        malformedInput("empty tile record");
    if (n > edgeCount_ - edgesDecoded_)
        malformedInput("tile edge counts exceed the declared total");

    if (pos_ >= size_)
        malformedInput("truncated tile flags");
    const unsigned char flags = data_[pos_++];
    const unsigned mode = flags & 0x3u;
    const unsigned k = flags >> 2;
    if (mode > kWeightRaw)
        malformedInput("unknown weight mode");

    const std::uint64_t capacity = partition_.tileCapacity();
    std::uint64_t local = readVarint("first local id");
    if (local >= capacity)
        malformedInput("local cell id exceeds tile capacity");

    std::uint64_t weight_bits = std::bit_cast<std::uint64_t>(1.0);
    if (mode == kWeightConstant) {
        if (size_ - pos_ < 8)
            malformedInput("truncated constant weight");
        std::memcpy(&weight_bits, data_ + pos_, 8);
        pos_ += 8;
    }

    const std::uint64_t m = n - 1;
    const std::size_t plane_bytes =
        static_cast<std::size_t>((m * k + 7) / 8);
    if (size_ - pos_ < plane_bytes)
        malformedInput("truncated low-bits plane");
    BitReader plane(data_ + pos_, plane_bytes);
    pos_ += plane_bytes;

    // High parts, zero-run/varint coded. Decoded into a scratch list
    // first because the raw weights (mode 2) follow this stream and
    // cannot be located until it has been fully parsed.
    highs_.assign(m, 0);
    std::uint64_t i = 0;
    while (i < m) {
        const std::uint64_t run = readVarint("zero-run length");
        if (run > m - i)
            malformedInput("zero run exceeds the tile's deltas");
        i += run;
        if (i < m) {
            const std::uint64_t high = readVarint("delta high part");
            if (high == 0)
                malformedInput("non-canonical zero exception");
            highs_[i] = high;
            ++i;
        }
    }

    std::uint64_t row0 = 0;
    std::uint64_t col0 = 0;
    partition_.tileOrigin(partition_.tileCoord(tile_index), row0,
                          col0);
    const std::uint32_t dim = partition_.crossbarDim();
    const std::uint64_t vertices = partition_.numVertices();
    const double weight = std::bit_cast<double>(weight_bits);

    scratch_.resize(n);
    const std::uint64_t max_delta = capacity - 1;
    for (std::uint64_t e = 0; e < n; ++e) {
        if (e > 0) {
            const std::uint64_t high = highs_[e - 1];
            if (k >= 64 ? high != 0 : high > (max_delta >> k))
                malformedInput("delta exceeds tile capacity");
            const std::uint64_t delta =
                (high << k) | plane.get(k);
            if (delta > max_delta - local)
                malformedInput("local cell id exceeds tile capacity");
            local += delta;
        }
        const std::uint64_t src = row0 + local % dim;
        const std::uint64_t dst = col0 + local / dim;
        if (src >= vertices || dst >= vertices)
            malformedInput("edge endpoint outside the vertex range");
        scratch_[e].src = static_cast<VertexId>(src);
        scratch_[e].dst = static_cast<VertexId>(dst);
        scratch_[e].weight = weight;
    }
    if (mode == kWeightRaw) {
        if ((size_ - pos_) / 8 < n)
            malformedInput("truncated raw weights");
        for (std::uint64_t e = 0; e < n; ++e) {
            std::uint64_t bits = 0;
            std::memcpy(&bits, data_ + pos_, 8);
            pos_ += 8;
            scratch_[e].weight = std::bit_cast<double>(bits);
        }
    }

    static perf::Counter &decoded_edges =
        perf::Registry::instance().counter("store.codec.decoded_edges");
    static perf::Counter &decoded_tiles =
        perf::Registry::instance().counter("store.codec.decoded_tiles");
    decoded_edges.add(n);
    decoded_tiles.add();

    prevTileIndex_ = tile_index;
    ++tilesDecoded_;
    edgesDecoded_ += n;
    chunk.tileIndex = tile_index;
    chunk.edges = std::span<const Edge>(scratch_.data(), n);
    return true;
}

} // namespace graphr
