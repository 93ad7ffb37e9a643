#include "graph_engine.hh"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>

#include "common/logging.hh"

namespace graphr
{

GraphEngineArray::GraphEngineArray(std::uint32_t crossbar_dim,
                                   std::uint32_t num_crossbars,
                                   const DeviceParams &params,
                                   EnergyLedger &ledger)
    : crossbarDim_(crossbar_dim), params_(params), ledger_(ledger)
{
    GRAPHR_ASSERT(num_crossbars > 0, "need >= 1 crossbar");
    GRAPHR_ASSERT(crossbarDim_ <= 64,
                  "presence words support crossbars up to 64x64");
    GRAPHR_ASSERT(static_cast<std::uint64_t>(crossbar_dim) *
                          num_crossbars <=
                      std::numeric_limits<std::uint32_t>::max(),
                  "tile width must fit an image cell's column");
    crossbars_.reserve(num_crossbars);
    for (std::uint32_t i = 0; i < num_crossbars; ++i)
        crossbars_.emplace_back(crossbar_dim, params);
    presence_.assign(static_cast<std::size_t>(crossbarDim_) *
                         num_crossbars,
                     0);
    occupied_.reserve(num_crossbars);
    rawIn_.resize(crossbarDim_);
    columnSums_.resize(crossbarDim_);
    rowRead_.resize(crossbarDim_);
}

TileImage
GraphEngineArray::makeImage(std::span<const Edge> edges,
                            std::span<const double> weights,
                            std::uint64_t row0, std::uint64_t col0,
                            int weight_frac_bits,
                            CombineMode combine) const
{
    GRAPHR_ASSERT(weights.empty() || weights.size() == edges.size(),
                  "weights length ", weights.size(), " != edges ",
                  edges.size());
    // Tile-order key of an edge's cell: column-major, as the
    // preprocessing sort lays a tile out.
    const auto key = [&](const Edge &e) {
        GRAPHR_ASSERT(e.src >= row0 && e.src - row0 < crossbarDim_,
                      "edge row ", e.src, " outside tile at ", row0);
        GRAPHR_ASSERT(e.dst >= col0 && e.dst - col0 < tileWidth(),
                      "edge col ", e.dst, " outside tile at ", col0);
        return (e.dst - col0) * crossbarDim_ + (e.src - row0);
    };

    // Visit order: the input order when it is already tile order,
    // else a stable sort into it — stable, so parallel edges still
    // combine in input order.
    std::vector<std::uint32_t> order;
    for (std::size_t i = 1; i < edges.size(); ++i) {
        if (key(edges[i]) < key(edges[i - 1])) {
            order.resize(edges.size());
            std::iota(order.begin(), order.end(), 0u);
            std::stable_sort(order.begin(), order.end(),
                             [&](std::uint32_t a, std::uint32_t b) {
                                 return key(edges[a]) < key(edges[b]);
                             });
            break;
        }
    }

    TileImage image;
    image.reserve(edges.size());
    std::uint64_t cell_key = 0;
    double merged = 0.0;
    const auto emit = [&] {
        image.push_back(ImageCell{
            static_cast<std::uint32_t>(cell_key / crossbarDim_),
            FixedPoint::quantize(merged, weight_frac_bits).raw(),
            static_cast<std::uint8_t>(cell_key % crossbarDim_)});
    };
    for (std::size_t n = 0; n < edges.size(); ++n) {
        const std::size_t i = order.empty() ? n : order[n];
        const double w = weights.empty() ? edges[i].weight : weights[i];
        const std::uint64_t k = key(edges[i]);
        if (n > 0 && k == cell_key) {
            // A crossbar cell holds one value: merge parallel edges.
            merged = combine == CombineMode::kSum ? merged + w
                                                  : std::min(merged, w);
            continue;
        }
        if (n > 0)
            emit();
        cell_key = k;
        merged = w;
    }
    if (!edges.empty())
        emit();
    return image;
}

void
GraphEngineArray::loadImage(const TileImage &image)
{
    for (const std::uint32_t cb : occupied_) {
        crossbars_[cb].clear();
        std::fill_n(&presence(cb, 0), crossbarDim_, std::uint64_t{0});
    }
    occupied_.clear();
    for (const ImageCell &cell : image) {
        const std::uint32_t cb = cell.col / crossbarDim_;
        const std::uint32_t c = cell.col % crossbarDim_;
        if (occupied_.empty() || occupied_.back() != cb) {
            GRAPHR_ASSERT(occupied_.empty() || cb > occupied_.back(),
                          "tile image cells out of tile order");
            occupied_.push_back(cb);
        }
        std::uint64_t &word = presence(cb, cell.row);
        const std::uint64_t bit = std::uint64_t{1} << c;
        GRAPHR_ASSERT((word & bit) == 0, "tile image programs cell (",
                      static_cast<unsigned>(cell.row), ",", cell.col,
                      ") twice");
        word |= bit;
        crossbars_[cb].programValue(cell.row, c,
                                    FixedPoint::fromRaw(cell.raw, 0));
    }
}

TileActivity
GraphEngineArray::programTile(std::span<const Edge> edges,
                              std::uint64_t row0, std::uint64_t col0,
                              int weight_frac_bits, CombineMode combine)
{
    loadImage(makeImage(edges, {}, row0, col0, weight_frac_bits,
                        combine));
    TileActivity activity;
    activity.cellWrites = edges.size();
    activity.crossbarsUsed = static_cast<std::uint32_t>(occupied_.size());
    for (const std::uint32_t cb : occupied_) {
        // One array write op programs a whole occupied wordline (all
        // bitlines, hence all slices of the row's values) at once.
        std::uint32_t rows = 0;
        for (std::uint32_t r = 0; r < crossbarDim_; ++r)
            rows += presence(cb, r) != 0 ? 1u : 0u;
        activity.maxRowsProgrammed =
            std::max(activity.maxRowsProgrammed, rows);
        activity.rowWriteOps += rows;
    }
    ledger_.events().arrayWrites += activity.rowWriteOps;
    return activity;
}

void
GraphEngineArray::runMacInto(const std::vector<double> &input,
                             int input_frac_bits, int weight_frac_bits,
                             std::vector<double> &out)
{
    GRAPHR_ASSERT(input.size() == crossbarDim_, "input length ",
                  input.size(), " != C ", crossbarDim_);
    for (std::uint32_t r = 0; r < crossbarDim_; ++r)
        rawIn_[r] = FixedPoint::quantize(input[r], input_frac_bits).raw();

    const double scale =
        static_cast<double>(1u << input_frac_bits) *
        static_cast<double>(1u << weight_frac_bits);

    out.resize(occupied_.size() * crossbarDim_);
    double *col = out.data();
    for (const std::uint32_t cb : occupied_) {
        crossbars_[cb].mvmRawInto(rawIn_, columnSums_);
        for (std::uint32_t c = 0; c < crossbarDim_; ++c)
            *col++ = static_cast<double>(columnSums_[c]) / scale;
    }

    // The hardware evaluates every crossbar: one array read per input
    // slice, one ADC sample per physical bitline (C values x weight
    // slices) per input slice.
    const std::uint64_t n = crossbars_.size();
    const std::uint64_t samples = static_cast<std::uint64_t>(
                                      params_.inputSlices) *
                                  crossbarDim_ *
                                  params_.slicesPerValue() * n;
    ledger_.events().arrayReads +=
        static_cast<std::uint64_t>(params_.inputSlices) * n;
    ledger_.events().adcSamples += samples;
    ledger_.events().sampleHolds += samples;
    ledger_.events().shiftAdds += tileWidth();
}

void
GraphEngineArray::runAddOpInto(std::uint32_t row, double dist_u,
                               int weight_frac_bits,
                               std::vector<double> &out)
{
    GRAPHR_ASSERT(row < crossbarDim_, "row ", row, " outside tile");
    const double w_scale = static_cast<double>(1u << weight_frac_bits);

    out.resize(occupied_.size() * crossbarDim_);
    double *col = out.data();
    for (const std::uint32_t cb : occupied_) {
        const std::uint64_t present = presence(cb, row);
        std::fill_n(col, crossbarDim_, kInfDistance);
        // A crossbar without an edge in this row reads nothing: its
        // wordline is all level-0 cells (no variation RNG draw).
        if (present != 0) {
            crossbars_[cb].selectRowInto(row, rowRead_);
            for (std::uint64_t m = present; m != 0; m &= m - 1) {
                const int c = std::countr_zero(m);
                // The fixed "1" row adds dist(u) to each weight in
                // analog (paper Fig. 16(c)); functionally that is
                // w + dist_u.
                col[c] =
                    static_cast<double>(rowRead_[c]) / w_scale + dist_u;
            }
        }
        col += crossbarDim_;
    }

    // One array read per crossbar; one ADC sample per bitline.
    const std::uint64_t n = crossbars_.size();
    const std::uint64_t samples =
        static_cast<std::uint64_t>(crossbarDim_) *
        params_.slicesPerValue() * n;
    ledger_.events().arrayReads += n;
    ledger_.events().adcSamples += samples;
    ledger_.events().sampleHolds += samples;
    ledger_.events().shiftAdds += tileWidth();
}

std::vector<double>
GraphEngineArray::scatter(const std::vector<double> &occupied,
                          double absent) const
{
    std::vector<double> dense(tileWidth(), absent);
    for (std::size_t i = 0; i < occupied_.size(); ++i) {
        std::copy_n(occupied.begin() +
                        static_cast<std::ptrdiff_t>(i * crossbarDim_),
                    crossbarDim_,
                    dense.begin() + static_cast<std::ptrdiff_t>(
                                        std::uint64_t{occupied_[i]} *
                                        crossbarDim_));
    }
    return dense;
}

std::vector<double>
GraphEngineArray::runMac(const std::vector<double> &input,
                         int input_frac_bits, int weight_frac_bits)
{
    std::vector<double> out;
    runMacInto(input, input_frac_bits, weight_frac_bits, out);
    return scatter(out, 0.0);
}

std::vector<double>
GraphEngineArray::runAddOp(std::uint32_t row, double dist_u,
                           int weight_frac_bits)
{
    std::vector<double> out;
    runAddOpInto(row, dist_u, weight_frac_bits, out);
    return scatter(out, kInfDistance);
}

std::vector<bool>
GraphEngineArray::rowMask(std::uint32_t row) const
{
    GRAPHR_ASSERT(row < crossbarDim_, "row outside tile");
    std::vector<bool> mask(tileWidth(), false);
    for (const std::uint32_t cb : occupied_) {
        const std::uint64_t present =
            presence_[static_cast<std::size_t>(cb) * crossbarDim_ + row];
        for (std::uint64_t m = present; m != 0; m &= m - 1) {
            mask[std::uint64_t{cb} * crossbarDim_ +
                 static_cast<unsigned>(std::countr_zero(m))] = true;
        }
    }
    return mask;
}

void
GraphEngineArray::setVariation(double sigma_levels, std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (Crossbar &cb : crossbars_)
        cb.setVariation(sigma_levels, s++);
}

} // namespace graphr
