/**
 * @file
 * Functional graph engine: a bank of crossbars spanning one tile.
 *
 * A tile (paper "subgraph") is C rows x (C*N*G) columns; the full GE
 * array of one GraphR node covers it with N*G crossbars of C columns
 * each. This class implements the *functional* behaviour — program a
 * tile, run parallel-MAC or parallel-add-op over it — and counts the
 * device events (writes, reads, ADC samples, S/A, sALU, register
 * accesses) into an EnergyLedger. Timing is derived by the node-level
 * cost model from the same counts.
 *
 * A tile holds a few dozen edges spread over thousands of columns, so
 * every operation's cost follows the occupied cells: a tile is held as
 * a compact TileImage, and loads, clears, MVMs and reduces walk only
 * the crossbars that image occupies.
 */

#ifndef GRAPHR_RRAM_GRAPH_ENGINE_HH
#define GRAPHR_RRAM_GRAPH_ENGINE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/fixed_point.hh"
#include "graph/edge.hh"
#include "rram/crossbar.hh"
#include "rram/energy.hh"
#include "rram/salu.hh"

namespace graphr
{

/**
 * How parallel (duplicate) edges are merged into one matrix cell. A
 * crossbar cell can hold only one value, so multigraph edges must be
 * combined consistently with the algorithm's reduce function: kSum
 * for additive reduces (parallel MAC), kMin for min reduces
 * (parallel add-op).
 */
enum class CombineMode
{
    kSum,
    kMin,
};

/** Per-tile device activity summary (feeds the cost model). */
struct TileActivity
{
    std::uint32_t crossbarsUsed = 0;   ///< crossbars with >= 1 nonzero
    std::uint32_t maxRowsProgrammed = 0; ///< serial row-write depth
    std::uint64_t cellWrites = 0;      ///< logical values programmed
    std::uint64_t rowWriteOps = 0;     ///< array-level row writes
    std::uint64_t readPasses = 0;      ///< array read operations
    std::uint64_t adcSamples = 0;
    std::uint64_t saluOps = 0;
};

/**
 * One programmed cell of a tile image (8 bytes): the merged,
 * quantised weight of every edge that maps to (row, col).
 */
struct ImageCell
{
    std::uint32_t col = 0;   ///< tile-relative column
    FixedPoint::Raw raw = 0; ///< quantised weight
    std::uint8_t row = 0;    ///< tile-relative row (< C <= 64)
};
static_assert(sizeof(ImageCell) == 8, "tile images stay compact");

/**
 * The programmed state of one tile: its cells in tile order
 * (ascending column, then row), one per occupied (row, col). Cells
 * whose weight quantises to zero are kept — they are present edges
 * for the add-op datapath. Programming draws no randomness
 * (variation is drawn when a cell is read), so an image depends only
 * on the tile's edges, their weights and the weight quantisation: a
 * run builds each tile's image once and loads it on every visit.
 */
using TileImage = std::vector<ImageCell>;

/**
 * Functional model of the full GE array of a GraphR node operating on
 * one tile at a time.
 */
class GraphEngineArray
{
  public:
    /**
     * @param crossbar_dim C
     * @param num_crossbars N*G (crossbars across all GEs)
     * @param params device parameters
     * @param ledger energy event sink (must outlive this object)
     */
    GraphEngineArray(std::uint32_t crossbar_dim,
                     std::uint32_t num_crossbars,
                     const DeviceParams &params, EnergyLedger &ledger);

    std::uint32_t crossbarDim() const { return crossbarDim_; }
    std::uint32_t numCrossbars() const
    {
        return static_cast<std::uint32_t>(crossbars_.size());
    }
    /** Tile width in values = C * numCrossbars. */
    std::uint64_t tileWidth() const
    {
        return static_cast<std::uint64_t>(crossbarDim_) * numCrossbars();
    }

    /**
     * Merge and quantise a tile's edges into its image. Edge
     * coordinates are absolute; the tile origin (row0, col0) maps
     * them into [0, C) x [0, tileWidth). Parallel edges are combined
     * per @p combine in input order (sum for additive reduces, min
     * for relaxation) before quantisation with weight_frac_bits
     * fractional bits. In tile order — what the preprocessing sort
     * emits — parallel edges are neighbours and the merge is one
     * linear pass; other orders are first stably sorted into it.
     * Touches no device state.
     *
     * @param weights per-edge weights replacing Edge::weight (same
     *        length as @p edges), or empty to use the edge weights
     */
    TileImage makeImage(std::span<const Edge> edges,
                        std::span<const double> weights,
                        std::uint64_t row0, std::uint64_t col0,
                        int weight_frac_bits,
                        CombineMode combine) const;

    /**
     * Make @p image the evaluation target: clear the crossbars (and
     * their presence rows) the previous image occupied and write this
     * image's cells. Charges no device events — a run's images stay
     * resident, so a visit switches banks rather than reprogramming.
     * Cost follows the two images' cells, not the tile width.
     */
    void loadImage(const TileImage &image);

    /**
     * Program a tile's edges: makeImage() + loadImage(), charging the
     * row writes to the ledger. Returns the programming activity.
     */
    TileActivity programTile(std::span<const Edge> edges,
                             std::uint64_t row0, std::uint64_t col0,
                             int weight_frac_bits,
                             CombineMode combine = CombineMode::kSum);

    /** Crossbars the loaded image occupies, ascending. */
    std::span<const std::uint32_t>
    occupiedCrossbars() const
    {
        return occupied_;
    }

    /**
     * Parallel MAC over the loaded tile: y[col] += x[row] *
     * W[row][col] for all columns at once (paper section 4.1).
     * Only occupied crossbars are evaluated: @p out receives C column
     * sums per occupiedCrossbars() entry, in that order (crossbar
     * occupiedCrossbars()[i] fills out[i*C, (i+1)*C)); every other
     * column of the tile is zero. Device events are charged for the
     * whole array, as the hardware evaluates every crossbar.
     *
     * @param input per-row real inputs (length C), quantised with
     *        input_frac_bits
     * @param weight_frac_bits must match the image's quantisation
     */
    void runMacInto(const std::vector<double> &input,
                    int input_frac_bits, int weight_frac_bits,
                    std::vector<double> &out);

    /** runMacInto() scattered into all tileWidth() columns (tests). */
    std::vector<double> runMac(const std::vector<double> &input,
                               int input_frac_bits, int weight_frac_bits);

    /**
     * Parallel add-op for one active source row (paper section 4.2,
     * Fig. 16(c)): dist_u + W[row][col] for every column that holds
     * an edge, +infinity for the others. Same occupied-crossbar
     * layout of @p out as runMacInto().
     *
     * @param row tile-relative source row
     * @param dist_u current distance label of the source
     * @param weight_frac_bits the image's quantisation
     */
    void runAddOpInto(std::uint32_t row, double dist_u,
                      int weight_frac_bits, std::vector<double> &out);

    /** runAddOpInto() scattered into all tileWidth() columns. */
    std::vector<double> runAddOp(std::uint32_t row, double dist_u,
                                 int weight_frac_bits);

    /** Mask of columns holding an edge in the given row. */
    std::vector<bool> rowMask(std::uint32_t row) const;

    /** sALU shared by the node (configured per algorithm). */
    Salu &salu() { return salu_; }

    /** Enable cell programming variation on all crossbars. */
    void setVariation(double sigma_levels, std::uint64_t seed);

  private:
    /** Presence word of (crossbar, row): bit c = column c holds an
     *  edge. */
    std::uint64_t &
    presence(std::uint32_t cb, std::uint32_t row)
    {
        return presence_[static_cast<std::size_t>(cb) * crossbarDim_ +
                         row];
    }

    /** Dense tileWidth() copy of an occupied-crossbar output. */
    std::vector<double> scatter(const std::vector<double> &occupied,
                                double absent) const;

    std::uint32_t crossbarDim_;
    DeviceParams params_;
    EnergyLedger &ledger_;
    std::vector<Crossbar> crossbars_;
    /**
     * One presence word per (crossbar, row), crossbar-major. Only the
     * occupied crossbars' words can be nonzero.
     */
    std::vector<std::uint64_t> presence_;
    /**
     * Crossbars holding >= 1 cell of the loaded image, ascending.
     * Empty crossbars produce all-zero MVM columns and never touch
     * the variation RNG (level-0 cells read exactly), so compute,
     * clears and reduces touch only these.
     */
    std::vector<std::uint32_t> occupied_;
    /** Scratch sized once at construction (no per-call allocation):
     *  quantised inputs, one crossbar's column sums, one row read. */
    std::vector<FixedPoint::Raw> rawIn_;
    std::vector<std::uint64_t> columnSums_;
    std::vector<FixedPoint::Raw> rowRead_;
    Salu salu_{SaluOp::kAdd};
};

} // namespace graphr

#endif // GRAPHR_RRAM_GRAPH_ENGINE_HH
