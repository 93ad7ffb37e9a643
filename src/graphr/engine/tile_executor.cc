#include "tile_executor.hh"

#include <algorithm>
#include <bit>
#include <span>

#include "common/logging.hh"
#include "perf/counters.hh"
#include "rram/graph_engine.hh"

namespace graphr
{

namespace
{

/** Bitmask of active rows [row0, row0 + dim) from an active vector. */
std::uint64_t
activeMask(const std::vector<bool> &active, std::uint64_t row0,
           std::uint32_t dim)
{
    std::uint64_t mask = 0;
    const std::uint64_t nv = active.size();
    for (std::uint32_t r = 0; r < dim; ++r) {
        const std::uint64_t v = row0 + r;
        if (v < nv && active[v])
            mask |= std::uint64_t{1} << r;
    }
    return mask;
}

/** Tile images built by functional walks, process-wide: the count
 *  that causes functional programming time (gated by the bench). */
perf::Counter &
tileProgramsCounter()
{
    static perf::Counter &counter =
        perf::Registry::instance().counter("functional.tile_programs");
    return counter;
}

/** Price accumulated events and fill the shared report fields. */
void
finalizeReport(SimReport &report, const DeviceParams &device,
               const EnergyEvents &events)
{
    EnergyLedger ledger(device);
    ledger.events() = events;
    report.events = events;
    report.energy = ledger.breakdown();
    // Peripheral (ADC/driver/controller) active power over busy time.
    report.energy.peripheral =
        device.peripheralActiveWatts * report.seconds;
    report.joules = report.energy.total();
}

} // namespace

/**
 * Functional GE state of one run, sized once when it is built: a
 * scratch ledger (reports are priced by the cost model), the GE array,
 * one image slot per plan tile, and the sweep scratch. Nothing on the
 * per-tile path allocates after the first sweep.
 */
struct TileExecutor::Datapath
{
    EnergyLedger scratch;
    GraphEngineArray ge;
    /** Image of plan tile t, built on the tile's first visit (a
     *  non-empty tile has >= 1 cell, so empty means not yet built). */
    std::vector<TileImage> images;
    /** Per-edge programmed weights of the tile being imaged. */
    std::vector<double> weights;
    /** Inputs of the tile's C rows. */
    std::vector<double> inRows;
    /** Occupied-crossbar outputs of one MVM or add-op read. */
    std::vector<double> partial;

    Datapath(const GraphRConfig &config, const TilePlan &plan,
             bool apply_variation, SaluOp op)
        : scratch(config.device),
          ge(config.tiling.crossbarDim,
             config.tiling.crossbarsPerGe * config.tiling.numGe,
             config.device, scratch),
          images(plan.meta.tiles().size()),
          inRows(config.tiling.crossbarDim, 0.0)
    {
        if (apply_variation && config.variationSigma > 0.0)
            ge.setVariation(config.variationSigma, config.variationSeed);
        ge.salu().configure(op);
        std::uint64_t max_nnz = 0;
        for (const TileMeta &meta : plan.meta.tiles())
            max_nnz = std::max(max_nnz, meta.nnz);
        weights.reserve(max_nnz);
        partial.reserve(ge.tileWidth());
    }
};

TileExecutor::TileExecutor(const GraphRConfig &config, TilePlanPtr plan)
    : config_(config), costModel_(config), plan_(std::move(plan))
{
    GRAPHR_ASSERT(plan_ != nullptr, "executor needs a plan");
}

void
TileExecutor::countTileProgram()
{
    ++stats_.functionalTilePrograms;
    tileProgramsCounter().add();
}

TileExecutor::~TileExecutor() = default;
TileExecutor::TileExecutor(TileExecutor &&) noexcept = default;
TileExecutor &TileExecutor::operator=(TileExecutor &&) noexcept = default;

SimReport
TileExecutor::macReport(const MacSpec &spec) const
{
    SimReport report;
    report.algorithm = spec.name;
    report.iterations = spec.sweeps;
    report.occupancy = plan_->ordered.occupancy();

    // One pass over the tile table yields both the per-sweep compute
    // phase and the programming/streaming (load) phase; the charging
    // policy decides whether the latter repeats per sweep.
    EnergyEvents tile_events;
    double load_ns = 0.0;    // program+stream phase, one sweep
    double compute_ns = 0.0; // evaluation phase, one sweep
    double combined_ns = 0.0; // all phases fused (kPerSweep)
    double prog_ns = 0.0;
    double stream_ns = 0.0;
    for (const TileMeta &meta : plan_->meta.tiles()) {
        const TileCost cost =
            costModel_.macTile(meta, tile_events, spec.passesPerTile);
        prog_ns += cost.programNs;
        stream_ns += cost.streamNs;
        compute_ns += cost.computeNs;
        combined_ns += cost.totalNs(config_.pipelineTiles);
        load_ns += config_.pipelineTiles
                       ? std::max(cost.overlappedProgramNs,
                                  cost.streamNs)
                       : cost.programNs + cost.streamNs;
    }

    const double sweeps_d = static_cast<double>(spec.sweeps);
    const double overhead_ns =
        costModel_.iterationOverheadNs() * sweeps_d;
    const bool once = config_.programCharging == ProgramCharging::kOnce;

    double total_ns = 0.0;
    if (once) {
        total_ns = load_ns + compute_ns * sweeps_d + overhead_ns;
        report.programSeconds = prog_ns * 1e-9;
        report.streamSeconds = stream_ns * 1e-9;
    } else {
        total_ns = combined_ns * sweeps_d + overhead_ns;
        report.programSeconds = prog_ns * 1e-9 * sweeps_d;
        report.streamSeconds = stream_ns * 1e-9 * sweeps_d;
    }
    report.computeSeconds = compute_ns * 1e-9 * sweeps_d;
    report.seconds = total_ns * 1e-9;

    const auto tiles = static_cast<std::uint64_t>(
        plan_->meta.tiles().size());
    report.tilesProcessed = tiles * spec.sweeps;
    report.tilesSkipped =
        (plan_->partition.numTiles() - tiles) * spec.sweeps;
    report.edgesProcessed = plan_->meta.totalNnz() * spec.sweeps;

    // Split events: programming/streaming vs evaluation.
    EnergyEvents load_events;
    load_events.arrayWrites = tile_events.arrayWrites;
    load_events.memBytes = tile_events.memBytes;
    EnergyEvents compute_events = tile_events;
    compute_events.arrayWrites = 0;
    compute_events.memBytes = 0;

    EnergyEvents total;
    for (std::uint64_t s = 0; s < spec.sweeps; ++s)
        total += compute_events;
    if (once) {
        total += load_events;
    } else {
        for (std::uint64_t s = 0; s < spec.sweeps; ++s)
            total += load_events;
    }
    finalizeReport(report, config_.device, total);
    return report;
}

void
TileExecutor::functionalMacSweep(const MacSpec &spec,
                                 const std::vector<Value> &input,
                                 std::vector<Value> &accum)
{
    const std::uint64_t nv = input.size();
    GRAPHR_ASSERT(accum.size() == nv, "accumulator length ",
                  accum.size(), " != input length ", nv);
    if (!mac_) {
        mac_ = std::make_unique<Datapath>(config_, *plan_,
                                          spec.applyVariation,
                                          SaluOp::kAdd);
    }
    Datapath &dp = *mac_;
    GraphEngineArray &ge = dp.ge;
    const std::uint32_t dim = config_.tiling.crossbarDim;

    const std::vector<TileMeta> &tiles = plan_->meta.tiles();
    for (std::size_t t = 0; t < tiles.size(); ++t) {
        const TileMeta &meta = tiles[t];
        TileImage &image = dp.images[t];
        if (image.empty()) {
            const std::span<const Edge> edges =
                plan_->ordered.tileEdges(plan_->ordered.tiles()[t]);
            dp.weights.clear();
            if (!spec.srcDivisor.empty()) {
                for (const Edge &e : edges) {
                    const double numerator =
                        spec.uniformNumerator.value_or(e.weight);
                    dp.weights.push_back(
                        numerator /
                        static_cast<double>(spec.srcDivisor[e.src]));
                }
            }
            image = ge.makeImage(edges, dp.weights, meta.row0,
                                 meta.col0, config_.weightFracBits,
                                 CombineMode::kSum);
            countTileProgram();
        }
        ge.loadImage(image);
        for (std::uint32_t r = 0; r < dim; ++r) {
            const std::uint64_t v = meta.row0 + r;
            dp.inRows[r] = v < nv ? input[v] : 0.0;
        }
        ge.runMacInto(dp.inRows, config_.inputFracBits,
                      config_.weightFracBits, dp.partial);
        // Only occupied crossbars can produce a nonzero column.
        const double *col = dp.partial.data();
        for (const std::uint32_t cb : ge.occupiedCrossbars()) {
            const std::uint64_t v0 =
                meta.col0 + std::uint64_t{cb} * dim;
            for (std::uint32_t c = 0; c < dim; ++c, ++col) {
                const std::uint64_t v = v0 + c;
                if (v < nv && *col != 0.0)
                    accum[v] = ge.salu().reduce(accum[v], *col);
            }
        }
    }
}

SimReport
TileExecutor::addOpRun(const CooGraph &graph, const AddOpSpec &spec,
                       const char *name, std::vector<Value> *labels_out)
{
    const std::uint32_t dim = config_.tiling.crossbarDim;

    SimReport report;
    report.algorithm = name;
    report.occupancy = plan_->ordered.occupancy();

    EnergyEvents events;
    double total_ns = 0.0;
    double prog_ns = 0.0;
    double comp_ns = 0.0;
    double stream_ns = 0.0;
    const bool once = config_.programCharging == ProgramCharging::kOnce;

    // Under kOnce the whole (preprocessed) graph is programmed into
    // ReRAM a single time before the rounds begin.
    if (once) {
        EnergyEvents load_events;
        for (const TileMeta &meta : plan_->meta.tiles()) {
            const TileCost cost =
                costModel_.addOpTile(meta, 0, load_events);
            prog_ns += cost.programNs;
            stream_ns += cost.streamNs;
            total_ns += config_.pipelineTiles
                            ? std::max(cost.overlappedProgramNs,
                                       cost.streamNs)
                            : cost.programNs + cost.streamNs;
        }
        events += load_events;
    }

    // Timing walk: synchronous relaxation rounds; each round visits
    // every tile whose source range intersects the active set.
    RelaxationSweep sweep(graph, spec.initLabels, spec.initActive,
                          spec.mode);
    while (!sweep.done()) {
        const std::vector<bool> &active = sweep.active();
        if (spec.onRound)
            spec.onRound(active);
        for (const TileMeta &meta : plan_->meta.tiles()) {
            const std::uint64_t mask =
                meta.rowMask & activeMask(active, meta.row0, dim);
            if (mask == 0) {
                ++report.tilesSkipped;
                continue;
            }
            const auto rows =
                static_cast<std::uint32_t>(std::popcount(mask));
            EnergyEvents tile_events;
            const TileCost cost =
                costModel_.addOpTile(meta, rows, tile_events);
            if (once) {
                // Graph is resident: only the evaluation phase runs.
                tile_events.arrayWrites = 0;
                tile_events.memBytes = 0;
                total_ns += cost.computeNs;
            } else {
                prog_ns += cost.programNs;
                stream_ns += cost.streamNs;
                total_ns += cost.totalNs(config_.pipelineTiles);
            }
            events += tile_events;
            comp_ns += cost.computeNs;
            ++report.tilesProcessed;
            report.activeRowOps += rows;
            std::uint64_t m = mask;
            while (m != 0) {
                const int r = std::countr_zero(m);
                report.edgesProcessed += meta.rowNnz[r];
                m &= m - 1;
            }
        }
        total_ns += costModel_.iterationOverheadNs();
        ++report.iterations;
        sweep.step();
    }

    report.seconds = total_ns * 1e-9;
    report.programSeconds = prog_ns * 1e-9;
    report.computeSeconds = comp_ns * 1e-9;
    report.streamSeconds = stream_ns * 1e-9;
    finalizeReport(report, config_.device, events);

    if (labels_out == nullptr)
        return report;

    if (!config_.functional) {
        *labels_out = sweep.dist();
        return report;
    }
    *labels_out = functionalAddOpSolve(graph, spec);
    return report;
}

std::vector<Value>
TileExecutor::functionalAddOpSolve(const CooGraph &graph,
                                   const AddOpSpec &spec)
{
    const VertexId nv = graph.numVertices();
    const std::uint32_t dim = config_.tiling.crossbarDim;

    Datapath dp(config_, *plan_, /*apply_variation=*/true,
                SaluOp::kMin);
    GraphEngineArray &ge = dp.ge;
    const std::vector<TileMeta> &tiles = plan_->meta.tiles();

    std::vector<Value> dist = spec.initLabels;
    std::vector<bool> active = spec.initActive;
    std::uint64_t active_count = 0;
    for (const bool a : active)
        active_count += a ? 1 : 0;

    while (active_count > 0) {
        std::vector<Value> next = dist;
        for (std::size_t t = 0; t < tiles.size(); ++t) {
            const TileMeta &meta = tiles[t];
            const std::uint64_t mask =
                meta.rowMask & activeMask(active, meta.row0, dim);
            if (mask == 0)
                continue;
            TileImage &image = dp.images[t];
            if (image.empty()) {
                const std::span<const Edge> edges =
                    plan_->ordered.tileEdges(plan_->ordered.tiles()[t]);
                dp.weights.clear();
                if (spec.mode != WeightMode::kOriginal) {
                    dp.weights.assign(
                        edges.size(),
                        spec.mode == WeightMode::kUnit ? 1.0 : 0.0);
                }
                // Integer distances/weights: 0 fractional bits is
                // exact. Parallel edges merge with min (relaxation
                // semantics). A tile's image is built on its first
                // activation.
                image = ge.makeImage(edges, dp.weights, meta.row0,
                                     meta.col0, 0, CombineMode::kMin);
                countTileProgram();
            }
            ge.loadImage(image);
            std::uint64_t m = mask;
            while (m != 0) {
                const int r = std::countr_zero(m);
                m &= m - 1;
                ge.runAddOpInto(
                    static_cast<std::uint32_t>(r),
                    dist[meta.row0 + static_cast<std::uint64_t>(r)],
                    0, dp.partial);
                const double *cand = dp.partial.data();
                for (const std::uint32_t cb : ge.occupiedCrossbars()) {
                    const std::uint64_t v0 =
                        meta.col0 + std::uint64_t{cb} * dim;
                    for (std::uint32_t c = 0; c < dim; ++c, ++cand) {
                        const std::uint64_t v = v0 + c;
                        if (v < nv && *cand < kInfDistance)
                            next[v] = ge.salu().reduce(next[v], *cand);
                    }
                }
            }
        }

        active_count = 0;
        for (VertexId v = 0; v < nv; ++v) {
            active[v] = next[v] < dist[v];
            if (active[v])
                ++active_count;
        }
        dist = std::move(next);
    }
    return dist;
}

} // namespace graphr
