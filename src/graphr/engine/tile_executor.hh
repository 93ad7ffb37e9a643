/**
 * @file
 * TileExecutor: the one tile-walk shared by every GraphR runner.
 *
 * Before this layer existed the simulator carried five hand-rolled
 * copies of the same loop over the non-empty tile table — the MAC
 * timing walk, the PageRank and SpMV functional walks, and the add-op
 * timing and functional walks. The executor owns that loop once and
 * drives both the cost-model accounting and the functional GE
 * datapath from small per-algorithm specs:
 *
 *  - MacSpec describes a parallel-MAC schedule (PageRank, SpMV, CF):
 *    sweep count, MVM passes per tile, and — for functional runs —
 *    how an edge's programmed weight derives from the edge.
 *  - AddOpSpec describes a parallel-add-op relaxation (BFS, SSSP,
 *    WCC): initial labels, initial active set, weight mode.
 *
 * The functional path programs each tile once per run, under either
 * ProgramCharging: programming draws no randomness, so a tile's cell
 * image (GraphEngineArray::makeImage) is the same on every visit and
 * is kept for the whole run. ProgramCharging only decides what the
 * cost model charges (macReport, addOpRun's timing walk).
 */

#ifndef GRAPHR_GRAPHR_ENGINE_TILE_EXECUTOR_HH
#define GRAPHR_GRAPHR_ENGINE_TILE_EXECUTOR_HH

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "algorithms/traversal.hh"
#include "graphr/config.hh"
#include "graphr/cost_model.hh"
#include "graphr/engine/tile_plan.hh"
#include "graphr/sim_report.hh"

namespace graphr
{

/** Per-algorithm parallel-MAC schedule description. */
struct MacSpec
{
    const char *name = "mac";
    /** Timing sweeps over the tile table (algorithm iterations). */
    std::uint64_t sweeps = 1;
    /** MVM evaluations per programmed tile per sweep (CF: features). */
    std::uint32_t passesPerTile = 1;
    /**
     * Functional only: per-source divisor of the programmed weight
     * (PageRank and SpMV pass the out-degrees). An edge programs
     * `numerator / static_cast<double>(srcDivisor[e.src])`, where the
     * numerator is uniformNumerator when set (PageRank's damping) and
     * the edge weight otherwise. Empty programs the edge weights.
     */
    std::span<const EdgeId> srcDivisor;
    std::optional<double> uniformNumerator;
    /**
     * Apply the configured cell-programming variation to this
     * schedule's functional datapath. SpMV turns it off: it is the
     * exactness-validation workload; variation belongs to the
     * algorithm-level resilience experiments (PageRank, add-op).
     */
    bool applyVariation = true;
};

/** Observer of one add-op timing round's active vertex set. */
using RoundObserver = std::function<void(const std::vector<bool> &)>;

/** Initial state of an add-op (min-relaxation) execution. */
struct AddOpSpec
{
    std::vector<Value> initLabels;
    std::vector<bool> initActive;
    WeightMode mode = WeightMode::kOriginal;
    /** Optional: called with the active set at the start of every
     *  timing round, in round order. */
    RoundObserver onRound;
};

/** Counters one executor keeps about its run (tests and benches). */
struct EngineStats
{
    /** Whether the plan came out of the PlanCache (set by callers). */
    bool planCacheHit = false;
    /** Tile images built (crossbar write phases): at most one per
     *  non-empty tile per run, under either ProgramCharging. */
    std::uint64_t functionalTilePrograms = 0;
};

/**
 * Walks one TilePlan for one run. Construct per run (cheap — the
 * heavy state is the shared plan); the same instance serves the
 * timing report and any functional sweeps of that run so tile images
 * persist across sweeps.
 *
 * Preconditions: @p config has passed GraphRConfig::validate (the
 * backends validate at construction) and its tiling matches the one
 * the plan was prepared under; @p plan is non-null. Thread-safety:
 * an instance is single-run, single-thread mutable state — parallel
 * sweeps give every run its own executor and share only the
 * immutable plan behind the TilePlanPtr. Functional walks mutate the
 * GE datapath and the stats; the timing-only macReport() is const
 * and touches neither.
 */
class TileExecutor
{
  public:
    TileExecutor(const GraphRConfig &config, TilePlanPtr plan);
    ~TileExecutor();

    TileExecutor(TileExecutor &&) noexcept;
    TileExecutor &operator=(TileExecutor &&) noexcept;

    const TilePlan &plan() const { return *plan_; }
    TilePlanPtr planPtr() const { return plan_; }

    /**
     * Timing/energy report of a parallel-MAC schedule: one pass over
     * the tile table priced by the cost model, multiplied out per the
     * program-charging policy. (The former GraphRNode::runMacSweeps.)
     */
    SimReport macReport(const MacSpec &spec) const;

    /**
     * One functional MAC sweep over every tile of the plan: load
     * each tile's image (built on the run's first sweep), apply the
     * matching rows of @p input, and sALU-reduce the occupied
     * columns' partial sums into @p accum. Both vectors are indexed
     * by absolute vertex id.
     */
    void functionalMacSweep(const MacSpec &spec,
                            const std::vector<Value> &input,
                            std::vector<Value> &accum);

    /**
     * Complete add-op run: the timing walk over the relaxation rounds
     * (active-masked tiles priced by the cost model) and — in
     * functional mode, when @p labels_out is non-null — the GE
     * datapath execution. (The former GraphRNode::runAddOpRounds.)
     */
    SimReport addOpRun(const CooGraph &graph, const AddOpSpec &spec,
                       const char *name,
                       std::vector<Value> *labels_out);

    EngineStats &stats() { return stats_; }
    const EngineStats &stats() const { return stats_; }

  private:
    struct Datapath; ///< functional GE state and run workspace

    /** Count one tile image built (stats and the perf registry). */
    void countTileProgram();

    /** Functional GE execution of the relaxation to convergence. */
    std::vector<Value> functionalAddOpSolve(const CooGraph &graph,
                                            const AddOpSpec &spec);

    GraphRConfig config_;
    CostModel costModel_;
    TilePlanPtr plan_;
    std::unique_ptr<Datapath> mac_; ///< built on the first MAC sweep
    EngineStats stats_;
};

} // namespace graphr

#endif // GRAPHR_GRAPHR_ENGINE_TILE_EXECUTOR_HH
