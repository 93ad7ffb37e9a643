#include "multi_node.hh"

#include <algorithm>

#include "algorithms/traversal.hh"
#include "algorithms/wcc.hh"
#include "common/logging.hh"
#include "graphr/engine/golden_cache.hh"

namespace graphr
{

MultiNodeGraphR::MultiNodeGraphR(const GraphRConfig &config,
                                 std::uint32_t num_nodes,
                                 const LinkParams &link)
    : config_(config), numNodes_(num_nodes), link_(link)
{
    config_.validate();
    GRAPHR_ASSERT(numNodes_ > 0, "need at least one node");
}

std::vector<Edge>
MultiNodeGraphR::stripeEdges(const CooGraph &graph,
                             std::uint32_t node) const
{
    const std::uint64_t stripe =
        (graph.numVertices() + numNodes_ - 1) / numNodes_;
    const std::uint64_t lo = static_cast<std::uint64_t>(node) * stripe;
    const std::uint64_t hi = lo + stripe;
    std::vector<Edge> edges;
    for (const Edge &e : graph.edges()) {
        if (e.dst >= lo && e.dst < hi)
            edges.push_back(e);
    }
    return edges;
}

MultiNodeReport
MultiNodeGraphR::runSweeps(const CooGraph &graph,
                           std::uint64_t iterations,
                           const SweepFn &sweep_fn,
                           double props_per_vertex)
{
    MultiNodeReport report;
    report.numNodes = numNodes_;
    report.iterations = iterations;

    // Per-node sweep cost: one sweep over the node's destination
    // stripe, costed by the workload's own node-level schedule.
    double max_sweep_s = 0.0;
    double sweep_joules = 0.0;
    for (std::uint32_t k = 0; k < numNodes_; ++k) {
        std::vector<Edge> edges = stripeEdges(graph, k);
        if (edges.empty()) {
            report.nodeSweepSeconds.push_back(0.0);
            continue;
        }
        const CooGraph sub(graph.numVertices(), std::move(edges));
        GraphRNode node(config_);
        const SimReport sweep = sweep_fn(node, sub);
        report.nodeSweepSeconds.push_back(sweep.seconds);
        max_sweep_s = std::max(max_sweep_s, sweep.seconds);
        sweep_joules += sweep.joules;
    }

    // All-gather: each node broadcasts its stripe's updated
    // properties to the other nodes every iteration.
    const double stripe_props =
        static_cast<double>(graph.numVertices()) / numNodes_ *
        props_per_vertex;
    const double bytes_sent_per_node =
        stripe_props * link_.bytesPerProperty * (numNodes_ - 1);
    const double comm_per_iter =
        numNodes_ > 1 ? bytes_sent_per_node /
                                (link_.bandwidthGBs * 1e9) +
                            link_.latencyUs * 1e-6
                      : 0.0;
    const double total_comm_bytes =
        bytes_sent_per_node * numNodes_ * static_cast<double>(iterations);

    const double iters = static_cast<double>(iterations);
    report.commSeconds = comm_per_iter * iters;
    report.commJoules =
        total_comm_bytes * link_.energyPjPerByte * 1e-12;
    report.seconds = (max_sweep_s + comm_per_iter) * iters;
    report.joules = sweep_joules * iters + report.commJoules;
    return report;
}

namespace
{

/** One SpMV-shaped sweep: the per-iteration tile schedule shared by
 *  PageRank and the add-op rounds' conservative bound. */
SimReport
spmvSweep(GraphRNode &node, const CooGraph &sub)
{
    const std::vector<Value> x(sub.numVertices(), 1.0);
    return node.runSpmv(sub, x);
}

} // namespace

MultiNodeReport
MultiNodeGraphR::runPageRank(const CooGraph &graph,
                             const PageRankParams &params)
{
    // Iteration count from the golden run (identical convergence on
    // every partitioning).
    const std::shared_ptr<const PageRankResult> golden =
        cachedGoldenPageRank(graph, params);
    return runSweeps(graph,
                     static_cast<std::uint64_t>(golden->iterations),
                     spmvSweep, /*props_per_vertex=*/1.0);
}

MultiNodeReport
MultiNodeGraphR::runSpmv(const CooGraph &graph)
{
    return runSweeps(graph, /*iterations=*/1, spmvSweep,
                     /*props_per_vertex=*/1.0);
}

MultiNodeReport
MultiNodeGraphR::runBfs(const CooGraph &graph, VertexId source)
{
    const TraversalResult golden = bfs(graph, source);
    return runSweeps(graph,
                     static_cast<std::uint64_t>(golden.iterations),
                     spmvSweep, /*props_per_vertex=*/1.0);
}

MultiNodeReport
MultiNodeGraphR::runSssp(const CooGraph &graph, VertexId source)
{
    const TraversalResult golden = sssp(graph, source);
    return runSweeps(graph,
                     static_cast<std::uint64_t>(golden.iterations),
                     spmvSweep, /*props_per_vertex=*/1.0);
}

MultiNodeReport
MultiNodeGraphR::runWcc(const CooGraph &graph)
{
    // Labels propagate over the symmetrised edge set; each node owns
    // the symmetrised edges of its destination stripe.
    const CooGraph &sym = graph.symmetrized();
    const WccResult golden = wcc(graph);
    return runSweeps(sym, static_cast<std::uint64_t>(golden.iterations),
                     spmvSweep, /*props_per_vertex=*/1.0);
}

MultiNodeReport
MultiNodeGraphR::runCf(const CooGraph &ratings, const CfParams &params)
{
    // Per epoch each stripe runs the node's own CF tile schedule
    // (one MVM pass per feature, compute-phase scaling only); the
    // all-gather moves whole factor rows.
    CfParams epoch = params;
    epoch.epochs = 1;
    return runSweeps(
        ratings, static_cast<std::uint64_t>(params.epochs),
        [&epoch](GraphRNode &node, const CooGraph &sub) {
            return node.runCf(sub, epoch);
        },
        static_cast<double>(params.featureLength));
}

} // namespace graphr
