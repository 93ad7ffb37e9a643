#include "backend.hh"

#include "algorithms/pagerank.hh"
#include "graphr/engine/golden_cache.hh"
#include "graphr/node.hh"

namespace graphr::driver
{

namespace
{

/** Common result header every backend fills the same way. */
RunResult
makeResult(const std::string &backend, const Workload &workload,
           const ResolvedDataset &dataset)
{
    RunResult r;
    r.workload = workload.name;
    r.backend = backend;
    r.dataset = dataset.name;
    r.vertices = dataset.graph.numVertices();
    r.edges = dataset.graph.numEdges();
    return r;
}

/** Validate a BFS/SSSP source against the graph. */
VertexId
checkedSource(const Workload &workload, const ResolvedDataset &dataset)
{
    if (workload.params.source >= dataset.graph.numVertices()) {
        throw DriverError(
            "source vertex " + std::to_string(workload.params.source) +
            " out of range for dataset '" + dataset.name + "' (|V| = " +
            std::to_string(dataset.graph.numVertices()) + ")");
    }
    return workload.params.source;
}

/**
 * CF parameters adjusted to the dataset: a bipartite graph knows its
 * user/item split; on a general graph the first half of the vertex
 * range is treated as users unless users=... was given.
 */
CfParams
effectiveCf(const Workload &workload, const ResolvedDataset &dataset)
{
    CfParams cf = workload.params.cf;
    if (cf.numUsers == 0) {
        cf.numUsers = dataset.bipartite
                          ? dataset.numUsers
                          : std::max<VertexId>(
                                1, dataset.graph.numVertices() / 2);
    }
    if (cf.numUsers >= dataset.graph.numVertices()) {
        throw DriverError("cf users=" + std::to_string(cf.numUsers) +
                          " leaves no item vertices on dataset '" +
                          dataset.name + "'");
    }
    return cf;
}

/**
 * The one workload dispatch, for every runner: each exposes one run*
 * entry per workload. Two calls differ by runner family — SpMV takes
 * an explicit all-ones input vector on the GraphR node and the
 * out-of-core runner, and the baseline models run PageRank for the
 * golden iteration count so they converge identically to GraphR.
 */
template <typename Runner>
RunResult
runWorkload(Runner &runner, const std::string &backend_name,
            const Workload &workload, const ResolvedDataset &dataset)
{
    RunResult result = makeResult(backend_name, workload, dataset);
    const CooGraph &graph = dataset.graph;
    switch (workload.kind) {
      case WorkloadKind::kPageRank:
        if constexpr (requires {
                          runner.runPageRank(graph,
                                             workload.params.pagerank);
                      }) {
            result.absorb(
                runner.runPageRank(graph, workload.params.pagerank));
        } else {
            // Cached: a `--backend all` sweep computes the golden
            // iteration count once, not once per baseline backend.
            const std::shared_ptr<const PageRankResult> golden =
                cachedGoldenPageRank(graph, workload.params.pagerank);
            result.absorb(runner.runPageRank(
                graph, static_cast<std::uint64_t>(golden->iterations)));
        }
        break;
      case WorkloadKind::kSpmv:
        if constexpr (requires { runner.runSpmv(graph); }) {
            result.absorb(runner.runSpmv(graph));
        } else {
            const std::vector<Value> x(graph.numVertices(), 1.0);
            result.absorb(runner.runSpmv(graph, x));
        }
        break;
      case WorkloadKind::kBfs:
        result.absorb(
            runner.runBfs(graph, checkedSource(workload, dataset)));
        break;
      case WorkloadKind::kSssp:
        result.absorb(
            runner.runSssp(graph, checkedSource(workload, dataset)));
        break;
      case WorkloadKind::kWcc:
        result.absorb(runner.runWcc(graph));
        break;
      case WorkloadKind::kCf:
        result.absorb(
            runner.runCf(graph, effectiveCf(workload, dataset)));
        break;
    }
    return result;
}

/** The paper's evaluated GraphR node, fresh for every run. */
class GraphRBackend : public Backend
{
  public:
    explicit GraphRBackend(const BackendOptions &options)
        : config_(options.config)
    {
    }

    const std::string &
    name() const override
    {
        static const std::string n = "graphr";
        return n;
    }

    RunResult
    run(const Workload &workload, const ResolvedDataset &dataset) override
    {
        GraphRNode node(config_);
        return runWorkload(node, name(), workload, dataset);
    }

  private:
    GraphRConfig config_;
};

/**
 * A backend that keeps one runner for its lifetime: the GraphR
 * cluster, the out-of-core runner and the three baseline models.
 */
template <typename Runner>
class RunnerBackend : public Backend
{
  public:
    RunnerBackend(std::string name, Runner runner)
        : name_(std::move(name)), runner_(std::move(runner))
    {
    }

    const std::string &
    name() const override
    {
        return name_;
    }

    RunResult
    run(const Workload &workload, const ResolvedDataset &dataset) override
    {
        return runWorkload(runner_, name_, workload, dataset);
    }

  private:
    std::string name_;
    Runner runner_;
};

template <typename Runner>
std::unique_ptr<Backend>
runnerBackend(std::string name, Runner runner)
{
    return std::make_unique<RunnerBackend<Runner>>(std::move(name),
                                                   std::move(runner));
}

} // namespace

const std::vector<std::string> &
allBackendNames()
{
    static const std::vector<std::string> names = {
        "graphr", "multinode", "outofcore", "cpu", "gpu", "pim",
    };
    return names;
}

std::unique_ptr<Backend>
makeBackend(const std::string &name, const BackendOptions &options)
{
    if (name == "graphr")
        return std::make_unique<GraphRBackend>(options);
    if (name == "multinode")
        return runnerBackend(name,
                             MultiNodeGraphR(options.config,
                                             options.numNodes,
                                             options.link));
    if (name == "outofcore")
        return runnerBackend(
            name, OutOfCoreRunner(options.config, options.storage));
    if (name == "cpu")
        return runnerBackend(name, CpuModel(options.cpu));
    if (name == "gpu")
        return runnerBackend(name, GpuModel(options.gpu));
    if (name == "pim")
        return runnerBackend(name, PimModel(options.pim));
    std::string msg = "unknown backend '" + name + "' (known:";
    for (const std::string &n : allBackendNames())
        msg += " " + n;
    msg += ")";
    throw DriverError(msg);
}

} // namespace graphr::driver
