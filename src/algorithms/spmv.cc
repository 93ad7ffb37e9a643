#include "spmv.hh"

#include "common/logging.hh"

namespace graphr
{

std::vector<Value>
spmv(const CooGraph &graph, const std::vector<Value> &x)
{
    GRAPHR_ASSERT(x.size() == graph.numVertices(),
                  "vector length ", x.size(), " != |V| ",
                  graph.numVertices());
    const std::vector<EdgeId> &out_deg = graph.outDegrees();
    std::vector<Value> y(graph.numVertices(), 0.0);
    for (const Edge &e : graph.edges()) {
        if (out_deg[e.src] == 0)
            continue;
        y[e.dst] += x[e.src] / static_cast<double>(out_deg[e.src]) *
                    e.weight;
    }
    return y;
}

std::vector<Value>
spmvRaw(const CooGraph &graph, const std::vector<Value> &x)
{
    GRAPHR_ASSERT(x.size() == graph.numVertices(),
                  "vector length ", x.size(), " != |V| ",
                  graph.numVertices());
    std::vector<Value> y(graph.numVertices(), 0.0);
    for (const Edge &e : graph.edges())
        y[e.dst] += x[e.src] * e.weight;
    return y;
}

} // namespace graphr
