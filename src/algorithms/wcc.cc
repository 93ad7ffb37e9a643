#include "wcc.hh"

#include <numeric>
#include <unordered_set>

#include "common/logging.hh"

namespace graphr
{

namespace
{

std::uint64_t
countDistinct(const std::vector<VertexId> &labels)
{
    std::unordered_set<VertexId> distinct(labels.begin(), labels.end());
    return distinct.size();
}

} // namespace

WccResult
wcc(const CooGraph &graph)
{
    GRAPHR_ASSERT(graph.numVertices() > 0, "empty graph");
    const CooGraph &sym = graph.symmetrized();

    WccResult result;
    result.labels.resize(graph.numVertices());
    std::iota(result.labels.begin(), result.labels.end(), 0);

    bool changed = true;
    while (changed) {
        changed = false;
        for (const Edge &e : sym.edges()) {
            if (result.labels[e.src] < result.labels[e.dst]) {
                result.labels[e.dst] = result.labels[e.src];
                changed = true;
            }
        }
        ++result.iterations;
    }
    result.numComponents = countDistinct(result.labels);
    return result;
}

WccResult
wccUnionFind(const CooGraph &graph)
{
    const VertexId nv = graph.numVertices();
    std::vector<VertexId> parent(nv);
    std::iota(parent.begin(), parent.end(), 0);

    // Path-halving find.
    auto find = [&parent](VertexId v) {
        while (parent[v] != v) {
            parent[v] = parent[parent[v]];
            v = parent[v];
        }
        return v;
    };
    for (const Edge &e : graph.edges()) {
        const VertexId a = find(e.src);
        const VertexId b = find(e.dst);
        if (a != b)
            parent[std::max(a, b)] = std::min(a, b);
    }

    WccResult result;
    result.labels.resize(nv);
    for (VertexId v = 0; v < nv; ++v) {
        // Canonical label: the minimum vertex id in the component.
        // After min-union, the root is already the minimum.
        result.labels[v] = find(v);
    }
    result.numComponents = countDistinct(result.labels);
    result.iterations = 1;
    return result;
}

RelaxationSweep
makeWccSweep(const CooGraph &sym_graph)
{
    std::vector<Value> labels(sym_graph.numVertices());
    for (VertexId v = 0; v < sym_graph.numVertices(); ++v)
        labels[v] = static_cast<Value>(v);
    std::vector<bool> active(sym_graph.numVertices(), true);
    return RelaxationSweep(sym_graph, std::move(labels),
                           std::move(active), WeightMode::kZero);
}

} // namespace graphr
