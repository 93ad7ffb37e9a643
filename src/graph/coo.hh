/**
 * @file
 * Coordinate-list (COO) graph container.
 */

#ifndef GRAPHR_GRAPH_COO_HH
#define GRAPHR_GRAPH_COO_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hh"
#include "graph/edge.hh"

namespace graphr
{

class CsrGraph;

/**
 * A directed graph stored as a coordinate list, the representation
 * GraphR keeps in memory ReRAM and on disk (paper Fig. 4/5). Vertices
 * are implicit in [0, numVertices).
 *
 * Derived state every layer asks for — the fingerprint, the
 * out-degrees, the out-CSR and the symmetrised twin — is memoised:
 * each is computed at most once per graph, on first use, and is safe
 * to request from several threads at once. Every mutator drops the
 * memo, and the edge list is only writable through editEdges(), so the
 * memo cannot go stale. A copy starts with an empty memo; a move
 * carries it along.
 */
class CooGraph
{
  public:
    CooGraph() = default;

    /** Construct from an explicit vertex count and edge list. */
    CooGraph(VertexId num_vertices, std::vector<Edge> edges);

    CooGraph(const CooGraph &other);
    CooGraph(CooGraph &&other) noexcept;
    CooGraph &operator=(const CooGraph &other);
    CooGraph &operator=(CooGraph &&other) noexcept;
    ~CooGraph();

    VertexId numVertices() const { return numVertices_; }
    EdgeId numEdges() const { return static_cast<EdgeId>(edges_.size()); }
    std::span<const Edge> edges() const { return edges_; }

    /**
     * Edit the edge list in place: @p edit receives the vector and
     * must keep every endpoint < numVertices(). Memoised state is
     * dropped first, so even an edit that throws leaves none behind.
     */
    template <typename Edit>
    void
    editEdges(Edit &&edit)
    {
        dropMemo();
        edit(edges_);
    }

    /** Append one edge; endpoints must be < numVertices(). */
    void addEdge(VertexId src, VertexId dst, Value weight = 1.0);

    /** Sort edges by (src, dst) — the paper's assumed initial order. */
    void sortBySource();

    /** Remove duplicate (src, dst) pairs, keeping the first weight. */
    void dedupe();

    /** Remove self loops (src == dst). */
    void removeSelfLoops();

    /** Out-degree of every vertex, memoised. */
    const std::vector<EdgeId> &outDegrees() const;

    /** In-degree of every vertex. */
    std::vector<EdgeId> inDegrees() const;

    /** Edge density |E| / |V|^2 (the x-axis of paper Fig. 21). */
    double density() const;

    /** Out-edge CSR (CsrGraph::Direction::kOut), memoised. */
    const CsrGraph &outCsr() const;

    /** symmetrize() of this graph, memoised (with its own memo). */
    const CooGraph &symmetrized() const;

    /**
     * Bytes held by the edge list plus whatever derived state has
     * been memoised so far (it grows as the memo fills).
     */
    std::size_t footprintBytes() const;

  private:
    struct Memo;

    friend std::uint64_t graphFingerprint(const CooGraph &graph);

    /** The memo, created on first use (thread-safe). */
    Memo &memo() const;
    void dropMemo() noexcept;

    VertexId numVertices_ = 0;
    std::vector<Edge> edges_;
    mutable std::atomic<Memo *> memo_{nullptr};
};

/**
 * Order-sensitive 64-bit FNV-1a fingerprint of a graph (vertex count,
 * edge count, every edge's endpoints and weight bits). The O(E) hash
 * runs once per graph; later calls return the memoised value, so a
 * cache lookup keyed by it costs nothing on a resident graph.
 */
std::uint64_t graphFingerprint(const CooGraph &graph);

/** Edges plus their reverses (weights preserved); not memoised. */
CooGraph symmetrize(const CooGraph &graph);

} // namespace graphr

#endif // GRAPHR_GRAPH_COO_HH
