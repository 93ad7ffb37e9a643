#include "coo.hh"

#include <algorithm>
#include <bit>
#include <memory>
#include <mutex>

#include "common/checksum.hh"
#include "common/logging.hh"
#include "graph/csr.hh"
#include "perf/counters.hh"

namespace graphr
{

/**
 * Derived state of one graph. Each item is built under its own
 * once_flag; the sizes and the twin pointer are published through
 * atomics so footprintBytes() can read them while a build runs.
 */
struct CooGraph::Memo
{
    std::once_flag fingerprintOnce;
    std::uint64_t fingerprint = 0;

    std::once_flag csrOnce;
    std::unique_ptr<const CsrGraph> outCsr;
    std::atomic<std::size_t> csrBytes{0};

    std::once_flag symOnce;
    std::unique_ptr<const CooGraph> symOwner;
    std::atomic<const CooGraph *> sym{nullptr};
};

CooGraph::CooGraph(VertexId num_vertices, std::vector<Edge> edges)
    : numVertices_(num_vertices), edges_(std::move(edges))
{
    for (const Edge &e : edges_) {
        GRAPHR_ASSERT(e.src < numVertices_ && e.dst < numVertices_,
                      "edge (", e.src, ",", e.dst, ") out of range for |V|=",
                      numVertices_);
    }
}

CooGraph::CooGraph(const CooGraph &other)
    : numVertices_(other.numVertices_), edges_(other.edges_)
{
}

CooGraph::CooGraph(CooGraph &&other) noexcept
    : numVertices_(other.numVertices_), edges_(std::move(other.edges_)),
      memo_(other.memo_.exchange(nullptr))
{
}

CooGraph &
CooGraph::operator=(const CooGraph &other)
{
    if (this != &other) {
        dropMemo();
        numVertices_ = other.numVertices_;
        edges_ = other.edges_;
    }
    return *this;
}

CooGraph &
CooGraph::operator=(CooGraph &&other) noexcept
{
    if (this != &other) {
        dropMemo();
        numVertices_ = other.numVertices_;
        edges_ = std::move(other.edges_);
        memo_.store(other.memo_.exchange(nullptr));
    }
    return *this;
}

CooGraph::~CooGraph()
{
    delete memo_.load();
}

CooGraph::Memo &
CooGraph::memo() const
{
    Memo *memo = memo_.load();
    if (memo == nullptr) {
        auto fresh = std::make_unique<Memo>();
        // Losing the race leaves the winner's memo in `memo`.
        if (memo_.compare_exchange_strong(memo, fresh.get()))
            memo = fresh.release();
    }
    return *memo;
}

void
CooGraph::dropMemo() noexcept
{
    // Mutators are exclusive, so checking first keeps addEdge() loops
    // free of atomic read-modify-writes.
    if (memo_.load() != nullptr)
        delete memo_.exchange(nullptr);
}

void
CooGraph::addEdge(VertexId src, VertexId dst, Value weight)
{
    GRAPHR_ASSERT(src < numVertices_ && dst < numVertices_,
                  "edge (", src, ",", dst, ") out of range for |V|=",
                  numVertices_);
    edges_.push_back(Edge{src, dst, weight});
    dropMemo();
}

void
CooGraph::sortBySource()
{
    dropMemo();
    std::sort(edges_.begin(), edges_.end(),
              [](const Edge &a, const Edge &b) {
                  return a.src != b.src ? a.src < b.src : a.dst < b.dst;
              });
}

void
CooGraph::dedupe()
{
    sortBySource(); // drops the memo
    auto last = std::unique(edges_.begin(), edges_.end(),
                            [](const Edge &a, const Edge &b) {
                                return a.src == b.src && a.dst == b.dst;
                            });
    edges_.erase(last, edges_.end());
}

void
CooGraph::removeSelfLoops()
{
    dropMemo();
    auto last = std::remove_if(edges_.begin(), edges_.end(),
                               [](const Edge &e) { return e.src == e.dst; });
    edges_.erase(last, edges_.end());
}

std::vector<EdgeId>
CooGraph::outDegrees() const
{
    std::vector<EdgeId> deg(numVertices_, 0);
    for (const Edge &e : edges_)
        ++deg[e.src];
    return deg;
}

std::vector<EdgeId>
CooGraph::inDegrees() const
{
    std::vector<EdgeId> deg(numVertices_, 0);
    for (const Edge &e : edges_)
        ++deg[e.dst];
    return deg;
}

double
CooGraph::density() const
{
    if (numVertices_ == 0)
        return 0.0;
    const double nv = static_cast<double>(numVertices_);
    return static_cast<double>(numEdges()) / (nv * nv);
}

const CsrGraph &
CooGraph::outCsr() const
{
    Memo &m = memo();
    std::call_once(m.csrOnce, [this, &m] {
        m.outCsr = std::make_unique<const CsrGraph>(
            *this, CsrGraph::Direction::kOut);
        m.csrBytes = (static_cast<std::size_t>(numVertices_) + 1) *
                         sizeof(EdgeId) +
                     edges_.size() * sizeof(Adjacency);
    });
    return *m.outCsr;
}

const CooGraph &
CooGraph::symmetrized() const
{
    Memo &m = memo();
    std::call_once(m.symOnce, [this, &m] {
        m.symOwner = std::make_unique<const CooGraph>(symmetrize(*this));
        m.sym = m.symOwner.get();
    });
    return *m.symOwner;
}

std::size_t
CooGraph::footprintBytes() const
{
    std::size_t bytes = edges_.capacity() * sizeof(Edge);
    if (const Memo *m = memo_.load()) {
        bytes += m->csrBytes;
        if (const CooGraph *sym = m->sym)
            bytes += sym->footprintBytes();
    }
    return bytes;
}

std::uint64_t
graphFingerprint(const CooGraph &graph)
{
    CooGraph::Memo &m = graph.memo();
    std::call_once(m.fingerprintOnce, [&graph, &m] {
        Fnv1a64 h;
        h.updateWord(graph.numVertices());
        h.updateWord(graph.numEdges());
        for (const Edge &e : graph.edges()) {
            h.updateWord((static_cast<std::uint64_t>(e.src) << 32) |
                         static_cast<std::uint64_t>(e.dst));
            h.updateWord(std::bit_cast<std::uint64_t>(
                static_cast<double>(e.weight)));
        }
        m.fingerprint = h.digest();
        static perf::Counter &hashed =
            perf::Registry::instance().counter("fingerprint.edges_hashed");
        hashed.add(graph.numEdges());
    });
    return m.fingerprint;
}

CooGraph
symmetrize(const CooGraph &graph)
{
    std::vector<Edge> edges;
    edges.reserve(graph.numEdges() * 2);
    for (const Edge &e : graph.edges()) {
        edges.push_back(e);
        if (e.src != e.dst)
            edges.push_back(Edge{e.dst, e.src, e.weight});
    }
    return CooGraph(graph.numVertices(), std::move(edges));
}

} // namespace graphr
