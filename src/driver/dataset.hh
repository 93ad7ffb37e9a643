/**
 * @file
 * Dataset resolver: one string names any graph the driver can run on.
 *
 * Accepted spec forms:
 *  - Table-3 names: "wiki-vote", "WV", "orkut", "netflix", ... —
 *    matched case-insensitively against the DatasetId table with
 *    '-'/'_' ignored; generated at the requested scale.
 *  - Generator specs: "rmat:vertices=1024,edges=8192,seed=1",
 *    "er:vertices=...,edges=...", "grid:width=8,height=8",
 *    "chain:n=16", "star:n=32", "complete:n=8",
 *    "bipartite:users=64,items=32,ratings=512".
 *  - Files: "file:path" explicitly, or any spec containing a '/' —
 *    ".bin"/".grph" loads the binary format, anything else the text
 *    edge list (graph/io).
 *
 * Unknown names throw DriverError listing what is known.
 *
 * resolveDataset() generates (or loads) the graph on every call.
 * cachedDataset() is what runSweep() resolves through: a process-wide,
 * byte-budgeted LRU of resolved datasets, so a long-lived process
 * (graphr_serve) generates each graph once and every later request
 * reuses it together with the derived state its graph memoises
 * (fingerprint, out-CSR, symmetrised twin; CooGraph).
 */

#ifndef GRAPHR_DRIVER_DATASET_HH
#define GRAPHR_DRIVER_DATASET_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "driver/params.hh"
#include "graph/coo.hh"

namespace graphr::driver
{

/** A graph resolved from a dataset spec. */
struct ResolvedDataset
{
    std::string name; ///< canonical name for reports
    CooGraph graph;
    /** True for user->item rating graphs (Netflix, bipartite:...). */
    bool bipartite = false;
    /** Users in a bipartite graph (max src + 1); 0 otherwise. */
    VertexId numUsers = 0;
};

/**
 * Resolve a dataset spec string.
 *
 * @param spec  see file comment for the accepted forms
 * @param scale Table-3 datasets are generated at 1/scale of the
 *              paper's edge count (>= 1); ignored for other forms
 * @param seed  generator seed for table and generator specs (a
 *              spec-level seed=... overrides it)
 */
ResolvedDataset resolveDataset(const std::string &spec,
                               double scale = 1.0,
                               std::uint64_t seed = 42);

/**
 * resolveDataset() through the process-wide dataset cache, keyed by
 * (spec, scale, seed): the same spec under a different scale or seed
 * is a distinct entry. Concurrent requests for one key generate it
 * once. File datasets are read afresh on every call and never cached,
 * so a rewritten file is never served stale.
 */
std::shared_ptr<const ResolvedDataset>
cachedDataset(const std::string &spec, double scale = 1.0,
              std::uint64_t seed = 42);

/** Occupancy and hit/miss counters of the dataset cache. */
struct DatasetCacheStats
{
    std::size_t size = 0;
    /** Graphs plus their memoised derived state. */
    std::size_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

DatasetCacheStats datasetCacheStats();

/** Drop all entries and reset the statistics. */
void clearDatasetCache();

/**
 * Byte budget of the dataset cache: the two hot 1M-edge graphs of a
 * serving mix with their CSRs plus a few more. A dataset larger than
 * the whole budget is served but not retained.
 */
inline constexpr std::size_t kDatasetCacheBudgetBytes = 128u << 20;

/** Table-3 dataset names ("wiki-vote", ...) the resolver accepts. */
std::vector<std::string> knownDatasetNames();

} // namespace graphr::driver

#endif // GRAPHR_DRIVER_DATASET_HH
