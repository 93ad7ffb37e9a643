/**
 * @file
 * Golden-result cache.
 *
 * Timing-mode PageRank takes its semantics from the golden run, and
 * every backend takes its PageRank iteration count from it so all of
 * them converge identically: the GraphR node, the cluster and the
 * three baselines (cpu/gpu/pim). The golden PageRank is computed once
 * per (graph, parameters) and shared by all of them, across runs.
 *
 * Keyed by the graph fingerprint (graph/coo.hh, memoised per graph)
 * plus the PageRank parameters, so any dataset spec that resolves to
 * the same graph shares one entry. Entries are shared_ptrs: eviction
 * never invalidates a result a caller still holds.
 */

#ifndef GRAPHR_GRAPHR_ENGINE_GOLDEN_CACHE_HH
#define GRAPHR_GRAPHR_ENGINE_GOLDEN_CACHE_HH

#include <cstdint>
#include <memory>

#include "algorithms/pagerank.hh"
#include "graph/coo.hh"

namespace graphr
{

/** Hit/miss counters of the golden PageRank cache. */
struct GoldenCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

/**
 * Golden PageRank for (graph, params), computed once per key and
 * memoised process-wide.
 */
std::shared_ptr<const PageRankResult>
cachedGoldenPageRank(const CooGraph &graph, const PageRankParams &params);

GoldenCacheStats goldenCacheStats();

/** Drop all entries and reset the statistics. */
void clearGoldenCache();

} // namespace graphr

#endif // GRAPHR_GRAPHR_ENGINE_GOLDEN_CACHE_HH
