#include "golden_cache.hh"

#include <bit>

#include "common/lru_cache.hh"
#include "perf/counters.hh"

namespace graphr
{

namespace
{

struct Key
{
    std::uint64_t fingerprint = 0;
    double damping = 0.0;
    int maxIterations = 0;
    double tolerance = 0.0;

    bool operator==(const Key &other) const = default;
};

struct KeyHash
{
    std::size_t
    operator()(const Key &key) const
    {
        std::uint64_t h = key.fingerprint;
        h ^= std::bit_cast<std::uint64_t>(key.damping) *
             0x9e3779b97f4a7c15ull;
        h ^= static_cast<std::uint64_t>(key.maxIterations) << 17;
        h ^= std::bit_cast<std::uint64_t>(key.tolerance) *
             0xc2b2ae3d27d4eb4full;
        return static_cast<std::size_t>(h ^ (h >> 32));
    }
};

/** Small LRU: golden rank vectors for huge graphs are memory-heavy. */
LruCache<Key, PageRankResult, KeyHash> &
goldenCache()
{
    static LruCache<Key, PageRankResult, KeyHash> cache(16);
    return cache;
}

} // namespace

std::shared_ptr<const PageRankResult>
cachedGoldenPageRank(const CooGraph &graph, const PageRankParams &params)
{
    const Key key{graphFingerprint(graph), params.damping,
                  params.maxIterations, params.tolerance};
    bool hit = false;
    std::shared_ptr<const PageRankResult> result =
        goldenCache().getOrBuild(
            key,
            [&graph, &params] {
                return std::make_shared<const PageRankResult>(
                    pagerank(graph, params));
            },
            &hit);
    static perf::Counter &hits =
        perf::Registry::instance().counter("golden_cache.hits");
    static perf::Counter &misses =
        perf::Registry::instance().counter("golden_cache.misses");
    (hit ? hits : misses).add();
    return result;
}

GoldenCacheStats
goldenCacheStats()
{
    const LruCacheStats stats = goldenCache().stats();
    return GoldenCacheStats{stats.hits, stats.misses};
}

void
clearGoldenCache()
{
    goldenCache().clear();
}

} // namespace graphr
