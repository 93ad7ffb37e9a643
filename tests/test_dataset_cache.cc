/**
 * @file
 * Tests for the warm path's memoisation layers: the byte-budgeted LRU
 * (common/lru_cache.hh), the per-graph memo of fingerprint, out-CSR
 * and symmetrised twin (graph/coo.hh), and the process-wide dataset
 * cache built on both (driver/dataset.hh). Covers cache keys, eviction
 * by weight (including an entry over the whole budget), memo
 * invalidation by every mutator, file datasets that must never be
 * served stale, and one-build-per-key under concurrent requests.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/lru_cache.hh"
#include "driver/dataset.hh"
#include "graph/csr.hh"
#include "graph/generator.hh"
#include "perf/counters.hh"

namespace graphr
{
namespace
{

std::uint64_t
counter(const char *name)
{
    return perf::Registry::instance().counter(name).value();
}

// ------------------------------------------------- byte-budgeted LRU

struct IntHash
{
    std::size_t operator()(int k) const { return static_cast<std::size_t>(k); }
};

struct StringBytes
{
    std::size_t operator()(const std::string &s) const { return s.size(); }
};

using ByteLru = LruCache<int, std::string, IntHash, StringBytes>;

std::shared_ptr<const std::string>
put(ByteLru &lru, int key, std::size_t bytes, bool *hit = nullptr)
{
    return lru.getOrBuild(
        key,
        [bytes] { return std::make_shared<const std::string>(bytes, 'x'); },
        hit);
}

TEST(ByteBudgetLruTest, EvictsLeastRecentlyUsedByWeight)
{
    ByteLru lru(10);
    put(lru, 1, 4);
    put(lru, 2, 4);
    put(lru, 1, 4); // touch 1: 2 is now least recently used
    put(lru, 3, 4); // 12 bytes > 10: drops 2
    EXPECT_EQ(lru.size(), 2u);
    EXPECT_EQ(lru.weight(), 8u);
    bool hit = false;
    put(lru, 1, 4, &hit);
    EXPECT_TRUE(hit);
    put(lru, 2, 4, &hit);
    EXPECT_FALSE(hit);
}

TEST(ByteBudgetLruTest, EntryOverTheWholeBudgetIsServedNotRetained)
{
    ByteLru lru(10);
    put(lru, 1, 4);
    const auto big = put(lru, 2, 11);
    ASSERT_NE(big, nullptr);
    EXPECT_EQ(big->size(), 11u);
    // Not retained, and nothing else was evicted to make room for it.
    EXPECT_EQ(lru.size(), 1u);
    EXPECT_EQ(lru.weight(), 4u);
    bool hit = false;
    put(lru, 1, 4, &hit);
    EXPECT_TRUE(hit);
    put(lru, 2, 11, &hit);
    EXPECT_FALSE(hit);
}

// ------------------------------------------------------ graph memo

TEST(GraphMemoTest, FingerprintHashesTheEdgesOnce)
{
    const CooGraph g =
        makeRmat({.numVertices = 64, .numEdges = 256, .seed = 1});
    const std::uint64_t before = counter("fingerprint.edges_hashed");
    const std::uint64_t fp = graphFingerprint(g);
    EXPECT_EQ(graphFingerprint(g), fp);
    EXPECT_EQ(counter("fingerprint.edges_hashed") - before, 256u);
}

TEST(GraphMemoTest, EveryMutatorDropsTheMemo)
{
    CooGraph g(4, {{0, 1, 1.0}, {2, 1, 1.0}, {1, 3, 1.0}});
    const auto matches_fresh = [&g] {
        const CooGraph copy = g; // a copy starts without a memo
        return graphFingerprint(g) == graphFingerprint(copy) &&
               g.outCsr().numEdges() == g.numEdges() &&
               g.symmetrized().numEdges() ==
                   symmetrize(copy).numEdges();
    };
    ASSERT_TRUE(matches_fresh());

    std::uint64_t last = graphFingerprint(g);
    const auto changed = [&g, &last] {
        const std::uint64_t now = graphFingerprint(g);
        const bool differs = now != last;
        last = now;
        return differs;
    };
    g.addEdge(3, 3, 2.0);
    EXPECT_TRUE(changed());
    EXPECT_TRUE(matches_fresh());
    g.editEdges([](std::vector<Edge> &edges) { edges[0].weight = 5.0; });
    EXPECT_TRUE(changed());
    EXPECT_TRUE(matches_fresh());
    g.sortBySource();
    EXPECT_TRUE(changed());
    EXPECT_TRUE(matches_fresh());
    g.removeSelfLoops();
    EXPECT_TRUE(changed());
    EXPECT_TRUE(matches_fresh());
    g.addEdge(0, 1, 7.0);
    g.dedupe();
    EXPECT_TRUE(matches_fresh());

    CooGraph other(2, {{0, 1, 1.0}});
    graphFingerprint(other);
    other = g; // copy-assignment replaces the memo too
    EXPECT_EQ(graphFingerprint(other), graphFingerprint(g));
}

TEST(GraphMemoTest, MoveCarriesTheMemo)
{
    CooGraph g = makeRmat({.numVertices = 64, .numEdges = 256, .seed = 2});
    const std::uint64_t fp = graphFingerprint(g);
    const CsrGraph *csr = &g.outCsr();
    const std::uint64_t before = counter("fingerprint.edges_hashed");
    const CooGraph moved = std::move(g);
    EXPECT_EQ(graphFingerprint(moved), fp);
    EXPECT_EQ(&moved.outCsr(), csr);
    EXPECT_EQ(counter("fingerprint.edges_hashed"), before);
}

TEST(GraphMemoTest, DerivedStateMatchesTheUncachedBuilds)
{
    const CooGraph g =
        makeRmat({.numVertices = 64, .numEdges = 256, .seed = 3});
    const CsrGraph fresh(g, CsrGraph::Direction::kOut);
    const CsrGraph &memo = g.outCsr();
    EXPECT_EQ(&g.outCsr(), &memo);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        ASSERT_EQ(memo.degree(v), fresh.degree(v));
        for (EdgeId i = 0; i < memo.degree(v); ++i) {
            EXPECT_EQ(memo.neighbors(v)[i].neighbor,
                      fresh.neighbors(v)[i].neighbor);
        }
    }
    const std::vector<EdgeId> &degrees = g.outDegrees();
    EXPECT_EQ(&g.outDegrees(), &degrees);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        EXPECT_EQ(degrees[v], fresh.degree(v));
    const CooGraph sym = symmetrize(g);
    EXPECT_EQ(&g.symmetrized(), &g.symmetrized());
    EXPECT_EQ(graphFingerprint(g.symmetrized()), graphFingerprint(sym));

    // The footprint charges memoised state as it appears.
    const CooGraph h =
        makeRmat({.numVertices = 64, .numEdges = 256, .seed = 4});
    const std::size_t bare = h.footprintBytes();
    h.outDegrees();
    const std::size_t with_degrees = h.footprintBytes();
    EXPECT_EQ(with_degrees, bare + 64 * sizeof(EdgeId));
    h.outCsr();
    const std::size_t with_csr = h.footprintBytes();
    EXPECT_GT(with_csr, with_degrees);
    h.symmetrized();
    EXPECT_GT(h.footprintBytes(), with_csr);
}

TEST(GraphMemoTest, ConcurrentFirstUseBuildsOnce)
{
    const CooGraph g =
        makeRmat({.numVertices = 256, .numEdges = 2048, .seed = 5});
    const std::uint64_t before = counter("fingerprint.edges_hashed");
    std::vector<const CsrGraph *> csrs(8);
    std::vector<const CooGraph *> twins(8);
    {
        std::vector<std::thread> threads;
        for (std::size_t t = 0; t < csrs.size(); ++t) {
            threads.emplace_back([&, t] {
                graphFingerprint(g);
                csrs[t] = &g.outCsr();
                twins[t] = &g.symmetrized();
            });
        }
        for (std::thread &thread : threads)
            thread.join();
    }
    EXPECT_EQ(counter("fingerprint.edges_hashed") - before, 2048u);
    for (std::size_t t = 1; t < csrs.size(); ++t) {
        EXPECT_EQ(csrs[t], csrs[0]);
        EXPECT_EQ(twins[t], twins[0]);
    }
}

// ---------------------------------------------------- dataset cache

class DatasetCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override { driver::clearDatasetCache(); }
    void TearDown() override { driver::clearDatasetCache(); }
};

constexpr const char *kSpec = "rmat:vertices=128,edges=512";

TEST_F(DatasetCacheTest, RepeatedSpecIsOneSharedEntry)
{
    const std::uint64_t before = counter("dataset.generations");
    const auto a = driver::cachedDataset(kSpec, 1.0, 7);
    const auto b = driver::cachedDataset(kSpec, 1.0, 7);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(counter("dataset.generations") - before, 1u);
    const driver::DatasetCacheStats stats = driver::datasetCacheStats();
    EXPECT_EQ(stats.size, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_GE(stats.bytes, a->graph.numEdges() * sizeof(Edge));

    // Memoised state shows up in the cache's byte count.
    a->graph.outCsr();
    EXPECT_GT(driver::datasetCacheStats().bytes, stats.bytes);

    driver::clearDatasetCache();
    EXPECT_EQ(driver::datasetCacheStats().size, 0u);
    EXPECT_EQ(driver::datasetCacheStats().misses, 0u);
}

TEST_F(DatasetCacheTest, SeedAndScaleAreDistinctEntries)
{
    const auto seed7 = driver::cachedDataset(kSpec, 1.0, 7);
    const auto seed8 = driver::cachedDataset(kSpec, 1.0, 8);
    EXPECT_NE(seed7.get(), seed8.get());
    EXPECT_NE(graphFingerprint(seed7->graph),
              graphFingerprint(seed8->graph));

    const auto scale64 = driver::cachedDataset("wiki-vote", 64.0, 7);
    const auto scale128 = driver::cachedDataset("wiki-vote", 128.0, 7);
    EXPECT_NE(scale64.get(), scale128.get());
    EXPECT_GT(scale64->graph.numEdges(), scale128->graph.numEdges());
    EXPECT_EQ(driver::datasetCacheStats().size, 4u);
    EXPECT_EQ(driver::datasetCacheStats().misses, 4u);

    // Each entry is the graph the uncached resolver builds.
    EXPECT_EQ(graphFingerprint(seed8->graph),
              graphFingerprint(driver::resolveDataset(kSpec, 1.0, 8).graph));
}

TEST_F(DatasetCacheTest, RewrittenFileIsReadAfresh)
{
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("graphr_dataset_cache_" + std::to_string(::getpid()) + ".txt");
    const auto write = [&path](const char *text) {
        std::ofstream os(path);
        os << text;
    };
    const std::string spec = "file:" + path.string();

    write("0 1\n1 2\n");
    const auto first = driver::cachedDataset(spec);
    // Same size, different graph.
    write("0 2\n2 1\n");
    const auto second = driver::cachedDataset(spec);
    std::filesystem::remove(path);

    EXPECT_NE(graphFingerprint(first->graph),
              graphFingerprint(second->graph));
    EXPECT_EQ(second->graph.edges()[0].dst, 2u);
    EXPECT_EQ(driver::datasetCacheStats().size, 0u);
}

TEST_F(DatasetCacheTest, ConcurrentRequestsForOneKeyGenerateOnce)
{
    const std::uint64_t generations = counter("dataset.generations");
    const std::uint64_t hashed = counter("fingerprint.edges_hashed");
    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const driver::ResolvedDataset>> seen(
        kThreads);
    {
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&seen, t] {
                for (int i = 0; i < 10; ++i) {
                    seen[static_cast<std::size_t>(t)] =
                        driver::cachedDataset(kSpec, 1.0, 9);
                    graphFingerprint(
                        seen[static_cast<std::size_t>(t)]->graph);
                }
            });
        }
        for (std::thread &thread : threads)
            thread.join();
    }
    EXPECT_EQ(counter("dataset.generations") - generations, 1u);
    EXPECT_EQ(counter("fingerprint.edges_hashed") - hashed, 512u);
    EXPECT_EQ(driver::datasetCacheStats().misses, 1u);
    EXPECT_EQ(driver::datasetCacheStats().hits, kThreads * 10u - 1u);
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(seen[static_cast<std::size_t>(t)].get(), seen[0].get());
}

} // namespace
} // namespace graphr
