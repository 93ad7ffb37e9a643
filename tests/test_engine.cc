/**
 * @file
 * Tests of the tile-execution engine layer (graphr/engine/): plan
 * fingerprinting, PlanCache reuse across runs/backends, config
 * validation (the crossbarDim <= 64 row-mask invariant), functional
 * vs reference equivalence for all six algorithms through the shared
 * TileExecutor, resident-weight (ProgramCharging::kOnce) program
 * counting, the driver's golden-PageRank cache, and SIMD-tier
 * independence of whole-sweep JSON reports.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "algorithms/pagerank.hh"
#include "algorithms/spmv.hh"
#include "algorithms/traversal.hh"
#include "algorithms/wcc.hh"
#include "common/random.hh"
#include "driver/driver.hh"
#include "graph/generator.hh"
#include "graphr/engine/golden_cache.hh"
#include "graphr/engine/plan_cache.hh"
#include "graphr/engine/tile_executor.hh"
#include "graphr/node.hh"
#include "graphr/out_of_core.hh"
#include "perf/counters.hh"
#include "rram/simd/simd.hh"

namespace graphr
{
namespace
{

/** Small tiling so functional runs stay fast. */
GraphRConfig
functionalConfig()
{
    GraphRConfig cfg;
    cfg.tiling.crossbarDim = 4;
    cfg.tiling.crossbarsPerGe = 2;
    cfg.tiling.numGe = 2;
    cfg.functional = true;
    return cfg;
}

// -------------------------------------------------------- fingerprint

TEST(FingerprintTest, DeterministicAndSensitive)
{
    const CooGraph a =
        makeRmat({.numVertices = 64, .numEdges = 256, .seed = 1});
    const CooGraph b =
        makeRmat({.numVertices = 64, .numEdges = 256, .seed = 1});
    EXPECT_EQ(graphFingerprint(a), graphFingerprint(b));

    CooGraph c = a;
    c.editEdges([](std::vector<Edge> &edges) { edges[0].weight += 1.0; });
    EXPECT_NE(graphFingerprint(a), graphFingerprint(c));

    const CooGraph d =
        makeRmat({.numVertices = 64, .numEdges = 256, .seed = 2});
    EXPECT_NE(graphFingerprint(a), graphFingerprint(d));
}

// --------------------------------------------------------- plan cache

TEST(PlanCacheTest, ReusesSamePlanAcrossLookups)
{
    PlanCache &cache = PlanCache::instance();
    cache.clear();
    const CooGraph g =
        makeRmat({.numVertices = 128, .numEdges = 512, .seed = 7});
    const TilingParams tiling;

    const TilePlanPtr first = cache.get(g, tiling);
    const TilePlanPtr second = cache.get(g, tiling);
    EXPECT_EQ(first.get(), second.get()) << "plan must be shared";
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PlanCacheTest, DistinctTilingBuildsDistinctPlan)
{
    PlanCache &cache = PlanCache::instance();
    cache.clear();
    const CooGraph g =
        makeRmat({.numVertices = 128, .numEdges = 512, .seed = 7});

    TilingParams coarse;
    TilingParams fine;
    fine.crossbarDim = 4;
    const TilePlanPtr a = cache.get(g, coarse);
    const TilePlanPtr b = cache.get(g, fine);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(PlanCacheTest, EvictionKeepsHandlesValid)
{
    PlanCache &cache = PlanCache::instance();
    cache.clear();
    const CooGraph a = makeChain(32);
    const CooGraph b = makeChain(33);
    const TilingParams tiling;
    // A budget that holds either plan but not both.
    const std::size_t budget =
        TilePlan(b, tiling).footprintBytes() + 1;
    cache.setBudgetBytes(budget);

    const TilePlanPtr pa = cache.get(a, tiling);
    const TilePlanPtr pb = cache.get(b, tiling); // evicts a's entry
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.bytes(), pb->footprintBytes());
    // The evicted plan is still alive through our handle.
    EXPECT_GT(pa->meta.totalNnz(), 0u);
    // Re-requesting a is a miss again.
    cache.get(a, tiling);
    EXPECT_EQ(cache.stats().misses, 3u);
    cache.setBudgetBytes(PlanCache::kDefaultBudgetBytes);
}

TEST(PlanCacheTest, PlanOverBudgetIsServedButNotRetained)
{
    PlanCache &cache = PlanCache::instance();
    cache.clear();
    const CooGraph small = makeChain(16);
    const CooGraph large = makeChain(64);
    const TilingParams tiling;
    cache.setBudgetBytes(TilePlan(small, tiling).footprintBytes());

    cache.get(small, tiling);
    const TilePlanPtr plan = cache.get(large, tiling);
    ASSERT_NE(plan, nullptr);
    EXPECT_EQ(plan->meta.totalNnz(), large.numEdges());
    // The oversized plan went back out, and it did not push the
    // resident one out on its way.
    EXPECT_EQ(cache.size(), 1u);
    bool hit = false;
    cache.get(small, tiling, &hit);
    EXPECT_TRUE(hit);
    cache.get(large, tiling, &hit);
    EXPECT_FALSE(hit);
    cache.setBudgetBytes(PlanCache::kDefaultBudgetBytes);
}

TEST(PlanCacheTest, SharedAcrossRunnersAndBackends)
{
    PlanCache &cache = PlanCache::instance();
    cache.clear();
    const CooGraph g =
        makeRmat({.numVertices = 128, .numEdges = 512, .seed = 11});

    GraphRConfig cfg;
    GraphRNode node(cfg);
    PageRankParams pr;
    pr.maxIterations = 5;
    node.runPageRank(g, pr);
    EXPECT_FALSE(node.lastEngineStats().planCacheHit);

    const std::vector<Value> x(g.numVertices(), 1.0);
    node.runSpmv(g, x);
    EXPECT_TRUE(node.lastEngineStats().planCacheHit);

    OutOfCoreRunner ooc(cfg, StorageParams{});
    ooc.runSpmv(g, x);

    EXPECT_EQ(cache.stats().misses, 1u)
        << "one prepare per (graph, tiling) across runners";
}

TEST(PlanCacheTest, DriverSweepPreparesOncePerGraphAndTiling)
{
    PlanCache &cache = PlanCache::instance();
    cache.clear();

    driver::SweepSpec spec;
    spec.workloads = {"all"};
    spec.backends = {"graphr", "outofcore"};
    spec.datasets = {"rmat:vertices=128,edges=512,seed=3"};
    spec.params =
        driver::ParamMap::parse("epochs=1,features=4,iterations=5");
    const std::vector<driver::RunResult> results =
        driver::runSweep(spec);
    EXPECT_EQ(results.size(), 12u);

    // Six algorithms x two backends share exactly two plans: the
    // graph itself and its symmetrised variant (WCC).
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_GT(cache.stats().hits, 0u);
}

// --------------------------------------------------- config validation

TEST(ConfigValidationTest, RejectsRowMaskOverflowingCrossbars)
{
    GraphRConfig cfg;
    cfg.tiling.crossbarDim = 128; // would shift a uint64_t out of range
    EXPECT_THROW(GraphRNode{cfg}, ConfigError);
    EXPECT_THROW(MultiNodeGraphR(cfg, 2), ConfigError);
    EXPECT_THROW(OutOfCoreRunner(cfg, StorageParams{}), ConfigError);
    cfg.tiling.crossbarDim = 64; // largest legal dimension
    EXPECT_NO_THROW(GraphRNode{cfg});
}

TEST(ConfigValidationTest, RejectsDegenerateParameters)
{
    GraphRConfig cfg;
    cfg.tiling.crossbarDim = 0;
    EXPECT_THROW(GraphRNode{cfg}, ConfigError);

    cfg = GraphRConfig{};
    cfg.tiling.numGe = 0;
    EXPECT_THROW(GraphRNode{cfg}, ConfigError);

    cfg = GraphRConfig{};
    cfg.weightFracBits = 17;
    EXPECT_THROW(GraphRNode{cfg}, ConfigError);

    cfg = GraphRConfig{};
    cfg.variationSigma = -1.0;
    EXPECT_THROW(GraphRNode{cfg}, ConfigError);
}

// ------------------------------- functional equivalence, six algorithms

TEST(EngineFunctionalTest, PageRankMatchesReference)
{
    const CooGraph g =
        makeRmat({.numVertices = 50, .numEdges = 400, .seed = 41});
    GraphRNode node(functionalConfig());
    PageRankParams params;
    params.maxIterations = 12;
    params.tolerance = 0.0;
    std::vector<Value> ranks;
    node.runPageRank(g, params, &ranks);

    const PageRankResult golden = pagerank(g, params);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        EXPECT_NEAR(ranks[v], golden.ranks[v], 0.02) << "vertex " << v;
}

TEST(EngineFunctionalTest, SpmvMatchesReference)
{
    const CooGraph g = makeRmat({.numVertices = 40,
                                 .numEdges = 300,
                                 .maxWeight = 3.0,
                                 .seed = 42});
    GraphRNode node(functionalConfig());
    std::vector<Value> x(g.numVertices());
    Rng rng(9);
    for (auto &v : x)
        v = rng.uniform();
    std::vector<Value> y;
    node.runSpmv(g, x, &y);
    const std::vector<Value> golden = spmv(g, x);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        EXPECT_NEAR(y[v], golden[v], 0.01) << "vertex " << v;
}

TEST(EngineFunctionalTest, SpmvStaysExactUnderVariation)
{
    // SpMV is the exactness-validation workload: cell variation must
    // not perturb it (it applies to the resilience experiments —
    // PageRank and the add-op traversals — only).
    const CooGraph g = makeRmat({.numVertices = 40,
                                 .numEdges = 300,
                                 .maxWeight = 3.0,
                                 .seed = 42});
    GraphRConfig cfg = functionalConfig();
    cfg.variationSigma = 0.5;
    GraphRNode node(cfg);
    std::vector<Value> x(g.numVertices(), 1.0);
    std::vector<Value> y;
    node.runSpmv(g, x, &y);
    const std::vector<Value> golden = spmv(g, x);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        EXPECT_NEAR(y[v], golden[v], 0.01) << "vertex " << v;
}

TEST(EngineFunctionalTest, BfsMatchesReferenceExactly)
{
    const CooGraph g =
        makeRmat({.numVertices = 70, .numEdges = 600, .seed = 43});
    GraphRNode node(functionalConfig());
    std::vector<Value> dist;
    node.runBfs(g, 0, &dist);
    const TraversalResult golden = bfs(g, 0);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (std::isinf(golden.dist[v]))
            EXPECT_TRUE(std::isinf(dist[v])) << "vertex " << v;
        else
            EXPECT_DOUBLE_EQ(dist[v], golden.dist[v]) << "vertex " << v;
    }
}

TEST(EngineFunctionalTest, SsspMatchesReferenceExactly)
{
    const CooGraph g = makeRmat({.numVertices = 60,
                                 .numEdges = 500,
                                 .maxWeight = 15.0,
                                 .seed = 44});
    GraphRNode node(functionalConfig());
    std::vector<Value> dist;
    node.runSssp(g, 0, &dist);
    const TraversalResult golden = sssp(g, 0);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (std::isinf(golden.dist[v]))
            EXPECT_TRUE(std::isinf(dist[v])) << "vertex " << v;
        else
            EXPECT_DOUBLE_EQ(dist[v], golden.dist[v]) << "vertex " << v;
    }
}

TEST(EngineFunctionalTest, WccMatchesReferenceExactly)
{
    const CooGraph g =
        makeRmat({.numVertices = 90, .numEdges = 300, .seed = 45});
    GraphRNode node(functionalConfig());
    std::vector<VertexId> labels;
    node.runWcc(g, &labels);
    const WccResult golden = wcc(g);
    ASSERT_EQ(labels.size(), golden.labels.size());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        EXPECT_EQ(labels[v], golden.labels[v]) << "vertex " << v;
}

TEST(EngineFunctionalTest, CfScheduleIndependentOfFunctionalFlag)
{
    // CF semantics always come from the golden SGD; the functional
    // flag must not change the modelled schedule or its cost.
    const CooGraph ratings = makeBipartiteRatings(32, 16, 200, 21);
    CfParams params;
    params.featureLength = 4;
    params.epochs = 2;
    params.numUsers = 32;

    GraphRNode functional(functionalConfig());
    GraphRConfig timing_cfg = functionalConfig();
    timing_cfg.functional = false;
    GraphRNode timing(timing_cfg);

    const SimReport a = functional.runCf(ratings, params);
    const SimReport b = timing.runCf(ratings, params);
    EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
    EXPECT_DOUBLE_EQ(a.joules, b.joules);
    EXPECT_EQ(a.tilesProcessed, b.tilesProcessed);
    EXPECT_EQ(a.edgesProcessed, b.edgesProcessed);
}

// ------------------------------------------- resident weights (kOnce)

/** Occupied wordlines read by crossbar MVMs so far, process-wide. */
std::uint64_t
mvmRowsSoFar()
{
    return perf::Registry::instance()
        .counter("crossbar.mvm_rows_processed")
        .value();
}

TEST(ResidentWeightTest, KOnceProgramsEachTileOncePerRun)
{
    const CooGraph g =
        makeRmat({.numVertices = 64, .numEdges = 500, .seed = 51});
    GraphRConfig cfg = functionalConfig();
    cfg.programCharging = ProgramCharging::kOnce;
    PageRankParams params;
    params.tolerance = 0.0;

    // Every sweep still evaluates every tile: six sweeps read six
    // times the wordlines of one.
    params.maxIterations = 1;
    const std::uint64_t rows0 = mvmRowsSoFar();
    GraphRNode(cfg).runPageRank(g, params);
    const std::uint64_t rows_one_sweep = mvmRowsSoFar() - rows0;

    params.maxIterations = 6;
    GraphRNode node(cfg);
    const std::uint64_t rows1 = mvmRowsSoFar();
    node.runPageRank(g, params);
    EXPECT_EQ(mvmRowsSoFar() - rows1, rows_one_sweep * 6);

    const std::uint64_t tiles =
        PlanCache::instance().get(g, cfg.tiling)->meta.tiles().size();
    ASSERT_GT(tiles, 0u);
    EXPECT_GT(rows_one_sweep, 0u);
    EXPECT_EQ(node.lastEngineStats().functionalTilePrograms, tiles);
}

TEST(ResidentWeightTest, PerSweepProgramsOnceButChargesEverySweep)
{
    // Programming draws no randomness, so under either policy the
    // functional datapath programs each tile exactly once per run;
    // kPerSweep differs only in what the cost model charges: the
    // programming phase once per sweep.
    const CooGraph g =
        makeRmat({.numVertices = 64, .numEdges = 500, .seed = 51});
    PageRankParams params;
    params.maxIterations = 6;
    params.tolerance = 0.0;

    GraphRConfig per_sweep_cfg = functionalConfig(); // kPerSweep
    GraphRConfig once_cfg = functionalConfig();
    once_cfg.programCharging = ProgramCharging::kOnce;
    GraphRNode per_sweep(per_sweep_cfg);
    GraphRNode once(once_cfg);
    const SimReport per_sweep_report = per_sweep.runPageRank(g, params);
    const SimReport once_report = once.runPageRank(g, params);

    const std::uint64_t tiles =
        PlanCache::instance()
            .get(g, per_sweep_cfg.tiling)
            ->meta.tiles()
            .size();
    ASSERT_GT(tiles, 0u);
    EXPECT_EQ(per_sweep.lastEngineStats().functionalTilePrograms, tiles);
    EXPECT_EQ(once.lastEngineStats().functionalTilePrograms, tiles);
    ASSERT_EQ(per_sweep_report.iterations, 6u);
    EXPECT_GT(once_report.programSeconds, 0.0);
    EXPECT_DOUBLE_EQ(per_sweep_report.programSeconds,
                     once_report.programSeconds * 6.0);
}

TEST(ResidentWeightTest, KOnceResultsMatchReprogramExactly)
{
    const CooGraph g = makeRmat({.numVertices = 50,
                                 .numEdges = 400,
                                 .maxWeight = 9.0,
                                 .seed = 52});
    PageRankParams params;
    params.maxIterations = 8;
    params.tolerance = 0.0;

    GraphRConfig per_sweep = functionalConfig();
    GraphRConfig once = functionalConfig();
    once.programCharging = ProgramCharging::kOnce;

    std::vector<Value> ranks_per_sweep;
    std::vector<Value> ranks_once;
    GraphRNode(per_sweep).runPageRank(g, params, &ranks_per_sweep);
    GraphRNode(once).runPageRank(g, params, &ranks_once);
    ASSERT_EQ(ranks_per_sweep.size(), ranks_once.size());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        EXPECT_DOUBLE_EQ(ranks_once[v], ranks_per_sweep[v]);

    std::vector<Value> dist_per_sweep;
    std::vector<Value> dist_once;
    GraphRNode(per_sweep).runSssp(g, 0, &dist_per_sweep);
    GraphRNode(once).runSssp(g, 0, &dist_once);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (std::isinf(dist_per_sweep[v]))
            EXPECT_TRUE(std::isinf(dist_once[v])) << "vertex " << v;
        else
            EXPECT_DOUBLE_EQ(dist_once[v], dist_per_sweep[v])
                << "vertex " << v;
    }
}

TEST(ResidentWeightTest, AddOpProgramsEachTileAtMostOnce)
{
    const CooGraph g =
        makeRmat({.numVertices = 64, .numEdges = 500, .seed = 53});
    GraphRConfig cfg = functionalConfig();
    cfg.programCharging = ProgramCharging::kOnce;
    GraphRNode node(cfg);

    std::vector<Value> dist;
    node.runBfs(g, 0, &dist);

    const std::uint64_t tiles =
        PlanCache::instance().get(g, cfg.tiling)->meta.tiles().size();
    EXPECT_LE(node.lastEngineStats().functionalTilePrograms, tiles);

    const TraversalResult golden = bfs(g, 0);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (std::isinf(golden.dist[v]))
            EXPECT_TRUE(std::isinf(dist[v]));
        else
            EXPECT_DOUBLE_EQ(dist[v], golden.dist[v]);
    }
}

// ----------------------------------------------- driver golden cache

TEST(GoldenCacheTest, BaselinesShareOneGoldenPageRank)
{
    clearGoldenCache();

    driver::SweepSpec spec;
    spec.workloads = {"pagerank"};
    spec.backends = {"cpu", "gpu", "pim"};
    spec.datasets = {"rmat:vertices=128,edges=512,seed=3"};
    const std::vector<driver::RunResult> results =
        driver::runSweep(spec);
    ASSERT_EQ(results.size(), 3u);
    // All three baselines report the same iteration count ...
    EXPECT_EQ(results[0].iterations, results[1].iterations);
    EXPECT_EQ(results[1].iterations, results[2].iterations);
    // ... computed exactly once.
    EXPECT_EQ(goldenCacheStats().misses, 1u);
    EXPECT_EQ(goldenCacheStats().hits, 2u);
}

TEST(GoldenCacheTest, DistinctParamsMiss)
{
    clearGoldenCache();
    const CooGraph g =
        makeRmat({.numVertices = 64, .numEdges = 256, .seed = 5});
    PageRankParams a;
    PageRankParams b;
    b.maxIterations = a.maxIterations + 1;
    cachedGoldenPageRank(g, a);
    cachedGoldenPageRank(g, b);
    cachedGoldenPageRank(g, a);
    EXPECT_EQ(goldenCacheStats().misses, 2u);
    EXPECT_EQ(goldenCacheStats().hits, 1u);
}

// ------------------------------------------- report stability on reuse

TEST(EngineReportTest, CacheHitReportIdenticalToCacheMiss)
{
    PlanCache::instance().clear();
    const CooGraph g =
        makeRmat({.numVertices = 128, .numEdges = 512, .seed = 61});
    GraphRNode node{GraphRConfig{}};
    PageRankParams params;
    params.maxIterations = 10;
    params.tolerance = 0.0;

    const SimReport cold = node.runPageRank(g, params); // cache miss
    const SimReport warm = node.runPageRank(g, params); // cache hit
    EXPECT_FALSE(cold.algorithm.empty());
    EXPECT_DOUBLE_EQ(warm.seconds, cold.seconds);
    EXPECT_DOUBLE_EQ(warm.joules, cold.joules);
    EXPECT_EQ(warm.tilesProcessed, cold.tilesProcessed);
    EXPECT_EQ(warm.tilesSkipped, cold.tilesSkipped);
    EXPECT_EQ(warm.edgesProcessed, cold.edgesProcessed);
    EXPECT_TRUE(node.lastEngineStats().planCacheHit);
}

// ------------------------------------------------ SIMD tier parity

TEST(SimdSweepParityTest, FunctionalSweepJsonIdenticalAcrossTiers)
{
    // The whole-system bit-exactness contract: a functional sweep of
    // all six algorithms must serialise to byte-identical JSON no
    // matter which kernel tier accumulates the crossbar MVMs. This is
    // what lets CI run GRAPHR_SIMD=scalar and GRAPHR_SIMD=avx2 jobs
    // against the same goldens.
    const simd::Level original = simd::activeLevel();

    driver::SweepSpec spec;
    spec.workloads = {"all"};
    spec.backends = {"graphr"};
    spec.datasets = {"rmat:vertices=64,edges=256,seed=3"};
    spec.params =
        driver::ParamMap::parse("epochs=1,features=4,iterations=3");
    spec.backendOptions.config.functional = true;
    spec.backendOptions.config.tiling.crossbarDim = 8;
    spec.backendOptions.config.tiling.crossbarsPerGe = 2;
    spec.backendOptions.config.tiling.numGe = 2;

    const auto sweep_json = [&spec] {
        PlanCache::instance().clear();
        clearGoldenCache();
        std::ostringstream os;
        driver::writeResultsJson(os, driver::runSweep(spec));
        return os.str();
    };

    simd::setActiveLevelForTest(simd::Level::kScalar);
    const std::string scalar_json = sweep_json();

    simd::setActiveLevelForTest(simd::bestSupportedLevel());
    const std::string best_json = sweep_json();

    simd::setActiveLevelForTest(original);

    ASSERT_FALSE(scalar_json.empty());
    EXPECT_EQ(scalar_json, best_json)
        << "functional sweep output depends on the SIMD tier";
}

} // namespace
} // namespace graphr
