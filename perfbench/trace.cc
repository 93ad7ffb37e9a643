/**
 * @file
 * graphr_trace: the traced half of the repository benchmark.
 *
 * The end-to-end numbers come from the shipped binaries, untraced.
 * This probe links the library and times calls into each layer's
 * public functions, so the benchmark can say where a request's time
 * goes without instrumenting the program itself:
 *
 *   graphr_trace env
 *   graphr_trace fingerprint --dataset SPEC
 *   graphr_trace request --workload W --backend B --dataset SPEC
 *                --scratch DIR --out FILE
 *                [--plan-dir DIR] [--warm-memory] [--functional]
 *
 * `request` first runs the real request through driver::runSweep
 * (span "request"; with --warm-memory it runs once untimed before, so
 * the span sees the warm in-memory caches a daemon would). It then
 * replays the layers that request passes through, one public call per
 * span, on the same inputs: dataset resolve, fingerprint, sort, tile
 * meta, CSR, store save/load/decode, golden algorithm, symmetrise, a
 * warm node run and, for functional MAC workloads, crossbar
 * program/MVM over the plan's own tiles (one pass; the benchmark
 * scales it by the node run's own program and MVM-row counts). Spans
 * (name, start, end, parent) stay in memory and are written as one
 * JSON document at exit, together with the request's results (the
 * benchmark checks them against the untraced runs) and the work
 * counts the replays observed.
 */

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "algorithms/collaborative_filtering.hh"
#include "algorithms/pagerank.hh"
#include "algorithms/spmv.hh"
#include "algorithms/traversal.hh"
#include "algorithms/wcc.hh"
#include "driver/backend.hh"
#include "driver/dataset.hh"
#include "driver/driver.hh"
#include "driver/run_result.hh"
#include "driver/workload.hh"
#include "graph/csr.hh"
#include "graph/preprocess.hh"
#include "graphr/engine/plan_cache.hh"
#include "graphr/node.hh"
#include "graphr/tile_meta.hh"
#include "perf/counters.hh"
#include "rram/energy.hh"
#include "rram/graph_engine.hh"
#include "rram/simd/simd.hh"
#include "store/edge_codec.hh"
#include "store/plan_store.hh"

namespace
{

using namespace graphr;
using Clock = std::chrono::steady_clock;

/** In-memory span recorder; parents follow the open-span stack. */
class Tracer
{
  public:
    void
    open(const std::string &name)
    {
        const std::uint64_t parent = stack_.empty() ? 0 : stack_.back();
        spans_.push_back(Span{name, parent, now(), 0.0});
        stack_.push_back(spans_.size());
    }

    void
    close()
    {
        spans_[stack_.back() - 1].end = now();
        stack_.pop_back();
    }

    /** Run @p body inside a span named @p name; return its result. */
    template <typename F>
    auto
    time(const std::string &name, F &&body)
    {
        open(name);
        if constexpr (std::is_void_v<decltype(body())>) {
            body();
            close();
        } else {
            auto result = body();
            close();
            return result;
        }
    }

    /** Spans as a JSON array; ids are 1-based, parent 0 = root. */
    void
    writeJson(std::ostream &os) const
    {
        os << "[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << (i ? ",\n" : "\n") << "{\"id\":" << i + 1
               << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
               << "\",\"start_s\":" << s.start << ",\"end_s\":" << s.end
               << "}";
        }
        os << "]";
    }

  private:
    struct Span
    {
        std::string name;
        std::uint64_t parent = 0;
        double start = 0.0;
        double end = 0.0;
    };

    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - epoch_)
            .count();
    }

    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<std::uint64_t> stack_;
};

std::uint64_t
counterValue(const std::string &name)
{
    const auto values = perf::Registry::instance().counterValues();
    const auto it = values.find(name);
    return it == values.end() ? 0 : it->second;
}

/** The golden software algorithm a timing-mode node run computes. */
void
runGolden(const driver::Workload &workload,
          const driver::ResolvedDataset &dataset)
{
    const CooGraph &g = dataset.graph;
    switch (workload.kind) {
      case driver::WorkloadKind::kPageRank:
        pagerank(g, workload.params.pagerank);
        break;
      case driver::WorkloadKind::kSpmv:
        spmv(g, std::vector<Value>(g.numVertices(), 1.0));
        break;
      case driver::WorkloadKind::kBfs:
        bfs(g, workload.params.source);
        break;
      case driver::WorkloadKind::kSssp:
        sssp(g, workload.params.source);
        break;
      case driver::WorkloadKind::kWcc:
        wcc(g);
        break;
      case driver::WorkloadKind::kCf:
        // No CF request runs the golden factorisation.
        break;
    }
}

/** One GraphR node run (keeps the node so its engine stats survive). */
void
runNode(GraphRNode &node, const driver::Workload &workload,
        const driver::ResolvedDataset &dataset)
{
    const CooGraph &g = dataset.graph;
    switch (workload.kind) {
      case driver::WorkloadKind::kPageRank:
        node.runPageRank(g, workload.params.pagerank);
        break;
      case driver::WorkloadKind::kSpmv:
        node.runSpmv(g, std::vector<Value>(g.numVertices(), 1.0));
        break;
      case driver::WorkloadKind::kBfs:
        node.runBfs(g, workload.params.source);
        break;
      case driver::WorkloadKind::kSssp:
        node.runSssp(g, workload.params.source);
        break;
      case driver::WorkloadKind::kWcc:
        node.runWcc(g);
        break;
      case driver::WorkloadKind::kCf: {
        CfParams cf = workload.params.cf;
        if (cf.numUsers == 0)
            cf.numUsers = dataset.bipartite ? dataset.numUsers
                                            : g.numVertices() / 2;
        node.runCf(g, cf);
        break;
      }
    }
}

struct RequestArgs
{
    std::string workload;
    std::string backend;
    std::string dataset;
    std::string planDir;
    std::string scratch;
    std::string out;
    bool warmMemory = false;
    bool functional = false;
};

int
traceRequest(const RequestArgs &args)
{
    namespace fs = std::filesystem;
    Tracer tracer;
    std::map<std::string, double> counts;

    driver::SweepSpec spec;
    spec.workloads = {args.workload};
    spec.backends = {args.backend};
    spec.datasets = {args.dataset};
    spec.backendOptions.config.functional = args.functional;
    spec.store.planDir = args.planDir;
    if (args.warmMemory)
        driver::runSweep(spec);
    const auto results =
        tracer.time("request", [&] { return driver::runSweep(spec); });

    // ---- layer replays on the request's own inputs
    const GraphRConfig &config = spec.backendOptions.config;
    const TilingParams &tiling = config.tiling;
    const driver::Workload workload =
        driver::makeWorkload(args.workload, driver::ParamMap{});
    tracer.open("replay");
    const driver::ResolvedDataset dataset = tracer.time(
        "driver.resolve",
        [&] { return driver::resolveDataset(args.dataset); });

    // WCC plans (and walks) the symmetrised twin of the graph.
    CooGraph sym;
    const CooGraph *planned = &dataset.graph;
    if (workload.kind == driver::WorkloadKind::kWcc) {
        sym = tracer.time("algorithms.symmetrize",
                          [&] { return symmetrize(dataset.graph); });
        planned = &sym;
    }
    const std::uint64_t fp = tracer.time(
        "graph.fingerprint", [&] { return graphFingerprint(*planned); });
    const GridPartition partition(planned->numVertices(), tiling);
    const OrderedEdgeList ordered = tracer.time("graph.sort", [&] {
        return OrderedEdgeList(*planned, partition);
    });
    tracer.time("graphr.tile_meta",
                [&] { return TileMetaTable(ordered).totalNnz(); });
    tracer.time("graph.csr", [&] {
        return CsrGraph(*planned, CsrGraph::Direction::kOut).numEdges();
    });
    tracer.time("algorithms.golden",
                [&] { runGolden(workload, dataset); });

    // Store write and read paths, on the plan the request used.
    const TilePlanPtr plan = PlanCache::instance().get(*planned, tiling);
    const fs::path replay_dir = fs::path(args.scratch) / "replay_plans";
    fs::create_directories(replay_dir);
    const PlanStore replay_store(replay_dir.string());
    tracer.time("store.save",
                [&] { return replay_store.save(*plan, tiling); });
    const fs::path load_dir =
        args.planDir.empty() ? replay_dir : fs::path(args.planDir);
    const PlanStore load_store(load_dir.string());
    const TilePlanPtr loaded = tracer.time(
        "store.load", [&] { return load_store.load(fp, tiling); });
    if (!loaded) {
        std::cerr << "error: no loadable artifact for " << args.dataset
                  << " in " << load_dir << "\n";
        return 1;
    }
    std::ifstream artifact(load_dir / PlanStore::fileName(fp, tiling),
                           std::ios::binary);
    const std::vector<unsigned char> bytes(
        (std::istreambuf_iterator<char>(artifact)),
        std::istreambuf_iterator<char>());
    // Header (88 bytes) then the u32 codec tag, then the edge stream.
    constexpr std::size_t kStreamOffset = 88 + 4;
    if (bytes.size() <= kStreamOffset) {
        std::cerr << "error: truncated artifact in " << load_dir << "\n";
        return 1;
    }
    counts["store.payload_bytes"] =
        static_cast<double>(bytes.size() - kStreamOffset);
    counts["edges"] = static_cast<double>(planned->numEdges());
    tracer.time("store.decode", [&] {
        EdgeStreamDecoder decoder(partition, bytes.data() + kStreamOffset,
                                  bytes.size() - kStreamOffset);
        TileChunkSource::Chunk chunk;
        std::uint64_t edges = 0;
        while (decoder.next(chunk))
            edges += chunk.edges.size();
        return edges;
    });

    // A warm node run: the plan is resident, so what is left besides
    // fingerprint and golden is the tile walk.
    const std::uint64_t rows_before =
        counterValue("crossbar.mvm_rows_processed");
    if (args.backend == "graphr") {
        GraphRNode node(config);
        tracer.time("graphr.node_run",
                    [&] { runNode(node, workload, dataset); });
        counts["engine.tile_programs"] = static_cast<double>(
            node.lastEngineStats().functionalTilePrograms);
    } else {
        const auto backend =
            driver::makeBackend(args.backend, spec.backendOptions);
        tracer.time("graphr.node_run",
                    [&] { backend->run(workload, dataset); });
        counts["engine.tile_programs"] = 0;
    }
    counts["rram.mvm_rows"] = static_cast<double>(
        counterValue("crossbar.mvm_rows_processed") - rows_before);

    // Crossbar program and MVM over the plan's own tiles, one span
    // each per tile: functional MAC workloads only (timing mode never
    // reaches rram, and the add-op path reads rows instead of MVMs).
    const bool mac = workload.kind == driver::WorkloadKind::kPageRank ||
                     workload.kind == driver::WorkloadKind::kSpmv;
    if (args.functional && mac) {
        const std::uint64_t replay_rows_before =
            counterValue("crossbar.mvm_rows_processed");
        EnergyLedger ledger(config.device);
        GraphEngineArray ge(tiling.crossbarDim,
                            tiling.crossbarsPerGe * tiling.numGe,
                            config.device, ledger);
        const std::vector<double> input(tiling.crossbarDim, 1.0);
        std::vector<double> out;
        const auto &spans = plan->ordered.tiles();
        const auto &metas = plan->meta.tiles();
        tracer.open("rram.replay");
        for (std::size_t t = 0; t < spans.size(); ++t) {
            tracer.time("rram.program", [&] {
                ge.programTile(plan->ordered.tileEdges(spans[t]),
                               metas[t].row0, metas[t].col0,
                               config.weightFracBits);
            });
            tracer.time("rram.mvm", [&] {
                ge.runMacInto(input, config.inputFracBits,
                              config.weightFracBits, out);
            });
        }
        tracer.close();
        counts["rram.replay_tiles"] = static_cast<double>(spans.size());
        counts["rram.replay_mvm_rows"] = static_cast<double>(
            counterValue("crossbar.mvm_rows_processed") -
            replay_rows_before);
    }
    tracer.close();

    std::ofstream os(args.out);
    os.precision(9);
    os << "{\"spans\":";
    tracer.writeJson(os);
    os << ",\n\"counts\":{";
    const char *sep = "";
    for (const auto &[name, value] : counts) {
        os << sep << "\"" << name << "\":" << value;
        sep = ",";
    }
    os << "},\n\"results\":";
    driver::writeResultsJson(os, results);
    os << "}\n";
    os.close();
    if (!os) {
        std::cerr << "error: cannot write " << args.out << "\n";
        return 1;
    }
    return 0;
}

/** Resolve a spec twice; the benchmark fails the run if they differ. */
int
traceFingerprint(const std::string &spec)
{
    const std::uint64_t a =
        graphFingerprint(driver::resolveDataset(spec).graph);
    const std::uint64_t b =
        graphFingerprint(driver::resolveDataset(spec).graph);
    std::cout << "{\"dataset\":\"" << spec << "\",\"fingerprints\":[\""
              << std::hex << a << "\",\"" << b << "\"]}\n";
    return 0;
}

int
usage()
{
    std::cerr << "usage: graphr_trace env\n"
                 "       graphr_trace fingerprint --dataset SPEC\n"
                 "       graphr_trace request --workload W --backend B "
                 "--dataset SPEC --scratch DIR --out FILE\n"
                 "                    [--plan-dir DIR] [--warm-memory] "
                 "[--functional]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    RequestArgs args;
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::runtime_error("missing value for " + flag);
            return argv[++i];
        };
        try {
            if (flag == "--workload")
                args.workload = value();
            else if (flag == "--backend")
                args.backend = value();
            else if (flag == "--dataset")
                args.dataset = value();
            else if (flag == "--plan-dir")
                args.planDir = value();
            else if (flag == "--scratch")
                args.scratch = value();
            else if (flag == "--out")
                args.out = value();
            else if (flag == "--warm-memory")
                args.warmMemory = true;
            else if (flag == "--functional")
                args.functional = true;
            else
                return usage();
        } catch (const std::exception &e) {
            std::cerr << "error: " << e.what() << "\n";
            return usage();
        }
    }
    try {
        if (command == "env") {
            std::cout << "{\"simd\":\""
                      << graphr::simd::levelName(
                             graphr::simd::activeLevel())
                      << "\"}\n";
            return 0;
        }
        if (command == "fingerprint" && !args.dataset.empty())
            return traceFingerprint(args.dataset);
        if (command == "request" && !args.workload.empty() &&
            !args.backend.empty() && !args.dataset.empty() &&
            !args.scratch.empty() && !args.out.empty())
            return traceRequest(args);
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    return usage();
}
