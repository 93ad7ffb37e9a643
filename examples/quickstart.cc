/**
 * @file
 * Quickstart: run PageRank through the unified workload driver and
 * print the simulated time/energy report.
 *
 * Demonstrates the driver surface every tool in this repo shares:
 *   spec strings -> runSweep() -> RunResult (text or JSON).
 * The same combination is expressible from the CLI as
 *   graphr_run --algo pagerank --backend graphr \
 *              --dataset rmat:vertices=256,edges=2048,seed=7
 */

#include <iostream>

#include "driver/driver.hh"
#include "driver/run_result.hh"

int
main()
{
    using namespace graphr::driver;

    // 1. Name the combination: any registered workload and backend,
    //    any dataset spec (Table-3 name, generator spec, or file).
    //    A single run is the one-combination sweep.
    SweepSpec spec;
    spec.workloads = {"pagerank"};
    spec.backends = {"graphr"};
    spec.datasets = {"rmat:vertices=256,edges=2048,seed=7"};
    spec.params = ParamMap::parse("damping=0.8,iterations=20");

    // 2. Use the bit-exact analog datapath with a small GE array (the
    //    default-constructed config is the paper's C=8, N=32, G=64
    //    timing model).
    spec.backendOptions.config.tiling.crossbarDim = 8;
    spec.backendOptions.config.tiling.crossbarsPerGe = 4;
    spec.backendOptions.config.tiling.numGe = 4;
    spec.backendOptions.config.functional = true;

    // 3. Run it.
    const RunResult result = runSweep(spec).at(0);
    printResultsTable(std::cout, {result});

    std::cout << "\nbreakdown:\n";
    for (const auto &[name, value] : result.extra)
        std::cout << "  " << name << " = " << value << "\n";

    // 4. The same driver sweeps cross products: compare this graph
    //    across the GraphR node and the CPU/GPU/PIM baselines.
    //    Same spec and node configuration, so the graphr column
    //    matches part 3.
    SweepSpec sweep = spec;
    sweep.backends = {"graphr", "cpu", "gpu", "pim"};
    const std::vector<RunResult> results = runSweep(sweep);

    std::cout << "\npagerank across backends:\n";
    printMatrix(std::cout, results);
    return 0;
}
