/**
 * @file
 * Result record of one simulated GraphR execution.
 */

#ifndef GRAPHR_GRAPHR_SIM_REPORT_HH
#define GRAPHR_GRAPHR_SIM_REPORT_HH

#include <cstdint>
#include <ostream>
#include <string>

#include "rram/energy.hh"

namespace graphr
{

/** Timing and energy outcome of a GraphR run. */
struct SimReport
{
    std::string algorithm;

    /** Simulated wall-clock time in seconds. */
    double seconds = 0.0;
    /** Total energy in joules. */
    double joules = 0.0;
    /** Component energy breakdown. */
    EnergyBreakdown energy;
    /** Raw device event counts. */
    EnergyEvents events;

    // --- workload statistics ---
    std::uint64_t iterations = 0;     ///< algorithm iterations/rounds
    std::uint64_t tilesProcessed = 0; ///< tile (subgraph) activations
    std::uint64_t tilesSkipped = 0;   ///< empty tiles skipped
    std::uint64_t edgesProcessed = 0; ///< edge visits across iterations
    std::uint64_t activeRowOps = 0;   ///< add-op row activations
    double occupancy = 0.0;           ///< nnz / (tiles * capacity)

    // --- time breakdown (seconds) ---
    double programSeconds = 0.0; ///< crossbar write phases
    double computeSeconds = 0.0; ///< MVM + ADC + sALU phases
    double streamSeconds = 0.0;  ///< memory-ReRAM edge streaming

    /** Human-readable dump. */
    void print(std::ostream &os) const;
};

} // namespace graphr

#endif // GRAPHR_GRAPHR_SIM_REPORT_HH
