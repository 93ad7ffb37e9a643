#include "sim_report.hh"

#include <iomanip>

namespace graphr
{

void
SimReport::print(std::ostream &os) const
{
    os << "SimReport[" << algorithm << "]\n";
    os << std::scientific << std::setprecision(3);
    os << "  time          " << seconds << " s"
       << "  (program " << programSeconds << ", compute "
       << computeSeconds << ", stream " << streamSeconds << ")\n";
    os << "  energy        " << joules << " J"
       << "  (write " << energy.write << ", read " << energy.read
       << ", adc " << energy.adc << ", salu " << energy.salu << ", reg "
       << energy.reg << ", mem " << energy.memory << ", periph "
       << energy.peripheral << ")\n";
    os << std::defaultfloat;
    os << "  iterations    " << iterations << "\n";
    os << "  tiles         " << tilesProcessed << " processed, "
       << tilesSkipped << " skipped\n";
    os << "  edges         " << edgesProcessed << " visits\n";
    os << "  occupancy     " << occupancy << "\n";
}

} // namespace graphr
