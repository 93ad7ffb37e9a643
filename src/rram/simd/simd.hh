/**
 * @file
 * Label stub. The crossbar MVM has one portable kernel, a plain loop
 * in Crossbar::mvmRawInto, so there is no kernel tier to pick.
 *
 * This header exists only because perfbench/trace.cc includes it to
 * label its `env` record; nothing under src/ includes it. The next
 * change to the benchmark drops that include and deletes this file.
 */

#ifndef GRAPHR_RRAM_SIMD_SIMD_HH
#define GRAPHR_RRAM_SIMD_SIMD_HH

namespace graphr::simd
{

enum class Level
{
    kScalar = 0,
};

inline Level
activeLevel()
{
    return Level::kScalar;
}

inline const char *
levelName(Level)
{
    return "scalar";
}

} // namespace graphr::simd

#endif // GRAPHR_RRAM_SIMD_SIMD_HH
