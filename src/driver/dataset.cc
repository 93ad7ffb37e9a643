#include "dataset.hh"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>

#include "common/lru_cache.hh"
#include "graph/datasets.hh"
#include "graph/generator.hh"
#include "graph/io.hh"
#include "perf/counters.hh"

namespace graphr::driver
{

namespace
{

/** Lowercase with '-' and '_' removed: "Wiki-Vote" -> "wikivote". */
std::string
canonical(const std::string &name)
{
    std::string out;
    for (const char c : name) {
        if (c == '-' || c == '_')
            continue;
        out += static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    }
    return out;
}

/** Kebab-case of a table full name: "WikiVote" -> "wiki-vote". */
std::string
kebab(const std::string &name)
{
    std::string out;
    for (const char c : name) {
        if (std::isupper(static_cast<unsigned char>(c)) && !out.empty())
            out += '-';
        out += static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    }
    return out;
}

const DatasetInfo *
findTableEntry(const std::string &spec)
{
    const std::string want = canonical(spec);
    for (const DatasetInfo &info : allDatasets()) {
        if (want == canonical(info.shortName) ||
            want == canonical(info.fullName))
            return &info;
    }
    return nullptr;
}

/** Highest source id + 1 (the user count of a user->item graph). */
VertexId
maxSrcPlusOne(const CooGraph &graph)
{
    VertexId users = 0;
    for (const Edge &e : graph.edges())
        users = std::max(users, e.src + 1);
    return users;
}

/**
 * Generator parameters are checked here, before anything is made, so
 * a bad spec is a DriverError (a structured error for a serve client)
 * rather than a generator assertion that aborts the process.
 */
void
requireAtLeast(const std::string &kind, const std::string &key,
               std::uint64_t value, std::uint64_t min)
{
    if (value < min) {
        throw DriverError("dataset spec '" + kind + "': " + key +
                          " must be >= " + std::to_string(min) +
                          " (got " + std::to_string(value) + ")");
    }
}

void
requireFinite(const std::string &kind, const std::string &key,
              double value)
{
    if (!std::isfinite(value)) {
        throw DriverError("dataset spec '" + kind + "': " + key +
                          " must be finite");
    }
}

void
validateRmat(const RmatParams &p)
{
    requireAtLeast("rmat", "vertices", p.numVertices, 2);
    for (const auto &[key, value] :
         {std::pair{"a", p.a}, {"b", p.b}, {"c", p.c}, {"d", p.d}}) {
        if (!std::isfinite(value) || value < 0.0) {
            throw DriverError(std::string("dataset spec 'rmat': ") + key +
                              " must be finite and >= 0");
        }
    }
    const double sum = p.a + p.b + p.c + p.d;
    if (!(std::abs(sum - 1.0) < 1e-6)) {
        throw DriverError("dataset spec 'rmat': a+b+c+d must be 1 (got " +
                          std::to_string(sum) + ")");
    }
    requireFinite("rmat", "maxweight", p.maxWeight);
}

ResolvedDataset
resolveGenerator(const std::string &kind, const ParamMap &params,
                 std::uint64_t seed)
{
    ResolvedDataset out;
    out.name = kind;
    if (kind == "rmat") {
        RmatParams p;
        p.numVertices = params.getU32("vertices", p.numVertices);
        p.numEdges = params.getU64("edges", p.numEdges);
        p.a = params.getDouble("a", p.a);
        p.b = params.getDouble("b", p.b);
        p.c = params.getDouble("c", p.c);
        p.d = params.getDouble("d", p.d);
        p.maxWeight = params.getDouble("maxweight", p.maxWeight);
        p.seed = params.getU64("seed", seed);
        params.rejectUnread("dataset spec 'rmat'");
        validateRmat(p);
        out.graph = makeRmat(p);
    } else if (kind == "er") {
        const VertexId v =
            params.getU32("vertices", 1024);
        const EdgeId e = params.getU64("edges", 8192);
        const double w = params.getDouble("maxweight", 1.0);
        const std::uint64_t s = params.getU64("seed", seed);
        params.rejectUnread("dataset spec 'er'");
        requireAtLeast(kind, "vertices", v, 2);
        requireFinite(kind, "maxweight", w);
        out.graph = makeErdosRenyi(v, e, s, w);
    } else if (kind == "grid") {
        const VertexId width =
            params.getU32("width", 16);
        const VertexId height =
            params.getU32("height", 16);
        const double w = params.getDouble("maxweight", 10.0);
        const std::uint64_t s = params.getU64("seed", seed);
        params.rejectUnread("dataset spec 'grid'");
        requireAtLeast(kind, "width", width, 1);
        requireAtLeast(kind, "height", height, 1);
        requireFinite(kind, "maxweight", w);
        out.graph = makeGrid2d(width, height, s, w);
    } else if (kind == "chain") {
        const VertexId n = params.getU32("n", 16);
        params.rejectUnread("dataset spec 'chain'");
        requireAtLeast(kind, "n", n, 1);
        out.graph = makeChain(n);
    } else if (kind == "star") {
        const VertexId n = params.getU32("n", 16);
        params.rejectUnread("dataset spec 'star'");
        requireAtLeast(kind, "n", n, 2);
        out.graph = makeStar(n);
    } else if (kind == "complete") {
        const VertexId n = params.getU32("n", 8);
        params.rejectUnread("dataset spec 'complete'");
        requireAtLeast(kind, "n", n, 2);
        out.graph = makeComplete(n);
    } else if (kind == "bipartite") {
        const VertexId users =
            params.getU32("users", 64);
        const VertexId items =
            params.getU32("items", 32);
        const EdgeId ratings = params.getU64("ratings", 512);
        const std::uint64_t s = params.getU64("seed", seed);
        params.rejectUnread("dataset spec 'bipartite'");
        requireAtLeast(kind, "users", users, 1);
        requireAtLeast(kind, "items", items, 1);
        out.graph = makeBipartiteRatings(users, items, ratings, s);
        out.bipartite = true;
        out.numUsers = users;
    } else {
        std::string msg =
            "unknown dataset '" + kind + "' (known: ";
        for (const std::string &n : knownDatasetNames())
            msg += n + " ";
        msg += "rmat: er: grid: chain: star: complete: bipartite: "
               "file:<path>)";
        throw DriverError(msg);
    }
    return out;
}

/** "file:path", or a spec without ':' that contains a '/'. */
bool
isFileSpec(const std::string &spec)
{
    return spec.starts_with("file:") ||
           (spec.find(':') == std::string::npos &&
            spec.find('/') != std::string::npos);
}

ResolvedDataset
loadFile(const std::string &path)
{
    ResolvedDataset out;
    // Report under the file name, not the whole path.
    const std::size_t slash = path.find_last_of('/');
    out.name =
        slash == std::string::npos ? path : path.substr(slash + 1);
    const bool binary = path.size() >= 4 &&
                        (path.ends_with(".bin") || path.ends_with(".grph"));
    out.graph = binary ? loadBinary(path) : loadEdgeListText(path);
    return out;
}

struct CacheKey
{
    std::string spec;
    double scale = 1.0;
    std::uint64_t seed = 0;

    bool operator==(const CacheKey &other) const = default;
};

struct CacheKeyHash
{
    std::size_t
    operator()(const CacheKey &key) const
    {
        std::uint64_t h = std::hash<std::string>{}(key.spec);
        h ^= std::bit_cast<std::uint64_t>(key.scale) *
             0x9e3779b97f4a7c15ull;
        h ^= key.seed * 0xc2b2ae3d27d4eb4full;
        return static_cast<std::size_t>(h ^ (h >> 32));
    }
};

struct DatasetBytes
{
    std::size_t
    operator()(const ResolvedDataset &dataset) const
    {
        return dataset.graph.footprintBytes();
    }
};

LruCache<CacheKey, ResolvedDataset, CacheKeyHash, DatasetBytes> &
datasetCache()
{
    static LruCache<CacheKey, ResolvedDataset, CacheKeyHash,
                    DatasetBytes>
        cache(kDatasetCacheBudgetBytes);
    return cache;
}

/** A Table-3 name or a generator spec (no file). */
ResolvedDataset
resolveNamed(const std::string &spec, double scale, std::uint64_t seed)
{
    const std::size_t colon = spec.find(':');
    const std::string kind =
        colon == std::string::npos ? spec : spec.substr(0, colon);
    const ParamMap params =
        colon == std::string::npos
            ? ParamMap{}
            : ParamMap::parse(spec.substr(colon + 1));

    if (const DatasetInfo *info = findTableEntry(kind)) {
        // Table names take spec-level scale/seed overrides:
        // "wiki-vote:scale=8,seed=3".
        const double eff_scale = params.getDouble("scale", scale);
        const std::uint64_t eff_seed = params.getU64("seed", seed);
        params.rejectUnread("dataset '" + kebab(info->fullName) + "'");
        if (!(eff_scale >= 1.0))
            throw DriverError("dataset scale must be >= 1");
        ResolvedDataset out;
        out.name = kebab(info->fullName);
        out.graph = makeDataset(info->id, eff_scale, eff_seed);
        out.bipartite = info->bipartite;
        if (out.bipartite)
            out.numUsers = maxSrcPlusOne(out.graph);
        return out;
    }

    return resolveGenerator(kind, params, seed);
}

} // namespace

ResolvedDataset
resolveDataset(const std::string &spec, double scale, std::uint64_t seed)
{
    if (spec.empty())
        throw DriverError("empty dataset spec");
    if (!(scale >= 1.0)) // negated so NaN is rejected too
        throw DriverError("dataset scale must be >= 1");

    ResolvedDataset out =
        !isFileSpec(spec)          ? resolveNamed(spec, scale, seed)
        : spec.starts_with("file:") ? loadFile(spec.substr(5))
                                    : loadFile(spec);
    static perf::Counter &generations =
        perf::Registry::instance().counter("dataset.generations");
    generations.add();
    return out;
}

std::shared_ptr<const ResolvedDataset>
cachedDataset(const std::string &spec, double scale, std::uint64_t seed)
{
    if (isFileSpec(spec))
        return std::make_shared<const ResolvedDataset>(
            resolveDataset(spec, scale, seed));
    return datasetCache().getOrBuild(CacheKey{spec, scale, seed}, [&] {
        return std::make_shared<const ResolvedDataset>(
            resolveDataset(spec, scale, seed));
    });
}

DatasetCacheStats
datasetCacheStats()
{
    const LruCacheStats stats = datasetCache().stats();
    return DatasetCacheStats{datasetCache().size(),
                             datasetCache().weight(), stats.hits,
                             stats.misses};
}

void
clearDatasetCache()
{
    datasetCache().clear();
}

std::vector<std::string>
knownDatasetNames()
{
    std::vector<std::string> names;
    for (const DatasetInfo &info : allDatasets())
        names.push_back(kebab(info.fullName));
    return names;
}

} // namespace graphr::driver
