#include "driver.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/thread_pool.hh"
#include "graphr/engine/plan_cache.hh"

namespace graphr::driver
{

namespace
{

std::vector<std::string>
expandNames(const std::vector<std::string> &names,
            const std::vector<std::string> &registry,
            const std::string &what)
{
    std::vector<std::string> out;
    for (const std::string &name : names) {
        if (name == "all") {
            for (const std::string &r : registry) {
                if (std::find(out.begin(), out.end(), r) == out.end())
                    out.push_back(r);
            }
            continue;
        }
        if (std::find(registry.begin(), registry.end(), name) ==
            registry.end()) {
            std::string msg =
                "unknown " + what + " '" + name + "' (known:";
            for (const std::string &r : registry)
                msg += " " + r;
            msg += ")";
            throw DriverError(msg);
        }
        if (std::find(out.begin(), out.end(), name) == out.end())
            out.push_back(name);
    }
    if (out.empty())
        throw DriverError("no " + what + " selected");
    return out;
}

/**
 * One progress line, built off-stream and written in a single
 * mutex-guarded call so concurrent workers never interleave
 * mid-line. Byte-identical to the serial "running ... ..." + endl.
 */
void
announceRun(std::ostream *progress, std::mutex &progress_mutex,
            const std::string &workload, const std::string &backend,
            const std::string &dataset)
{
    if (progress == nullptr)
        return;
    std::ostringstream line;
    line << "running " << workload << " x " << backend << " x "
         << dataset << " ...\n";
    const std::lock_guard<std::mutex> lock(progress_mutex);
    *progress << line.str() << std::flush;
}

/**
 * One dataset of a sweep: resolved through the process-wide dataset
 * cache by exactly one run (std::call_once) and held until its last
 * run finishes, so a dataset over the cache's byte budget is still
 * generated once per sweep, and a serial sweep holds one dataset at
 * a time. A resolution error is captured and rethrown to every run
 * on that dataset.
 */
struct DatasetSlot
{
    std::once_flag once;
    std::shared_ptr<const ResolvedDataset> value;
    std::exception_ptr error;
    /** Runs on this dataset not yet finished. */
    std::atomic<std::size_t> pending{0};
};

} // namespace

std::vector<std::string>
expandWorkloadNames(const std::vector<std::string> &names)
{
    return expandNames(names, allWorkloadNames(), "workload");
}

std::vector<std::string>
expandBackendNames(const std::vector<std::string> &names)
{
    return expandNames(names, allBackendNames(), "backend");
}

void
installPlanStore(const StoreSpec &spec)
{
    // A request-scoped override (graphr_serve tenant namespaces) wins
    // over any spec-carried directory: the worker task has already
    // bound this thread to the tenant's store, and re-pointing the
    // process-wide store from under concurrent requests is exactly
    // the hazard the override exists to avoid.
    if (PlanCache::storeOverrideActive())
        return;
    if (spec.planDir.empty()) {
        PlanCache::instance().setStore(nullptr);
        return;
    }
    // Re-installing the directory that is already attached keeps the
    // resident store (and its cumulative statistics): a long-lived
    // graphr_serve process runs every request through here.
    const std::shared_ptr<PlanStore> current =
        PlanCache::instance().store();
    if (current && current->directory() == spec.planDir)
        return;
    try {
        PlanCache::instance().setStore(
            std::make_shared<PlanStore>(spec.planDir));
    } catch (const StoreError &err) {
        throw DriverError(std::string("cannot use --plan-dir: ") +
                          err.what());
    }
}

std::vector<RunResult>
runSweep(const SweepSpec &spec, std::ostream *progress)
{
    if (spec.datasets.empty())
        throw DriverError("sweep needs at least one dataset");
    installPlanStore(spec.store);

    // Validate every name and parse parameters before the first
    // (possibly expensive) run.
    const std::vector<std::string> workload_names =
        expandWorkloadNames(spec.workloads);
    const std::vector<std::string> backend_names =
        expandBackendNames(spec.backends);
    std::vector<Workload> workloads;
    for (const std::string &name : workload_names)
        workloads.push_back(makeWorkload(name, spec.params));
    for (const std::string &name : backend_names)
        makeBackend(name, spec.backendOptions);

    // The cross product, dataset-major.
    const std::size_t per_dataset =
        workloads.size() * backend_names.size();
    const std::size_t runs = spec.datasets.size() * per_dataset;
    std::vector<DatasetSlot> slots(spec.datasets.size());
    for (DatasetSlot &slot : slots)
        slot.pending = per_dataset;
    std::vector<RunResult> results(runs);
    std::vector<std::exception_ptr> errors(runs);
    std::mutex progress_mutex;

    // Each run writes only its own pre-assigned result slot, so the
    // merged vector comes out in spec order regardless of which
    // worker finishes first: the JSON/table output is byte-identical
    // at any job count.
    const auto run = [&](std::size_t i) {
        const std::size_t d = i / per_dataset;
        const std::size_t w = i % per_dataset / backend_names.size();
        const std::size_t b = i % backend_names.size();
        DatasetSlot &slot = slots[d];
        try {
            std::call_once(slot.once, [&spec, &slot, d] {
                try {
                    slot.value = cachedDataset(spec.datasets[d],
                                               spec.scale, spec.seed);
                } catch (...) {
                    slot.error = std::current_exception();
                }
            });
            if (slot.error)
                std::rethrow_exception(slot.error);
            announceRun(progress, progress_mutex, workload_names[w],
                        backend_names[b], slot.value->name);
            // A fresh backend per run: instances are cheap
            // (configuration only) and private state keeps runs
            // schedule-independent.
            results[i] =
                makeBackend(backend_names[b], spec.backendOptions)
                    ->run(workloads[w], *slot.value);
        } catch (...) {
            errors[i] = std::current_exception();
        }
        if (--slot.pending == 0)
            slot.value.reset();
    };

    // One job runs inline on the calling thread, which keeps a
    // thread-scoped PlanCache store override (graphr_serve tenants)
    // in effect for the runs.
    const unsigned jobs = static_cast<unsigned>(std::min<std::size_t>(
        ThreadPool::effectiveJobs(spec.jobs), runs));
    if (jobs <= 1) {
        for (std::size_t i = 0; i < runs; ++i)
            run(i);
    } else {
        ThreadPool pool(jobs);
        for (std::size_t i = 0; i < runs; ++i)
            pool.submit([&run, i] { run(i); });
        pool.wait();
    }

    // Deterministic error surface: the first failure in spec order
    // wins, whatever the schedule.
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
    return results;
}

} // namespace graphr::driver
