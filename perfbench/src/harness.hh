/**
 * @file
 * The repository benchmark's harness: the workload table, metric
 * extraction from a finished System, and the output checks.
 *
 * Everything here drives the simulator through its public surface
 * only (the System constructor, System::run, the component accessors
 * on System, and the telemetry a System already keeps), so the
 * benchmark measures the library as a user builds it.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/system.hh"

namespace perfbench {

/** One named measurement with its unit. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

using Metrics = std::vector<Metric>;

/** Value of @p name in @p m; aborts when absent (a harness bug). */
double metricValue(const Metrics &m, const std::string &name);

/** One benchmark workload. */
struct WorkloadSpec
{
    std::string name;
    /** The workload's System configuration (its seed is replaced). */
    banshee::SystemConfig (*config)();
    /** Simulated per-layer metrics that must read above zero; a zero
     *  there means a layer silently stopped doing its work. */
    std::vector<std::string> expectNonzero;
};

/** The benchmark workload called @p name, or nullptr. */
const WorkloadSpec *findWorkload(const std::string &name);

/** The serial System configuration of @p spec at @p seed. */
banshee::SystemConfig workloadConfig(const WorkloadSpec &spec,
                                     std::uint64_t seed);

/** Host-side per-call costs measured by replaying a workload's own
 *  stream through fresh component instances (see replay.hh). */
struct ReplayCosts
{
    double nsPerNext = 0.0;       ///< AccessPattern::next
    double nsPerTlbLookup = 0.0;  ///< Tlb::lookup
    double nsPerSramAccess = 0.0; ///< CacheHierarchy::access/fetch
    double nsPerEvent = 0.0;      ///< EventQueue schedule + fire
};

/** The modelled design's end-to-end metrics: ipc and both
 *  bytes-per-instruction figures (deterministic at a fixed seed). */
Metrics modelMetrics(const banshee::RunResult &r);

/** Every simulated per-layer counter (deterministic at a fixed seed). */
Metrics simulatedLayerMetrics(banshee::System &sys,
                              const banshee::RunResult &r);

/**
 * Host-time per-layer metrics of a telemetry-enabled run: the
 * in-program phase timers, the replayed per-call costs scaled by the
 * run's own call counts, and the loop time no layer accounts for.
 */
Metrics hostLayerMetrics(banshee::System &sys, const banshee::RunResult &r,
                         const ReplayCosts &costs);

/** DRAM byte totals read straight from the device models. */
struct DeviceTotals
{
    std::uint64_t inPkgBytes = 0;
    std::uint64_t offPkgBytes = 0;
    /** Sums of the per-tenant buckets, untagged bucket included. */
    std::uint64_t inPkgBucketBytes = 0;
    std::uint64_t offPkgBucketBytes = 0;
};

DeviceTotals deviceTotals(banshee::System &sys);

/**
 * Traffic conservation: the per-category bytes of @p r sum to the
 * device totals, every device's tenant buckets sum to its total, and
 * on a multi-tenant run the named tenants account for every DRAM
 * byte. Returns one message per violation.
 */
std::vector<std::string> checkConservation(const banshee::RunResult &r,
                                           const DeviceTotals &totals);

/**
 * All output checks of one run: each core retired its budget,
 * conservation holds, and every counter @p spec expects nonzero is.
 * @p layer is the run's simulatedLayerMetrics.
 */
std::vector<std::string> checkRun(banshee::System &sys,
                                  const banshee::RunResult &r,
                                  const WorkloadSpec &spec,
                                  const Metrics &layer);

/** Everything one experiment (one System, one run) measured. */
struct Experiment
{
    /** Host figures: sim_mips and run_s of the one run, setup_s as
     *  the median of five constructions, peak_rss_mb. */
    Metrics host;
    /** modelMetrics followed by simulatedLayerMetrics. */
    Metrics sim;
    /** Raw RunResult fields the identity checks also compare. Names
     *  starting with "energy" may differ by 1e-6 relative between
     *  traced and untraced runs (epoch sampling adds lazy
     *  power-integration points); the rest must match exactly. */
    Metrics raw;
    /** hostLayerMetrics; empty unless traced. */
    Metrics hostLayers;
    /** checkRun's findings plus any non-finite value. */
    std::vector<std::string> failures;
};

/**
 * Build a System from @p cfg (five times, timing each construction),
 * run the last one and check it against @p spec.
 * With @p traced, telemetry is enabled in memory and the layers are
 * replayed over @p replayOps memory operations and @p replayEvents
 * queue events to split the loop's host time.
 */
Experiment runExperiment(banshee::SystemConfig cfg, const WorkloadSpec &spec,
                         bool traced, std::size_t replayOps,
                         std::size_t replayEvents);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
