/**
 * @file
 * Sharded in-process sweep runner: each experiment is an independent
 * (config, label) pair, and a worker pool claims shards (contiguous
 * chunks) of the experiment list. Used by every bench binary to
 * sweep workloads x schemes in minutes instead of hours.
 *
 * Safe-parallelism contract (audited for the engine refactor): a
 * `System` owns every piece of mutable simulation state it touches —
 * its EventQueue, all component RNGs (seeded from its config), stats,
 * telemetry buffers and its trace file (one per experiment label; no
 * trace state is shared between Systems). The only cross-`System`
 * mutable state is the process-wide `logVerbosity` knob (written
 * during argument parsing, before any worker thread starts),
 * `warn_once` dedup flags (atomic) and the Zipf alias-table memo
 * (`zipfTable`, `workload/pattern.hh`): a mutex-guarded map of weak
 * references to immutable tables, so Systems of the same
 * distribution read one table and never write it. Sweeps therefore
 * shard freely across threads with no simulation-visible interaction
 * between experiments.
 */

#ifndef BANSHEE_SIM_RUNNER_HH
#define BANSHEE_SIM_RUNNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/system.hh"
#include "sim/system_config.hh"

namespace banshee {

struct Experiment
{
    std::string label;
    SystemConfig config;
};

/** Host-side cost of simulating one experiment (simulator
 *  performance, not simulated results). */
struct RunPerf
{
    double wallSeconds = 0.0;
    std::uint64_t events = 0; ///< events the experiment's queue ran

    double
    eventsPerSec() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(events) / wallSeconds
                   : 0.0;
    }
};

/** Host-side cost of a whole sweep. */
struct SweepPerf
{
    double wallSeconds = 0.0;          ///< whole-sweep wall clock
    std::vector<RunPerf> experiments;  ///< input order

    std::uint64_t totalEvents() const;
    /** Aggregate simulation throughput: events committed across all
     *  experiments per second of sweep wall clock. */
    double eventsPerSec() const;
};

/**
 * Run all experiments across a pool of @p threads workers (0 =
 * hardware concurrency) claiming shards of the list. Results are
 * returned in the input order regardless of thread count. When
 * @p perf is given it receives the per-experiment and whole-sweep
 * host cost.
 */
std::vector<RunResult> runSweep(const std::vector<Experiment> &exps,
                                unsigned threads = 0,
                                SweepPerf *perf = nullptr,
                                bool showProgress = true);

/**
 * Build the standard scheme sweep of Figures 4-6 for one workload:
 * NoCache, Unison, TDC, Alloy 1, Alloy 0.1, Banshee, CacheOnly.
 */
std::vector<Experiment> schemeSweep(const SystemConfig &base,
                                    const std::string &workload);

/**
 * Build the resize comparison for one workload: Banshee with no
 * resize, with a consistent-hash resize, and with a naive flush
 * resize — all shrinking to @p targetSlices at measured-phase epoch
 * @p epoch. Resize knobs (slices, epoch length, migration rate) come
 * from @p base.resize.
 */
std::vector<Experiment> resizeSweep(const SystemConfig &base,
                                    const std::string &workload,
                                    std::uint64_t epoch,
                                    std::uint32_t targetSlices);

/**
 * Geometric mean helper (the paper's average bars). Defined as 0 for
 * an empty input and whenever any value is 0 (the mathematical
 * limit); values must not be negative.
 */
double geomean(const std::vector<double> &values);

} // namespace banshee

#endif // BANSHEE_SIM_RUNNER_HH
