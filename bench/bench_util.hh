/**
 * @file
 * BenchRun runs every experiment bench. A bench main builds one from
 * its argv, binary name and banner, states its experiment grid, calls
 * run() once per sweep (a later sweep may be built from an earlier
 * one's results), prints its report from the returned Sweep, and returns
 * finish(). BenchRun owns everything else: the shared flags
 * (--quick / --full / --workloads a,b,c / --threads N / --json path /
 * --host-perf / --trace[=N] / --verbose), the
 * banner, the sweeps, their host perf, the --json output and the exit
 * code.
 */

#ifndef BANSHEE_BENCH_BENCH_UTIL_HH
#define BANSHEE_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <set>
#include <string>
#include <vector>

#include "common/log.hh"
#include "sim/report.hh"
#include "sim/runner.hh"
#include "sim/system_config.hh"
#include "workload/workloads.hh"

namespace banshee::benchutil {

struct BenchOptions
{
    SystemConfig base = SystemConfig::scaledDefault();
    std::vector<std::string> workloads = WorkloadFactory::paperNames();
    /** True when --workloads was given (benches with their own
     *  defaults only override the list when the user did not). */
    bool workloadsExplicit = false;
    /** True when --quick was given (benches that set their own run
     *  lengths size them from this). */
    bool quick = false;
    unsigned threads = 0;
    /** Empty = no JSON output. */
    std::string jsonPath;
    /** Stamp host wall-clock / events-per-sec into --json output.
     *  Opt-in: host timings are nondeterministic, and default JSON
     *  output is guarded byte-identical across engine refactors. */
    bool hostPerf = false;
    /** Non-empty when --trace was given: the directory the traces
     *  land in (one <label>.trace.json per experiment). */
    std::string traceDir;
};

/**
 * Parse common flags:
 *   --quick          quarter-length runs (CI smoke)
 *   --full           paper-sized system (1 GB cache, long runs)
 *   --workloads a,b  restrict the workload list
 *   --threads N      worker threads
 *   --json path      also emit machine-readable results (BENCH_*.json)
 *   --host-perf      stamp wall-clock + events/sec into --json output
 *   --trace[=N]      one trace per experiment (epoch counters, decision
 *                    events, page spans; scripts/trace_tool.py) into
 *                    TRACE_<bench>/<label>.trace.json, page spans with
 *                    sample shift N (default 6 = 1/64 of pages)
 *   --verbose / -v   raise log verbosity (also: BANSHEE_LOG env var)
 *
 * @p prog names the binary in usage/error messages and the
 * default --trace output directory.
 *
 * @p extraFlags lets a bench register additional boolean switches
 * (e.g. ext_tenant's --sched): each pair maps a flag spelling to the
 * bool it sets. Extra flags appear in the usage line.
 */
inline BenchOptions
parseArgs(int argc, char **argv, const std::string &prog,
          std::initializer_list<std::pair<const char *, bool *>>
              extraFlags)
{
    BenchOptions opt;
    auto usage = [&prog, &extraFlags](const std::string &why) {
        std::fprintf(stderr, "%s: %s\n", prog.c_str(), why.c_str());
        std::string extra;
        for (const auto &fl : extraFlags)
            extra += std::string(" [") + fl.first + "]";
        std::fprintf(stderr,
                     "usage: %s [--quick] [--full] "
                     "[--workloads a,b,c] [--threads N] [--json path] "
                     "[--host-perf] [--trace[=N]] "
                     "[--verbose|-v]%s\n",
                     prog.c_str(), extra.c_str());
        std::exit(1);
    };
    auto matchExtra = [&extraFlags](const std::string &arg) {
        for (const auto &fl : extraFlags) {
            if (arg == fl.first) {
                *fl.second = true;
                return true;
            }
        }
        return false;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (matchExtra(arg)) {
            // handled
        } else if (arg == "--quick") {
            opt.quick = true;
            opt.base.warmupInstrPerCore /= 4;
            opt.base.measureInstrPerCore /= 4;
        } else if (arg == "--full") {
            opt.base = SystemConfig::paperDefault();
        } else if (arg == "--workloads" && i + 1 < argc) {
            opt.workloads.clear();
            opt.workloadsExplicit = true;
            std::string list = argv[++i];
            std::size_t pos = 0;
            // Split on commas, skipping empty tokens so stray commas
            // ("a,", "a,,b") do not inject an unknown-workload fault.
            while (pos < list.size()) {
                const std::size_t comma = list.find(',', pos);
                const std::size_t end =
                    comma == std::string::npos ? list.size() : comma;
                if (end > pos)
                    opt.workloads.push_back(list.substr(pos, end - pos));
                pos = end + 1;
            }
            if (opt.workloads.empty())
                usage("--workloads needs at least one workload name");
        } else if (arg == "--threads" && i + 1 < argc) {
            // Strict parse: atoi would map garbage ("abc") to 0,
            // which silently means "use every core".
            const char *s = argv[++i];
            char *end = nullptr;
            const unsigned long v = std::strtoul(s, &end, 10);
            if (*s == '\0' || end == nullptr || *end != '\0' ||
                v > 4096) {
                usage(std::string("--threads needs a number in "
                                  "[0, 4096], got '") +
                      s + "'");
            }
            opt.threads = static_cast<unsigned>(v);
        } else if (arg == "--json" && i + 1 < argc) {
            opt.jsonPath = argv[++i];
        } else if (arg == "--host-perf") {
            opt.hostPerf = true;
        } else if (arg == "--trace" ||
                   arg.rfind("--trace=", 0) == 0) {
            // Same strict-parse discipline as --threads: reject
            // garbage shifts instead of silently sampling everything.
            std::uint32_t shift = 6;
            if (arg.size() > 7) {
                const char *s = arg.c_str() + 8;
                char *end = nullptr;
                const unsigned long v = std::strtoul(s, &end, 10);
                if (*s == '\0' || end == nullptr || *end != '\0' ||
                    v > 24) {
                    usage(std::string("--trace needs a sample shift in "
                                      "[0, 24], got '") +
                          s + "'");
                }
                shift = static_cast<std::uint32_t>(v);
            }
            opt.traceDir = "TRACE_" + prog;
            opt.base.withTelemetry(opt.traceDir + "/");
            opt.base.telemetry.sampleShift = shift;
        } else if (arg == "--verbose" || arg == "-v") {
            ++banshee::logVerbosity;
        } else {
            usage("unknown or incomplete argument '" + arg + "'");
        }
    }
    if (!opt.traceDir.empty()) {
        std::printf("[trace] one trace per experiment, page spans of "
                    "1/%u of pages, in %s/ (scripts/trace_tool.py)\n",
                    1u << opt.base.telemetry.sampleShift,
                    opt.traceDir.c_str());
    }
    return opt;
}

/** One sweep: its experiments, their results in the same order, and
 *  its host cost. */
struct Sweep
{
    std::vector<Experiment> exps;
    std::vector<RunResult> results;
    SweepPerf perf;

    /** The result labelled "<workload>/<scheme>". */
    const RunResult &
    at(const std::string &workload, const std::string &scheme) const
    {
        const std::string label = workload + "/" + scheme;
        for (std::size_t i = 0; i < exps.size(); ++i) {
            if (exps[i].label == label)
                return results[i];
        }
        panic("no result labelled '%s'", label.c_str());
    }
};

class BenchRun
{
  public:
    /**
     * Parse the shared flags (plus @p extraFlags, boolean switches
     * such as ext_tenant's --sched) and print the banner. @p name is
     * the binary's name: it appears in usage errors, the default
     * --trace directory and the JSON "bench" field.
     */
    BenchRun(int argc, char **argv, const std::string &name,
             const std::string &title, const std::string &paperRef,
             std::initializer_list<std::pair<const char *, bool *>>
                 extraFlags = {})
        : opt(parseArgs(argc, argv, name, extraFlags)), name_(name)
    {
        printBanner(title, paperRef);
    }

    /** The parsed flags. A bench may adjust base and workloads before
     *  building its grid. */
    BenchOptions opt;

    /** Run one sweep at --threads and keep it for --json. The returned
     *  reference stays valid for the BenchRun's lifetime. Panics on a
     *  label an earlier experiment of this BenchRun already used:
     *  Sweep::at and the JSON readers key results by label, so a repeat
     *  would shadow a result. */
    const Sweep &
    run(std::vector<Experiment> exps)
    {
        for (const Experiment &e : exps) {
            if (!labels_.insert(e.label).second)
                panic("experiment label '%s' is used twice",
                      e.label.c_str());
        }
        Sweep &sweep = sweeps_.emplace_back();
        sweep.exps = std::move(exps);
        sweep.results = runSweep(sweep.exps, opt.threads, &sweep.perf);
        return sweep;
    }

    /** Run @p exps again at @p threads for host timing only: the
     *  repeat is not written to --json. */
    static Sweep
    rerun(const std::vector<Experiment> &exps, unsigned threads)
    {
        Sweep sweep{exps, {}, {}};
        sweep.results = runSweep(exps, threads, &sweep.perf);
        return sweep;
    }

    /**
     * Write every run() sweep, in order, to --json when given (with
     * each result's host perf under --host-perf) and return the exit
     * code: 0 when @p gatesPass, else 1.
     */
    int
    finish(bool gatesPass = true) const
    {
        if (!opt.jsonPath.empty()) {
            std::vector<std::string> labels;
            std::vector<RunResult> results;
            SweepPerf perf;
            for (const Sweep &sweep : sweeps_) {
                for (const Experiment &e : sweep.exps)
                    labels.push_back(e.label);
                results.insert(results.end(), sweep.results.begin(),
                               sweep.results.end());
                perf.wallSeconds += sweep.perf.wallSeconds;
                perf.experiments.insert(perf.experiments.end(),
                                        sweep.perf.experiments.begin(),
                                        sweep.perf.experiments.end());
            }
            writeResultsJson(opt.jsonPath, name_, labels, results,
                             opt.hostPerf ? &perf : nullptr);
            std::printf("\n[json] wrote %zu results to %s\n",
                        results.size(), opt.jsonPath.c_str());
        }
        return gatesPass ? 0 : 1;
    }

  private:
    std::string name_;
    std::deque<Sweep> sweeps_; ///< a deque: run() hands out references
    std::set<std::string> labels_; ///< every label run() was given
};

/** @p base running @p workload under @p scheme. */
inline SystemConfig
configFor(const SystemConfig &base, const std::string &workload,
          SchemeKind scheme)
{
    SystemConfig c = base;
    c.workload = workload;
    c.withScheme(scheme);
    return c;
}

/** schemeSweep() over every workload of @p opt, keeping only the
 *  @p schemes labels when given (in schemeSweep's order). */
inline std::vector<Experiment>
schemeGrid(const BenchOptions &opt,
           const std::vector<std::string> &schemes = {})
{
    std::vector<Experiment> exps;
    for (const auto &w : opt.workloads) {
        for (auto &e : schemeSweep(opt.base, w)) {
            const std::string scheme = e.label.substr(w.size() + 1);
            if (schemes.empty() ||
                std::find(schemes.begin(), schemes.end(), scheme) !=
                    schemes.end())
                exps.push_back(std::move(e));
        }
    }
    return exps;
}

} // namespace banshee::benchutil

#endif // BANSHEE_BENCH_BENCH_UTIL_HH
