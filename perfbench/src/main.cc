/**
 * @file
 * One benchmark experiment: build the workload's System, run it, check
 * its outputs, and print one JSON object on stdout.
 *
 *   perfbench_sim --workload NAME --seed N [--traced]
 *
 * --traced enables in-memory telemetry (no trace file) and adds the
 * host-time layer split; untraced runs give the end-to-end figures.
 * run.py starts one process per experiment and aggregates them.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.hh"

using namespace perfbench;

namespace {

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        if (static_cast<unsigned char>(ch) >= 0x20)
            out += ch;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonObject(const Metrics &m)
{
    std::string out = "{";
    for (std::size_t i = 0; i < m.size(); ++i) {
        out += (i ? ", " : "") + jsonString(m[i].name) + ": " +
               jsonNumber(m[i].value);
    }
    return out + "}";
}

std::string
jsonUnits(const Metrics &m)
{
    std::string out = "{";
    for (std::size_t i = 0; i < m.size(); ++i) {
        out += (i ? ", " : "") + jsonString(m[i].name) + ": " +
               jsonString(m[i].unit);
    }
    return out + "}";
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_sim: %s\n"
                 "usage: perfbench_sim --workload NAME --seed N "
                 "[--traced]\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 0;
    bool haveSeed = false;
    bool traced = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--workload" && i + 1 < argc) {
            workload = argv[++i];
        } else if (arg == "--seed" && i + 1 < argc) {
            const char *s = argv[++i];
            char *end = nullptr;
            seed = std::strtoull(s, &end, 10);
            if (*s == '\0' || *end != '\0' || *s == '-')
                usage("--seed needs a non-negative integer");
            haveSeed = true;
        } else if (arg == "--traced") {
            traced = true;
        } else {
            usage(("unknown argument '" + arg + "'").c_str());
        }
    }
    const WorkloadSpec *spec = findWorkload(workload);
    if (!spec)
        usage(("unknown workload '" + workload + "'").c_str());
    if (!haveSeed)
        usage("--seed is required");

    const Experiment e = runExperiment(workloadConfig(*spec, seed), *spec,
                                       traced, 1u << 18, 1u << 20);
    Metrics all = e.host;
    for (const Metrics *m : {&e.sim, &e.raw, &e.hostLayers})
        all.insert(all.end(), m->begin(), m->end());

    std::string fails = "[";
    for (std::size_t i = 0; i < e.failures.size(); ++i)
        fails += (i ? ", " : "") + jsonString(e.failures[i]);
    fails += "]";

    std::printf("{\"workload\": %s, \"seed\": %llu, \"traced\": %s, "
                "\"failures\": %s, \"host\": %s, \"sim\": %s, "
                "\"raw\": %s, \"host_layers\": %s, \"units\": %s}\n",
                jsonString(workload).c_str(),
                static_cast<unsigned long long>(seed),
                traced ? "true" : "false", fails.c_str(),
                jsonObject(e.host).c_str(), jsonObject(e.sim).c_str(),
                jsonObject(e.raw).c_str(), jsonObject(e.hostLayers).c_str(),
                jsonUnits(all).c_str());
    return e.failures.empty() ? 0 : 1;
}
