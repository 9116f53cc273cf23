/**
 * @file
 * Tests of the benchmark harness itself, run on the small
 * SystemConfig::testDefault() system:
 *
 *  - a traced experiment yields every metric BENCHMARK.json names
 *    (except trace.overhead_frac, which run.py derives from pairs of
 *    traced and untraced runs), with finite values;
 *  - every name the harness emits or the contract lists uses only
 *    [A-Za-z0-9_.-];
 *  - the conservation check passes on a real run and trips on a
 *    doctored RunResult and on doctored device totals.
 *
 * Exits 1 on the first failed check.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hh"

using namespace banshee;
using namespace perfbench;

namespace {

int checksRun = 0;

#define CHECK(cond)                                                       \
    do {                                                                  \
        ++checksRun;                                                      \
        if (!(cond)) {                                                    \
            std::fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__,   \
                         __LINE__, #cond);                                \
            std::exit(1);                                                 \
        }                                                                 \
    } while (0)

/** The benchmark contract's naming rule: at most 64 of
 *  [A-Za-z0-9_.-], starting with an alphanumeric. */
bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64)
        return false;
    auto alnum = [](char ch) {
        return (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
               (ch >= '0' && ch <= '9');
    };
    if (!alnum(name[0]))
        return false;
    return std::all_of(name.begin(), name.end(), [&](char ch) {
        return alnum(ch) || ch == '_' || ch == '.' || ch == '-';
    });
}

/** The "name" fields of one top-level array of BENCHMARK.json. */
std::vector<std::string>
contractNames(const std::string &json, const std::string &section)
{
    const std::size_t start = json.find("\"" + section + "\"");
    CHECK(start != std::string::npos);
    const std::size_t open = json.find('[', start);
    const std::size_t close = json.find(']', open);
    CHECK(open != std::string::npos && close != std::string::npos);
    const std::string body = json.substr(open, close - open);
    const std::regex nameField("\"name\"\\s*:\\s*\"([^\"]*)\"");
    std::vector<std::string> names;
    for (std::sregex_iterator it(body.begin(), body.end(), nameField), end;
         it != end; ++it)
        names.push_back((*it)[1]);
    CHECK(!names.empty());
    return names;
}

std::string
readFile(const char *path)
{
    std::ifstream in(path);
    CHECK(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** testDefault() as a benchmark workload; nothing is expected nonzero
 *  beyond what checkRun always checks. */
const WorkloadSpec kTestSpec{"test-default", SystemConfig::testDefault, {}};

void
testEveryContractMetricIsExtracted()
{
    const Experiment e = runExperiment(SystemConfig::testDefault(),
                                       kTestSpec, true, 1u << 14, 1u << 16);
    CHECK(e.failures.empty());

    std::set<std::string> emitted;
    for (const Metrics *m : {&e.host, &e.sim, &e.raw, &e.hostLayers}) {
        for (const Metric &x : *m) {
            CHECK(validMetricName(x.name));
            CHECK(!x.unit.empty());
            CHECK(std::isfinite(x.value));
            CHECK(emitted.insert(x.name).second); // each name once
        }
    }

    const std::string json = readFile(PERFBENCH_CONTRACT);
    for (const char *section : {"end_to_end", "per_layer"}) {
        for (const std::string &name : contractNames(json, section)) {
            CHECK(validMetricName(name));
            if (name == "trace.overhead_frac")
                continue;
            if (!emitted.count(name))
                std::fprintf(stderr, "not extracted: %s\n", name.c_str());
            CHECK(emitted.count(name) == 1);
        }
    }
    for (const std::string &name : contractNames(json, "workloads"))
        CHECK(findWorkload(name) != nullptr);

    CHECK(metricValue(e.sim, "ipc") > 0.0);
    CHECK(metricValue(e.hostLayers, "trace.loop_s") > 0.0);
}

void
testNameRule()
{
    CHECK(validMetricName("dram.inpkg.HitData_bpi"));
    CHECK(validMetricName("a-b_c.9"));
    CHECK(!validMetricName(""));
    CHECK(!validMetricName(".leading"));
    CHECK(!validMetricName("has space"));
    CHECK(!validMetricName("per/instr"));
    CHECK(!validMetricName(std::string(65, 'a')));
}

void
testConservationTrips()
{
    SystemConfig cfg = SystemConfig::testDefault();
    std::vector<TenantConfig> tenants(2);
    tenants[0] = {"a", "qos_resident", 1.0, 8};
    tenants[1] = {"b", "qos_churn", 1.0, 8};
    cfg.withTenants(tenants, /*partition=*/true);
    System sys(cfg);
    const RunResult r = sys.run();
    const DeviceTotals totals = deviceTotals(sys);
    CHECK(totals.inPkgBytes > 0 && totals.offPkgBytes > 0);
    CHECK(checkConservation(r, totals).empty());

    RunResult doctored = r;
    doctored.inPkgBytes[static_cast<std::size_t>(TrafficCat::Tag)] += 64;
    CHECK(!checkConservation(doctored, totals).empty());

    doctored = r;
    doctored.offPkgBytes[static_cast<std::size_t>(TrafficCat::Demand)] -= 64;
    CHECK(!checkConservation(doctored, totals).empty());

    doctored = r;
    doctored.tenants[0].inPkgBytes += 64;
    CHECK(!checkConservation(doctored, totals).empty());

    DeviceTotals lost = totals;
    lost.inPkgBucketBytes -= 64;
    CHECK(!checkConservation(r, lost).empty());
}

} // namespace

int
main()
{
    testNameRule();
    testEveryContractMetricIsExtracted();
    testConservationTrips();
    std::printf("perfbench_selftest: %d checks passed\n", checksRun);
    return 0;
}
