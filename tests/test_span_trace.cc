/**
 * @file
 * Trace invariants: the sampler is a pure seeded hash (identical
 * sampled sets regardless of thread count or call order), tracing off
 * leaves simulation results bit-identical, sweeps route each
 * experiment to its own trace file whose bytes (bar the host-time
 * profile) do not depend on the worker-thread count, each decision
 * appears once, and the emitted files are well-formed Chrome
 * trace-event JSON.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/runner.hh"
#include "sim/system.hh"
#include "telemetry/span_trace.hh"
#include "telemetry/trace_sink.hh"

namespace banshee {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::size_t
countOccurrences(const std::string &hay, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size()))
        ++n;
    return n;
}

TEST(SpanSampler, DeterministicAndSeedSensitive)
{
    for (PageNum page = 0; page < 4096; ++page) {
        EXPECT_EQ(PageJournal::sampled(page, 1, 4),
                  PageJournal::sampled(page, 1, 4));
    }
    // Different seeds pick different sets (overlap is fine; identity
    // would mean the seed is ignored).
    std::size_t differs = 0;
    for (PageNum page = 0; page < 4096; ++page) {
        if (PageJournal::sampled(page, 1, 4) !=
            PageJournal::sampled(page, 2, 4))
            ++differs;
    }
    EXPECT_GT(differs, 0u);
}

TEST(SpanSampler, ShiftControlsFraction)
{
    // shift 0 samples everything.
    for (PageNum page = 0; page < 256; ++page)
        EXPECT_TRUE(PageJournal::sampled(page, 42, 0));

    // shift 4 samples ~1/16 of a large page range (the hash is not a
    // counter, so allow a generous 2x band).
    std::size_t hits = 0;
    const std::size_t total = 1u << 16;
    for (PageNum page = 0; page < total; ++page)
        hits += PageJournal::sampled(page, 42, 4) ? 1 : 0;
    EXPECT_GT(hits, total / 32);
    EXPECT_LT(hits, total / 8);
}

TEST(SpanTracePath, LabelSanitizedAndDirectoriesCreated)
{
    EXPECT_EQ(sanitizeRunLabel("a/b c:d"), "a_b_c_d");
    EXPECT_EQ(sanitizeRunLabel("ok-1.2_x"), "ok-1.2_x");

    // Plain file: the label goes in before the canonical extension,
    // which is added when missing.
    EXPECT_EQ(resolveTracePath("out.trace.json", "w/x"),
              "out-w_x.trace.json");
    EXPECT_EQ(resolveTracePath("out", "w"), "out-w.trace.json");
    // Unlabelled file paths pass through untouched.
    EXPECT_EQ(resolveTracePath("out.trace.json", ""), "out.trace.json");
    EXPECT_EQ(resolveTracePath("", "w"), "");

    // Directory path: created on demand, one file per label.
    const std::string dir = ::testing::TempDir() + "span_path_dir";
    std::remove((dir + "/lbl.trace.json").c_str());
    const std::string p = resolveTracePath(dir + "/", "lbl");
    EXPECT_EQ(p, dir + "/lbl.trace.json");
    std::FILE *f = std::fopen(p.c_str(), "w");
    ASSERT_NE(f, nullptr) << "directory was not created";
    std::fclose(f);
    std::remove(p.c_str());
}

SystemConfig
tinyConfig()
{
    SystemConfig c = SystemConfig::testDefault();
    c.numCores = 4;
    c.warmupInstrPerCore = 5'000;
    c.measureInstrPerCore = 10'000;
    return c;
}

/** Trace @p c into @p path with page spans of 1/2^shift of pages. */
void
traceInto(SystemConfig &c, const std::string &path,
          std::uint32_t sampleShift = 2)
{
    c.withTelemetry(path);
    c.telemetry.sampleShift = sampleShift;
}

/**
 * Two tenants under the QoS arbiter whose slice layout was apportioned
 * for a 3:1 quota while the weights say 1:1: the arbiter reassigns
 * slices during the measured phase.
 */
SystemConfig
rebalancingTenants()
{
    SystemConfig c = SystemConfig::testDefault();
    c.numCores = 4;
    c.mem.inPkgCapacity = 4ull << 20;
    c.hierarchy.l3Size = 512 * 1024;
    c.autoWarmup = false;
    c.warmupInstrPerCore = 100'000;
    c.measureInstrPerCore = 300'000;
    c.withTenants({{"resident", "qos_resident", 1.0, 2},
                   {"churn", "qos_churn", 1.0, 2}});
    c.withQosArbiter();
    c.resize.tenantWeights = {3.0, 1.0};
    return c;
}

/** The file without its host-time "profile" line (wall-clock data). */
std::string
withoutProfile(const std::string &trace)
{
    std::istringstream in(trace);
    std::string out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("{\"name\": \"profile\"") != 0)
            out += line + "\n";
    }
    return out;
}

TEST(SpanTrace, TracingDoesNotPerturbSimulation)
{
    SystemConfig plain = tinyConfig();
    const std::string path =
        ::testing::TempDir() + "span_perturb.trace.json";
    SystemConfig traced = tinyConfig();
    traceInto(traced, path);

    RunResult a = System(plain).run();
    RunResult b = System(traced).run();
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.dramCacheAccesses, b.dramCacheAccesses);
    EXPECT_EQ(a.dramCacheMisses, b.dramCacheMisses);
    EXPECT_EQ(a.inPkgBytes, b.inPkgBytes);
    EXPECT_EQ(a.offPkgBytes, b.offPkgBytes);
    std::remove(path.c_str());
}

TEST(SpanTrace, WellFormedAndCausallyComplete)
{
    const std::string path =
        ::testing::TempDir() + "span_wellformed.trace.json";
    SystemConfig c = tinyConfig();
    traceInto(c, path);
    {
        System sys(c);
        sys.run();
        // finish() ran in collect(); the dtor close is idempotent.
    }
    const std::string trace = slurp(path);
    ASSERT_FALSE(trace.empty());
    EXPECT_EQ(trace.front(), '[');
    EXPECT_EQ(trace.substr(trace.size() - 2), "]\n");

    // Matched duration + async pairs.
    EXPECT_EQ(countOccurrences(trace, "\"ph\": \"B\""),
              countOccurrences(trace, "\"ph\": \"E\""));
    EXPECT_EQ(countOccurrences(trace, "\"ph\": \"b\""),
              countOccurrences(trace, "\"ph\": \"e\""));

    // The causal chain's landmarks all appear: sampled accesses,
    // fetch spans, channel queue/service slices, residency spans,
    // named tracks, the epoch series and the run's bookends.
    EXPECT_GT(countOccurrences(trace, "\"name\": \"access\""), 0u);
    EXPECT_GT(countOccurrences(trace, "\"name\": \"fetch\""), 0u);
    EXPECT_GT(countOccurrences(trace, "\"name\": \"queue\""), 0u);
    EXPECT_GT(countOccurrences(trace, "\"name\": \"service\""), 0u);
    EXPECT_GT(countOccurrences(trace, "\"name\": \"resident\""), 0u);
    EXPECT_GT(countOccurrences(trace, "\"name\": \"thread_name\""), 0u);
    EXPECT_EQ(countOccurrences(trace, "\"name\": \"run_info\""), 1u);
    EXPECT_GT(countOccurrences(trace, "\"ph\": \"C\""), 1u);
    EXPECT_EQ(countOccurrences(trace, "\"ph\": \"C\""),
              countOccurrences(trace, "\"name\": \"epoch_hists\""));
    EXPECT_EQ(countOccurrences(trace, "\"name\": \"measure_start\""), 1u);
    EXPECT_EQ(countOccurrences(trace, "\"name\": \"run_end\""), 1u);
    EXPECT_EQ(countOccurrences(trace, "\"name\": \"profile\""), 1u);
    std::remove(path.c_str());
}

TEST(SpanTrace, SweepRoutesPerLabelAndIsThreadCountInvariant)
{
    auto sweepInto = [](const std::string &dir, unsigned threads) {
        std::vector<Experiment> exps;
        SystemConfig c = tinyConfig();
        traceInto(c, dir + "/");
        exps.push_back({"pagerank/Banshee", c});
        SystemConfig q = rebalancingTenants();
        traceInto(q, dir + "/", 4);
        exps.push_back({"tenants/qos", q});
        runSweep(exps, threads, nullptr, false);
    };

    const std::string dir1 = ::testing::TempDir() + "span_sweep_t1";
    const std::string dir2 = ::testing::TempDir() + "span_sweep_t2";
    sweepInto(dir1, 1);
    sweepInto(dir2, 2);

    for (const char *name :
         {"pagerank_Banshee.trace.json", "tenants_qos.trace.json"}) {
        const std::string a = slurp(dir1 + "/" + name);
        const std::string b = slurp(dir2 + "/" + name);
        EXPECT_FALSE(a.empty()) << name;
        EXPECT_EQ(countOccurrences(a, "\"name\": \"profile\""), 1u);
        EXPECT_EQ(withoutProfile(a), withoutProfile(b))
            << name << ": trace bytes depend on worker threads";
        std::remove((dir1 + "/" + name).c_str());
        std::remove((dir2 + "/" + name).c_str());
    }
}

TEST(SpanTrace, EachReassignDecisionAppearsOnce)
{
    const std::string path =
        ::testing::TempDir() + "span_reassign.trace.json";
    SystemConfig c = rebalancingTenants();
    traceInto(c, path, 4);
    const RunResult r = System(c).run();
    ASSERT_GE(r.qosReassigns, 2u);

    // The arbiter's decision is one "qos_reassign" instant; the
    // transition it starts is one "reassign" span, opened at the same
    // cycle, whose end is the commit.
    std::istringstream in(slurp(path));
    std::vector<std::string> decisions;
    std::vector<std::string> starts;
    std::size_t commits = 0;
    auto tsOf = [](const std::string &line) {
        const std::size_t at = line.find("\"ts\": ") + 6;
        return line.substr(at, line.find(',', at) - at);
    };
    for (std::string line; std::getline(in, line);) {
        if (line.find("{\"name\": \"qos_reassign\", \"ph\": \"i\"") == 0)
            decisions.push_back(tsOf(line));
        else if (line.find("{\"name\": \"reassign\", \"ph\": \"B\"") == 0)
            starts.push_back(tsOf(line));
        else if (line.find("{\"name\": \"reassign\", \"ph\": \"E\"") == 0 &&
                 line.find("\"truncated\"") == std::string::npos)
            ++commits;
        EXPECT_EQ(line.find("qos_decision"), std::string::npos);
    }
    EXPECT_EQ(decisions, starts);
    EXPECT_EQ(commits, r.qosReassigns);
    std::remove(path.c_str());
}

} // namespace
} // namespace banshee
