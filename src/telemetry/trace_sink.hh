/**
 * @file
 * Structured simulator-event trace, one JSON object per line.
 *
 * Every line carries the run label, the simulated cycle and an event
 * type, so a single file can hold the interleaved traces of a whole
 * bench sweep (runSweep runs systems on worker threads; writes
 * are line-atomic under a mutex). Sinks are shared by path: every
 * System whose TelemetryConfig names the same file appends to one
 * process-wide sink, which truncates the file exactly once.
 *
 * scripts/telemetry_summary.py renders and validates the format.
 */

#ifndef BANSHEE_TELEMETRY_TRACE_SINK_HH
#define BANSHEE_TELEMETRY_TRACE_SINK_HH

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>

#include "common/types.hh"

namespace banshee {

/** Escape a string for embedding in a JSON string literal. */
std::string jsonEscape(const std::string &s);

/**
 * One key/value pair of a trace event, serialized at construction so
 * emit sites can pass heterogeneous braced lists.
 */
class TraceField
{
  public:
    TraceField(const char *key, std::uint64_t v);
    TraceField(const char *key, std::uint32_t v);
    TraceField(const char *key, int v);
    TraceField(const char *key, double v);
    TraceField(const char *key, const char *v);
    TraceField(const char *key, const std::string &v);

    const std::string &json() const { return json_; }

  private:
    std::string json_; ///< `"key": value`
};

/** Replace every character outside [A-Za-z0-9._-] with '_' so an
 *  experiment label is safe to use as a file name. */
std::string sanitizeRunLabel(const std::string &label);

/**
 * Resolve a trace output path against a run label.
 *
 * - empty @p path -> empty (tracing disabled);
 * - a directory (trailing '/' or an existing directory) is created if
 *   missing and yields `dir/<sanitized-label>.<ext>` ("run" when the
 *   label is empty) — one file per experiment;
 * - otherwise the path is a plain file. When @p perRun is set and the
 *   label is non-empty, "-<sanitized-label>" is spliced in before the
 *   file extension so sweep experiments never share a writer.
 */
std::string resolveTracePath(const std::string &path,
                             const std::string &label,
                             const std::string &ext, bool perRun);

class TraceSink
{
  public:
    /**
     * The shared sink for @p path: the first request opens (and
     * truncates) the file, later requests — e.g. the second
     * runSweep batch of a bench — keep appending to it.
     */
    static std::shared_ptr<TraceSink> shared(const std::string &path);

    /** Private sink for tests; prefer shared() in the simulator. */
    explicit TraceSink(const std::string &path);
    ~TraceSink();

    TraceSink(const TraceSink &) = delete;
    TraceSink &operator=(const TraceSink &) = delete;

    /** Emit one event line: run label + cycle + type + fields. */
    void event(const std::string &run, Cycle cycle, const char *type,
               std::initializer_list<TraceField> fields);

    /** Emit a pre-serialized JSON object (epoch samples). The line
     *  must already include the run/cycle/event envelope. */
    void writeLine(const std::string &json);

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::FILE *file_;
    std::mutex mutex_;
};

/**
 * Writer for Chrome trace-event JSON: a single top-level array of
 * event objects, one per line, comma-separated, closed on
 * destruction so the file loads in Perfetto / chrome://tracing.
 *
 * Unlike TraceSink this is NOT shared or locked: each PageJournal
 * owns its file exclusively (per-run path routing), and a sweep's
 * Systems never share one (see sim/runner.hh isolation contract).
 */
class ChromeTraceWriter
{
  public:
    explicit ChromeTraceWriter(const std::string &path);
    ~ChromeTraceWriter();

    ChromeTraceWriter(const ChromeTraceWriter &) = delete;
    ChromeTraceWriter &operator=(const ChromeTraceWriter &) = delete;

    /** Append one pre-serialized event object (`{...}`, no comma). */
    void event(const std::string &json);

    /** Write the closing `]` now (idempotent; destructor fallback). */
    void close();

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::FILE *file_;
    bool first_ = true;
};

} // namespace banshee

#endif // BANSHEE_TELEMETRY_TRACE_SINK_HH
