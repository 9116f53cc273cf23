/**
 * @file
 * Configuration of the telemetry subsystem and of the run's trace.
 *
 * Disabled by default: with enabled == false the System builds no
 * registry, schedules no sampling events, attaches no histogram
 * hooks and writes no trace, so the simulated machine (and every
 * bench's --json output) is bit-identical to a build without
 * telemetry.
 */

#ifndef BANSHEE_TELEMETRY_TELEMETRY_CONFIG_HH
#define BANSHEE_TELEMETRY_TELEMETRY_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "common/units.hh"

namespace banshee {

struct TelemetryConfig
{
    bool enabled = false;

    /**
     * Trace output. Empty keeps telemetry in memory (registry,
     * histograms, phase timers, summaries()) and writes no file.
     * Otherwise the run writes one Chrome trace-event file: a
     * directory (trailing '/' or an existing directory) holds one
     * `<label>.trace.json` per run; a file path gets "-<label>"
     * spliced in before its extension when the label is set.
     */
    std::string path;

    /**
     * Sampling epoch in core cycles. Defaults to the resize
     * subsystem's policy epoch so metric samples line up with resize /
     * power-cap / QoS decisions in the trace.
     */
    Cycle epochCycles = usToCycles(20.0);

    /** The trace's page spans follow 1/2^sampleShift of all pages
     *  (0 = every page). */
    std::uint32_t sampleShift = 6;

    /** The run's label: names its trace file and its run_info event.
     *  The sweep runner stamps the experiment label (the bench JSON
     *  result label) when left empty. */
    std::string runLabel;
};

} // namespace banshee

#endif // BANSHEE_TELEMETRY_TELEMETRY_CONFIG_HH
