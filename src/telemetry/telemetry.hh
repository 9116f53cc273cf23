/**
 * @file
 * The per-run telemetry facade: one MetricRegistry (epoch-sampled
 * time series + phase timers) and the owned histograms hot paths
 * record into.
 *
 * A System builds one Telemetry instance when its TelemetryConfig is
 * enabled and wires the hooks (DRAM channels, migration engines);
 * everything stays null/dormant otherwise. When the run is traced,
 * each epoch sample goes into the run's trace (span_trace.hh) as an
 * "epoch" counter event plus an "epoch_hists" instant, so the file
 * carries the full timeline: metrics, histogram states, and the
 * decision events interleaved between them.
 */

#ifndef BANSHEE_TELEMETRY_TELEMETRY_HH
#define BANSHEE_TELEMETRY_TELEMETRY_HH

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "telemetry/dram_hooks.hh"
#include "telemetry/histogram.hh"
#include "telemetry/metric_registry.hh"
#include "telemetry/telemetry_config.hh"

namespace banshee {

class PageJournal;

class Telemetry
{
  public:
    /** @p trace receives the epoch samples and the profile; null
     *  keeps everything in memory (histograms, timers, summaries()). */
    Telemetry(EventQueue &eq, const TelemetryConfig &config,
              PageJournal *trace);

    MetricRegistry &registry() { return registry_; }

    /** Create (or fetch) an owned histogram registered as @p name. */
    Histogram &histogram(const std::string &name);

    /** Create the telemetry block for one DRAM channel; its
     *  histograms are registered under "<name>.*". */
    ChannelTelemetry &channelTelemetry(const std::string &name);

    /** Device-level per-tenant sojourn array (tenantBucket index). */
    Histogram *tenantQueueLatency() { return tenantQlat_.data(); }

    /** Register tenant bucket @p bucket's sojourn histogram under a
     *  readable name ("tenant.<name>.queueLat"). */
    void nameTenantQueueLatency(std::size_t bucket,
                                const std::string &metricName);

    /** Named phase timer (null-safe handle for ScopedTimer). */
    PhaseTimer *timer(const std::string &name)
    {
        return &registry_.timer(name);
    }

    /** Warmup boundary: clear histograms so measured-phase
     *  distributions start clean (timers are host-profile data and
     *  keep accumulating). */
    void resetHistograms();

    /** Begin epoch sampling; each sample is also traced. */
    void startEpochs();

    /** Final sample + stop the clock (end of the measured phase). */
    void finishEpochs();

    /** Trace the "profile" instant holding the phase-timer totals. */
    void emitProfile();

    /** End-of-run digests of every registered histogram. */
    std::vector<HistogramSummary> summaries() const;

  private:
    /** Trace one sample: metric counters, then histogram states. */
    void traceSample(const MetricRegistry::Sample &s);

    EventQueue &eq_;
    Cycle epochCycles_;
    PageJournal *trace_;
    MetricRegistry registry_;

    std::vector<std::unique_ptr<Histogram>> owned_;
    std::vector<std::string> ownedNames_;
    std::vector<std::unique_ptr<ChannelTelemetry>> channels_;
    std::array<Histogram, kTenantBuckets> tenantQlat_{};
};

} // namespace banshee

#endif // BANSHEE_TELEMETRY_TELEMETRY_HH
