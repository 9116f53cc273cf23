#include "telemetry/telemetry.hh"

#include <cstdio>

#include "common/log.hh"
#include "telemetry/span_trace.hh"

namespace banshee {

Telemetry::Telemetry(EventQueue &eq, const TelemetryConfig &config,
                     PageJournal *trace)
    : eq_(eq), epochCycles_(config.epochCycles), trace_(trace)
{
    sim_assert(config.enabled, "Telemetry built while disabled");
}

Histogram &
Telemetry::histogram(const std::string &name)
{
    for (std::size_t i = 0; i < ownedNames_.size(); ++i) {
        if (ownedNames_[i] == name)
            return *owned_[i];
    }
    owned_.push_back(std::make_unique<Histogram>());
    ownedNames_.push_back(name);
    registry_.addHistogram(name, *owned_.back());
    return *owned_.back();
}

ChannelTelemetry &
Telemetry::channelTelemetry(const std::string &name)
{
    channels_.push_back(std::make_unique<ChannelTelemetry>());
    ChannelTelemetry &ct = *channels_.back();
    registry_.addHistogram(name + ".queueLat", ct.queueLatency);
    registry_.addHistogram(name + ".readOcc", ct.readOccupancy);
    registry_.addHistogram(name + ".writeOcc", ct.writeOccupancy);
    registry_.addHistogram(name + ".qosDeferAge", ct.qosDeferAge);
    return ct;
}

void
Telemetry::nameTenantQueueLatency(std::size_t bucket,
                                  const std::string &metricName)
{
    sim_assert(bucket < kTenantBuckets, "bad tenant bucket %zu", bucket);
    registry_.addHistogram(metricName, tenantQlat_[bucket]);
}

void
Telemetry::resetHistograms()
{
    for (auto &h : owned_)
        h->reset();
    for (auto &ct : channels_) {
        ct->queueLatency.reset();
        ct->readOccupancy.reset();
        ct->writeOccupancy.reset();
        ct->qosDeferAge.reset();
    }
    for (Histogram &h : tenantQlat_)
        h.reset();
}

void
Telemetry::startEpochs()
{
    registry_.start(eq_, epochCycles_,
                    [this](const MetricRegistry::Sample &s) {
                        if (trace_)
                            traceSample(s);
                    });
    // Baseline sample at the measure boundary: epoch 0 carries the
    // post-reset cumulative state, so every later epoch (including the
    // first timed one) has a predecessor to delta against.
    registry_.sample(eq_.now());
}

void
Telemetry::finishEpochs()
{
    registry_.stop();
    // One closing sample so the last (partial) epoch's activity is
    // still visible in the timeline (traced via the onSample hook),
    // unless an epoch tick already sampled this cycle: a second
    // sample would only add a zero-length epoch.
    const auto &series = registry_.series();
    if (series.empty() || series.back().cycle != eq_.now())
        registry_.sample(eq_.now());
}

void
Telemetry::emitProfile()
{
    if (!trace_)
        return;
    std::string json = "{";
    for (const auto &kv : registry_.timers()) {
        if (json.size() > 1)
            json += ", ";
        json += "\"" + jsonEscape(kv.first) +
                "\": {\"ns\": " + std::to_string(kv.second.ns) +
                ", \"calls\": " + std::to_string(kv.second.calls) + "}";
    }
    json += "}";
    trace_->controlEvent(PageJournal::kRunTrack, "profile", 'i', eq_.now(),
                         json);
}

std::vector<HistogramSummary>
Telemetry::summaries() const
{
    std::vector<HistogramSummary> out;
    out.reserve(registry_.numHistograms());
    for (std::size_t i = 0; i < registry_.numHistograms(); ++i) {
        const Histogram &h = registry_.histogramAt(i);
        if (h.count() == 0)
            continue; // dormant hooks (e.g. unused tenant buckets)
        out.push_back(h.summary(registry_.histNameAt(i)));
    }
    return out;
}

void
Telemetry::traceSample(const MetricRegistry::Sample &s)
{
    std::string json = "{";
    const auto &names = registry_.metricNames();
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (i > 0)
            json += ", ";
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6f", s.values[i]);
        json += "\"" + jsonEscape(names[i]) + "\": " + buf;
    }
    json += "}";
    trace_->controlEvent(PageJournal::kRunTrack, "epoch", 'C', s.cycle,
                         json);

    json = "{";
    const auto &hnames = registry_.histNames();
    for (std::size_t i = 0; i < hnames.size(); ++i) {
        if (i > 0)
            json += ", ";
        const MetricRegistry::HistSnapshot &h = s.hists[i];
        json += "\"" + jsonEscape(hnames[i]) +
                "\": {\"count\": " + std::to_string(h.count) +
                ", \"sum\": " + std::to_string(h.sum) +
                ", \"max\": " + std::to_string(h.max) + ", \"buckets\": [";
        for (std::size_t b = 0; b < h.buckets.size(); ++b) {
            if (b > 0)
                json += ", ";
            json += std::to_string(h.buckets[b]);
        }
        json += "]}";
    }
    json += "}";
    trace_->controlEvent(PageJournal::kRunTrack, "epoch_hists", 'i',
                         s.cycle, json);
    // One flush per epoch: a run that aborts keeps its timeline.
    trace_->flush();
}

} // namespace banshee
