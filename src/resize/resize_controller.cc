#include "resize/resize_controller.hh"

#include "common/log.hh"
#include "common/units.hh"
#include "dram/dram_model.hh"
#include "telemetry/span_trace.hh"

namespace banshee {

ResizeController::ResizeController(EventQueue &eq, OsServices &os,
                                   const ResizeConfig &config)
    : eq_(eq), os_(os), config_(config), policy_(config.policy),
      stats_("resize"),
      statStarted_(stats_.counter("resizesStarted")),
      statCompleted_(stats_.counter("resizesCompleted")),
      statEpochs_(stats_.counter("epochsEvaluated")),
      statDeferred_(stats_.counter("decisionsDeferred")),
      statReassigns_(stats_.counter("slicesReassigned"))
{
    sim_assert(config.enabled, "controller built with resize disabled");
    // When the batch PTE update finishes, remap slots have been
    // harvested from every tag buffer: resume stalled drains now.
    os_.registerUpdateListener([this] {
        for (auto &d : domains_)
            d->engine().kick();
    });
}

void
ResizeController::addHost(ResizeHost &host, const std::string &name)
{
    domains_.push_back(
        std::make_unique<ResizeDomain>(eq_, host, config_, name));
    host.attachResizeDomain(domains_.back().get());
}

void
ResizeController::attachPowerModel(DramPowerModel *power)
{
    power_ = power;
    // Seed the epoch-power baseline from the model's *current*
    // accumulators and restart the EWMA at the next reading. Without
    // this, a (re-)attach mid-run would compute the first epoch's
    // power as (lifetime energy - 0) / epoch — an enormous phantom
    // draw that trips the cap policy into a spurious cold-start shed.
    ewmaValid_ = false;
    if (power_) {
        prevTotalPJ_ = power_->totalEnergyPJ(eq_.now());
        prevBgRefPJ_ = power_->energy().backgroundPJ() +
                       power_->energy().refreshPJ();
        power_->setGatedSliceFraction(gatedFractionFor(activeSlices()),
                                      eq_.now());
    }
}

void
ResizeController::attachTenants(TenantMap *tenants)
{
    tenants_ = tenants;
    if (tenants_ && config_.policy.kind == ResizePolicyConfig::Kind::Qos) {
        qos_ = std::make_unique<QosArbiterPolicy>(config_.policy,
                                                  tenants_->weights());
    }
}

void
ResizeController::attachSpanTrace(PageJournal *spans)
{
    spans_ = spans;
    tenantSpanTracks_.clear();
    if (!spans_)
        return;
    spanTrack_ = spans_->addControlTrack("resize");
    // ResizeDomains have no public name; index-named tracks keep the
    // drain batches of each memory controller apart.
    for (std::size_t i = 0; i < domains_.size(); ++i) {
        domains_[i]->engine().setSpanTrace(
            spans_,
            spans_->addControlTrack("migration." + std::to_string(i)));
    }
    if (tenants_) {
        for (std::uint32_t t = 0; t < tenants_->numTenants(); ++t) {
            tenantSpanTracks_.push_back(spans_->addControlTrack(
                "tenant." +
                tenants_->config(static_cast<TenantId>(t)).name));
        }
    }
}

void
ResizeController::setTenantWeights(const std::vector<double> &weights)
{
    sim_assert(qos_ != nullptr, "weight update without a QoS arbiter");
    sim_assert(weights.size() == tenants_->numTenants(),
               "weight update changes the tenant count");
    // Keep the TenantMap in step: it is what reports (RunResult,
    // JSON) and what future arbiter rebuilds read — a quota change
    // must not leave the two weight sources divergent.
    for (std::uint32_t t = 0; t < tenants_->numTenants(); ++t)
        tenants_->setWeight(static_cast<TenantId>(t), weights[t]);
    qos_->setWeights(weights);
}

void
ResizeController::attachQosDevice(DramModel *dev)
{
    qosDev_ = dev;
    pushQosShares();
}

void
ResizeController::pushQosShares()
{
    if (!qosDev_ || !tenants_)
        return;
    std::array<double, kMaxTenants> shares{};
    const std::uint32_t n = std::min<std::uint32_t>(
        tenants_->numTenants(), kMaxTenants);
    // Bandwidth entitlement follows the live slice partition when one
    // exists (so every reassign/resize commit rebalances channel
    // credit alongside residency), else the configured quota weights.
    std::uint32_t ownedTotal = 0;
    for (std::uint32_t t = 0; t < n; ++t)
        ownedTotal += slicesOwnedBy(static_cast<TenantId>(t));
    if (ownedTotal > 0) {
        for (std::uint32_t t = 0; t < n; ++t) {
            shares[t] =
                static_cast<double>(slicesOwnedBy(static_cast<TenantId>(t))) /
                static_cast<double>(ownedTotal);
        }
    } else {
        double wsum = 0.0;
        for (std::uint32_t t = 0; t < n; ++t)
            wsum += tenants_->weight(static_cast<TenantId>(t));
        if (wsum <= 0.0)
            return;
        for (std::uint32_t t = 0; t < n; ++t)
            shares[t] = tenants_->weight(static_cast<TenantId>(t)) / wsum;
    }
    qosDev_->setQosShares(shares);
}

void
ResizeController::onMeasureStart()
{
    epochIndex_ = 0;
    prevAccesses_ = 0;
    prevMisses_ = 0;
    prevTenantAccesses_.fill(0);
    prevTenantMisses_.fill(0);
    for (auto &d : domains_) {
        prevAccesses_ += d->host().demandAccesses();
        prevMisses_ += d->host().demandMisses();
        if (tenants_) {
            for (std::uint32_t t = 0; t < tenants_->numTenants(); ++t) {
                prevTenantAccesses_[t] +=
                    d->host().demandAccessesOf(static_cast<TenantId>(t));
                prevTenantMisses_[t] +=
                    d->host().demandMissesOf(static_cast<TenantId>(t));
            }
        }
    }
    // The measure boundary zeroes the power model's accumulators
    // (System::resetAllStats), so epoch energy deltas restart at 0.
    prevTotalPJ_ = 0.0;
    prevBgRefPJ_ = 0.0;
    ewmaValid_ = false;
    eq_.scheduleAfter(epochEvent_, config_.policy.epoch);
}

void
ResizeController::epochTick()
{
    ++statEpochs_;

    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    for (auto &d : domains_) {
        accesses += d->host().demandAccesses();
        misses += d->host().demandMisses();
    }
    ResizeEpochStats epoch;
    epoch.accesses = accesses - prevAccesses_;
    epoch.misses = misses - prevMisses_;
    prevAccesses_ = accesses;
    prevMisses_ = misses;

    if (power_) {
        const double totalPJ = power_->totalEnergyPJ(eq_.now());
        const double bgRefPJ = power_->energy().backgroundPJ() +
                               power_->energy().refreshPJ();
        const double epochNs = static_cast<double>(config_.policy.epoch) *
                               1e9 / kCoreFreqHz;
        // pJ / ns = mW.
        const double rawWatts =
            (totalPJ - prevTotalPJ_) / epochNs * 1e-3;
        epoch.bgRefreshWatts = (bgRefPJ - prevBgRefPJ_) / epochNs * 1e-3;
        prevTotalPJ_ = totalPJ;
        prevBgRefPJ_ = bgRefPJ;
        ewmaPowerWatts_ = ewmaValid_
                              ? kPowerEwmaAlpha * rawWatts +
                                    (1.0 - kPowerEwmaAlpha) *
                                        ewmaPowerWatts_
                              : rawWatts;
        ewmaValid_ = true;
        epoch.avgPowerWatts = ewmaPowerWatts_;
    }

    if (qos_) {
        qosTick(epoch);
    } else {
        const auto target = policy_.decide(epochIndex_, epoch,
                                           activeSlices(), totalSlices());
        if (spans_ && target.has_value() && *target != activeSlices()) {
            if (config_.policy.kind == ResizePolicyConfig::Kind::PowerCap &&
                *target < activeSlices()) {
                spans_->controlInstant(
                    spanTrack_, "powercap_shed", eq_.now(),
                    {{"from", activeSlices()},
                     {"to", *target},
                     {"watts", epoch.avgPowerWatts},
                     {"capWatts", config_.policy.powerCapWatts}});
            } else {
                spans_->controlInstant(
                    spanTrack_, "resize_target", eq_.now(),
                    {{"from", activeSlices()}, {"to", *target}});
            }
        }
        if (config_.policy.kind == ResizePolicyConfig::Kind::Schedule) {
            if (target.has_value())
                pendingTarget_ = *target;
        } else {
            // Incremental policies (Adaptive, PowerCap) re-decide from
            // fresh measurements every epoch: carrying a stale target
            // across a drain would overshoot the steady state, and
            // epochs measured mid-transition (or before the smoothed
            // reading has settled on the new layout) are transitional
            // — hold.
            const bool settling = resizeInProgress() || holdEpochs_ > 0;
            if (holdEpochs_ > 0)
                --holdEpochs_;
            pendingTarget_ = settling ? std::nullopt : target;
        }

        // A target that arrives while a previous transition is still
        // draining is deferred and retried every epoch until it
        // applies (or becomes moot), so scheduled steps are never
        // silently lost.
        if (pendingTarget_.has_value()) {
            if (*pendingTarget_ == activeSlices()) {
                pendingTarget_.reset();
            } else if (requestResize(*pendingTarget_)) {
                pendingTarget_.reset();
            } else {
                ++statDeferred_;
            }
        }
    }

    ++epochIndex_;
    if (!epochsStopped_)
        eq_.scheduleAfter(epochEvent_, config_.policy.epoch);
}

void
ResizeController::qosTick(const ResizeEpochStats &epoch)
{
    const std::uint32_t n = tenants_->numTenants();

    // Per-tenant demand deltas, kept current every epoch (even while
    // settling) so a post-transition decision sees one epoch's worth.
    std::vector<TenantEpochStats> ts(n);
    for (std::uint32_t t = 0; t < n; ++t) {
        std::uint64_t acc = 0;
        std::uint64_t mis = 0;
        for (auto &d : domains_) {
            acc += d->host().demandAccessesOf(static_cast<TenantId>(t));
            mis += d->host().demandMissesOf(static_cast<TenantId>(t));
        }
        ts[t].accesses = acc - prevTenantAccesses_[t];
        ts[t].misses = mis - prevTenantMisses_[t];
        prevTenantAccesses_[t] = acc;
        prevTenantMisses_[t] = mis;
    }

    // Like the incremental scalar policies: decisions made from
    // mid-transition measurements are transitional — hold.
    const bool settling = resizeInProgress() || holdEpochs_ > 0;
    if (holdEpochs_ > 0)
        --holdEpochs_;
    if (settling)
        return;

    std::vector<std::uint32_t> owned(n);
    for (std::uint32_t t = 0; t < n; ++t)
        owned[t] = slicesOwnedBy(static_cast<TenantId>(t));

    const QosDecision d =
        qos_->decide(ts, epoch, owned, activeSlices(), totalSlices());
    if (spans_ && d.targetActive.has_value()) {
        spans_->controlInstant(
            spanTrack_, "qos_resize", eq_.now(),
            {{"from", activeSlices()},
             {"to", *d.targetActive},
             {"donor", d.donor},
             {"receiver", d.receiver},
             {"reason", qosReasonName(d.reason)},
             {"watts", epoch.avgPowerWatts},
             {"capWatts", config_.policy.powerCapWatts}});
    } else if (spans_ && d.reassign()) {
        spans_->controlInstant(spanTrack_, "qos_reassign", eq_.now(),
                               {{"donor", d.donor},
                                {"receiver", d.receiver},
                                {"reason", qosReasonName(d.reason)}});
    }
    if (d.targetActive.has_value())
        requestResize(*d.targetActive, d.donor, d.receiver);
    else if (d.reassign())
        requestReassign(d.donor, d.receiver);
}

std::function<void()>
ResizeController::transitionDone(Counter &completions, bool capacityLoss)
{
    return [this, &completions, capacityLoss] {
        sim_assert(pendingDomains_ > 0, "stray drain completion");
        if (--pendingDomains_ == 0) {
            ++completions;
            if (capacityLoss) {
                // The drained slices' pages are gone, but their FBR
                // counters would still outrank every newcomer: let
                // the host decay them so the survivors re-earn their
                // residency against re-admission candidates.
                for (auto &d : domains_)
                    d->host().onCapacityLoss();
            }
            // Entitlements may have moved with the slices.
            pushQosShares();
            if (spans_) {
                // The transition span's end is its commit.
                spans_->controlEnd(
                    spanTrack_, eq_.now(),
                    {{"activeSlices", activeSlices()},
                     {"pagesMigrated", pagesMigrated()},
                     {"tagBufferStalls", tagBufferStalls()}});
                // Quota marks on every tenant track: the commit is
                // when a reassigned slice actually changes hands.
                for (std::uint32_t t = 0; t < tenantSpanTracks_.size();
                     ++t) {
                    spans_->controlInstant(
                        tenantSpanTracks_[t], "quota", eq_.now(),
                        {{"slices",
                          slicesOwnedBy(static_cast<TenantId>(t))}});
                }
            }
            holdEpochs_ = kSettleEpochs;
            // Reseed the running average: samples taken under the
            // old slice layout (and the drain's migration bursts)
            // would otherwise dominate the slow EWMA for ~1/alpha
            // epochs and drive redundant decisions.
            ewmaValid_ = false;
            if (power_) {
                power_->setGatedSliceFraction(
                    gatedFractionFor(activeSlices()), eq_.now());
            }
            // Fold the transition's remaps into the PTEs promptly
            // so TLBs reconverge on the new layout.
            os_.requestResizeCommit();
        }
    };
}

bool
ResizeController::requestResize(std::uint32_t targetSlices, TenantId donor,
                                TenantId receiver)
{
    if (resizeInProgress() || targetSlices == activeSlices() ||
        targetSlices < 1 || targetSlices > totalSlices()) {
        return false;
    }
    ++statStarted_;
    inform("resize: %u -> %u active slices (%s)", activeSlices(),
           targetSlices, resizeStrategyName(config_.strategy));
    if (spans_) {
        spans_->controlBegin(
            spanTrack_, "resize", eq_.now(),
            {{"from", activeSlices()},
             {"to", targetSlices},
             {"strategy", resizeStrategyName(config_.strategy)},
             {"donor", static_cast<std::uint32_t>(donor)},
             {"receiver", static_cast<std::uint32_t>(receiver)}});
    }

    // Growing? The incoming slices must power up (and refresh) before
    // any data lands in them. Shrinking slices stay powered until the
    // drain finishes — they hold live data throughout.
    if (power_ && targetSlices > activeSlices()) {
        power_->setGatedSliceFraction(gatedFractionFor(targetSlices),
                                      eq_.now());
    }

    const bool capacityLoss = targetSlices < activeSlices();
    pendingDomains_ = static_cast<std::uint32_t>(domains_.size());
    for (auto &d : domains_)
        d->resizeTo(targetSlices,
                    transitionDone(statCompleted_, capacityLoss),
                    donor, receiver);
    return true;
}

bool
ResizeController::requestReassign(TenantId donor, TenantId receiver)
{
    if (resizeInProgress() || donor == receiver || donor == kNoTenant ||
        receiver == kNoTenant || domains_.empty()) {
        return false;
    }
    // The arbiter checks the floor before proposing, but this entry
    // point is public (external quota managers): never strip a donor
    // below its slice floor — quota is a guarantee, not a default.
    const std::uint32_t floor =
        std::max<std::uint32_t>(config_.policy.minSlicesPerTenant, 1);
    if (domains_[0]->slicesOwnedBy(donor) <= floor)
        return false;
    // Domain 0 picks the slice; the layouts are in lockstep, so the
    // same id is the donor's on every domain.
    const std::uint32_t slice = domains_[0]->pickDonorSlice(donor);
    if (slice >= totalSlices())
        return false;
    inform("qos: slice %u moves tenant %u -> %u", slice, donor, receiver);
    if (spans_) {
        spans_->controlBegin(
            spanTrack_, "reassign", eq_.now(),
            {{"slice", slice},
             {"donor", static_cast<std::uint32_t>(donor)},
             {"receiver", static_cast<std::uint32_t>(receiver)}});
    }

    pendingDomains_ = static_cast<std::uint32_t>(domains_.size());
    for (auto &d : domains_)
        d->reassignSlice(slice, receiver,
                         transitionDone(statReassigns_));
    return true;
}

void
ResizeController::verifyResidencyConsistent()
{
    for (auto &d : domains_)
        d->host().verifyResidencyConsistent();
}

void
ResizeController::resetStats()
{
    stats_.reset();
    for (auto &d : domains_)
        d->engine().stats().reset();
}

std::uint64_t
ResizeController::pagesMigrated() const
{
    std::uint64_t n = 0;
    for (const auto &d : domains_)
        n += d->engine().pagesDrained();
    return n;
}

std::uint64_t
ResizeController::dirtyPagesMigrated() const
{
    std::uint64_t n = 0;
    for (const auto &d : domains_)
        n += d->engine().dirtyPagesDrained();
    return n;
}

std::uint64_t
ResizeController::pagesSkipped() const
{
    std::uint64_t n = 0;
    for (const auto &d : domains_)
        n += d->engine().pagesSkipped();
    return n;
}

std::uint64_t
ResizeController::tagBufferStalls() const
{
    std::uint64_t n = 0;
    for (const auto &d : domains_)
        n += d->engine().tagBufferStalls();
    return n;
}

} // namespace banshee
