/**
 * @file
 * System-wide coordination of DRAM-cache resizing.
 *
 * The controller owns one ResizeDomain per memory controller and an
 * epoch clock on the event queue. Every epoch it samples the demand
 * counters (and, when a power model is attached, the in-package
 * device's epoch power), asks the ResizePolicy for a target, and —
 * when one comes back — starts the transition on every domain
 * simultaneously (the slice layout must stay identical across
 * controllers because pages stripe over them). It also bridges the OS
 * cooperation loop: when a batch PTE update completes, stalled
 * migration engines are kicked so the drain resumes immediately
 * instead of waiting out its back-off.
 *
 * Power gating: the controller drives the power model's gated-slice
 * fraction in both directions — a grow powers its slices up the
 * moment the transition starts (they must refresh before data lands),
 * a shrink powers its slices down only when the drain completes (they
 * hold live data until then).
 */

#ifndef BANSHEE_RESIZE_RESIZE_CONTROLLER_HH
#define BANSHEE_RESIZE_RESIZE_CONTROLLER_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "common/stats.hh"
#include "os/os_services.hh"
#include "power/power_model.hh"
#include "resize/resize_config.hh"
#include "resize/resize_domain.hh"
#include "resize/resize_policy.hh"
#include "tenant/qos_arbiter.hh"
#include "tenant/tenant_map.hh"

namespace banshee {

class PageJournal;  // telemetry/span_trace.hh
class DramModel;    // dram/dram_model.hh

class ResizeController
{
  public:
    ResizeController(EventQueue &eq, OsServices &os,
                     const ResizeConfig &config);

    /** Register one scheme instance; builds and attaches its domain. */
    void addHost(ResizeHost &host, const std::string &name);

    /**
     * Attach the in-package device's power model: deactivated slices
     * gate their share of background/refresh power, and epoch power
     * readings feed the PowerCap policy. Optional — without it,
     * resizing works but saves no modeled energy. Re-attaching (or
     * attaching mid-run) reseeds the epoch-power baseline from the
     * model's current accumulators, so the first epoch reading is the
     * epoch's power — not the model's lifetime energy, which would
     * masquerade as a huge draw and trigger a spurious cap shed.
     */
    void attachPowerModel(DramPowerModel *power);

    /**
     * Multi-tenant runs: attach the tenant map. When the policy kind
     * is Qos this builds the arbiter over the map's quota weights.
     * Non-const: runtime quota changes (setTenantWeights) write the
     * map so reporting stays in step with arbitration.
     */
    void attachTenants(TenantMap *tenants);

    /** Runtime quota change: the QoS arbiter rebalances toward the
     *  new weights over the following epochs. */
    void setTenantWeights(const std::vector<double> &weights);

    /**
     * Attach the device whose channels run the QoS credit scheduler
     * (the in-package device — the contended tier). Entitlement shares
     * are pushed now and re-pushed at every transition commit, so
     * channel bandwidth credit tracks the live slice partition the
     * same way residency quota does. Null detaches.
     */
    void attachQosDevice(DramModel *dev);

    /**
     * Attach the run's trace: policy decisions (resize targets, cap
     * sheds, QoS decisions) become instants and transitions become
     * begin/end spans (the end is the commit) on a "resize" control
     * track, each domain's drain batches land on their own
     * "migration.<i>" track, and per-tenant quota changes are marked
     * on "tenant.<name>" tracks. Call after addHost and
     * attachTenants. Null = off.
     */
    void attachSpanTrace(PageJournal *spans);

    /** Active slices owned by tenant @p t (0 when unpartitioned). */
    std::uint32_t
    slicesOwnedBy(TenantId t) const
    {
        return domains_.empty() ? 0 : domains_[0]->slicesOwnedBy(t);
    }

    /** Smoothed epoch power the cap policy sees (tests). */
    double epochPowerEwmaWatts() const { return ewmaPowerWatts_; }

    std::size_t numDomains() const { return domains_.size(); }
    ResizeDomain &domain(std::size_t i) { return *domains_[i]; }

    /** Called at the warmup/measure boundary: reset the epoch clock
     *  and begin evaluating the policy. */
    void onMeasureStart();

    /** Stop scheduling further epochs (tests drain the queue dry). */
    void stopEpochs() { epochsStopped_ = true; }

    /** Manually trigger a resize (external capacity manager). Returns
     *  false if one is already in flight or the size would not change.
     *  @p donor / @p receiver steer whose slices shrink or grow in a
     *  partitioned layout (kNoTenant = unrestricted). */
    bool requestResize(std::uint32_t targetSlices,
                       TenantId donor = kNoTenant,
                       TenantId receiver = kNoTenant);

    /** Move one of @p donor's slices to @p receiver (QoS decision or
     *  external quota manager). Returns false when busy or the donor
     *  owns nothing. */
    bool requestReassign(TenantId donor, TenantId receiver);

    bool resizeInProgress() const { return pendingDomains_ > 0; }

    std::uint32_t
    activeSlices() const
    {
        return domains_.empty() ? config_.hash.numSlices
                                : domains_[0]->activeSlices();
    }

    std::uint32_t totalSlices() const { return config_.hash.numSlices; }

    /** Test hook: assert every domain's host is internally consistent. */
    void verifyResidencyConsistent();

    void resetStats();

    // Aggregates over all domains' migration engines.
    std::uint64_t pagesMigrated() const;
    std::uint64_t dirtyPagesMigrated() const;
    std::uint64_t pagesSkipped() const;
    std::uint64_t tagBufferStalls() const;

    std::uint64_t resizesStarted() const { return statStarted_.value(); }
    std::uint64_t
    resizesCompleted() const
    {
        return statCompleted_.value();
    }

    std::uint64_t
    reassignsCompleted() const
    {
        return statReassigns_.value();
    }

    StatSet &stats() { return stats_; }

  private:
    void epochTick();

    /** Run the QoS arbiter for this epoch and apply its decision. */
    void qosTick(const ResizeEpochStats &epoch);

    /** Completion callback shared by resizes and reassignments;
     *  @p capacityLoss marks a shrink: hosts are told so they can
     *  unfreeze replacement state (FBR decay). */
    std::function<void()> transitionDone(Counter &completions,
                                         bool capacityLoss = false);

    /** Recompute tenant entitlement shares and push them to the QoS
     *  device (no-op without one). */
    void pushQosShares();

    /** Fraction of the device to gate for @p active of total slices. */
    double
    gatedFractionFor(std::uint32_t active) const
    {
        return 1.0 - static_cast<double>(active) /
                         static_cast<double>(totalSlices());
    }

    EventQueue &eq_;
    OsServices &os_;
    ResizeConfig config_;
    ResizePolicy policy_;
    DramPowerModel *power_ = nullptr;
    PageJournal *spans_ = nullptr;
    std::uint32_t spanTrack_ = 0;
    std::vector<std::uint32_t> tenantSpanTracks_;
    TenantMap *tenants_ = nullptr;
    DramModel *qosDev_ = nullptr;
    std::unique_ptr<QosArbiterPolicy> qos_;
    std::vector<std::unique_ptr<ResizeDomain>> domains_;

    std::uint64_t epochIndex_ = 0;
    bool epochsStopped_ = false;
    /** The controller's epoch clock; re-armed each epochTick(). */
    TickEvent epochEvent_{[this] { epochTick(); }};
    std::uint32_t pendingDomains_ = 0;
    /** Policy target awaiting an idle engine (deferred, not dropped). */
    std::optional<std::uint32_t> pendingTarget_;
    std::uint64_t prevAccesses_ = 0;
    std::uint64_t prevMisses_ = 0;
    std::array<std::uint64_t, kTenantBuckets> prevTenantAccesses_{};
    std::array<std::uint64_t, kTenantBuckets> prevTenantMisses_{};
    double prevTotalPJ_ = 0.0;
    double prevBgRefPJ_ = 0.0;
    /** Running (exponentially smoothed) epoch power — the reading the
     *  PowerCap policy sees. Replacement traffic arrives in bursts
     *  (tag-buffer fill -> batch PTE commit cadence), so the smoothing
     *  window must span several bursts or the policy would track the
     *  inter-burst baseline and flap across the cap. */
    double ewmaPowerWatts_ = 0.0;
    bool ewmaValid_ = false;
    static constexpr double kPowerEwmaAlpha = 0.1;
    /** Incremental-policy settling time: epochs to hold decisions
     *  after a transition completes. The EWMA is reseeded at
     *  completion, so the hold only needs to gather a couple of
     *  post-transition samples before deciding again. */
    std::uint64_t holdEpochs_ = 0;
    static constexpr std::uint64_t kSettleEpochs = 2;

    StatSet stats_;
    Counter &statStarted_;
    Counter &statCompleted_;
    Counter &statEpochs_;
    Counter &statDeferred_;
    Counter &statReassigns_;
};

} // namespace banshee

#endif // BANSHEE_RESIZE_RESIZE_CONTROLLER_HH
