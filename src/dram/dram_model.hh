/**
 * @file
 * Event-driven DRAM device model.
 *
 * A DramModel owns one or more channels. Each channel has a read
 * queue, a write queue with drain hysteresis, a set of banks with
 * row-buffer state, and a shared DDR data bus. Scheduling is
 * FR-FCFS: among eligible requests the scheduler picks the one whose
 * data can be put on the bus earliest (row-buffer hits win), with
 * arrival order as the tie-break. Bank preparation (precharge /
 * activate) of later requests overlaps the data transfer of earlier
 * ones, so the model pipelines across banks like real devices.
 *
 * Everything the scheduler scans is resolved once, when a request
 * arrives: its row and bank go into a 16-byte queue key. The request
 * itself (payload, arrival cycle, QoS mark) waits in a slot pool and
 * never moves; the read and write queues are rings of keys alone
 * (KeyRing), so erasing a picked key moves only the keys in front of
 * it. Each pick compares keys against a per-bank ready table: the
 * cycle a row hit and a row miss could put data on the bus, filled
 * for all banks at the first pick of a cycle and for one bank after
 * each issue (banks change only at issue, and the cycle is fixed).
 *
 * Large transfers must be chopped by the caller (schemes move pages
 * as a train of chunk requests); a single request may move at most
 * kMaxRequestBytes so the bus is never monopolized.
 */

#ifndef BANSHEE_DRAM_DRAM_MODEL_HH
#define BANSHEE_DRAM_DRAM_MODEL_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include <array>

#include "common/event_queue.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/dram_timing.hh"
#include "dram/qos_sched.hh"
#include "dram/traffic.hh"
#include "power/power_model.hh"
#include "power/power_params.hh"

namespace banshee {

struct ChannelTelemetry; // telemetry/dram_hooks.hh
class PageJournal;       // telemetry/span_trace.hh

/** Completion callback: invoked with the cycle the data finished. */
using DramDoneFn = std::function<void(Cycle)>;

/** Largest single DRAM transaction (see file comment). */
constexpr std::uint32_t kMaxRequestBytes = 512;

/** Sentinel: the request does not belong to a span-sampled page. */
constexpr PageNum kNoSpanPage = ~0ull;

struct DramRequest
{
    Addr addr = 0;              ///< device byte address (row/bank mapping)
    std::uint32_t bytes = 64;   ///< multiple of 32, <= kMaxRequestBytes
    std::uint32_t tagBytes = 0; ///< portion of @c bytes charged to Tag
    bool isWrite = false;
    TrafficCat cat = TrafficCat::Demand;
    TenantId tenant = kNoTenant; ///< tenant charged for traffic/energy
    /** Owning (sampled) page for span tracing; kNoSpanPage = untraced. */
    PageNum spanPage = kNoSpanPage;
    DramDoneFn done;            ///< may be empty (posted writes)
};

/**
 * A FIFO of trivially copyable keys in one power-of-two buffer that
 * also supports erasing from the middle: key i sits at
 * buf[(head + i) & mask]. erase(i) moves the i keys in front of it
 * back one slot and advances the head, so picks near the front (the
 * scheduler's window) move few keys. A full ring doubles, copying
 * its keys in order.
 */
template <typename T>
class KeyRing
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "erase and grow move keys by plain copies");

  public:
    static constexpr std::size_t kInitialCapacity = 32;

    KeyRing() : buf_(kInitialCapacity) {}

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return buf_.size(); }

    const T &operator[](std::size_t i) const { return buf_[slot(i)]; }
    const T &front() const { return buf_[head_]; }

    void
    push_back(const T &key)
    {
        if (size_ == buf_.size())
            grow();
        buf_[slot(size_)] = key;
        ++size_;
    }

    /** Remove key @p i, keeping the others in order. */
    void
    erase(std::size_t i)
    {
        for (; i > 0; --i)
            buf_[slot(i)] = buf_[slot(i - 1)];
        head_ = slot(1);
        --size_;
    }

  private:
    std::size_t slot(std::size_t i) const
    {
        return (head_ + i) & (buf_.size() - 1);
    }

    void
    grow()
    {
        std::vector<T> next(buf_.size() * 2);
        for (std::size_t i = 0; i < size_; ++i)
            next[i] = (*this)[i];
        buf_.swap(next);
        head_ = 0;
    }

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

/** One DRAM channel: banks + data bus + queues + scheduler. */
class DramChannel
{
  public:
    DramChannel(EventQueue &eq, const DramTiming &timing, TrafficStats &traffic,
                DramPowerModel &power, StatSet &stats, std::string name);

    /** Enqueue a request; it becomes eligible immediately. */
    void push(DramRequest req);

    /** Data-bus busy cycles so far (core cycles), for utilization. */
    Cycle busBusyCycles() const { return busBusyCycles_; }

    std::size_t queuedReads() const { return readQ_.size(); }
    std::size_t queuedWrites() const { return writeQ_.size(); }

    /** Attach (or detach with nullptr) telemetry distributions; null
     *  keeps the scheduler free of telemetry work. */
    void setTelemetry(ChannelTelemetry *telem) { telem_ = telem; }

    /** Attach span tracing: requests tagged with a sampled page emit
     *  queue/service slices on channel track @p track. Null = off. */
    void
    setSpanTrace(PageJournal *spans, std::uint32_t track)
    {
        spans_ = spans;
        spanTrack_ = track;
    }

    /** Enable the QoS scheduler (see dram/qos_sched.hh). Until called
     *  with an enabled config, the stock FR-FCFS path runs untouched. */
    void setQosConfig(const DramQosConfig &config);

    /** Per-tenant entitlement shares (fractions summing to <= 1),
     *  indexed by TenantId. Until set, credits never bind (every
     *  tenant is exempt, as is untagged traffic throughout). */
    void setQosShares(const std::array<double, kMaxTenants> &shares);

    void resetStats() { busBusyCycles_ = 0; }

  private:
    /** A queued request's payload: lives in one pool slot from push()
     *  to issue() and is never moved while it waits. */
    struct Pending
    {
        DramRequest req;
        Cycle arrival = 0;
        /** QoS annotation for span tracing: how scheduling treated
         *  this request (0 none, kQosAged, kQosDeferred). */
        std::uint8_t qosMark = 0;
    };

    /** What the scheduler scans: a queued request's row and bank,
     *  resolved at push(), its tenant for credit checks, and the pool
     *  slot holding the rest. Rows stay 64-bit (device rows exceed
     *  2^32 on large address spaces). */
    struct QueueKey
    {
        std::uint64_t row;
        std::uint32_t slot;
        std::uint8_t bank;
        TenantId tenant;
    };
    static_assert(sizeof(QueueKey) == 16, "queue keys must stay compact");

    static constexpr std::uint8_t kQosAged = 1;
    static constexpr std::uint8_t kQosDeferred = 2;

    struct Bank
    {
        std::uint64_t openRow = ~0ull;
        Cycle readyCycle = 0;       ///< earliest next access start
        Cycle lastActStart = 0;     ///< for the tRAS constraint
    };

    /** Earliest cycle a request's data could be on the bus if issued
     *  now, given only its bank: hitReady for the open row, missReady
     *  for any other (closed bank or conflict, neither depends on the
     *  row). */
    struct BankReady
    {
        std::uint64_t openRow = ~0ull;
        Cycle hitReady = 0;
        Cycle missReady = 0;
    };

    /** Ensure a scheduler kick is pending at or before @p when. */
    void armKick(Cycle when);

    /** Scheduler: issue as many requests as the lookahead allows. */
    void kick();

    /** Recompute @p bank's ready-table entry for cycle @p now. */
    void refreshBankReady(std::size_t bank, Cycle now);

    /** The ready table for cycle @p now, refilled at the first pick of
     *  each cycle. */
    const BankReady *bankReadyTable(Cycle now);

    /** Ready cycle of @p k from the table @p ready. */
    static Cycle
    readyOf(const BankReady *ready, const QueueKey &k)
    {
        const BankReady &e = ready[k.bank];
        return e.openRow == k.row ? e.hitReady : e.missReady;
    }

    /** Issue one request: update bank/bus state, schedule completion,
     *  and release its pool slot. */
    void issue(const QueueKey &k);

    /** Pick the best eligible request and remove its key from its
     *  queue; returns false if none. */
    bool selectNext(QueueKey &out);

    /** The QoS-gated pick: credit arbitration + age bounds. */
    bool selectNextQos(QueueKey &out);

    /** Cycle the request behind @p k was pushed. */
    Cycle arrivalOf(const QueueKey &k) const { return pool_[k.slot].arrival; }

    /** Lazy credit replenish on the epoch clock (no extra events, so
     *  enabling the scheduler never perturbs event ordering). */
    void qosRefill(Cycle now);

    /** Charge an issued request to its tenant's credit + counters. */
    void qosCharge(const Pending &p);

    /** Is @p k issuable under credit arbitration right now?
     *  Untagged traffic (and any out-of-range id) is always exempt:
     *  it has no entitlement to charge. */
    bool
    qosEligible(const QueueKey &k) const
    {
        return !qosSharesSet_ || k.tenant >= kMaxTenants ||
               qosCredit_[k.tenant] > 0;
    }

    EventQueue &eq_;
    const DramTiming &timing_;
    TrafficStats &traffic_;
    DramPowerModel &power_;
    ChannelTelemetry *telem_ = nullptr;
    PageJournal *spans_ = nullptr;
    std::uint32_t spanTrack_ = 0;
    std::string name_;

    /** Bank timings in core cycles, latency scale applied. */
    const Cycle casCycles_;
    const Cycle rcdCycles_;
    const Cycle rpCycles_;
    const Cycle rasCycles_;

    std::vector<Bank> banks_;
    std::vector<BankReady> bankReady_;
    Cycle bankReadyAt_ = ~0ull; ///< cycle bankReady_ was filled for
    /** Keys of queued requests in arrival (push) order. */
    KeyRing<QueueKey> readQ_;
    KeyRing<QueueKey> writeQ_;
    /** Payload slots of queued requests. A deque grows without
     *  relocating existing slots, so peak memory stays at one copy
     *  through migration bursts; freed slots are reused LIFO. */
    std::deque<Pending> pool_;
    std::vector<std::uint32_t> freeSlots_;

    Cycle busFree_ = 0;          ///< cycle the data bus becomes free
    Cycle busBusyCycles_ = 0;
    /** The one reusable scheduler-kick event for this channel;
     *  armKick() re-arms it to earlier cycles in place. */
    TickEvent kickEvent_;
    bool drainingWrites_ = false;
    /** Cycle of the last kick that issued nothing (~0 = none): the
     *  guard for collapsing repeated same-cycle no-op kicks. */
    Cycle lastNoopKickCycle_ = ~0ull;

    /** QoS scheduler state (inert until qos_.enabled). */
    DramQosConfig qos_;
    std::uint64_t qosBytesPerEpoch_ = 0; ///< resolved (0 -> bus width)
    Cycle qosEpochStart_ = 0;
    std::array<double, kMaxTenants> qosShare_{};
    std::array<std::int64_t, kMaxTenants> qosCredit_{};
    bool qosSharesSet_ = false;

    /** Write-queue drain hysteresis. */
    static constexpr std::size_t kWriteDrainHigh = 48;
    static constexpr std::size_t kWriteDrainLow = 16;
    /** Bus reservation lookahead per kick, in DRAM cycles. */
    static constexpr std::uint64_t kReserveAheadDramCycles = 64;

    Counter &statReqs_;
    Counter &statRowHits_;
    Counter &statRowConflicts_;
    Counter &statTotalLatency_;
};

/**
 * A DRAM device: N identical channels. The caller picks the channel
 * (memory controllers own channels); helpers map pages to channels.
 */
class DramModel
{
  public:
    DramModel(EventQueue &eq, DramTiming timing, std::uint32_t numChannels,
              std::string name,
              DramPowerParams powerParams = DramPowerParams::inPackage());

    /** Issue a request on an explicit channel. */
    void
    access(std::uint32_t channel, DramRequest req)
    {
        sim_assert(channel < channels_.size(), "bad channel %u", channel);
        sim_assert(req.bytes > 0 && req.bytes % 32 == 0 &&
                       req.bytes <= kMaxRequestBytes,
                   "bad DRAM request size %u", req.bytes);
        sim_assert(req.tagBytes <= req.bytes, "tag split exceeds request");
        if (req.tagBytes > 0)
            traffic_.add(TrafficCat::Tag, req.tagBytes, req.tenant);
        traffic_.add(req.cat, req.bytes - req.tagBytes, req.tenant);
        channels_[channel]->push(std::move(req));
    }

    /**
     * Move @p bytes starting at @p req.addr as a train of chunk
     * requests on @p channel, each a copy of @p req (its size aside);
     * @p req.done fires once, when the last chunk completes.
     */
    void bulkAccess(std::uint32_t channel, DramRequest req,
                    std::uint64_t bytes);

    std::uint32_t numChannels() const { return channels_.size(); }

    /** Direct channel access (telemetry attach, tests). */
    DramChannel &channel(std::uint32_t i) { return *channels_[i]; }

    /** Apply a QoS scheduler config to every channel. */
    void
    setQosConfig(const DramQosConfig &config)
    {
        qosConfig_ = config;
        for (auto &ch : channels_)
            ch->setQosConfig(config);
    }

    /** Push per-tenant entitlement shares to every channel. */
    void
    setQosShares(const std::array<double, kMaxTenants> &shares)
    {
        for (auto &ch : channels_)
            ch->setQosShares(shares);
    }

    const DramQosConfig &qosConfig() const { return qosConfig_; }

    const DramTiming &timing() const { return timing_; }

    const TrafficStats &traffic() const { return traffic_; }

    /** State-based energy accounting for this device. */
    DramPowerModel &power() { return power_; }
    const DramPowerModel &power() const { return power_; }

    /** Aggregate data-bus utilization over @p elapsed core cycles. */
    double busUtilization(Cycle elapsed) const;

    StatSet &stats() { return stats_; }
    const StatSet &stats() const { return stats_; }

    void resetStats();

    /**
     * Unloaded access latency in core cycles (row hit), used by tests
     * and latency-model sanity checks.
     */
    Cycle
    zeroLoadLatency(std::uint32_t bytes = 64) const
    {
        return timing_.toCore(timing_.scaledCAS() +
                              bytes / timing_.busBytesPerCycle);
    }

  private:
    EventQueue &eq_;
    DramTiming timing_;
    std::string name_;
    DramQosConfig qosConfig_;
    TrafficStats traffic_;
    StatSet stats_;
    DramPowerModel power_;
    std::vector<std::unique_ptr<DramChannel>> channels_;
};

} // namespace banshee

#endif // BANSHEE_DRAM_DRAM_MODEL_HH
