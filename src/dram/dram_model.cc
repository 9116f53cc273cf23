#include "dram/dram_model.hh"

#include <algorithm>
#include <memory>

#include "telemetry/dram_hooks.hh"
#include "telemetry/span_trace.hh"

namespace banshee {

//
// DramChannel
//

DramChannel::DramChannel(EventQueue &eq, const DramTiming &timing,
                         TrafficStats &traffic, DramPowerModel &power,
                         StatSet &stats, std::string name)
    : eq_(eq), timing_(timing), traffic_(traffic), power_(power),
      name_(std::move(name)),
      casCycles_(timing.toCore(timing.scaledCAS())),
      rcdCycles_(timing.toCore(timing.scaledRCD())),
      rpCycles_(timing.toCore(timing.scaledRP())),
      rasCycles_(timing.toCore(timing.scaledRAS())),
      banks_(timing.numBanks), bankReady_(timing.numBanks),
      kickEvent_([this] { kick(); }),
      statReqs_(stats.counter(name_ + ".requests")),
      statRowHits_(stats.counter(name_ + ".rowHits")),
      statRowConflicts_(stats.counter(name_ + ".rowConflicts")),
      statTotalLatency_(stats.counter(name_ + ".totalLatencyCycles"))
{
    sim_assert(timing.numBanks > 0 && timing.numBanks <= 256,
               "bank count %u does not fit a queue key", timing.numBanks);
}

void
DramChannel::push(DramRequest req)
{
    if (telem_) {
        // Queue depth this request finds on arrival.
        if (req.isWrite)
            telem_->writeOccupancy.record(writeQ_.size());
        else
            telem_->readOccupancy.record(readQ_.size());
    }
    std::uint32_t slot;
    if (freeSlots_.empty()) {
        slot = static_cast<std::uint32_t>(pool_.size());
        pool_.emplace_back();
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    }
    const std::uint64_t row = req.addr / timing_.rowBytes;
    const QueueKey key{row, slot,
                       static_cast<std::uint8_t>(row % banks_.size()),
                       req.tenant};
    (req.isWrite ? writeQ_ : readQ_).push_back(key);
    Pending &p = pool_[slot];
    p.req = std::move(req);
    p.arrival = eq_.now();
    p.qosMark = 0;
    armKick(eq_.now());
}

void
DramChannel::armKick(Cycle when)
{
    when = std::max(when, eq_.now());
    // Supersede only to earlier cycles; re-arming is O(1) on the one
    // preallocated event (no per-arm closure, no dead heap entries
    // executing staleness filters).
    if (kickEvent_.armed() && kickEvent_.when() <= when)
        return;
    // Kick coalescing: collapse back-to-back same-cycle no-op kicks.
    // Once a kick has already fired this cycle and issued nothing
    // (lastNoopKickCycle_ == when), a further supersede by a push in
    // the same cycle would replay the identical round trip: fire,
    // see the same reserved-past-horizon bus (busFree_ cannot move
    // without an issue), and re-arm back onto the cycle it is armed
    // at now. The first no-op of the cycle is deliberately NOT
    // skipped: its re-arm pins the wheel entry at the re-arm cycle
    // that the baseline's revival semantics (event-queue invariant
    // I5) can observe; only the redundant repeats are elided.
    if (kickEvent_.armed() &&
        lastNoopKickCycle_ == when &&
        kickEvent_.when() + timing_.toCore(kReserveAheadDramCycles / 2) ==
            busFree_ &&
        busFree_ > when + timing_.toCore(kReserveAheadDramCycles))
        return;
    eq_.schedule(kickEvent_, when);
}

void
DramChannel::refreshBankReady(std::size_t b, Cycle now)
{
    // Mirrors issue(). CAS commands pipeline: the bank accepts the
    // next column access one burst after the previous one issued, so
    // back-to-back row hits are bus-limited, not tCAS-limited.
    const Bank &bank = banks_[b];
    const Cycle start = std::max(now, bank.readyCycle);
    BankReady &e = bankReady_[b];
    e.openRow = bank.openRow;
    // Row-buffer hit: only the column access.
    e.hitReady = start + casCycles_;
    if (bank.openRow == ~0ull) {
        // Bank closed: activate then access.
        e.missReady = start + rcdCycles_ + casCycles_;
    } else {
        // Conflict: precharge (respecting tRAS) + activate + access.
        const Cycle preStart =
            std::max(start, bank.lastActStart + rasCycles_);
        e.missReady = preStart + rpCycles_ + rcdCycles_ + casCycles_;
    }
}

const DramChannel::BankReady *
DramChannel::bankReadyTable(Cycle now)
{
    // Within a cycle only issue() changes a bank, and it refreshes
    // that bank's entry itself.
    if (bankReadyAt_ != now) {
        for (std::size_t b = 0; b < banks_.size(); ++b)
            refreshBankReady(b, now);
        bankReadyAt_ = now;
    }
    return bankReady_.data();
}

bool
DramChannel::selectNext(QueueKey &out)
{
    if (qos_.enabled)
        return selectNextQos(out);

    // Write-drain hysteresis: start draining when the write queue is
    // high or there is nothing else to do; stop at the low watermark.
    // Note this puts no bound on an individual write's wait: a
    // co-runner that keeps the read queue nonempty can park another
    // tenant's writes below the high watermark for a long time, and
    // posted writes pin core MSHR slots (see ROADMAP: QoS-aware
    // memory scheduling).
    if (!drainingWrites_) {
        if (writeQ_.size() >= kWriteDrainHigh ||
            (readQ_.empty() && !writeQ_.empty())) {
            drainingWrites_ = true;
        }
    } else if (writeQ_.size() <= kWriteDrainLow && !readQ_.empty()) {
        drainingWrites_ = false;
    }

    KeyRing<QueueKey> &q =
        (drainingWrites_ && !writeQ_.empty()) ? writeQ_ : readQ_;
    if (q.empty())
        return false;

    // FR-FCFS: earliest possible bus time wins; FCFS tie-break.
    const BankReady *ready = bankReadyTable(eq_.now());
    std::size_t best = 0;
    Cycle bestReady = readyOf(ready, q[0]);
    const std::size_t window = std::min<std::size_t>(q.size(), 16);
    for (std::size_t i = 1; i < window; ++i) {
        const Cycle r = readyOf(ready, q[i]);
        if (r < bestReady) {
            bestReady = r;
            best = i;
        }
    }
    out = q[best];
    q.erase(best);
    return true;
}

void
DramChannel::setQosConfig(const DramQosConfig &config)
{
    qos_ = config;
    if (qos_.epochCycles == 0)
        qos_.epochCycles = 1;
    qosBytesPerEpoch_ = config.bytesPerEpoch;
    if (qosBytesPerEpoch_ == 0) {
        // Full channel bandwidth over one epoch: busBytesPerCycle
        // every DRAM cycle for epochCycles core cycles.
        qosBytesPerEpoch_ = (qos_.epochCycles / timing_.toCore(1)) *
                            timing_.busBytesPerCycle;
    }
    qosEpochStart_ = eq_.now();
}

void
DramChannel::setQosShares(const std::array<double, kMaxTenants> &shares)
{
    qosShare_ = shares;
    qosSharesSet_ = true;
    // Reset credits to the new entitlements immediately so a share
    // change (resize commit, arbiter rebalance) binds deterministically
    // rather than waiting out the current epoch.
    for (std::size_t t = 0; t < kMaxTenants; ++t) {
        qosCredit_[t] = static_cast<std::int64_t>(
            qosShare_[t] * static_cast<double>(qosBytesPerEpoch_));
    }
}

void
DramChannel::qosRefill(Cycle now)
{
    if (now < qosEpochStart_ + qos_.epochCycles)
        return;
    // Advance by whole epochs. Credits reset rather than carry: an
    // idle tenant's unused entitlement was already spent by others
    // through work conservation, not banked.
    const Cycle elapsed = now - qosEpochStart_;
    qosEpochStart_ += (elapsed / qos_.epochCycles) * qos_.epochCycles;
    for (std::size_t t = 0; t < kMaxTenants; ++t) {
        qosCredit_[t] = static_cast<std::int64_t>(
            qosShare_[t] * static_cast<double>(qosBytesPerEpoch_));
    }
}

void
DramChannel::qosCharge(const Pending &p)
{
    traffic_.addQosGrant(p.req.tenant);
    if (qosSharesSet_ && p.req.tenant < kMaxTenants)
        qosCredit_[p.req.tenant] -= p.req.bytes; // may go negative
}

bool
DramChannel::selectNextQos(QueueKey &out)
{
    const Cycle now = eq_.now();
    qosRefill(now);

    // Stock write-drain hysteresis, plus the bounded write age: a
    // write parked past its cap forces (and holds) a drain regardless
    // of watermarks, so posted writes cannot wait on another tenant's
    // read stream forever.
    const bool writeOverAge =
        qos_.writeAgeCap > 0 && !writeQ_.empty() &&
        now - arrivalOf(writeQ_.front()) > qos_.writeAgeCap;
    const bool readOverAge =
        qos_.readAgeCap > 0 && !readQ_.empty() &&
        now - arrivalOf(readQ_.front()) > qos_.readAgeCap;
    const std::size_t drainHigh =
        qos_.writeDrainHigh > 0 ? qos_.writeDrainHigh : kWriteDrainHigh;
    const std::size_t drainLow =
        qos_.writeDrainLow > 0 ? qos_.writeDrainLow : kWriteDrainLow;
    if (!drainingWrites_) {
        if (writeQ_.size() >= drainHigh ||
            (readQ_.empty() && !writeQ_.empty()) || writeOverAge) {
            drainingWrites_ = true;
        }
    } else if (writeQ_.size() <= drainLow && !readQ_.empty() &&
               !writeOverAge) {
        drainingWrites_ = false;
    }

    // An over-age read steals single slots out of a write drain (the
    // drain state itself is untouched, so writes keep progressing
    // between stolen slots): a migration burst filling the write
    // queue otherwise blocks another tenant's reads for the whole
    // high-to-low-watermark drain. An over-age write wins the tie —
    // both sides stay bounded.
    const bool readPreempts =
        drainingWrites_ && readOverAge && !writeOverAge;
    KeyRing<QueueKey> &q =
        (drainingWrites_ && !writeQ_.empty() && !readPreempts)
            ? writeQ_
            : readQ_;
    if (q.empty())
        return false;

    // Age-bounded FR-FCFS: the oldest request (queue front — FIFO
    // push order) beats any row hit once its wait exceeds the cap.
    const Cycle ageCap = &q == &writeQ_ ? qos_.writeAgeCap
                                        : qos_.readAgeCap;
    if (ageCap > 0 && now - arrivalOf(q.front()) > ageCap) {
        out = q.front();
        q.erase(0);
        Pending &p = pool_[out.slot];
        p.qosMark = kQosAged;
        qosCharge(p);
        return true;
    }

    // Credit-aware FR-FCFS over a wider window: track the overall
    // bandwidth-optimal pick and the best credit-eligible pick, and
    // prefer the eligible one. Work conserving: with no eligible
    // contender the overall best issues anyway.
    const std::size_t window = std::min<std::size_t>(
        q.size(), std::max<std::uint32_t>(qos_.window, 1));
    const BankReady *ready = bankReadyTable(now);
    std::size_t best = 0;
    Cycle bestReady = readyOf(ready, q[0]);
    std::size_t bestElig = qosEligible(q[0]) ? 0 : window; // window = none
    Cycle bestEligReady = bestReady;
    for (std::size_t i = 1; i < window; ++i) {
        const Cycle r = readyOf(ready, q[i]);
        if (r < bestReady) {
            bestReady = r;
            best = i;
        }
        if (qosEligible(q[i]) && (bestElig == window || r < bestEligReady)) {
            bestEligReady = r;
            bestElig = i;
        }
    }
    const std::size_t pick = bestElig != window ? bestElig : best;
    if (pick != best) {
        // Credit arbitration bypassed the bandwidth-optimal request:
        // its tenant exhausted this epoch's entitlement.
        Pending &bypassed = pool_[q[best].slot];
        bypassed.qosMark = kQosDeferred;
        traffic_.addQosDefer(bypassed.req.tenant);
        if (telem_)
            telem_->qosDeferAge.record(now - bypassed.arrival);
    }
    out = q[pick];
    q.erase(pick);
    qosCharge(pool_[out.slot]);
    return true;
}

void
DramChannel::issue(const QueueKey &k)
{
    Pending &p = pool_[k.slot];
    Bank &bank = banks_[k.bank];
    const Cycle start = std::max(eq_.now(), bank.readyCycle);

    Cycle casTime;
    if (bank.openRow == k.row) {
        casTime = start;
        ++statRowHits_;
    } else if (bank.openRow == ~0ull) {
        casTime = start + rcdCycles_;
        bank.lastActStart = start;
        bank.openRow = k.row;
        power_.onActivate(p.req.cat, p.req.tenant);
    } else {
        const Cycle preStart =
            std::max(start, bank.lastActStart + rasCycles_);
        const Cycle actStart = preStart + rpCycles_;
        casTime = actStart + rcdCycles_;
        bank.lastActStart = actStart;
        bank.openRow = k.row;
        ++statRowConflicts_;
        power_.onActivate(p.req.cat, p.req.tenant);
    }
    power_.onBurst(p.req.bytes, p.req.tagBytes, p.req.isWrite, p.req.cat,
                   p.req.tenant);

    const Cycle dataReady = casTime + casCycles_;
    const Cycle transfer =
        timing_.toCore(p.req.bytes / timing_.busBytesPerCycle);
    const Cycle busStart = std::max(busFree_, dataReady);
    const Cycle complete = busStart + transfer;

    busFree_ = complete;
    busBusyCycles_ += transfer;
    power_.onBusBusy(transfer);
    // CAS commands pipeline: the bank accepts the next column access
    // one burst slot after this one issued (tCCD ~= burst length),
    // so consecutive row hits stream at full bus bandwidth while the
    // tCAS latency of each access is still paid by its own data.
    bank.readyCycle = casTime + transfer;
    refreshBankReady(k.bank, eq_.now());

    ++statReqs_;
    statTotalLatency_ += complete - p.arrival;
    if (telem_) {
        const Cycle sojourn = complete - p.arrival;
        telem_->queueLatency.record(sojourn);
        if (telem_->tenantQueueLatency) {
            telem_->tenantQueueLatency[tenantBucket(p.req.tenant)].record(
                sojourn);
        }
    }

    if (spans_ && p.req.spanPage != kNoSpanPage) {
        // Queue slice (arrival -> bus grant) + service slice (grant ->
        // completion): all three times are known at issue, and the
        // journal only observes, so tracing cannot perturb timing.
        const char *qosTag = p.qosMark == kQosAged       ? "aged"
                             : p.qosMark == kQosDeferred ? "deferred"
                                                         : nullptr;
        spans_->channelRequest(spanTrack_, p.req.spanPage, p.arrival,
                               busStart, complete, p.req.isWrite,
                               p.req.cat, p.req.tenant, qosTag);
    }

    if (p.req.done) {
        // The CycleFn overload passes the firing cycle (== complete)
        // straight through: the DramDoneFn moves into a pooled event
        // node with no wrapper closure.
        eq_.schedule(complete, std::move(p.req.done));
    }
    freeSlots_.push_back(k.slot);
}

void
DramChannel::kick()
{
    ScopedTimer profile(telem_ ? telem_->kickTimer : nullptr);
    // Issue requests while the bus reservation horizon allows; bank
    // preparation of later picks overlaps earlier transfers.
    const Cycle horizon =
        eq_.now() + timing_.toCore(kReserveAheadDramCycles);
    bool issuedAny = false;
    while (busFree_ <= horizon) {
        QueueKey k{};
        if (!selectNext(k)) {
            lastNoopKickCycle_ = issuedAny ? ~0ull : eq_.now();
            return;
        }
        issue(k);
        issuedAny = true;
    }
    // Remember no-op rounds so armKick can collapse same-cycle
    // repeats; any issue invalidates the memo (busFree_ moved).
    lastNoopKickCycle_ = issuedAny ? ~0ull : eq_.now();
    if (!readQ_.empty() || !writeQ_.empty()) {
        // Re-arm once the reserved bus time has drained.
        armKick(busFree_ - timing_.toCore(kReserveAheadDramCycles / 2));
    }
}

//
// DramModel
//

DramModel::DramModel(EventQueue &eq, DramTiming timing,
                     std::uint32_t numChannels, std::string name,
                     DramPowerParams powerParams)
    : eq_(eq), timing_(timing), name_(std::move(name)), stats_(name_),
      power_(powerParams, timing_, numChannels, stats_)
{
    sim_assert(numChannels > 0, "DRAM device needs >= 1 channel");
    channels_.reserve(numChannels);
    for (std::uint32_t c = 0; c < numChannels; ++c) {
        channels_.push_back(std::make_unique<DramChannel>(
            eq_, timing_, traffic_, power_, stats_,
            "ch" + std::to_string(c)));
    }
}

void
DramModel::bulkAccess(std::uint32_t channel, DramRequest req,
                      std::uint64_t bytes)
{
    sim_assert(bytes > 0, "empty bulk access");
    const std::uint32_t chunk = kMaxRequestBytes / 2; // 256 B pieces
    // Count-down latch: the callback fires when the last chunk lands.
    DramDoneFn done = std::move(req.done);
    auto outstanding = std::make_shared<std::uint32_t>(
        static_cast<std::uint32_t>((bytes + chunk - 1) / chunk));
    for (std::uint64_t remaining = bytes; remaining > 0;) {
        const std::uint32_t sz = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(remaining, chunk));
        DramRequest piece = req;
        piece.bytes = sz;
        if (done) {
            piece.done = [outstanding, done](Cycle when) {
                if (--*outstanding == 0)
                    done(when);
            };
        }
        access(channel, std::move(piece));
        req.addr += sz;
        remaining -= sz;
    }
}

double
DramModel::busUtilization(Cycle elapsed) const
{
    if (elapsed == 0)
        return 0.0;
    Cycle busy = 0;
    for (const auto &ch : channels_)
        busy += ch->busBusyCycles();
    return static_cast<double>(busy) /
           (static_cast<double>(elapsed) * channels_.size());
}

void
DramModel::resetStats()
{
    traffic_.reset();
    stats_.reset();
    power_.resetStats(eq_.now());
    for (auto &ch : channels_)
        ch->resetStats();
}

} // namespace banshee
