#include "rnr/mrr_hub.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace rr::rnr
{

MrrHub::MrrHub(sim::CoreId core,
               const std::vector<sim::RecorderConfig> &policies,
               mem::StampClock &clock)
    : core_(core), clock_(clock),
      traqCapacity_(policies.empty() ? 176 : policies.front().traqEntries),
      psRows_(traqCapacity_ * policies.size()),
      stats_(sim::strfmt("mrr%u", core)),
      histogram_(stats_.histogram("traq_occupancy", 10, 20)),
      statCountedMem_(stats_.counter("counted_mem")),
      statCountedNmiGroups_(stats_.counter("counted_nmi_groups")),
      statForwardedPerforms_(stats_.counter("forwarded_performs")),
      statOooLoads_(stats_.counter("ooo_loads")),
      statOooStores_(stats_.counter("ooo_stores")),
      statRetiredMem_(stats_.counter("retired_mem")),
      statSnoopsObserved_(stats_.counter("snoops_observed")),
      statSquashedEntries_(stats_.counter("squashed_entries")),
      statSquashedPerforms_(stats_.counter("squashed_performs")),
      statOccupancy_(stats_.scalar("traq_occupancy"))
{
    RR_ASSERT(!policies.empty(), "MrrHub needs at least one policy");
    for (std::size_t i = 0; i < policies.size(); ++i) {
        recorders_.push_back(std::make_unique<IntervalRecorder>(
            core, policies[i], clock,
            sim::strfmt("mrr%u.%s%llu", core,
                        sim::toString(policies[i].mode),
                        static_cast<unsigned long long>(
                            policies[i].maxIntervalInstructions))));
    }
}

mem::AccessKind
MrrHub::accessKindOf(const TraqEntry &e)
{
    switch (e.kind) {
      case Kind::Load:
        return mem::AccessKind::Load;
      case Kind::Store:
        return mem::AccessKind::Store;
      default:
        return mem::AccessKind::Xchg; // RMW; exact flavor is irrelevant
    }
}

MrrHub::TraqEntry *
MrrHub::findBySeq(sim::SeqNum seq)
{
    const auto it = std::lower_bound(
        traq_.begin(), traq_.end(), seq,
        [](const TraqEntry &e, sim::SeqNum s) { return e.seq < s; });
    return it != traq_.end() && it->seq == seq ? &*it : nullptr;
}

bool
MrrHub::canDispatchMem() const
{
    return traq_.size() < traqCapacity_;
}

void
MrrHub::onDispatchMem(sim::SeqNum seq, const isa::Instruction &inst,
                      std::uint32_t nmi_before)
{
    RR_ASSERT(!finished_, "dispatch after finish");
    TraqEntry e;
    e.seq = seq;
    e.kind = inst.isLoad() ? Kind::Load
                           : (inst.isStore() ? Kind::Store : Kind::Atomic);
    e.nmi = nmi_before;
    // The core dispatches memory only while canDispatchMem(), so at most
    // traqCapacity_ memory entries are ever in flight.
    RR_ASSERT(psUsed_ < traqCapacity_, "memory dispatch into a full TRAQ");
    e.psRow = static_cast<std::uint32_t>((psHead_ + psUsed_) %
                                         traqCapacity_);
    ++psUsed_;
    traq_.push_back(e);
}

void
MrrHub::onDispatchNmiGroup(sim::SeqNum last_seq, std::uint32_t count)
{
    RR_ASSERT(!finished_, "dispatch after finish");
    TraqEntry e;
    e.seq = last_seq;
    e.kind = Kind::NmiGroup;
    e.nmi = count;
    traq_.push_back(e);
}

void
MrrHub::recordPerform(TraqEntry &e, mem::AccessKind kind, sim::Addr word,
                      std::uint64_t load_value, std::uint64_t store_value,
                      sim::Cycle cycle)
{
    RR_ASSERT(!e.performed, "double perform for seq %llu",
              static_cast<unsigned long long>(e.seq));
    e.performed = true;
    e.word = word;
    e.loadValue = load_value;
    e.storeValue = store_value;

    // Figure 1 metric: performed while an older access is still pending.
    for (const auto &older : traq_) {
        if (older.seq >= e.seq)
            break;
        if (older.kind != Kind::NmiGroup && !older.performed) {
            e.oooAtPerform = true;
            break;
        }
    }

    if (sim::TraceSink::enabled()) {
        sim::TraceSink::get()->instant(
            sim::TraceSink::kRecordPid, core_, "traq", "perform", cycle,
            {{"seq", e.seq},
             {"addr", word},
             {"ooo", e.oooAtPerform}});
    }

    IntervalRecorder::PerformState *ps = psRow(e);
    for (std::size_t i = 0; i < recorders_.size(); ++i)
        ps[i] = recorders_[i]->notePerform(kind, word);
}

void
MrrHub::onPerform(const mem::PerformEvent &ev)
{
    if (ev.core != core_)
        return;
    TraqEntry *e = findBySeq(ev.tag);
    if (!e) {
        // Squashed wrong-path access whose request was already in
        // flight; nothing to record.
        statSquashedPerforms_++;
        return;
    }
    recordPerform(*e, ev.kind, ev.addr, ev.loadValue, ev.storeValue,
                  ev.cycle);
    drainCountable(ev.cycle);
}

void
MrrHub::onForwardedLoadPerform(sim::SeqNum seq, sim::Addr word_addr,
                               std::uint64_t value, std::uint64_t stamp,
                               sim::Cycle cycle)
{
    (void)stamp;
    TraqEntry *e = findBySeq(seq);
    RR_ASSERT(e, "forwarded perform for unknown seq");
    statForwardedPerforms_++;
    recordPerform(*e, mem::AccessKind::Load, word_addr, value, 0, cycle);
    drainCountable(cycle);
}

void
MrrHub::onRetire(const cpu::RetireInfo &info)
{
    retiredUpTo_ = info.seq + 1;
    if (info.isMem) {
        TraqEntry *e = findBySeq(info.seq);
        RR_ASSERT(e, "retire for unknown TRAQ entry");
        e->retired = true;
        statRetiredMem_++;
    }
    drainCountable(info.cycle);
}

void
MrrHub::onSquash(sim::SeqNum youngest_surviving)
{
    while (!traq_.empty() && traq_.back().seq > youngest_surviving) {
        if (traq_.back().kind != Kind::NmiGroup)
            --psUsed_;
        traq_.pop_back();
        statSquashedEntries_++;
    }
}

void
MrrHub::onHalted(sim::Cycle now, std::uint32_t residual_nmi)
{
    haltPending_ = true;
    residualNmi_ = residual_nmi;
    haltCycle_ = now;
    drainCountable(now);
}

void
MrrHub::onSnoop(sim::CoreId observer, const mem::SnoopEvent &ev)
{
    if (observer != core_)
        return;
    statSnoopsObserved_++;
    for (std::size_t i = 0; i < recorders_.size(); ++i) {
        IntervalRecorder &rec = *recorders_[i];
        const bool conflicted = rec.onSnoop(ev);
        // Dependency recording (Section 3.6 / Cyrus-style ordering):
        // when this core either conflicted with or simply held the
        // requested line, the requester's current interval must be
        // ordered after this core's latest closed interval. (If this
        // core never closed an interval, its only touches of the line
        // were wrong-path fills, which carry no dependence.)
        if (rec.config().recordDependencies &&
            (conflicted || ev.observerHadLine) && !peers_.empty()) {
            bool valid = false;
            const sim::Isn src = rec.lastClosedIsn(valid);
            if (valid) {
                peers_.at(ev.requester)
                    ->recorder(i)
                    .notePredecessor(core_, src);
            }
        }
    }
}

void
MrrHub::onDirtyEviction(sim::CoreId core, sim::Addr line_addr,
                        std::uint64_t stamp)
{
    (void)stamp;
    if (core != core_)
        return;
    for (auto &r : recorders_)
        r->onDirtyEviction(line_addr);
}

void
MrrHub::drainCountable(sim::Cycle now)
{
    if (finished_)
        return;
    while (!traq_.empty()) {
        TraqEntry &e = traq_.front();
        if (e.kind == Kind::NmiGroup) {
            if (retiredUpTo_ <= e.seq)
                break;
            for (auto &r : recorders_)
                r->countNmi(e.nmi, now);
            statCountedNmiGroups_++;
        } else {
            if (!e.performed || !e.retired)
                break;
            if (e.oooAtPerform)
                (e.kind == Kind::Store ? statOooStores_ : statOooLoads_)++;
            statCountedMem_++;
            if (sim::TraceSink::enabled()) {
                sim::TraceSink::get()->instant(
                    sim::TraceSink::kRecordPid, core_, "traq", "count",
                    now,
                    {{"seq", e.seq},
                     {"addr", e.word},
                     {"ooo", e.oooAtPerform}});
            }
            const mem::AccessKind kind = accessKindOf(e);
            // Same-core same-line ordering guard: a younger write that
            // has already performed (still queued behind this entry)
            // may log as reordered into this access's perform interval;
            // the recorder must then not move this access forward to
            // its counting point. The TRAQ is the only structure that
            // can see this — the Snoop Table ignores local traffic.
            const sim::Addr line = sim::lineAddr(e.word);
            bool local_write_pending = false;
            for (const TraqEntry &y : traq_) {
                if (y.seq <= e.seq || !y.performed ||
                    y.kind == Kind::NmiGroup || y.kind == Kind::Load)
                    continue;
                if (sim::lineAddr(y.word) == line) {
                    local_write_pending = true;
                    break;
                }
            }
            const IntervalRecorder::PerformState *ps = psRow(e);
            for (std::size_t i = 0; i < recorders_.size(); ++i) {
                recorders_[i]->countMem(kind, e.word, e.loadValue,
                                        e.storeValue, e.nmi, ps[i], now,
                                        local_write_pending);
            }
            RR_ASSERT(e.psRow == psHead_, "TRAQ perform-state ring skew");
            psHead_ = (psHead_ + 1) % traqCapacity_;
            --psUsed_;
        }
        traq_.pop_front();
    }

    if (haltPending_ && traq_.empty()) {
        for (auto &r : recorders_) {
            r->countNmi(residualNmi_, haltCycle_);
            r->finish(haltCycle_);
        }
        haltPending_ = false;
        finished_ = true;
    }
}

void
MrrHub::sampleOccupancy()
{
    statOccupancy_.sample(static_cast<double>(traq_.size()));
    histogram_.sample(traq_.size());
}

} // namespace rr::rnr
