#include "mem/directory.hh"

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace rr::mem
{

DirectoryMemorySystem::DirectoryMemorySystem(const sim::MachineConfig &cfg,
                                             BackingStore &backing,
                                             StampClock &clock)
    : CacheMemorySystem(cfg, backing, clock), numBanks_(cfg.numCores)
{
}

bool
DirectoryMemorySystem::dirHasEntry(sim::Addr line_addr) const
{
    return dir_.find(sim::lineAddr(line_addr)) != nullptr;
}

std::int32_t
DirectoryMemorySystem::dirOwner(sim::Addr line_addr) const
{
    const DirEntry *e = dir_.find(sim::lineAddr(line_addr));
    return e ? e->owner : -1;
}

std::uint64_t
DirectoryMemorySystem::dirSharers(sim::Addr line_addr) const
{
    const DirEntry *e = dir_.find(sim::lineAddr(line_addr));
    return e ? e->sharers : 0;
}

void
DirectoryMemorySystem::processRequests()
{
    if (busQueue_.empty())
        return;
    // Banked arbitration: each home bank grants at most one request per
    // cycle, independently of the others. This is the structural reason
    // the directory scales past the snoopy ring's one-grant-per-cycle
    // bottleneck.
    bankGranted_.assign(numBanks_, false);
    std::vector<BusRequest> granted;
    std::deque<BusRequest> keep;
    for (const BusRequest &req : busQueue_) {
        const std::uint32_t bank = bankOf(req.line);
        if (bankGranted_[bank] || grantBlocked(req)) {
            keep.push_back(req);
            continue;
        }
        bankGranted_[bank] = true;
        granted.push_back(req);
    }
    busQueue_.swap(keep);
    for (const BusRequest &req : granted) {
        // Re-check: a grant earlier this same cycle may have pinned the
        // last available way of this request's L2 set.
        if (grantBlocked(req)) {
            busQueue_.push_back(req);
            continue;
        }
        grant(req);
    }
}

void
DirectoryMemorySystem::grant(const BusRequest &req)
{
    const sim::Addr line = req.line;

    if (req.kind == BusKind::PutM) {
        // Dirty writeback reached home. The writer already emitted its
        // conservative bump at eviction time (evictL1Line), which keeps
        // the Opt *counting* safe — but bumps do not generate
        // dependency *edges*. A later reader still needs the
        // write->read edge produced by the ordering marker its GetS
        // routes to this core, so demote the ex-owner to a listed
        // sharer instead of dropping it from the tracking state.
        stats_.counter("dir_putm")++;
        if (DirEntry *e = dir_.find(line)) {
            if (e->owner == static_cast<std::int32_t>(req.core)) {
                e->sharers |= std::uint64_t{1} << e->owner;
                e->owner = -1;
            }
        }
        if (sim::TraceSink::enabled()) {
            sim::TraceSink::get()->instant(
                sim::TraceSink::kRecordPid, req.core, "coherence", "PutM",
                now_, {{"line", line}});
        }
        return;
    }

    Mshr *mshr = req.mshr;
    const bool is_write = req.kind == BusKind::GetM;
    stats_.counter(is_write ? "dir_getm" : "dir_gets")++;
    if (sim::TraceSink::enabled()) {
        sim::TraceSink::get()->instant(
            sim::TraceSink::kRecordPid, req.core, "coherence",
            is_write ? "GetM" : "GetS", now_, {{"line", line}});
    }

    // Sample actual L1 presence before any invalidation/downgrade: it
    // is what SnoopEvent::observerHadLine reports.
    std::vector<bool> had_line(cfg_.numCores, false);
    for (sim::CoreId c = 0; c < cfg_.numCores; ++c)
        had_line[c] = l1s_[c].find(line) != nullptr;

    DirEntry *entry = dir_.find(line);
    const bool untracked = entry == nullptr;
    if (untracked) {
        // No tracking state (cold line, or the entry was destroyed by
        // an L2 eviction): conservatively act as if every core could
        // hold the line, i.e. broadcast the snoop like the ring does.
        stats_.counter("dir_broadcasts")++;
        entry = &dir_[line];
    }
    const std::uint64_t req_bit = std::uint64_t{1} << req.core;

    // Which cores the directory routes this transaction to.
    std::uint64_t targets = 0;
    if (untracked) {
        for (sim::CoreId c = 0; c < cfg_.numCores; ++c)
            targets |= std::uint64_t{1} << c;
    } else {
        // Every listed core is notified, for GetS too: only the owner
        // supplies data, but the home also sends listed sharers an
        // ordering-only marker (a Cyrus/Karma-style piggyback). A
        // demoted ex-writer is still listed as a sharer, and a later
        // reader needs the write->read edge its marker produces; the
        // data-only routing (owner alone) loses exactly those edges.
        targets = entry->sharers;
        if (entry->owner >= 0)
            targets |= std::uint64_t{1} << entry->owner;
    }
    targets &= ~req_bit;

    // Forward to the owner when it really still holds the line in E/M
    // (a silent E eviction leaves a stale owner pointer behind; the
    // home then supplies the data itself).
    bool forwarded = false;
    if (entry->owner >= 0 && entry->owner != static_cast<std::int32_t>(
                                                 req.core)) {
        CacheArray::Line *own = l1s_[entry->owner].find(line);
        if (own && (own->state == MesiState::Modified ||
                    own->state == MesiState::Exclusive)) {
            forwarded = true;
            if (!is_write)
                own->state = MesiState::Shared; // owner downgrades
        } else {
            stats_.counter("dir_stale_owner")++;
        }
    }
    if (forwarded)
        statC2cTransfers_++;

    // GetM invalidates every targeted L1 copy (listed sharers + owner;
    // everyone on a conservative broadcast).
    if (is_write) {
        for (sim::CoreId c = 0; c < cfg_.numCores; ++c) {
            if (!((targets >> c) & 1))
                continue;
            if (CacheArray::Line *ln = l1s_[c].find(line))
                ln->state = MesiState::Invalid;
        }
    }

    // Tracking-state update. Cores are only unlisted on paths that
    // delivered them a snoop (this GetM) or a bump (PutM, entry
    // destruction); a demoted owner is kept listed as a sharer so
    // future invalidations still reach it.
    const bool upgrade = is_write && l1s_[req.core].find(line) != nullptr;
    if (is_write) {
        entry->sharers = 0;
        entry->owner = static_cast<std::int32_t>(req.core);
    } else {
        if (entry->owner >= 0 &&
            entry->owner != static_cast<std::int32_t>(req.core)) {
            entry->sharers |= std::uint64_t{1} << entry->owner;
            entry->owner = -1;
        }
        if (entry->owner < 0 && (entry->sharers & ~req_bit) == 0) {
            entry->sharers &= ~req_bit;
            entry->owner = static_cast<std::int32_t>(req.core); // E grant
        } else {
            entry->sharers |= req_bit;
        }
    }

    // Decide the fill state before touching the L2: installL2 may
    // erase a victim's directory entry, and FlatMap's backward-shift
    // deletion can relocate `entry`.
    const MesiState fill_state =
        is_write ? MesiState::Modified
                 : (entry->owner == static_cast<std::int32_t>(req.core)
                        ? MesiState::Exclusive
                        : MesiState::Shared);
    entry = nullptr;

    // Point-to-point timing, independent of the core count (contrast
    // with the snoopy ring's numCores * ringHopDelay traversal).
    const std::uint32_t hop = 2 * cfg_.uncore.ringHopDelay;
    std::uint32_t latency;
    if (upgrade) {
        stats_.counter("dir_upgrades")++;
        latency = 2 * hop + 1; // requester <-> home invalidation round
    } else if (forwarded) {
        // requester -> home -> owner -> requester
        latency = 3 * hop + cfg_.l1.hitLatency;
        installL2(line); // inclusion: the supplier writes through
    } else {
        const bool l2_hit = installL2(line);
        latency = 2 * hop + cfg_.uncore.l2Latency;
        if (!l2_hit)
            latency += cfg_.uncore.memLatency;
    }

    mshr->granted = true;
    mshr->fillState = fill_state;
    inflight_.insert(line);

    // Deliver snoops to the routed cores before serializing this
    // transaction's own accesses (invariant: dependence sources get
    // smaller stamps than the dependent performs).
    if (targets != 0) {
        SnoopEvent ev{req.core, line,          is_write,
                      false,    clock_.next(), now_};
        for (sim::CoreId c = 0; c < cfg_.numCores; ++c) {
            if (!((targets >> c) & 1))
                continue;
            ev.observerHadLine = had_line[c];
            deliverSnoopTo(c, ev);
        }
    }

    // Serialize the accesses this transaction satisfies; a GetS cannot
    // satisfy writers (they replay after the fill).
    std::vector<PendingAccess> leftover;
    const sim::Cycle done_at = now_ + latency;
    for (const PendingAccess &acc : mshr->waiting) {
        if (is_write || !isWriteKind(acc.kind)) {
            const std::uint64_t v = serialize(req.core, acc);
            scheduleHitDone(req.core, acc, v, done_at);
        } else {
            leftover.push_back(acc);
        }
    }
    mshr->waiting = std::move(leftover);

    Event fill{};
    fill.when = done_at;
    fill.type = Event::Fill;
    fill.mshr = mshr;
    fill.core = req.core;
    schedule(fill);
}

bool
DirectoryMemorySystem::installL2(sim::Addr line)
{
    if (CacheArray::Line *hit = l2_.find(line)) {
        l2_.touch(*hit);
        statL2Hits_++;
        return true;
    }
    statL2Misses_++;
    const auto blocked = [this](sim::Addr victim) {
        return inflight_.count(victim) > 0 || lineHasAnyMshr(victim);
    };
    CacheArray::Line *way = l2_.victimFor(line, blocked);
    RR_ASSERT(way, "L2 victim availability checked at grant");
    if (way->valid()) {
        const sim::Addr victim = way->tag;
        statL2Evictions_++;
        // Destroying the victim's directory entry destroys every listed
        // core's ability to observe future transactions on the line —
        // the Section 4.3 event. Bump them all conservatively, stale
        // sharers included: any of them may hold performed-but-
        // uncounted accesses to the line.
        if (DirEntry *e = dir_.find(victim)) {
            std::uint64_t listed = e->sharers;
            if (e->owner >= 0)
                listed |= std::uint64_t{1} << e->owner;
            for (sim::CoreId c = 0; c < cfg_.numCores; ++c) {
                if (!((listed >> c) & 1))
                    continue;
                stats_.counter("dir_eviction_bumps")++;
                const std::uint64_t stamp = clock_.next();
                notifyObservers(c, [&](MemoryObserver *obs) {
                    obs->onDirtyEviction(c, victim, stamp);
                });
            }
            dir_.erase(victim);
        }
        // Inclusive L2: back-invalidate every L1 copy of the victim.
        for (sim::CoreId c = 0; c < cfg_.numCores; ++c) {
            CacheArray::Line *l1_line = l1s_[c].find(victim);
            if (!l1_line)
                continue;
            statBackInvalidations_++;
            if (l1_line->state == MesiState::Modified)
                busQueue_.push_back(
                    BusRequest{c, victim, BusKind::PutM, nullptr});
            l1_line->state = MesiState::Invalid;
        }
    }
    l2_.install(*way, line, MesiState::Shared);
    return false;
}

} // namespace rr::mem
