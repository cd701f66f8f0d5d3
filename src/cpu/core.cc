#include "cpu/core.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace rr::cpu
{

using isa::Instruction;
using isa::Opcode;

Core::Core(sim::CoreId id, const sim::MachineConfig &cfg,
           const isa::Program &prog, mem::MemorySystem &mem,
           mem::StampClock &clock)
    : id_(id), cfg_(cfg), prog_(prog), mem_(mem), clock_(clock),
      robSize_(cfg.core.robEntries), rob_(robSize_),
      active_((robSize_ + 63) / 64, 0),
      predictor_(cfg.core.predictorEntries),
      wb_(cfg.core.writeBufferEntries),
      stats_(sim::strfmt("core%u", id)),
      statBranches_(stats_.counter("branches")),
      statDispatched_(stats_.counter("dispatched")),
      statFetchOutOfRange_(stats_.counter("fetch_out_of_range")),
      statForwardedLoads_(stats_.counter("forwarded_loads")),
      statLoadsToMemory_(stats_.counter("loads_to_memory")),
      statLsqFullStalls_(stats_.counter("lsq_full_stalls")),
      statMispredicts_(stats_.counter("mispredicts")),
      statRobFullStalls_(stats_.counter("rob_full_stalls")),
      statSquashedCompletions_(stats_.counter("squashed_completions")),
      statSquashedInstructions_(stats_.counter("squashed_instructions")),
      statStoresToMemory_(stats_.counter("stores_to_memory")),
      statTraqFullStalls_(stats_.counter("traq_full_stalls")),
      statWbDrainBlocked_(stats_.counter("wb_drain_blocked")),
      statWbFullStalls_(stats_.counter("wb_full_stalls")),
      statRobOccupancy_(stats_.scalar("rob_occupancy")),
      statWbOccupancy_(stats_.scalar("wb_occupancy"))
{
    for (auto &p : regProducer_)
        p = sim::kNoSeqNum;
    for (auto &s : regProducerSlot_)
        s = kNoSlot;
    mem_.setClient(id_, this);
}

void
Core::start(std::uint32_t tid, std::uint32_t num_threads)
{
    RR_ASSERT(!started_, "core started twice");
    archRegs_[isa::kRegThreadId] = tid;
    archRegs_[isa::kRegNumThreads] = num_threads;
    fetchPc_ = prog_.entryFor(tid);
    started_ = true;
}

bool
Core::allowMemDispatch() const
{
    for (const auto *l : listeners_) {
        if (!l->canDispatchMem())
            return false;
    }
    return true;
}

void
Core::tick(sim::Cycle now)
{
    RR_ASSERT(started_, "tick before start");
    if (halted_) {
        std::uint32_t ports = cfg_.core.numLdStUnits;
        drainWriteBuffer(now, ports);
        return;
    }

    retirePhase(now);
    if (halted_) {
        std::uint32_t ports = cfg_.core.numLdStUnits;
        drainWriteBuffer(now, ports);
        return;
    }
    executePhase(now);
    dispatchPhase(now);

    statRobOccupancy_.sample(count_);
    statWbOccupancy_.sample(static_cast<double>(wb_.size()));
}

// ---------------------------------------------------------------------
// Operand resolution
// ---------------------------------------------------------------------

bool
Core::resolveOne(sim::SeqNum &prod, std::uint32_t slot, std::uint64_t &val,
                 sim::Cycle now)
{
    if (prod == sim::kNoSeqNum)
        return true;
    const RobEntry &p = rob_[slot];
    if (p.seq == prod) {
        if (p.executed && p.resultReady <= now) {
            val = p.result;
            prod = sim::kNoSeqNum;
            return true;
        }
        return false;
    }
    // Producer retired before this consumer issued (its slot was
    // cleared or reused; a squashed producer takes its consumers along).
    const auto it = std::lower_bound(
        retiredResults_.begin(), retiredResults_.end(), prod,
        [](const RetiredResult &r, sim::SeqNum s) { return r.seq < s; });
    RR_ASSERT(it != retiredResults_.end() && it->seq == prod,
              "lost producer value for seq %llu",
              static_cast<unsigned long long>(prod));
    val = it->value;
    prod = sim::kNoSeqNum;
    return true;
}

bool
Core::resolveOperands(RobEntry &e, sim::Cycle now)
{
    const bool a = resolveOne(e.src1Prod, e.src1Slot, e.src1Val, now);
    const bool b = resolveOne(e.src2Prod, e.src2Slot, e.src2Val, now);
    return a && b;
}

// ---------------------------------------------------------------------
// Retirement
// ---------------------------------------------------------------------

void
Core::retirePhase(sim::Cycle now)
{
    std::uint32_t retired = 0;
    while (retired < cfg_.core.retireWidth && count_ > 0) {
        RobEntry &e = rob_[head_];
        const Instruction &inst = e.inst;

        if (inst.isLoad() || inst.isAtomic()) {
            if (!e.completed)
                break;
        } else if (inst.isStore()) {
            if (!e.executed)
                break;
            if (wb_.full()) {
                statWbFullStalls_++;
                break;
            }
        } else if (inst.isFence()) {
            if (!e.executed || !wb_.empty())
                break;
        } else {
            if (!e.executed || e.resultReady > now)
                break;
        }

        // Commit.
        if (inst.isStore())
            wb_.push(e.addr, e.src2Val, e.seq);
        if (inst.writesRd()) {
            archRegs_[inst.rd] = e.result;
            retiredResults_.push_back({e.seq, nextSeq_, e.result});
            if (regProducer_[inst.rd] == e.seq)
                regProducer_[inst.rd] = sim::kNoSeqNum;
        }
        ++retiredCount_;
        ++retired;
        if (inst.isMem())
            --lsqCount_;

        const RetireInfo info{e.seq,
                              e.pc,
                              inst.op,
                              inst.isMem(),
                              (inst.isLoad() || inst.isAtomic()) ? e.result
                                                                 : 0,
                              now};
        for (auto *l : listeners_)
            l->onRetire(info);

        const sim::SeqNum seq = e.seq;
        const bool is_halt = inst.isHalt();
        const std::uint32_t halt_nmi = e.nmiAfter;
        RR_ASSERT(e.waiters == kNoSlot && e.parkedOn == kNoSlot,
                  "retiring entry still in a waiter list");
        e.seq = sim::kNoSeqNum;
        deactivate(head_);
        head_ = (head_ + 1) % robSize_;
        --count_;

        if (is_halt) {
            halted_ = true;
            if (sim::TraceSink::enabled()) {
                sim::TraceSink::get()->instant(
                    sim::TraceSink::kRecordPid, id_, "core", "halt", now,
                    {{"retired", retiredCount_}});
            }
            squashAfter(seq, 0);
            for (auto *l : listeners_)
                l->onHalted(now, halt_nmi);
            break;
        }
    }

    // GC producer values nobody can reference anymore: all consumers
    // dispatched before the producer retired (seq < barrier) have left
    // the ROB.
    const sim::SeqNum oldest = count_ > 0 ? rob_[head_].seq : nextSeq_;
    while (!retiredResults_.empty() &&
           retiredResults_.front().barrier <= oldest)
        retiredResults_.pop_front();
}

// ---------------------------------------------------------------------
// Execute / issue
// ---------------------------------------------------------------------

int
Core::tryForward(RobEntry &e, std::uint32_t pos, sim::Cycle now)
{
    // Older ROB stores, youngest first. All older store addresses are
    // known here (unknown ones set blockLoads upstream).
    for (std::uint32_t off = pos; off-- > 0;) {
        RobEntry &s = entryAt(off);
        const Instruction &si = s.inst;
        if (!si.isStore() && !si.isAtomic())
            continue;
        if (!s.addrValid)
            return 2;
        if (s.addr != e.addr)
            continue;
        std::uint64_t value;
        if (si.isStore()) {
            if (!s.executed)
                return 2; // data not ready yet
            value = s.src2Val;
        } else if (s.completed) {
            // Atomic new value: XCHG writes rs2, FADD writes old+rs2.
            value = si.op == Opcode::Xchg ? s.src2Val
                                          : s.result + s.src2Val;
        } else {
            return 2;
        }
        e.result = value;
        e.forwarded = e.completed = e.executed = true;
        e.resultReady = now + 1;
        wakeWaiters(slotAt(pos));
        statForwardedLoads_++;
        const std::uint64_t stamp = clock_.next();
        for (auto *l : listeners_)
            l->onForwardedLoadPerform(e.seq, e.addr, value, stamp, now);
        return 1;
    }

    if (const WriteBuffer::Entry *w = wb_.youngestFor(e.addr)) {
        e.result = w->value;
        e.forwarded = e.completed = e.executed = true;
        e.resultReady = now + 1;
        wakeWaiters(slotAt(pos));
        statForwardedLoads_++;
        const std::uint64_t stamp = clock_.next();
        for (auto *l : listeners_)
            l->onForwardedLoadPerform(e.seq, e.addr, w->value, stamp, now);
        return 1;
    }
    return 0;
}

std::uint32_t
Core::nextActive(std::uint32_t from, std::uint32_t end) const
{
    while (from < end) {
        const std::uint64_t word = active_[from >> 6] >> (from & 63);
        if (word != 0)
            return std::min(end, from + static_cast<std::uint32_t>(
                                            std::countr_zero(word)));
        from = (from | 63) + 1;
    }
    return end;
}

bool
Core::parkOn(std::uint32_t slot, sim::SeqNum prod, std::uint32_t prod_slot)
{
    if (prod == sim::kNoSeqNum)
        return false;
    RobEntry &p = rob_[prod_slot];
    if (p.seq != prod || p.executed)
        return false;
    RobEntry &c = rob_[slot];
    c.parkedOn = prod_slot;
    c.waitPrev = kNoSlot;
    c.waitNext = p.waiters;
    if (p.waiters != kNoSlot)
        rob_[p.waiters].waitPrev = slot;
    p.waiters = slot;
    deactivate(slot);
    return true;
}

void
Core::wakeWaiters(std::uint32_t slot)
{
    RobEntry &p = rob_[slot];
    for (std::uint32_t w = p.waiters; w != kNoSlot;) {
        RobEntry &c = rob_[w];
        const std::uint32_t next = c.waitNext;
        c.parkedOn = c.waitPrev = c.waitNext = kNoSlot;
        activate(w);
        w = next;
    }
    p.waiters = kNoSlot;
}

void
Core::unpark(std::uint32_t slot)
{
    RobEntry &c = rob_[slot];
    if (c.waitPrev != kNoSlot)
        rob_[c.waitPrev].waitNext = c.waitNext;
    else
        rob_[c.parkedOn].waiters = c.waitNext;
    if (c.waitNext != kNoSlot)
        rob_[c.waitNext].waitPrev = c.waitPrev;
    c.parkedOn = c.waitPrev = c.waitNext = kNoSlot;
}

void
Core::executePhase(sim::Cycle now)
{
    std::uint32_t issued = 0;
    std::uint32_t mem_ports = cfg_.core.numLdStUnits;
    bool block_loads = false;

    // Oldest first over the active slots: [head_, robSize_) and then the
    // wrapped part [0, head_ + count_ - robSize_). The bitmap is re-read
    // at every step, so an entry woken during this pass is still
    // visited if it is younger than the one that woke it.
    const std::uint32_t tail = head_ + count_;
    const std::uint32_t ranges[2][2] = {
        {head_, std::min(tail, robSize_)},
        {0, tail > robSize_ ? tail - robSize_ : 0}};
    for (const auto &[begin, end] : ranges) {
        for (std::uint32_t slot = nextActive(begin, end);
             slot < end && issued < cfg_.core.issueWidth;
             slot = nextActive(slot + 1, end)) {
            const std::uint32_t pos =
                slot >= head_ ? slot - head_ : slot + robSize_ - head_;
            if (visit(slot, pos, now, issued, mem_ports, block_loads) ==
                Visit::Squashed)
                return;
        }
    }

    drainWriteBuffer(now, mem_ports);
}

Core::Visit
Core::visit(std::uint32_t slot, std::uint32_t pos, sim::Cycle now,
            std::uint32_t &issued, std::uint32_t &mem_ports,
            bool &block_loads)
{
    RobEntry &e = rob_[slot];
    const Instruction &inst = e.inst;

    if (inst.isStore()) {
        if (!e.addrValid &&
            resolveOne(e.src1Prod, e.src1Slot, e.src1Val, now)) {
            e.addr = sim::wordAddr(e.src1Val + inst.imm);
            e.addrValid = true;
        }
        if (e.addrValid && !e.executed &&
            resolveOne(e.src2Prod, e.src2Slot, e.src2Val, now)) {
            e.executed = true;
            e.resultReady = now + 1;
        }
        if (!e.addrValid)
            block_loads = true; // a blocker: stays active
        else if (e.executed)
            deactivate(slot); // nothing left to do
        else
            parkOn(slot, e.src2Prod, e.src2Slot);
        return Visit::Next;
    }

    if (inst.isLoad()) {
        RR_ASSERT(!e.memIssued, "load visited after it issued");
        if (!e.addrValid) {
            if (!resolveOne(e.src1Prod, e.src1Slot, e.src1Val, now)) {
                parkOn(slot, e.src1Prod, e.src1Slot);
                return Visit::Next;
            }
            e.addr = sim::wordAddr(e.src1Val + inst.imm);
            e.addrValid = true;
        }
        if (block_loads || mem_ports == 0)
            return Visit::Next;
        const int fwd = tryForward(e, pos, now);
        if (fwd == 1) {
            --mem_ports;
            ++issued;
            deactivate(slot);
        } else if (fwd == 0 && mem_.canAccept(id_, e.addr)) {
            mem_.access(id_, mem::AccessKind::Load, e.addr, 0, e.seq);
            e.memIssued = true;
            --mem_ports;
            ++issued;
            statLoadsToMemory_++;
            deactivate(slot); // memCompleted finishes it
        }
        return Visit::Next;
    }

    if (inst.isAtomic()) {
        RR_ASSERT(!e.completed, "atomic visited after it completed");
        if (!e.addrValid &&
            resolveOne(e.src1Prod, e.src1Slot, e.src1Val, now)) {
            e.addr = sim::wordAddr(e.src1Val + inst.imm);
            e.addrValid = true;
        }
        const bool data_ready =
            resolveOne(e.src2Prod, e.src2Slot, e.src2Val, now);
        block_loads = true; // atomics act as fences until they complete
        if (pos == 0 && e.addrValid && data_ready && !e.memIssued &&
            wb_.empty() && mem_ports > 0 && mem_.canAccept(id_, e.addr)) {
            const auto kind = inst.op == Opcode::Xchg
                                  ? mem::AccessKind::Xchg
                                  : mem::AccessKind::Fadd;
            mem_.access(id_, kind, e.addr, e.src2Val, e.seq);
            e.memIssued = true;
            --mem_ports;
            ++issued;
        }
        return Visit::Next;
    }

    if (inst.isFence()) {
        if (!e.executed) {
            e.executed = true;
            e.resultReady = now;
        }
        block_loads = true; // fences order younger loads
        return Visit::Next;
    }

    if (!resolveOperands(e, now)) {
        if (!parkOn(slot, e.src1Prod, e.src1Slot))
            parkOn(slot, e.src2Prod, e.src2Slot);
        return Visit::Next;
    }

    ++issued;
    e.executed = true;
    deactivate(slot);
    wakeWaiters(slot);
    switch (inst.op) {
      case Opcode::Nop:
      case Opcode::Halt:
        e.resultReady = now;
        break;
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge: {
        const bool taken = isa::evalBranch(inst, e.src1Val, e.src2Val);
        e.actualNext =
            taken ? static_cast<std::uint64_t>(inst.imm) : e.pc + 1;
        e.resultReady = now + 1;
        predictor_.update(e.pc, taken);
        statBranches_++;
        if (e.actualNext != e.predictedNext) {
            statMispredicts_++;
            squashAfter(e.seq, e.nmiAfter);
            fetchPc_ = e.actualNext;
            redirectAt_ = now + cfg_.core.branchRedirectPenalty;
            drainWriteBuffer(now, mem_ports);
            return Visit::Squashed; // younger entries are gone
        }
        break;
      }
      case Opcode::Jmp:
        e.actualNext = static_cast<std::uint64_t>(inst.imm);
        e.resultReady = now;
        break;
      case Opcode::Jal:
        e.result = e.pc + 1;
        e.actualNext = static_cast<std::uint64_t>(inst.imm);
        e.resultReady = now + 1;
        break;
      case Opcode::Jr:
        e.actualNext = e.src1Val;
        e.resultReady = now + 1;
        RR_ASSERT(jrStallSeq_ == e.seq, "unexpected Jr stall state");
        jrStallSeq_ = sim::kNoSeqNum;
        fetchPc_ = e.actualNext;
        redirectAt_ = now + 1;
        break;
      default:
        e.result = isa::evalAlu(inst, e.src1Val, e.src2Val);
        e.resultReady =
            now + (inst.op == Opcode::Mul ? cfg_.core.mulLatency : 1);
        break;
    }
    return Visit::Next;
}

void
Core::drainWriteBuffer(sim::Cycle now, std::uint32_t &mem_ports)
{
    (void)now;
    while (mem_ports > 0) {
        WriteBuffer::Entry *e = wb_.nextToIssue();
        if (!e)
            return;
        if (!mem_.canAccept(id_, e->word)) {
            statWbDrainBlocked_++;
            return;
        }
        mem_.access(id_, mem::AccessKind::Store, e->word, e->value,
                    e->seq);
        e->issued = true;
        --mem_ports;
        statStoresToMemory_++;
    }
}

// ---------------------------------------------------------------------
// Dispatch / fetch
// ---------------------------------------------------------------------

void
Core::dispatchPhase(sim::Cycle now)
{
    for (std::uint32_t d = 0; d < cfg_.core.dispatchWidth; ++d) {
        if (jrStallSeq_ != sim::kNoSeqNum || haltSeq_ != sim::kNoSeqNum)
            break;
        if (now < redirectAt_)
            break;
        if (fetchPc_ >= prog_.size()) {
            // Wrong-path fetch ran off the program; wait for the squash.
            statFetchOutOfRange_++;
            break;
        }
        if (count_ >= robSize_) {
            statRobFullStalls_++;
            break;
        }
        const Instruction &inst = prog_.code[fetchPc_];
        if (inst.isMem()) {
            if (lsqCount_ >= cfg_.core.lsqEntries) {
                statLsqFullStalls_++;
                break;
            }
            if (!allowMemDispatch()) {
                statTraqFullStalls_++;
                break;
            }
        }

        const sim::SeqNum seq = nextSeq_++;
        const std::uint32_t tail = slotAt(count_);
        RobEntry &e = rob_[tail];
        e = RobEntry{};
        e.seq = seq;
        e.pc = fetchPc_;
        e.inst = inst;

        if (inst.readsRs1() && inst.rs1 != 0 &&
            regProducer_[inst.rs1] != sim::kNoSeqNum) {
            e.src1Prod = regProducer_[inst.rs1];
            e.src1Slot = regProducerSlot_[inst.rs1];
        } else {
            e.src1Val = inst.readsRs1() ? archRegs_[inst.rs1] : 0;
            if (inst.rs1 == 0)
                e.src1Val = 0;
        }
        if (inst.readsRs2() && inst.rs2 != 0 &&
            regProducer_[inst.rs2] != sim::kNoSeqNum) {
            e.src2Prod = regProducer_[inst.rs2];
            e.src2Slot = regProducerSlot_[inst.rs2];
        } else {
            e.src2Val = inst.readsRs2() ? archRegs_[inst.rs2] : 0;
            if (inst.rs2 == 0)
                e.src2Val = 0;
        }

        std::uint64_t next = fetchPc_ + 1;
        if (inst.isCondBranch()) {
            e.predictedTaken = predictor_.predict(e.pc);
            next = e.predictedTaken ? static_cast<std::uint64_t>(inst.imm)
                                    : e.pc + 1;
        } else if (inst.op == Opcode::Jmp || inst.op == Opcode::Jal) {
            next = static_cast<std::uint64_t>(inst.imm);
        } else if (inst.op == Opcode::Jr) {
            jrStallSeq_ = seq;
            next = e.pc; // placeholder; fetch stalls until resolve
        } else if (inst.isHalt()) {
            haltSeq_ = seq;
            next = e.pc;
        }
        e.predictedNext = next;
        e.actualNext = next;

        if (inst.writesRd()) {
            regProducer_[inst.rd] = seq;
            regProducerSlot_[inst.rd] = tail;
        }

        if (inst.isMem()) {
            for (auto *l : listeners_)
                l->onDispatchMem(seq, inst, nmiCounter_);
            nmiCounter_ = 0;
            ++lsqCount_;
        } else {
            ++nmiCounter_;
            if (nmiCounter_ >= cfg_.core.nmiGroupLimit) {
                for (auto *l : listeners_)
                    l->onDispatchNmiGroup(seq, nmiCounter_);
                nmiCounter_ = 0;
            }
        }
        e.nmiAfter = nmiCounter_;

        activate(tail);
        ++count_;
        statDispatched_++;

        if (inst.op == Opcode::Jr || inst.isHalt())
            break;
        fetchPc_ = next;
    }
}

// ---------------------------------------------------------------------
// Squash
// ---------------------------------------------------------------------

void
Core::squashAfter(sim::SeqNum survivor_seq, std::uint32_t nmi_restore)
{
    while (count_ > 0) {
        RobEntry &e = entryAt(count_ - 1);
        if (e.seq <= survivor_seq)
            break;
        if (e.inst.isMem())
            --lsqCount_;
        // Youngest first, so every entry parked on this one is gone.
        if (e.parkedOn != kNoSlot)
            unpark(slotAt(count_ - 1));
        RR_ASSERT(e.waiters == kNoSlot, "squashed producer kept waiters");
        deactivate(slotAt(count_ - 1));
        e.seq = sim::kNoSeqNum;
        --count_;
        statSquashedInstructions_++;
    }
    nmiCounter_ = nmi_restore;
    if (jrStallSeq_ != sim::kNoSeqNum && jrStallSeq_ > survivor_seq)
        jrStallSeq_ = sim::kNoSeqNum;
    if (haltSeq_ != sim::kNoSeqNum && haltSeq_ > survivor_seq)
        haltSeq_ = sim::kNoSeqNum;
    rebuildProducers();
    for (auto *l : listeners_)
        l->onSquash(survivor_seq);
}

void
Core::rebuildProducers()
{
    for (auto &p : regProducer_)
        p = sim::kNoSeqNum;
    for (std::uint32_t i = 0; i < count_; ++i) {
        RobEntry &e = entryAt(i);
        if (e.inst.writesRd()) {
            regProducer_[e.inst.rd] = e.seq;
            regProducerSlot_[e.inst.rd] = slotAt(i);
        }
    }
}

// ---------------------------------------------------------------------
// Memory completions
// ---------------------------------------------------------------------

void
Core::memCompleted(std::uint64_t tag, mem::AccessKind kind,
                   std::uint64_t load_value, sim::Cycle when)
{
    if (kind == mem::AccessKind::Store) {
        wb_.complete(tag);
        return;
    }
    const std::uint32_t slot = slotOfSeq(tag);
    if (slot == kNoSlot) {
        statSquashedCompletions_++;
        return;
    }
    RobEntry &e = rob_[slot];
    RR_ASSERT(e.memIssued && !e.completed, "unexpected completion");
    e.completed = true;
    e.executed = true;
    e.result = load_value;
    e.resultReady = when;
    deactivate(slot); // an atomic stops blocking younger loads
    wakeWaiters(slot);
}

std::uint32_t
Core::slotOfSeq(sim::SeqNum seq) const
{
    // ROB seqs rise from head to tail (with gaps where squashes were).
    std::uint32_t lo = 0;
    std::uint32_t hi = count_;
    while (lo < hi) {
        const std::uint32_t mid = lo + (hi - lo) / 2;
        if (rob_[slotAt(mid)].seq < seq)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo < count_ && rob_[slotAt(lo)].seq == seq)
        return slotAt(lo);
    return kNoSlot;
}

} // namespace rr::cpu
