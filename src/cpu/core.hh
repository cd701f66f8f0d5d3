/**
 * @file
 * A 4-issue out-of-order superscalar core executing the micro-ISA under
 * a Release-Consistency memory model (paper Table 1):
 *
 *  - fetch follows a bimodal predictor, so real wrong-path instructions
 *    enter the ROB and are squashed on branch resolution;
 *  - loads issue to memory (or forward from older stores) as soon as
 *    their address is known and no older store address is unresolved,
 *    freely bypassing pending stores — this produces the ~60% of
 *    accesses that perform out of program order (paper Figure 1);
 *  - stores retire into a write buffer and drain with multiple
 *    outstanding misses, completing out of order;
 *  - FENCE blocks younger loads and retires only once the write buffer
 *    has drained; atomics (XCHG/FADD) issue at the ROB head with an
 *    empty write buffer and act as full fences.
 *
 * The core publishes dispatch/retire/squash/forward events to
 * CoreListener instances (the MRR hub) and receives perform/completion
 * events from the MemorySystem.
 *
 * Issue is event-driven but selects exactly what a full oldest-first
 * ROB scan would: the scan visits only the slots marked active, and an
 * entry is inactive only while visiting it could change nothing —
 * either it has nothing left to do, or it waits on a producer that has
 * not executed yet ("parked" on that producer, which wakes it when it
 * executes). Entries that block younger loads (a store with an unknown
 * address, an incomplete atomic, a fence) are never parked.
 */

#ifndef RR_CPU_CORE_HH
#define RR_CPU_CORE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "cpu/branch_predictor.hh"
#include "cpu/core_listener.hh"
#include "cpu/write_buffer.hh"
#include "isa/program.hh"
#include "mem/coherence.hh"
#include "mem/memory_system.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace rr::cpu
{

class Core : public mem::MemClient
{
  public:
    Core(sim::CoreId id, const sim::MachineConfig &cfg,
         const isa::Program &prog, mem::MemorySystem &mem,
         mem::StampClock &clock);

    /** Initialize thread state; must be called before the first tick. */
    void start(std::uint32_t tid, std::uint32_t num_threads);

    void addListener(CoreListener *l) { listeners_.push_back(l); }

    /** Advance one cycle. The memory system must have ticked already. */
    void tick(sim::Cycle now);

    /** Architecturally halted (HALT retired). */
    bool halted() const { return halted_; }

    /** Halted and the write buffer fully drained. */
    bool quiescent() const { return halted_ && wb_.empty(); }

    // MemClient
    void memCompleted(std::uint64_t tag, mem::AccessKind kind,
                      std::uint64_t load_value, sim::Cycle when) override;

    sim::CoreId id() const { return id_; }
    std::uint64_t retired() const { return retiredCount_; }
    std::uint64_t archReg(isa::Reg r) const { return archRegs_[r]; }
    std::uint32_t robOccupancy() const { return count_; }
    sim::StatSet &stats() { return stats_; }

  private:
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    struct RobEntry
    {
        /** kNoSeqNum once the entry has retired or been squashed. */
        sim::SeqNum seq = sim::kNoSeqNum;
        std::uint64_t pc = 0;
        isa::Instruction inst;
        // Operand sourcing: kNoSeqNum producer means the value is final.
        // A producer still in the ROB sits in srcNSlot; once that slot
        // no longer holds srcNProd, the producer has retired.
        sim::SeqNum src1Prod = sim::kNoSeqNum;
        sim::SeqNum src2Prod = sim::kNoSeqNum;
        std::uint32_t src1Slot = kNoSlot;
        std::uint32_t src2Slot = kNoSlot;
        std::uint64_t src1Val = 0;
        std::uint64_t src2Val = 0;
        // Execution status.
        bool executed = false;
        sim::Cycle resultReady = sim::kNoCycle;
        std::uint64_t result = 0;
        // Control flow.
        std::uint64_t predictedNext = 0;
        std::uint64_t actualNext = 0;
        bool predictedTaken = false;
        // Memory status.
        sim::Addr addr = 0;
        bool addrValid = false;
        bool memIssued = false;
        bool completed = false;
        bool forwarded = false;
        // Snapshot of the non-memory-instruction counter after this
        // instruction dispatched; restored on squash at this entry.
        std::uint32_t nmiAfter = 0;
        // Issue scheduling: the producer slot this entry is parked on,
        // its links in that producer's waiter list, and the head of the
        // list of entries parked on this one.
        std::uint32_t parkedOn = kNoSlot;
        std::uint32_t waitPrev = kNoSlot;
        std::uint32_t waitNext = kNoSlot;
        std::uint32_t waiters = kNoSlot;
    };

    /** A retired producer's value, kept while consumers may need it. */
    struct RetiredResult
    {
        sim::SeqNum seq;
        /** nextSeq_ at its retirement: younger seqs cannot consume it. */
        sim::SeqNum barrier;
        std::uint64_t value;
    };

    // --- pipeline phases, called in order from tick() ---
    void retirePhase(sim::Cycle now);
    void executePhase(sim::Cycle now);
    void drainWriteBuffer(sim::Cycle now, std::uint32_t &mem_ports);
    void dispatchPhase(sim::Cycle now);

    /** Try to resolve both operands of @p e; true when ready. */
    bool resolveOperands(RobEntry &e, sim::Cycle now);
    bool resolveOne(sim::SeqNum &prod, std::uint32_t slot,
                    std::uint64_t &val, sim::Cycle now);

    // --- issue scheduling ---
    /**
     * Park the entry in @p slot on its producer (@p prod in @p prod_slot)
     * when that producer is still in the ROB and has not executed.
     * @return true if parked (the entry is then inactive).
     */
    bool parkOn(std::uint32_t slot, sim::SeqNum prod,
                std::uint32_t prod_slot);
    /** Reactivate every entry parked on @p slot (it just executed). */
    void wakeWaiters(std::uint32_t slot);
    /** Remove a parked entry from its producer's waiter list. */
    void unpark(std::uint32_t slot);
    void activate(std::uint32_t slot)
    {
        active_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    }
    void deactivate(std::uint32_t slot)
    {
        active_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
    }
    /** First active slot in [from, end), or end. */
    std::uint32_t nextActive(std::uint32_t from, std::uint32_t end) const;
    /** Slot of the in-flight instruction @p seq, or kNoSlot. */
    std::uint32_t slotOfSeq(sim::SeqNum seq) const;

    /**
     * Try to satisfy a load from an older in-flight store (ROB entries
     * older than position @p pos, then the write buffer).
     * @return 0 no match (go to memory), 1 forwarded, 2 must wait.
     */
    int tryForward(RobEntry &e, std::uint32_t pos, sim::Cycle now);

    /** Issue-stage work for the entry in @p slot, @p pos from head. */
    enum class Visit
    {
        Next,
        Squashed, ///< a mispredict removed every younger entry
    };
    Visit visit(std::uint32_t slot, std::uint32_t pos, sim::Cycle now,
                std::uint32_t &issued, std::uint32_t &mem_ports,
                bool &block_loads);

    /** Squash every instruction younger than @p survivor_seq. */
    void squashAfter(sim::SeqNum survivor_seq, std::uint32_t nmi_restore);

    void rebuildProducers();

    // ROB circular-buffer helpers.
    std::uint32_t slotAt(std::uint32_t offset_from_head) const
    {
        return (head_ + offset_from_head) % robSize_;
    }
    RobEntry &entryAt(std::uint32_t offset) { return rob_[slotAt(offset)]; }

    bool allowMemDispatch() const;

    const sim::CoreId id_;
    const sim::MachineConfig &cfg_;
    const isa::Program &prog_;
    mem::MemorySystem &mem_;
    mem::StampClock &clock_;

    // ROB storage.
    const std::uint32_t robSize_;
    std::vector<RobEntry> rob_;
    std::uint32_t head_ = 0; ///< index of oldest entry
    std::uint32_t count_ = 0;
    /** One bit per ROB slot: the issue stage must visit this entry. */
    std::vector<std::uint64_t> active_;

    // Retired-but-still-referenced results (producers that left the ROB
    // before their consumers issued), in retirement (= seq) order.
    std::deque<RetiredResult> retiredResults_;

    // Register state.
    std::uint64_t archRegs_[isa::kNumRegs] = {};
    sim::SeqNum regProducer_[isa::kNumRegs];
    std::uint32_t regProducerSlot_[isa::kNumRegs];

    // Fetch state.
    std::uint64_t fetchPc_ = 0;
    sim::SeqNum nextSeq_ = 0;
    sim::Cycle redirectAt_ = 0; ///< fetch resumes at this cycle
    sim::SeqNum jrStallSeq_ = sim::kNoSeqNum;
    sim::SeqNum haltSeq_ = sim::kNoSeqNum;
    std::uint32_t nmiCounter_ = 0;
    std::uint32_t lsqCount_ = 0;

    BranchPredictor predictor_;
    WriteBuffer wb_;

    bool started_ = false;
    bool halted_ = false;
    std::uint64_t retiredCount_ = 0;

    std::vector<CoreListener *> listeners_;
    sim::StatSet stats_;
    // Hot-path statistics, resolved once (StatSet entries are stable).
    sim::Counter &statBranches_;
    sim::Counter &statDispatched_;
    sim::Counter &statFetchOutOfRange_;
    sim::Counter &statForwardedLoads_;
    sim::Counter &statLoadsToMemory_;
    sim::Counter &statLsqFullStalls_;
    sim::Counter &statMispredicts_;
    sim::Counter &statRobFullStalls_;
    sim::Counter &statSquashedCompletions_;
    sim::Counter &statSquashedInstructions_;
    sim::Counter &statStoresToMemory_;
    sim::Counter &statTraqFullStalls_;
    sim::Counter &statWbDrainBlocked_;
    sim::Counter &statWbFullStalls_;
    sim::ScalarStat &statRobOccupancy_;
    sim::ScalarStat &statWbOccupancy_;
};

} // namespace rr::cpu

#endif // RR_CPU_CORE_HH
