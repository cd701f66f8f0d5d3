/**
 * @file
 * The record -> .rrlog -> decode -> replay -> verify pipeline, driven
 * through the repository's public entry points and timed from outside
 * at each layer boundary: workloads::buildKernel, the Machine
 * constructor and Machine::run, the interval sink feeding
 * rnr::LogWriter::append / finish, rnr::LogReader with readAll /
 * readAllParallel, and rnr::Replayer / rnr::ParallelReplayer::run.
 */

#ifndef PERFBENCH_PIPELINE_HH
#define PERFBENCH_PIPELINE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "isa/program.hh"
#include "machine/machine.hh"
#include "mem/backing_store.hh"
#include "rnr/logstore.hh"
#include "sim/config.hh"

namespace perfbench
{

/** One recording configuration of a workload. */
struct KernelSpec
{
    std::string kernel;
    std::uint32_t cores = 8;
    std::uint64_t scale = 1;
    rr::sim::CoherenceKind coherence = rr::sim::CoherenceKind::Snoopy;
    bool deps = true;
    std::uint64_t intervalCap = 128;

    /** Short label, e.g. "fft-8c-s4-snoopy-deps". */
    std::string label() const;
};

/** A built workload and a freshly constructed (not yet run) machine. */
struct Prepared
{
    KernelSpec spec;
    std::uint64_t seed = 0;
    rr::isa::Program program;
    std::vector<rr::sim::Addr> regions; ///< data-region base addresses
    std::unique_ptr<rr::machine::Machine> machine;
    double buildSec = 0.0;     ///< workloads::buildKernel
    double constructSec = 0.0; ///< Machine constructor
};

/** Build the kernel and construct its recording machine. */
Prepared prepare(const KernelSpec &spec, std::uint64_t seed,
                 SpanLog &spans, std::uint64_t op);

/** Exact layer counters summed over a machine's StatSets. */
using Counters = std::map<std::string, double>;

/** One finished recording, persisted as a .rrlog file. */
struct Recording
{
    KernelSpec spec;
    std::uint64_t seed = 0;
    std::string path;
    rr::isa::Program program;
    std::vector<rr::sim::Addr> regions;
    rr::mem::BackingStore initial;
    rr::rnr::RecordingSummary summary;
    std::uint64_t fileBytes = 0;
    double buildSec = 0.0;
    double constructSec = 0.0;
    double runSec = 0.0;    ///< Machine::run incl. the sink's appends
    double appendSec = 0.0; ///< inside LogWriter::append (traced only)
    double finishSec = 0.0; ///< LogWriter ctor + finish
    Counters counters;      ///< "cpu.*", "mem.*", "rnr.recorder.*"
};

/**
 * Run @p prep to completion, streaming policy 0's intervals into a
 * LogWriter at @p path. When @p spans is enabled each append is timed
 * (rnr.logstore.append_s); otherwise appends are not timed.
 */
Recording record(Prepared prep, const std::string &path, SpanLog &spans,
                 std::uint64_t op);

enum class Engine
{
    Sequential, ///< LogReader::readAll + Replayer
    Parallel,   ///< LogReader::readAllParallel + ParallelReplayer
};

const char *toString(Engine e);

/** Deliberate faults the benchmark's self-test injects. */
enum class Fault
{
    None,
    CorruptLog, ///< replay a copy of the log with one byte flipped
    WrongImage, ///< replay from a perturbed initial memory image
};

/** One replay job: decode from disk, replay, verify. */
struct ReplayOutcome
{
    bool ok = false;
    std::string error; ///< why it failed (empty when ok)
    std::uint64_t instructions = 0;
    double decodeSec = 0.0;
    double replaySec = 0.0;
    double verifySec = 0.0;
    double totalSec = 0.0;
    std::uint32_t workers = 1;
    double parSpanSec = 0.0;
    double parSerialSec = 0.0;
    double parTasks = 0.0;
    double parUtilization = 0.0;
};

/**
 * Replay @p rec from its .rrlog file on @p engine and verify the final
 * memory fingerprint, instruction counts and per-core load-value hashes
 * against the recording. Never throws: decode errors, divergences and
 * mismatches come back as a failed outcome.
 */
ReplayOutcome replay(const Recording &rec, Engine engine,
                     std::uint32_t workers, Fault fault, SpanLog &spans,
                     std::uint64_t op);

} // namespace perfbench

#endif // PERFBENCH_PIPELINE_HH
