#include "pipeline.hh"

#include <exception>
#include <filesystem>
#include <fstream>
#include <vector>

#include "rnr/parallel_replayer.hh"
#include "rnr/patcher.hh"
#include "rnr/replayer.hh"
#include "workloads/kernels.hh"

namespace perfbench
{

namespace rnr = rr::rnr;
namespace sim = rr::sim;
namespace machine = rr::machine;

std::string
KernelSpec::label() const
{
    return kernel + "-" + std::to_string(cores) + "c-s" +
           std::to_string(scale) + "-" + sim::toString(coherence) +
           (deps ? "-deps" : "");
}

const char *
toString(Engine e)
{
    return e == Engine::Sequential ? "seq" : "par";
}

Prepared
prepare(const KernelSpec &spec, std::uint64_t seed, SpanLog &spans,
        std::uint64_t op)
{
    Prepared p;
    p.spec = spec;
    p.seed = seed;

    rr::workloads::WorkloadParams wp;
    wp.numThreads = spec.cores;
    wp.scale = spec.scale;
    wp.seed = seed;
    auto span = spans.begin("buildKernel", "workloads", op);
    auto t0 = Clock::now();
    auto w = rr::workloads::buildKernel(spec.kernel, wp);
    p.buildSec = secondsSince(t0);
    spans.end(span);

    sim::MachineConfig cfg;
    cfg.numCores = spec.cores;
    cfg.coherence = spec.coherence;
    std::vector<sim::RecorderConfig> policies(1);
    policies[0].mode = sim::RecorderMode::Opt;
    policies[0].maxIntervalInstructions = spec.intervalCap;
    policies[0].recordDependencies = spec.deps;

    span = spans.begin("Machine::Machine", "machine", op);
    t0 = Clock::now();
    p.machine = std::make_unique<machine::Machine>(cfg, w.program,
                                                   policies);
    p.constructSec = secondsSince(t0);
    spans.end(span);
    p.program = std::move(w.program);
    for (const auto &region : w.regions)
        p.regions.push_back(region.second);
    return p;
}

namespace
{

rnr::RecordingMeta
metaOf(const KernelSpec &spec, std::uint64_t seed)
{
    const rr::workloads::WorkloadParams wp;
    const sim::MachineConfig cfg;
    rnr::RecordingMeta meta;
    meta.kernel = spec.kernel;
    meta.cores = spec.cores;
    meta.scale = spec.scale;
    meta.intensity = wp.intensity;
    meta.workloadSeed = seed;
    meta.machineSeed = cfg.seed;
    meta.mode = sim::RecorderMode::Opt;
    meta.intervalCap = spec.intervalCap;
    meta.deps = spec.deps;
    meta.coherence = spec.coherence;
    return meta;
}

rnr::RecordingSummary
summaryOf(const machine::RecordingResult &rec)
{
    rnr::RecordingSummary s;
    s.totalInstructions = rec.totalInstructions;
    s.cycles = rec.cycles;
    s.memoryFingerprint = rec.memoryFingerprint;
    for (std::size_t c = 0; c < rec.cores.size(); ++c) {
        rnr::CoreReplaySummary core;
        core.intervals = rec.logs[0][c].intervals.size();
        core.retiredInstructions = rec.cores[c].retiredInstructions;
        core.retiredLoads = rec.cores[c].retiredLoads;
        core.loadValueHash = rec.cores[c].loadValueHash;
        s.cores.push_back(core);
    }
    return s;
}

/** Sum a machine's StatSets into layer-prefixed counters. */
Counters
collectCounters(machine::Machine &m, const machine::RecordingResult &rec)
{
    std::vector<const sim::StatSet *> sets;
    m.collectStats(sets);
    Counters c;
    for (const sim::StatSet *set : sets) {
        const std::string &name = set->name();
        std::string layer;
        if (name.rfind("mem", 0) == 0)
            layer = "mem.";
        else if (name.rfind("core", 0) == 0)
            layer = "cpu.";
        else if (name.rfind("mrr", 0) == 0 &&
                 name.find('.') != std::string::npos)
            layer = "rnr.recorder.";
        else if (name.rfind("mrr", 0) == 0)
            layer = "rnr.hub.";
        else
            continue;
        for (const auto &[k, v] : set->counters())
            c[layer + k] += static_cast<double>(v.value());
        const auto occ = set->scalars().find("traq_occupancy");
        if (occ != set->scalars().end()) {
            c["rnr.recorder.traq_occupancy_sum"] += occ->second.sum();
            c["rnr.recorder.traq_occupancy_samples"] +=
                static_cast<double>(occ->second.count());
        }
    }
    c["cpu.instructions"] = static_cast<double>(rec.totalInstructions);
    c["cpu.core_cycles"] = static_cast<double>(rec.cycles) *
                           static_cast<double>(rec.cores.size());
    c["sim.cycles"] = static_cast<double>(rec.cycles);
    return c;
}

} // namespace

Recording
record(Prepared prep, const std::string &path, SpanLog &spans,
       std::uint64_t op)
{
    Recording r;
    r.spec = prep.spec;
    r.seed = prep.seed;
    r.path = path;
    r.buildSec = prep.buildSec;
    r.constructSec = prep.constructSec;
    r.initial = prep.machine->initialMemory().clone();

    const auto root = spans.begin("record " + prep.spec.label(), "record",
                                  op);
    auto t0 = Clock::now();
    rnr::LogWriter writer(path, metaOf(prep.spec, prep.seed));
    r.finishSec = secondsSince(t0);

    const bool timed = spans.enabled();
    double append_sec = 0.0;
    prep.machine->setIntervalSink(
        0, [&writer, &append_sec, timed](sim::CoreId core,
                                         const rnr::IntervalRecord &iv) {
            if (!timed) {
                writer.append(core, iv);
                return;
            }
            const auto a0 = Clock::now();
            writer.append(core, iv);
            append_sec += secondsSince(a0);
        });

    auto span = spans.begin("Machine::run", "machine", op, root);
    t0 = Clock::now();
    const machine::RecordingResult rec = prep.machine->run();
    r.runSec = secondsSince(t0);
    r.appendSec = append_sec;
    spans.end(span, {{"cycles", static_cast<double>(rec.cycles)},
                     {"instructions",
                      static_cast<double>(rec.totalInstructions)},
                     {"append_s", append_sec}});

    r.summary = summaryOf(rec);
    span = spans.begin("LogWriter::finish", "rnr.logstore", op, root);
    t0 = Clock::now();
    writer.finish(r.summary);
    r.finishSec += secondsSince(t0);
    r.fileBytes = writer.bytesWritten();
    spans.end(span, {{"bytes", static_cast<double>(r.fileBytes)}});
    spans.end(root);

    r.counters = collectCounters(*prep.machine, rec);
    r.program = std::move(prep.program);
    r.regions = std::move(prep.regions);
    return r;
}

namespace
{

/** Copy @p path with one byte in the middle of the file flipped. */
std::string
corruptCopy(const std::string &path)
{
    const std::string bad = path + ".corrupt";
    std::filesystem::copy_file(
        path, bad, std::filesystem::copy_options::overwrite_existing);
    std::fstream f(bad, std::ios::in | std::ios::out | std::ios::binary);
    const auto size = std::filesystem::file_size(bad);
    f.seekg(static_cast<std::streamoff>(size / 2));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(static_cast<std::streamoff>(size / 2));
    f.write(&byte, 1);
    return bad;
}

/** Compare a replay's end state against the recording's targets. */
std::string
checkReplay(const Recording &rec, const rnr::RecordingSummary &file,
            const rnr::ReplayResult &res,
            const std::vector<std::uint64_t> &hashes,
            const std::vector<std::uint64_t> &loads)
{
    if (!(file == rec.summary))
        return "log summary differs from the recording";
    if (res.instructions != rec.summary.totalInstructions)
        return "instruction count mismatch";
    if (res.memory.fingerprint() != rec.summary.memoryFingerprint)
        return "memory fingerprint mismatch";
    for (std::size_t c = 0; c < rec.summary.cores.size(); ++c) {
        const auto &cs = rec.summary.cores[c];
        if (hashes[c] != cs.loadValueHash || loads[c] != cs.retiredLoads ||
            res.contexts[c].instructions != cs.retiredInstructions)
            return "core " + std::to_string(c) + " load hash mismatch";
    }
    return "";
}

} // namespace

ReplayOutcome
replay(const Recording &rec, Engine engine, std::uint32_t workers,
       Fault fault, SpanLog &spans, std::uint64_t op)
{
    ReplayOutcome out;
    const auto root = spans.begin(std::string("replay.") +
                                      toString(engine) + " " +
                                      rec.spec.label(),
                                  "replay", op);
    const auto t_start = Clock::now();
    try {
        const std::string path =
            fault == Fault::CorruptLog ? corruptCopy(rec.path) : rec.path;

        auto span = spans.begin("LogReader+readAll", "rnr.logstore", op,
                                root);
        auto t0 = Clock::now();
        rnr::LogReader reader(path);
        const rnr::RecordingSummary file_summary = reader.summary();
        std::vector<rnr::CoreLog> logs =
            engine == Engine::Sequential ? reader.readAll()
                                         : reader.readAllParallel(workers);
        out.decodeSec = secondsSince(t0);
        spans.end(span,
                  {{"bytes", static_cast<double>(reader.fileBytes())}});

        rr::mem::BackingStore image = rec.initial.clone();
        if (fault == Fault::WrongImage) {
            for (const rr::sim::Addr a : rec.regions)
                image.write64(a, image.peek(a) ^ 0x5a5a5a5a5a5a5a5aULL);
        }

        const std::size_t cores = rec.summary.cores.size();
        std::vector<std::uint64_t> hashes(cores, 0), loads(cores, 0);
        const auto hook = [&](rr::sim::CoreId c, std::uint64_t v) {
            hashes[c] = machine::mixLoadValue(hashes[c], v);
            ++loads[c];
        };

        span = spans.begin(std::string(engine == Engine::Sequential
                                           ? "Replayer::run"
                                           : "ParallelReplayer::run"),
                           "rnr.replay", op, root);
        t0 = Clock::now();
        std::vector<rnr::CoreLog> patched;
        patched.reserve(logs.size());
        for (const auto &log : logs)
            patched.push_back(rnr::patch(log));
        rnr::ReplayResult res;
        if (engine == Engine::Sequential) {
            rnr::Replayer rep(rec.program, std::move(patched),
                              std::move(image));
            rep.setLoadHook(hook);
            res = rep.run();
        } else {
            rnr::ParallelReplayOptions popts;
            popts.workers = workers;
            rnr::ParallelReplayer rep(rec.program, std::move(patched),
                                      std::move(image), popts);
            rep.setLoadHook(hook);
            res = rep.run();
            const auto &sc = res.engineStats.scalars();
            const auto mean = [&sc](const char *k) {
                const auto it = sc.find(k);
                return it == sc.end() ? 0.0 : it->second.mean();
            };
            out.parSpanSec = res.measuredSpanSeconds;
            out.parSerialSec = res.measuredSerialSeconds;
            out.parUtilization = mean("utilization");
            out.parTasks = static_cast<double>(
                res.engineStats.counterValue("tasks_run"));
        }
        out.replaySec = secondsSince(t0);
        out.workers = res.workers;
        out.instructions = res.instructions;
        spans.end(span, {{"instructions",
                          static_cast<double>(res.instructions)},
                         {"workers", static_cast<double>(res.workers)}});

        span = spans.begin("verify", "rnr.replay", op, root);
        t0 = Clock::now();
        out.error = checkReplay(rec, file_summary, res, hashes, loads);
        out.verifySec = secondsSince(t0);
        out.ok = out.error.empty();
        spans.end(span, {{"ok", out.ok ? 1.0 : 0.0}});
    } catch (const std::exception &e) {
        out.ok = false;
        out.error = e.what();
    }
    out.totalSec = secondsSince(t_start);
    spans.end(root, {{"ok", out.ok ? 1.0 : 0.0}});
    return out;
}

} // namespace perfbench
