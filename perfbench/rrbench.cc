/**
 * @file
 * The repository benchmark's main program: runs one workload for a fixed
 * measuring time and prints every measured value by name, with the
 * operations attempted and failed, as one JSON object on the last line
 * of standard output.
 *
 *   rrbench --workload snoopy-8c|directory-64c|serve-mix --seed N
 *           --seconds S --trace 0|1 --work DIR --results DIR
 *           --rrsim PATH [--quick] [--inject corrupt-log|wrong-image]
 *           [--git-sha SHA] [--src-digest HEX]
 *
 * Usually started through run.py, which builds this program and rrsim
 * from source first and attaches each metric's unit from BENCHMARK.json,
 * the only list of metric names. See README.md for the workloads and
 * metrics.
 */

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "pipeline.hh"
#include "serve_load.hh"
#include "workloads/runtime.hh"

#ifndef RRBENCH_BUILD_TYPE
#define RRBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;
namespace sim = rr::sim;
namespace svc = rr::svc;

namespace
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool quick = false;
    std::string work = ".";
    std::string results = ".";
    std::string rrsim = "rrsim";
    std::string inject;
    std::string gitSha = "unknown";
    std::string srcDigest = "unknown";
};

/** Everything one run measured, keyed by metric name. */
struct Report
{
    std::map<std::string, double> values;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; ///< first few failure reasons
    std::map<std::string, double> info; ///< sample counts, worker counts
    SpeedProbe probe; ///< host speed over the run (see normalize())

    void
    fail(const std::string &why)
    {
        ++failed;
        if (failures.size() < 8)
            failures.push_back(why);
    }
};

std::uint32_t
hostThreads()
{
    const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<std::uint32_t>(n) : 1;
}

/** Per-key sample lists, summarized by median. */
class SampleMap
{
  public:
    void add(const std::string &key, double v) { map_[key].push_back(v); }
    /** Sum over every key with prefix @p prefix of that key's median. */
    double
    sumOfMedians(const std::string &prefix) const
    {
        double s = 0.0;
        for (const auto &[k, v] : map_)
            if (k.rfind(prefix, 0) == 0)
                s += median(v);
        return s;
    }

  private:
    std::map<std::string, std::vector<double>> map_;
};

// --- workloads ---------------------------------------------------------

std::vector<KernelSpec>
pipelineSpecs(const Options &o)
{
    const auto dir = sim::CoherenceKind::Directory;
    std::vector<KernelSpec> specs;
    if (o.workload == "snoopy-8c") {
        specs = {{"fft", 8, 4}, {"radix", 8, 2}, {"ocean", 8, 1},
                 {"lu", 8, 12}};
    } else {
        specs = {{"fft", 64, 4, dir}, {"lu", 64, 4, dir}};
    }
    if (o.quick) {
        for (auto &s : specs) {
            s.cores = 4;
            s.scale = 1;
        }
    }
    return specs;
}

std::string
logPath(const KernelSpec &s)
{
    return s.label() + ".rrlog";
}

/** Exact per-layer counters of a set of recordings (summed). */
void
addRecordingCounters(Report &rep, const std::vector<Recording> &recs)
{
    Counters c;
    for (const auto &r : recs)
        for (const auto &[k, v] : r.counters)
            c[k] += v;
    auto &v = rep.values;
    const double instr = c["cpu.instructions"];
    v["cpu.ipc"] = instr / std::max(1.0, c["cpu.core_cycles"]);
    for (const char *k :
         {"cpu.rob_full_stalls", "cpu.squashed_instructions",
          "cpu.mispredicts", "mem.l1_misses", "mem.l2_misses",
          "mem.c2c_transfers", "mem.bus_upgrades", "mem.dir_broadcasts",
          "mem.back_invalidations", "mem.dir_stale_owner",
          "rnr.recorder.intervals", "rnr.recorder.terminations_conflict",
          "rnr.recorder.dependency_edges",
          "rnr.recorder.local_order_forced_reorders"})
        v[k] = c[k];
    v["rnr.recorder.reordered_per_kinst"] =
        1000.0 *
        (c["rnr.recorder.reordered_loads"] +
         c["rnr.recorder.reordered_stores"] +
         c["rnr.recorder.reordered_atomics"]) /
        std::max(1.0, instr);
    v["rnr.recorder.traq_occupancy_mean"] =
        c["rnr.recorder.traq_occupancy_sum"] /
        std::max(1.0, c["rnr.recorder.traq_occupancy_samples"]);
    rep.info["core_cycles"] = c["cpu.core_cycles"];
}

/** Simulated cycles and on-disk log density of a set of recordings. */
void
addLogTotals(Report &rep, const std::vector<Recording> &recs)
{
    double cycles = 0, bytes = 0, instr = 0;
    for (const auto &r : recs) {
        cycles += static_cast<double>(r.summary.cycles);
        bytes += static_cast<double>(r.fileBytes);
        instr += static_cast<double>(r.summary.totalInstructions);
    }
    rep.values["sim_cycles"] = cycles;
    rep.values["log_bits_per_kinst"] = bytes * 8.0 * 1000.0 / instr;
    rep.values["rnr.logstore.bytes"] = bytes;
}

/**
 * Timing samples of recordings and replays, keyed by layer/kernel. Each
 * time is multiplied by the speed-probe factor measured around its
 * operation (1 for raw samples).
 */
struct PipelineSamples
{
    SampleMap t;
    std::vector<double> jobSec; ///< every sequential replay job's time
    std::vector<double> utilization;
    std::uint32_t parWorkers = 0;
    /** Per-round throughput (Minstr/s) of record / seq / par calls. */
    std::map<std::string, std::vector<double>> rounds;
    /** This round's simulated instructions and seconds per path. */
    std::map<std::string, std::pair<double, double>> current;

    /** Close a round: its throughput per path is one repetition. */
    void
    endRound()
    {
        for (const auto &[path, work] : current)
            rounds[path].push_back(work.first / 1e6 / work.second);
        current.clear();
    }

    void
    addRecording(const Recording &r, double scale)
    {
        const std::string k = r.spec.label();
        t.add("build/" + k, r.buildSec * scale);
        t.add("run/" + k, r.runSec * scale);
        t.add("append/" + k, r.appendSec * scale);
        t.add("finish/" + k, r.finishSec * scale);
        t.add("record/" + k, (r.runSec + r.finishSec) * scale);
        auto &cur = current["record"];
        cur.first += static_cast<double>(r.summary.totalInstructions);
        cur.second += (r.runSec + r.finishSec) * scale;
    }

    void
    addReplay(const Recording &r, Engine e, const ReplayOutcome &out,
              double scale)
    {
        const std::string k = r.spec.label();
        const std::string en = toString(e);
        t.add("job." + en + "/" + k, out.totalSec * scale);
        t.add("decode." + en + "/" + k, out.decodeSec * scale);
        t.add("replay." + en + "/" + k, out.replaySec * scale);
        t.add("verify/" + k + "." + en, out.verifySec * scale);
        if (e == Engine::Sequential)
            jobSec.push_back(out.totalSec * scale);
        auto &cur = current[en];
        cur.first += static_cast<double>(r.summary.totalInstructions);
        cur.second += out.totalSec * scale;
        if (e == Engine::Parallel) {
            t.add("span/" + k, out.parSpanSec * scale);
            t.add("serial/" + k, out.parSerialSec * scale);
            t.add("tasks/" + k, out.parTasks);
            utilization.push_back(out.parUtilization);
            parWorkers = out.workers;
        }
    }

    /** Recording-side host times (sums of per-kernel medians). */
    void
    recordTimes(std::map<std::string, double> &v, double core_cycles) const
    {
        v["workloads.build_ms"] = 1e3 * t.sumOfMedians("build/");
        v["machine.run_s"] = t.sumOfMedians("run/");
        v["machine.host_ns_per_core_cycle"] =
            v["machine.run_s"] * 1e9 / core_cycles;
        v["rnr.logstore.append_s"] = t.sumOfMedians("append/");
        v["rnr.logstore.finish_ms"] = 1e3 * t.sumOfMedians("finish/");
    }

    /** Replay-side host times (sums of per-kernel medians). */
    void
    replayTimes(std::map<std::string, double> &v, double bytes) const
    {
        v["rnr.logstore.decode_s"] = t.sumOfMedians("decode.seq/");
        v["rnr.logstore.decode_par_s"] = t.sumOfMedians("decode.par/");
        v["rnr.logstore.decode_mib_per_s"] =
            bytes / (1024.0 * 1024.0) /
            std::max(1e-9, v["rnr.logstore.decode_s"]);
        v["rnr.replay.seq_s"] = t.sumOfMedians("replay.seq/");
        v["rnr.replay.par_s"] = t.sumOfMedians("replay.par/");
        v["rnr.replay.par_span_s"] = t.sumOfMedians("span/");
        v["rnr.replay.par_serial_s"] = t.sumOfMedians("serial/");
        v["rnr.replay.par_tasks"] = t.sumOfMedians("tasks/");
        v["rnr.replay.par_utilization"] = median(utilization);
        v["rnr.replay.verify_ms"] = 1e3 * t.sumOfMedians("verify/");
    }

    /** End-to-end host-time metrics of snoopy-8c / directory-64c. */
    void
    endToEnd(std::map<std::string, double> &v) const
    {
        const auto med = [this](const char *path) {
            const auto it = rounds.find(path);
            return it == rounds.end() ? 0.0 : median(it->second);
        };
        v["record_minstr_per_s"] = med("record");
        v["replay_minstr_per_s"] = med("seq");
        v["replay_par_minstr_per_s"] = med("par");
        std::vector<double> job_ms;
        double job_sec = 0;
        for (const double sec : jobSec) {
            job_ms.push_back(sec * 1e3);
            job_sec += sec;
        }
        v["job_p50_ms"] = median(job_ms);
        v["job_p95_ms"] = quantile(job_ms, 0.95);
        v["max_jobs_per_s"] = static_cast<double>(job_ms.size()) / job_sec;
    }
};

/** Keep @p raw's values in the result file as "raw.<metric>". */
void
keepRaw(Report &rep, const std::map<std::string, double> &raw)
{
    for (const auto &[k, v] : raw)
        rep.info["raw." + k] = v;
}

/** Build, construct and record @p s into @p path as one operation. */
Recording
recordOne(const KernelSpec &s, std::uint64_t seed, const std::string &path,
          SpanLog &spans, std::uint64_t &op)
{
    ++op;
    return record(prepare(s, seed, spans, op), path, spans, op);
}

// --- the serve path ----------------------------------------------------

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** A replay job's result must match the recording exactly. */
std::string
checkReplayResult(const Recording &r, const svc::Json &res)
{
    if (res.get("determinism").asString() != "ok")
        return "determinism " + res.get("determinism").asString();
    if (static_cast<std::uint64_t>(res.get("instructions").asInt()) !=
        r.summary.totalInstructions)
        return "instruction count mismatch";
    if (res.get("memoryFingerprint").asString() !=
        hex64(r.summary.memoryFingerprint))
        return "memory fingerprint mismatch";
    const auto &cores = res.get("perCore").asArray();
    if (cores.size() != r.summary.cores.size())
        return "per-core result missing";
    for (std::size_t c = 0; c < cores.size(); ++c) {
        const auto &cs = r.summary.cores[c];
        if (cores[c].get("loadHash").asString() != hex64(cs.loadValueHash) ||
            static_cast<std::uint64_t>(cores[c].get("loads").asInt()) !=
                cs.retiredLoads ||
            static_cast<std::uint64_t>(
                cores[c].get("instructions").asInt()) !=
                cs.retiredInstructions)
            return "core " + std::to_string(c) + " load hash mismatch";
    }
    return "";
}

/**
 * The job mix over @p recs: replay (jobs=1; the engine follows the
 * log's dependency edges), verify and stats of every log, plus record
 * jobs of @p record_oracle's configuration (the daemon records with
 * the default workload seed, which the oracle was recorded with). The
 * shares (50% replay, 20% verify, 20% stats, 10% record) are assumed:
 * no record of real traffic exists, so they only follow the intended
 * shape, mostly replay, verify and stats plus some small record jobs.
 */
std::vector<JobTemplate>
jobMix(const std::vector<Recording> &recs, const Recording &record_oracle)
{
    std::vector<JobTemplate> mix;
    const double n = static_cast<double>(recs.size());
    for (const auto &r : recs) {
        const std::string file = "\"file\":" + svc::jsonQuote(r.path);
        JobTemplate replay{"replay", file + ",\"jobs\":1",
                           [&r](const svc::Json &res) {
                               return checkReplayResult(r, res);
                           },
                           r.summary.totalInstructions,
                           r.spec.deps ? "par" : "seq", 0.5 / n};
        mix.push_back(replay);
        mix.push_back({"verify", file,
                       [](const svc::Json &res) {
                           return res.get("issues").asInt() == 0
                                      ? std::string()
                                      : std::string("log has issues");
                       },
                       0, "", 0.2 / n});
        std::uint64_t intervals = 0;
        for (const auto &c : r.summary.cores)
            intervals += c.intervals;
        mix.push_back({"stats", file,
                       [intervals](const svc::Json &res) {
                           return static_cast<std::uint64_t>(
                                      res.get("intervals").asInt()) ==
                                          intervals
                                      ? std::string()
                                      : std::string("interval count "
                                                    "mismatch");
                       },
                       0, "", 0.2 / n});
    }
    const Recording &o = record_oracle;
    mix.push_back(
        {"record",
         "\"kernel\":" + svc::jsonQuote(o.spec.kernel) +
             ",\"cores\":" + std::to_string(o.spec.cores) +
             ",\"scale\":" + std::to_string(o.spec.scale) +
             ",\"interval\":" + std::to_string(o.spec.intervalCap) +
             ",\"deps\":" + (o.spec.deps ? "true" : "false"),
         [&o](const svc::Json &res) {
             const bool same =
                 static_cast<std::uint64_t>(res.get("instructions").asInt()) ==
                     o.summary.totalInstructions &&
                 static_cast<std::uint64_t>(res.get("cycles").asInt()) ==
                     o.summary.cycles &&
                 res.get("memoryFingerprint").asString() ==
                     hex64(o.summary.memoryFingerprint);
             return same ? std::string() : std::string("record mismatch");
         },
         o.summary.totalInstructions, "", 0.1});
    return mix;
}

/** Latency of a job in ms; a failed job never meets a limit. */
double
jobLatencyMs(const JobSample &s)
{
    return s.ok ? s.latencyMs() : std::numeric_limits<double>::infinity();
}

/** svc.* and gen.* per-layer metrics from the client's timelines. */
void
reportServeLayers(Report &rep, const std::vector<JobTemplate> &mix,
                  const PhaseResult &ref,
                  const std::vector<PhaseResult> &all)
{
    std::vector<double> admit, wait, overhead, lateness;
    std::map<std::string, std::vector<double>> run;
    for (const auto &s : ref.jobs) {
        if (s.accepted >= 0)
            admit.push_back((s.accepted - s.sent) * 1e3);
        if (s.running >= 0 && s.accepted >= 0)
            wait.push_back((s.running - s.accepted) * 1e3);
        if (s.ok && s.running >= 0) {
            run[mix[s.templ].kind].push_back((s.terminal - s.running) *
                                             1e3);
            overhead.push_back((s.terminal - s.running - s.daemonWall) *
                               1e3);
        }
    }
    double depth = 0;
    for (const auto &p : all)
        for (const auto &s : p.jobs) {
            depth = std::max(depth, static_cast<double>(s.queueDepth));
            lateness.push_back((s.sent - s.scheduled) * 1e3);
        }
    auto &v = rep.values;
    v["svc.admit_ms"] = median(admit);
    v["svc.queue_wait_p50_ms"] = median(wait);
    v["svc.queue_wait_p95_ms"] = quantile(wait, 0.95);
    v["svc.queue_depth_max"] = depth;
    for (const char *k : {"replay", "verify", "stats", "record"})
        v[std::string("svc.run_") + k + "_ms"] = median(run[k]);
    v["svc.overhead_ms"] = median(overhead);
    v["gen.lateness_p95_ms"] = quantile(lateness, 0.95);
    rep.info["svc.queue_wait_samples"] = static_cast<double>(wait.size());
    rep.info["gen.lateness_samples"] = static_cast<double>(lateness.size());
}

void
countJobs(Report &rep, const PhaseResult &p)
{
    for (const auto &s : p.jobs) {
        ++rep.attempted;
        if (!s.ok)
            rep.fail("serve job " + std::to_string(s.templ) + ": " +
                     s.error);
    }
}

/** Low-rate serve probe over a pipeline workload's own logs (traced). */
void
serveProbe(const Options &o, Report &rep,
           const std::vector<Recording> &recs, const Recording &oracle)
{
    Daemon d(o.rrsim, "serve.sock", 2, "serve.log");
    const auto mix = jobMix(recs, oracle);
    const PhaseResult p =
        runPhase(d.socket(), mix, o.quick ? 8.0 : 4.0,
                 o.quick ? 1.0 : 6.0, o.seed ^ 0x5e7e);
    d.stop();
    countJobs(rep, p);
    reportServeLayers(rep, mix, p, {p});
}

// --- workloads ---------------------------------------------------------

/** The record-job oracle: recorded with the default workload seed. */
KernelSpec
recordJobSpec()
{
    return {"lu", 2, 1, sim::CoherenceKind::Snoopy, false};
}

/** Sequential replays of each log per round (parallel: half as many). */
constexpr int kSeqReplays = 8;

/** snoopy-8c and directory-64c: interleaved record/replay rounds. */
void
runPipeline(const Options &o, Report &rep, SpanLog &spans)
{
    const auto specs = pipelineSpecs(o);
    const std::uint32_t workers = hostThreads();
    std::uint64_t op = 0;

    // Set-up: build every kernel and construct every machine, several
    // times; the last set of machines records round 0.
    std::vector<Prepared> preps;
    std::vector<double> setup, setup_raw;
    for (int rep_i = 0; rep_i < 3; ++rep_i) {
        preps.clear();
        double sec = 0;
        const double scale = rep.probe.scaled([&] {
            const auto t0 = Clock::now();
            for (const auto &s : specs)
                preps.push_back(prepare(s, o.seed, spans, ++op));
            sec = secondsSince(t0);
        });
        setup.push_back(sec * scale);
        setup_raw.push_back(sec);
    }
    rep.values["setup_s"] = median(setup);
    rep.info["raw.setup_s"] = median(setup_raw);

    PipelineSamples ps, raw;
    std::vector<Recording> first;
    const CpuTimes cpu0 = CpuTimes::read();
    const auto t_measure = Clock::now();
    bool injected = false;
    int round = 0;
    for (;; ++round) {
        std::vector<Recording> recs;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            // Rotate the kernel order each round so drift hits alike.
            const std::size_t k = (i + round) % specs.size();
            Prepared p = round == 0 ? std::move(preps[k])
                                    : prepare(specs[k], o.seed, spans,
                                              ++op);
            std::unique_ptr<Recording> r;
            const double scale = rep.probe.scaled([&] {
                r = std::make_unique<Recording>(
                    record(std::move(p), logPath(specs[k]), spans, op));
            });
            ++rep.attempted;
            ps.addRecording(*r, scale);
            raw.addRecording(*r, 1.0);
            recs.push_back(std::move(*r));
        }
        // Every log: kSeqReplays sequential replays and half as many on
        // the parallel engine, interleaved, alternating which goes first.
        for (int m = 0; m < kSeqReplays; ++m) {
            for (const auto &r : recs) {
                std::vector<Engine> engines = {Engine::Sequential};
                if (m % 2 == 1)
                    engines.insert((m / 2 + round) % 2 ? engines.begin()
                                                       : engines.end(),
                                   Engine::Parallel);
                for (const Engine engine : engines) {
                    Fault fault = Fault::None;
                    if (!injected && !o.inject.empty()) {
                        fault = o.inject == "corrupt-log" ? Fault::CorruptLog
                                                          : Fault::WrongImage;
                        injected = true;
                    }
                    ReplayOutcome out;
                    const double scale = rep.probe.scaled([&] {
                        out = replay(r, engine, workers, fault, spans, ++op);
                    });
                    ++rep.attempted;
                    if (!out.ok)
                        rep.fail(std::string("replay.") + toString(engine) +
                                 " " + r.spec.label() + ": " + out.error);
                    ps.addReplay(r, engine, out, scale);
                    raw.addReplay(r, engine, out, 1.0);
                }
            }
        }
        ps.endRound();
        raw.endRound();
        if (round == 0) {
            first = std::move(recs);
        } else {
            // Simulated results must repeat exactly, round after round.
            for (const auto &r : recs)
                for (const auto &f : first)
                    if (f.spec.label() == r.spec.label() &&
                        (f.fileBytes != r.fileBytes ||
                         !(f.summary == r.summary)))
                        rep.fail("recording of " + r.spec.label() +
                                 " did not repeat exactly");
        }
        const double elapsed = secondsSince(t_measure);
        if (round >= 1 && elapsed * (round + 2) / (round + 1) > o.seconds)
            break;
    }
    rep.values["host.steal_frac"] = stealFraction(cpu0, CpuTimes::read());
    rep.info["rounds"] = round + 1;
    rep.info["measure_s"] = secondsSince(t_measure);
    rep.info["job_samples"] = static_cast<double>(ps.jobSec.size());
    rep.info["replay_par_workers"] = ps.parWorkers;

    auto &v = rep.values;
    addLogTotals(rep, first);
    addRecordingCounters(rep, first);
    v["peak_rss_mib"] = peakRssMib();
    std::map<std::string, double> raw_values;
    const auto times = [&](const PipelineSamples &samples,
                           std::map<std::string, double> &out) {
        samples.endToEnd(out);
        samples.recordTimes(out, rep.info["core_cycles"]);
        samples.replayTimes(out, v["rnr.logstore.bytes"]);
    };
    times(ps, v);
    times(raw, raw_values);
    keepRaw(rep, raw_values);

    if (o.trace) {
        const Recording oracle =
            recordOne(recordJobSpec(), rr::workloads::WorkloadParams{}.seed,
                      "record-oracle.rrlog", spans, op);
        serveProbe(o, rep, first, oracle);
    }
}

/**
 * The open loop's fixed settings (jobs/s, seconds, ms). The repository
 * holds no record of real traffic, so the job mix (jobMix) and the
 * latency limit are assumed values; the rates follow from the capacity
 * this benchmark measured on its development host (see README.md).
 */
struct ServePlan
{
    /** Median max_jobs_per_s of the development runs (seeds 1001-1020). */
    double devCapacity = 350.0;
    double refFraction = 0.1;  ///< reference rate as a share of devCapacity
    double refShare = 0.35;    ///< share of --seconds spent at refRate()
    int refWindows = 3;        ///< refRate() windows spread over the run
    double searchFraction = 0.5; ///< first capacity rung, share of devCapacity
    double warmupSeconds = 1.5; ///< untimed load at the first rung beforehand
    double growth = 1.4;       ///< rate step while rungs pass
    double rungSeconds = 2.5;  ///< length of one capacity-search rung
    double latencyLimitMs = 100.0; ///< assumed p95 limit for max_jobs_per_s
    double resolution = 0.04;  ///< stop once the bracket is this narrow

    /** The fixed rate job_p50_ms and job_p95_ms are measured at. */
    double refRate() const { return devCapacity * refFraction; }
    double firstRung() const { return devCapacity * searchFraction; }
};

ServePlan
servePlan(const Options &o)
{
    ServePlan p;
    if (o.quick) {
        p.devCapacity = 100.0;
        p.rungSeconds = 0.5;
        p.warmupSeconds = 0.2;
    }
    return p;
}

/** p95 latency of a phase in ms; failed jobs count as infinite. */
double
phaseP95(const PhaseResult &p)
{
    std::vector<double> lat;
    for (const auto &s : p.jobs)
        lat.push_back(jobLatencyMs(s));
    return quantile(lat, 0.95);
}

/** Whether a phase met the latency limit with no growing backlog. */
bool
phasePasses(const PhaseResult &p, const ServePlan &plan)
{
    const bool backlog =
        p.backlogAtEnd > std::max<std::size_t>(8, p.jobs.size() / 10);
    return !backlog && phaseP95(p) <= plan.latencyLimitMs;
}

/** serve-mix: an open-loop job mix against a real `rrsim serve`. */
void
runServe(const Options &o, Report &rep, SpanLog &spans)
{
    std::uint64_t op = 0;
    const std::vector<KernelSpec> specs = {
        {"lu", 8, 4}, {"fft", 8, 2}, {"radix", 8, 1},
        {"lu", 8, 4, sim::CoherenceKind::Snoopy, false},
        {"fft", 8, 2, sim::CoherenceKind::Snoopy, false}};

    // Set-up, several times: daemon start to first pong, plus recording
    // the input logs and the record-job oracle. The last daemon stays.
    std::unique_ptr<Daemon> daemon;
    std::vector<Recording> recs;
    std::unique_ptr<Recording> oracle;
    std::vector<double> setup, setup_raw;
    double setup_scale = 1.0;
    for (int rep_i = 0; rep_i < 3; ++rep_i) {
        daemon.reset();
        double sec = 0;
        setup_scale = rep.probe.scaled([&] {
            const auto t0 = Clock::now();
            daemon = std::make_unique<Daemon>(o.rrsim, "serve.sock", 2,
                                              "serve.log");
            recs.clear();
            for (const auto &s : specs)
                recs.push_back(recordOne(s, o.seed, logPath(s), spans, op));
            oracle = std::make_unique<Recording>(recordOne(
                recordJobSpec(), rr::workloads::WorkloadParams{}.seed,
                "record-oracle.rrlog", spans, op));
            sec = secondsSince(t0);
        });
        setup.push_back(sec * setup_scale);
        setup_raw.push_back(sec);
        if (rep_i < 2)
            daemon->stop();
    }
    rep.values["setup_s"] = median(setup);
    rep.info["raw.setup_s"] = median(setup_raw);
    rep.attempted += recs.size() + 1;

    const auto mix = jobMix(recs, *oracle);
    const ServePlan plan = servePlan(o);
    // Warm the daemon up (executor threads, allocator arenas, page
    // cache) under load before anything is timed; users pay this once
    // per daemon, not per job. Its jobs are still checked.
    countJobs(rep, runPhase(daemon->socket(), mix, plan.firstRung(),
                            plan.warmupSeconds, o.seed ^ 0x3a3a3a3a));
    const CpuTimes cpu0 = CpuTimes::read();
    const auto t_measure = Clock::now();
    std::uint64_t phase_seed = o.seed * 1000003;
    const auto offer = [&](double rate, double seconds) {
        rep.probe.sample(20); // the daemon is idle between phases
        const auto span = spans.begin(
            "offer " + std::to_string(static_cast<int>(rate)) + " jobs/s",
            "svc", ++op);
        PhaseResult p = runPhase(daemon->socket(), mix, rate, seconds,
                                 ++phase_seed);
        spans.end(span, {{"jobs", static_cast<double>(p.jobs.size())},
                         {"p95_ms", phaseP95(p)}});
        countJobs(rep, p);
        return p;
    };

    // Reference-rate windows interleaved with a capacity search, so host
    // drift hits both alike. The search grows the rate while rungs pass,
    // then bisects the bracket between the last passing and the first
    // failing rung while time remains. A failing rung is offered again
    // and judged on both offers, so one host hiccup cannot end a search.
    const double ref_window =
        plan.refShare * o.seconds / static_cast<double>(plan.refWindows);
    std::vector<PhaseResult> phases;
    PhaseResult ref;
    int ref_done = 0;
    const auto offer_ref = [&] {
        phases.push_back(offer(plan.refRate(), ref_window));
        ref.jobs.insert(ref.jobs.end(), phases.back().jobs.begin(),
                        phases.back().jobs.end());
        ref.backlogAtEnd += phases.back().backlogAtEnd;
        ++ref_done;
    };
    const auto time_left = [&] {
        return secondsSince(t_measure) + plan.rungSeconds +
                   (plan.refWindows - ref_done) * ref_window <=
               o.seconds;
    };
    offer_ref();
    double lo = 0.0, lo_p95 = 0.0, hi = 0.0, hi_p95 = 0.0;
    if (phasePasses(ref, plan)) {
        lo = plan.refRate();
        lo_p95 = phaseP95(ref);
    }
    double rate = plan.firstRung();
    for (int rung = 1; time_left(); ++rung) {
        phases.push_back(offer(rate, plan.rungSeconds));
        PhaseResult judged = phases.back();
        if (!phasePasses(judged, plan) && time_left()) {
            phases.push_back(offer(rate, plan.rungSeconds));
            judged.jobs.insert(judged.jobs.end(), phases.back().jobs.begin(),
                               phases.back().jobs.end());
            judged.backlogAtEnd += phases.back().backlogAtEnd;
        }
        const double p95 = phaseP95(judged);
        rep.info["rung" + std::to_string(rung) + "." +
                 std::to_string(static_cast<int>(rate)) + ".p95_ms"] =
            std::isfinite(p95) ? p95 : -1.0;
        if (phasePasses(judged, plan)) {
            lo = rate;
            lo_p95 = p95;
        } else {
            hi = rate;
            hi_p95 = std::isfinite(p95)
                         ? std::max(p95, plan.latencyLimitMs)
                         : 10.0 * plan.latencyLimitMs;
        }
        if (ref_done < plan.refWindows && rung % 2 == 0)
            offer_ref();
        if (hi == 0.0)
            rate *= plan.growth;
        else if (hi - lo <= plan.resolution * hi)
            break;
        else
            rate = 0.5 * (lo + hi);
    }
    while (ref_done < plan.refWindows)
        offer_ref();
    rep.values["host.steal_frac"] = stealFraction(cpu0, CpuTimes::read());
    rep.info["measure_s"] = secondsSince(t_measure);
    rep.values["peak_rss_mib"] = daemon->peakRssMib();
    daemon->stop();

    // Interpolate the limit's crossing inside the final bracket, so the
    // estimate moves smoothly instead of jumping between rungs.
    auto &v = rep.values;
    if (hi == 0.0) {
        v["max_jobs_per_s"] = lo;
    } else {
        const double frac = std::clamp(
            (plan.latencyLimitMs - lo_p95) / std::max(1e-9, hi_p95 - lo_p95),
            0.0, 1.0);
        v["max_jobs_per_s"] = lo + frac * (hi - lo);
    }
    rep.info["capacity_bracket_lo"] = lo;
    rep.info["capacity_bracket_hi"] = hi;

    std::vector<double> lat;
    for (const auto &s : ref.jobs)
        lat.push_back(jobLatencyMs(s));
    v["job_p50_ms"] = median(lat);
    v["job_p95_ms"] = quantile(lat, 0.95);
    rep.info["job_samples"] = static_cast<double>(lat.size());

    // Pipeline throughput inside the daemon: per phase, simulated
    // instructions over the daemon's own wallSeconds of each job kind;
    // each phase is one repetition, and the metric is their median.
    std::map<std::string, std::vector<double>> per_phase;
    for (const auto &p : phases) {
        std::map<std::string, std::pair<double, double>> work;
        for (const auto &s : p.jobs) {
            const JobTemplate &jt = mix[s.templ];
            if (!s.ok || jt.instructions == 0)
                continue;
            auto &w = work[jt.kind + "." + jt.engine];
            w.first += static_cast<double>(jt.instructions);
            w.second += s.daemonWall;
        }
        for (const auto &[kind, w] : work)
            per_phase[kind].push_back(w.first / 1e6 / w.second);
    }
    v["record_minstr_per_s"] = median(per_phase["record."]);
    v["replay_minstr_per_s"] = median(per_phase["replay.seq"]);
    v["replay_par_minstr_per_s"] = median(per_phase["replay.par"]);
    addLogTotals(rep, recs);
    reportServeLayers(rep, mix, ref, phases);

    // Layers the daemon exercises internally, measured in-process on
    // the same inputs (traced run only).
    if (o.trace) {
        PipelineSamples ps, raw;
        for (int m = 0; m < 3; ++m)
            for (const auto &r : recs)
                for (const Engine e :
                     {Engine::Sequential, Engine::Parallel}) {
                    if (e == Engine::Parallel && !r.spec.deps)
                        continue; // no DAG to schedule
                    ReplayOutcome out;
                    const double scale = rep.probe.scaled([&] {
                        out = replay(r, e, hostThreads(), Fault::None,
                                     spans, ++op);
                    });
                    ++rep.attempted;
                    if (!out.ok)
                        rep.fail("replay " + r.spec.label() + ": " +
                                 out.error);
                    ps.addReplay(r, e, out, scale);
                    raw.addReplay(r, e, out, 1.0);
                }
        for (const auto &r : recs) {
            ps.addRecording(r, setup_scale);
            raw.addRecording(r, 1.0);
        }
        addRecordingCounters(rep, recs);
        std::map<std::string, double> raw_values;
        ps.recordTimes(v, rep.info["core_cycles"]);
        ps.replayTimes(v, v["rnr.logstore.bytes"]);
        raw.recordTimes(raw_values, rep.info["core_cycles"]);
        raw.replayTimes(raw_values, v["rnr.logstore.bytes"]);
        keepRaw(rep, raw_values);
    }
}

// --- output ------------------------------------------------------------

/**
 * Express metrics timed against a running daemon at the reference host
 * speed. Their operations cannot be bracketed by the probe one by one,
 * so they scale by the run's median probe time instead (times divide by
 * the slowdown, rates multiply). Raw values stay in the result file.
 */
void
normalizeServe(Report &rep, bool serve_mix)
{
    const double slowdown = rep.probe.slowdown();
    for (auto &[name, value] : rep.values) {
        const bool svc = name.rfind("svc.", 0) == 0 ||
                         name.rfind("gen.", 0) == 0;
        const bool e2e = serve_mix && name != "setup_s" &&
                         name != "peak_rss_mib" && name != "sim_cycles" &&
                         name != "log_bits_per_kinst" &&
                         name.find('.') == std::string::npos;
        if (!svc && !e2e)
            continue;
        rep.info["raw." + name] = value;
        if (name == "svc.queue_depth_max")
            continue;
        const bool rate = name.size() > 6 &&
                          name.compare(name.size() - 6, 6, "_per_s") == 0;
        value = rate ? value * slowdown : value / slowdown;
    }
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Every measured value, by metric name, as one JSON object. */
std::string
valuesJson(const Report &rep)
{
    std::string s = "{";
    for (const auto &[name, value] : rep.values)
        s += (s.size() > 1 ? ", " : "") + svc::jsonQuote(name) + ": " +
             num(value);
    return s + "}";
}

std::string
hostJson(const Options &o, const Report &rep)
{
    std::string s = "{\"nproc\": " + std::to_string(hostThreads()) +
                    ", \"build_type\": \"" RRBENCH_BUILD_TYPE
                    "\", \"compiler\": " +
                    svc::jsonQuote(std::string("gcc ") + __VERSION__) +
                    ", \"git_sha\": " + svc::jsonQuote(o.gitSha) +
                    ", \"src_digest\": " + svc::jsonQuote(o.srcDigest) +
                    ", \"serve_exec_jobs\": 2, \"serve_replay_jobs\": 1";
    for (const auto &[k, v] : rep.info)
        s += ", " + svc::jsonQuote(k) + ": " + num(v);
    const auto steal = rep.values.find("host.steal_frac");
    if (steal != rep.values.end())
        s += ", \"host.steal_frac\": " + num(steal->second);
    return s + "}";
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--seed")
            o.seed = std::stoull(value());
        else if (a == "--seconds")
            o.seconds = std::stod(value());
        else if (a == "--trace")
            o.trace = value() == "1";
        else if (a == "--work")
            o.work = value();
        else if (a == "--results")
            o.results = value();
        else if (a == "--rrsim")
            o.rrsim = value();
        else if (a == "--quick")
            o.quick = true;
        else if (a == "--inject")
            o.inject = value();
        else if (a == "--git-sha")
            o.gitSha = value();
        else if (a == "--src-digest")
            o.srcDigest = value();
        else
            throw std::invalid_argument("unknown argument " + a);
    }
    if (o.workload != "snoopy-8c" && o.workload != "directory-64c" &&
        o.workload != "serve-mix")
        throw std::invalid_argument("unknown workload '" + o.workload + "'");
    if (!o.inject.empty() && o.inject != "corrupt-log" &&
        o.inject != "wrong-image")
        throw std::invalid_argument("unknown fault '" + o.inject + "'");
    if (!(o.seconds > 0))
        throw std::invalid_argument("--seconds must be positive");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    try {
        o = parse(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rrbench: %s\n", e.what());
        return 2;
    }
    const std::string rrsim = std::filesystem::absolute(o.rrsim).string();
    const std::string results = std::filesystem::absolute(o.results).string();
    std::filesystem::create_directories(o.work);
    std::filesystem::create_directories(results);
    std::filesystem::current_path(o.work);
    o.rrsim = rrsim;

    SpanLog spans(o.trace);
    Report rep;
    try {
        if (o.workload == "serve-mix")
            runServe(o, rep, spans);
        else
            runPipeline(o, rep, spans);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rrbench: %s\n", e.what());
        return 1;
    }

    normalizeServe(rep, o.workload == "serve-mix");
    rep.info["host.slowdown"] = rep.probe.slowdown();
    rep.info["host.probe_samples"] = static_cast<double>(rep.probe.samples());
    const std::string stem = results + "/" + o.workload + "-s" +
                             std::to_string(o.seed) + "-t" +
                             (o.trace ? "1" : "0");
    const std::string host = hostJson(o, rep);
    const std::string values = valuesJson(rep);
    std::string failures = "[";
    for (std::size_t i = 0; i < rep.failures.size(); ++i)
        failures += (i ? ", " : "") + svc::jsonQuote(rep.failures[i]);
    failures += "]";
    {
        std::ofstream out(stem + ".json");
        out << "{\"workload\": \"" << o.workload << "\", \"seed\": "
            << o.seed << ", \"seconds\": " << num(o.seconds)
            << ", \"trace\": " << (o.trace ? 1 : 0) << ", \"host\": " << host
            << ", \"attempted\": " << rep.attempted
            << ", \"failed\": " << rep.failed
            << ", \"failures\": " << failures << ", \"values\": " << values
            << "}\n";
    }
    if (o.trace && !spans.write(stem + ".trace.json")) {
        std::fprintf(stderr, "rrbench: cannot write the trace\n");
        return 1;
    }
    for (const auto &f : rep.failures)
        std::printf("failure: %s\n", f.c_str());
    std::printf("host: %s\n", host.c_str());
    std::printf("{\"attempted\": %llu, \"failed\": %llu, \"values\": %s}\n",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed), values.c_str());
    return 0;
}
