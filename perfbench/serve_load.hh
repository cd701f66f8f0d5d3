/**
 * @file
 * Drives a real `rrsim serve` daemon from outside, as a client sees it:
 * start it and wait for the first `pong`, offer an open-loop Poisson
 * schedule of jobs from one thread over one connection per tenant, and
 * time every job's events (send -> accepted -> running -> terminal).
 */

#ifndef PERFBENCH_SERVE_LOAD_HH
#define PERFBENCH_SERVE_LOAD_HH

#include <sched.h>
#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "svc/protocol.hh"

namespace perfbench
{

/** A running `rrsim serve` child process on a Unix socket. */
class Daemon
{
  public:
    /**
     * Spawn `rrsim serve` and return once it answers `ping`. While the
     * daemon runs, the calling thread is pinned to the last CPU and the
     * daemon to the others (when there are at least two). The socket
     * path is relative to the working directory (short enough for
     * sun_path wherever the checkout lives). Throws std::runtime_error
     * when the daemon does not come up within a few seconds.
     */
    Daemon(const std::string &rrsim, const std::string &socket,
           std::uint32_t exec_jobs, const std::string &log_path);
    ~Daemon();
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    const std::string &socket() const { return socket_; }
    /** The daemon's peak RSS (VmHWM) so far, in MiB. */
    double peakRssMib() const;
    /** Drain shutdown; waits for the process (SIGKILL after a grace). */
    void stop();

  private:
    /** Give the calling thread back the CPUs it had before start-up. */
    void unpin();

    pid_t pid_ = -1;
    std::string socket_;
    bool pinned_ = false;
    cpu_set_t savedCpus_{};
    cpu_set_t clientCpus_{};
};

/** One job the load generator can submit. */
struct JobTemplate
{
    std::string kind;    ///< record | replay | verify | stats
    std::string request; ///< JSON members after "op", e.g. "\"file\":.."
    /** Checks a `completed` event's result; returns "" when correct. */
    std::function<std::string(const rr::svc::Json &result)> check;
    /** Simulated instructions the job replays or records (0 if none). */
    std::uint64_t instructions = 0;
    std::string engine; ///< seq | par for replay jobs
    double weight = 1.0; ///< relative share of the job mix
};

/** Client-side timeline of one submitted job (seconds, phase clock). */
struct JobSample
{
    std::size_t templ = 0;
    int tenant = 0;
    double scheduled = 0.0;
    double sent = -1.0;
    double accepted = -1.0;
    double running = -1.0;
    double terminal = -1.0;
    double daemonWall = 0.0; ///< `wallSeconds` of the completed event
    std::uint64_t queueDepth = 0;
    bool ok = false;
    std::string error;

    /** Scheduled send -> terminal event, in ms. */
    double latencyMs() const { return (terminal - scheduled) * 1e3; }
};

/** The result of offering one rate for one phase. */
struct PhaseResult
{
    std::vector<JobSample> jobs;
    /** Jobs still outstanding when the sending window closed. */
    std::size_t backlogAtEnd = 0;
};

/** Tenant fair-share weights; tenant i uses connection i. */
inline const std::vector<int> kTenantWeights = {1, 1, 2};

/**
 * Offer Poisson arrivals at @p rate jobs/s for @p seconds, drawing each
 * job's template from @p mix (by JobTemplate::weight) and its
 * tenant by kTenantWeights, all from @p seed; then wait for every
 * outstanding job (up to @p drain_limit seconds; a job that never ends
 * counts as failed).
 */
PhaseResult runPhase(const std::string &socket,
                     const std::vector<JobTemplate> &mix, double rate,
                     double seconds, std::uint64_t seed,
                     double drain_limit = 60.0);

} // namespace perfbench

#endif // PERFBENCH_SERVE_LOAD_HH
