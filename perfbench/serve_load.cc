#include "serve_load.hh"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <random>
#include <stdexcept>
#include <thread>

#include "bench_util.hh"

extern char **environ;

namespace perfbench
{

namespace svc = rr::svc;

namespace
{

/** A client connection that reads newline-delimited events. */
class Conn
{
  public:
    explicit Conn(const std::string &path)
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (path.size() >= sizeof addr.sun_path)
            return;
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd_ >= 0 &&
            ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }
    ~Conn()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;
    Conn(Conn &&o) noexcept : fd_(o.fd_), buf_(std::move(o.buf_))
    {
        o.fd_ = -1;
    }

    int fd() const { return fd_; }
    bool ok() const { return fd_ >= 0; }

    bool
    send(std::string line)
    {
        line += '\n';
        std::size_t off = 0;
        while (off < line.size()) {
            const ssize_t n = ::send(fd_, line.data() + off,
                                     line.size() - off, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            off += static_cast<std::size_t>(n);
        }
        return true;
    }

    /** Read what is available; append complete lines to @p lines. */
    bool
    drain(std::vector<std::string> &lines)
    {
        char chunk[65536];
        const ssize_t n = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
        if (n == 0)
            return false;
        if (n < 0)
            return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
        buf_.append(chunk, static_cast<std::size_t>(n));
        std::size_t nl;
        while ((nl = buf_.find('\n')) != std::string::npos) {
            lines.push_back(buf_.substr(0, nl));
            buf_.erase(0, nl + 1);
        }
        return true;
    }

    /** Wait up to @p timeout_s for an event named @p event. */
    bool
    await(const std::string &event, double timeout_s)
    {
        const auto t0 = Clock::now();
        std::vector<std::string> lines;
        while (secondsSince(t0) < timeout_s) {
            pollfd p{fd_, POLLIN, 0};
            if (::poll(&p, 1, 50) > 0 && !drain(lines))
                return false;
            for (const auto &line : lines) {
                std::string err;
                const auto ev = svc::parseJson(line, err);
                if (ev && ev->get("event").asString() == event)
                    return true;
            }
            lines.clear();
        }
        return false;
    }

  private:
    int fd_ = -1;
    std::string buf_;
};

bool
exited(pid_t pid)
{
    int status = 0;
    return ::waitpid(pid, &status, WNOHANG) == pid;
}

} // namespace

Daemon::Daemon(const std::string &rrsim, const std::string &socket,
               std::uint32_t exec_jobs, const std::string &log_path)
    : socket_(socket)
{
    ::unlink(socket.c_str());
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    const std::string jobs = std::to_string(exec_jobs);
    std::vector<char *> argv = {
        const_cast<char *>(rrsim.c_str()), const_cast<char *>("serve"),
        const_cast<char *>("--socket"), const_cast<char *>(socket.c_str()),
        const_cast<char *>("--exec-jobs"), const_cast<char *>(jobs.c_str()),
        nullptr};
    // Keep the load generator off the daemon's CPUs: the daemon
    // inherits every CPU but the last, and this thread moves onto the
    // last one, so neither preempts the other mid-measurement.
    cpu_set_t daemon_cpus{};
    if (::sched_getaffinity(0, sizeof savedCpus_, &savedCpus_) == 0 &&
        CPU_COUNT(&savedCpus_) >= 2) {
        int last = 0;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &savedCpus_))
                last = c;
        daemon_cpus = savedCpus_;
        CPU_CLR(last, &daemon_cpus);
        CPU_ZERO(&clientCpus_);
        CPU_SET(last, &clientCpus_);
        pinned_ = ::sched_setaffinity(0, sizeof daemon_cpus,
                                      &daemon_cpus) == 0;
    }
    const int rc = posix_spawn(&pid_, rrsim.c_str(), &fa, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (pinned_)
        ::sched_setaffinity(0, sizeof clientCpus_, &clientCpus_);
    if (rc != 0) {
        pid_ = -1;
        unpin();
        throw std::runtime_error("cannot spawn " + rrsim + ": " +
                                 std::strerror(rc));
    }
    const auto t0 = Clock::now();
    while (secondsSince(t0) < 20.0) {
        if (exited(pid_)) {
            pid_ = -1;
            unpin();
            throw std::runtime_error("rrsim serve exited during start-up");
        }
        Conn c(socket_);
        if (c.ok() && c.send("{\"op\":\"ping\"}") && c.await("pong", 5.0))
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
    unpin();
    throw std::runtime_error("rrsim serve did not answer ping");
}

Daemon::~Daemon()
{
    if (pid_ > 0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
    }
    unpin();
}

void
Daemon::unpin()
{
    if (pinned_)
        ::sched_setaffinity(0, sizeof savedCpus_, &savedCpus_);
    pinned_ = false;
}

double
Daemon::peakRssMib() const
{
    return pid_ > 0 ? perfbench::peakRssMib(std::to_string(pid_)) : 0.0;
}

void
Daemon::stop()
{
    if (pid_ <= 0)
        return;
    {
        Conn c(socket_);
        if (c.ok() && c.send("{\"op\":\"shutdown\",\"drain\":true}"))
            c.await("shutdown", 5.0);
    }
    const auto t0 = Clock::now();
    while (!exited(pid_)) {
        if (secondsSince(t0) > 15.0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    unpin();
}

PhaseResult
runPhase(const std::string &socket, const std::vector<JobTemplate> &mix,
         double rate, double seconds, std::uint64_t seed,
         double drain_limit)
{
    PhaseResult out;

    std::mt19937_64 rng(seed);
    std::exponential_distribution<double> gap(rate);
    std::vector<double> weights;
    for (const auto &jt : mix)
        weights.push_back(jt.weight);
    std::discrete_distribution<std::size_t> pick(weights.begin(),
                                                 weights.end());
    std::discrete_distribution<int> tenant(kTenantWeights.begin(),
                                           kTenantWeights.end());
    for (double t = gap(rng); t < seconds; t += gap(rng)) {
        JobSample s;
        s.scheduled = t;
        s.templ = pick(rng);
        s.tenant = tenant(rng);
        out.jobs.push_back(s);
    }

    std::vector<Conn> conns;
    for (std::size_t i = 0; i < kTenantWeights.size(); ++i) {
        conns.emplace_back(socket);
        if (!conns.back().ok())
            throw std::runtime_error("cannot connect to " + socket);
    }

    const auto t0 = Clock::now();
    std::size_t next = 0, finished = 0;
    const auto fail = [&](JobSample &s, double now, std::string why) {
        if (s.terminal >= 0.0)
            return;
        s.terminal = now;
        s.ok = false;
        s.error = std::move(why);
        ++finished;
    };
    std::vector<std::string> lines;
    while (finished < out.jobs.size()) {
        double now = secondsSince(t0);
        while (next < out.jobs.size() && out.jobs[next].scheduled <= now) {
            JobSample &s = out.jobs[next];
            const JobTemplate &jt = mix[s.templ];
            const std::string line =
                "{\"op\":\"" + jt.kind + "\"," + jt.request +
                ",\"tenant\":\"t" + std::to_string(s.tenant) +
                "\",\"weight\":" +
                std::to_string(kTenantWeights[s.tenant]) + ",\"tag\":\"" +
                std::to_string(next) + "\"}";
            s.sent = secondsSince(t0);
            if (!conns[s.tenant].send(line))
                fail(s, s.sent, "send failed");
            ++next;
            now = secondsSince(t0);
        }
        if (next == out.jobs.size() && now > seconds + drain_limit) {
            for (auto &s : out.jobs)
                fail(s, now, "no terminal event");
            break;
        }

        const double wait =
            next < out.jobs.size()
                ? std::max(0.0, out.jobs[next].scheduled - now)
                : 0.05;
        std::vector<pollfd> fds;
        for (const auto &c : conns)
            fds.push_back({c.fd(), POLLIN, 0});
        const timespec ts{static_cast<time_t>(wait),
                          static_cast<long>(std::fmod(wait, 1.0) * 1e9)};
        if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0)
            continue;
        for (std::size_t i = 0; i < conns.size(); ++i) {
            if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            if (!conns[i].drain(lines))
                throw std::runtime_error("daemon closed the connection");
        }
        now = secondsSince(t0);
        for (const auto &line : lines) {
            std::string err;
            const auto ev = svc::parseJson(line, err);
            if (!ev)
                continue;
            const std::string &tag = ev->get("tag").asString();
            if (tag.empty())
                continue;
            const std::size_t idx = std::stoull(tag);
            if (idx >= out.jobs.size())
                continue;
            JobSample &s = out.jobs[idx];
            const std::string &event = ev->get("event").asString();
            if (event == "accepted") {
                s.accepted = now;
                s.queueDepth = static_cast<std::uint64_t>(
                    ev->get("queueDepth").asInt());
            } else if (event == "running") {
                s.running = now;
            } else if (event == "completed" && s.terminal < 0.0) {
                s.terminal = now;
                s.daemonWall = ev->get("wallSeconds").asDouble();
                s.error = mix[s.templ].check(ev->get("result"));
                s.ok = s.error.empty();
                ++finished;
            } else if (event == "failed" || event == "cancelled" ||
                       event == "rejected") {
                std::string why = event + ": " +
                                  ev->get("error").asString() + " " +
                                  ev->get("message").asString() +
                                  ev->get("reason").asString();
                fail(s, now, why);
            }
        }
        lines.clear();
    }
    for (const auto &s : out.jobs)
        if (s.terminal < 0.0 || s.terminal > seconds)
            ++out.backlogAtEnd;
    return out;
}

} // namespace perfbench
