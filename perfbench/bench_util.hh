/**
 * @file
 * Small helpers shared by the benchmark program: a steady clock, sample
 * summaries (median, percentiles), an in-memory span log written out as
 * a Chrome trace, and host probes (speed, /proc/stat steal time, peak
 * RSS).
 */

#ifndef PERFBENCH_BENCH_UTIL_HH
#define PERFBENCH_BENCH_UTIL_HH

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Linear-interpolated quantile of @p v (0 <= q <= 1); 0 when empty. */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/**
 * Spans recorded by the benchmark around each call it makes into a
 * layer, kept in memory and written as a Chrome trace at the end.
 * Each span names the operation it belongs to (args.op) and the span
 * that caused it (args.parent), so one operation's spans group.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled), t0_(Clock::now())
    {
    }

    bool enabled() const { return enabled_; }

    /** Open a span; returns its id (0 when tracing is off). */
    std::uint64_t
    begin(const std::string &name, const std::string &layer,
          std::uint64_t op, std::uint64_t parent = 0)
    {
        if (!enabled_)
            return 0;
        Span s;
        s.name = name;
        s.layer = layer;
        s.op = op;
        s.parent = parent;
        s.start = micros();
        spans_.push_back(std::move(s));
        return spans_.size();
    }

    /** Close span @p id, attaching numeric @p args. */
    void
    end(std::uint64_t id,
        std::vector<std::pair<std::string, double>> args = {})
    {
        if (!enabled_ || id == 0 || id > spans_.size())
            return;
        Span &s = spans_[id - 1];
        s.dur = micros() - s.start;
        s.args = std::move(args);
    }

    /** Write every span as Chrome-trace "X" events (one tid per layer). */
    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        std::map<std::string, int> tids;
        for (const auto &s : spans_)
            tids.emplace(s.layer, static_cast<int>(tids.size()) + 1);
        out << "{\"traceEvents\":[\n";
        out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
               "\"tid\":0,\"args\":{\"name\":\"perfbench\"}}";
        for (const auto &[layer, tid] : tids)
            out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,"
                   "\"tid\":"
                << tid << ",\"args\":{\"name\":\"" << layer << "\"}}";
        char buf[64];
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << ",\n{\"name\":\"" << s.name << "\",\"cat\":\""
                << s.layer << "\",\"ph\":\"X\",\"pid\":2,\"tid\":"
                << tids.at(s.layer) << ",\"ts\":" << s.start
                << ",\"dur\":" << s.dur << ",\"args\":{\"id\":" << i + 1
                << ",\"op\":" << s.op << ",\"parent\":" << s.parent;
            for (const auto &[k, v] : s.args) {
                std::snprintf(buf, sizeof buf, "%.17g", v);
                out << ",\"" << k << "\":" << buf;
            }
            out << "}}";
        }
        out << "\n]}\n";
        return static_cast<bool>(out);
    }

  private:
    struct Span
    {
        std::string name;
        std::string layer;
        std::uint64_t op = 0;
        std::uint64_t parent = 0;
        std::uint64_t start = 0;
        std::uint64_t dur = 0;
        std::vector<std::pair<std::string, double>> args;
    };

    std::uint64_t
    micros() const
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - t0_)
                .count());
    }

    bool enabled_;
    Clock::time_point t0_;
    std::vector<Span> spans_;
};

namespace probe_detail
{
/** Registers and a 1 MiB memory the probe's handlers work on. */
struct State
{
    std::uint64_t regs[16] = {};
    std::vector<std::uint64_t> mem = std::vector<std::uint64_t>(1 << 17, 3);
};

/** One of 1024 distinct handlers (distinct code, branches, memory). */
template <int N>
void
handler(State &s)
{
    std::uint64_t v = s.regs[N % 16] + N;
    v = v * (2 * N + 1) + (v >> (N % 13 + 1));
    if ((v ^ N) & 1)
        s.regs[(N * 7) % 16] += v;
    else
        s.regs[(N * 3) % 16] ^= v >> 3;
    std::uint64_t &m = s.mem[(v + N * 64) & (s.mem.size() - 1)];
    if (m % (N % 7 + 2) == 0)
        m += v ^ (N * 0x9e3779b9ULL);
    else
        m = (m >> 1) + s.regs[(N * 5) % 16];
    s.regs[(N * 11) % 16] += m & 0xff;
}

template <std::size_t... I>
constexpr auto
table(std::index_sequence<I...>)
{
    return std::array<void (*)(State &), sizeof...(I)>{&handler<I>...};
}
} // namespace probe_detail

/**
 * Host-speed probe. A shared host's speed drifts by tens of percent
 * within and between runs, so host-time metrics are reported at a fixed
 * reference speed: a time is multiplied by kReferenceSec over the probe
 * time measured around it. The probe is interpreter-like work — 60000
 * calls to 1024 distinct handlers in pseudo-random order over a 1 MiB
 * state, branchy and code-heavy like the simulator and the replayer —
 * that shares no code with the repository, so a change to the program
 * never moves it.
 */
class SpeedProbe
{
  public:
    /** Probe time that defines the reference host speed (seconds). */
    static constexpr double kReferenceSec = 2.2e-3;

    /** Time the probe loop @p n times; returns the mean sample time. */
    double
    sample(int n = 1)
    {
        double total = 0.0;
        for (int i = 0; i < n; ++i) {
            times_.push_back(loop(state_));
            total += times_.back();
        }
        return n > 0 ? total / n : kReferenceSec;
    }

    /**
     * Run @p fn between two probe samples; returns the factor that
     * takes a time measured inside it to the reference speed.
     */
    template <class Fn>
    double
    scaled(Fn &&fn)
    {
        const double before = sample();
        fn();
        return 2.0 * kReferenceSec / (before + sample());
    }

    /** Median probe time over kReferenceSec (> 1: slower than reference). */
    double
    slowdown() const
    {
        return times_.empty() ? 1.0 : median(times_) / kReferenceSec;
    }

    std::size_t samples() const { return times_.size(); }

  private:
    static double
    loop(probe_detail::State &state)
    {
        static constexpr auto handlers =
            probe_detail::table(std::make_index_sequence<1024>{});
        std::uint64_t x = 0x2545f4914f6cdd1dULL;
        const auto t0 = Clock::now();
        for (int k = 0; k < 60000; ++k) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            handlers[(x >> 7) & 1023](state);
        }
        return secondsSince(t0);
    }

    probe_detail::State state_;
    std::vector<double> times_;
};

/** Cumulative CPU jiffies from the first line of /proc/stat. */
struct CpuTimes
{
    std::uint64_t total = 0;
    std::uint64_t steal = 0;

    static CpuTimes
    read()
    {
        CpuTimes t;
        std::ifstream in("/proc/stat");
        std::string cpu;
        in >> cpu;
        std::uint64_t v = 0;
        for (int field = 0; field < 10 && (in >> v); ++field) {
            // guest/guest_nice (fields 8, 9) are already in user/nice.
            if (field < 8)
                t.total += v;
            if (field == 7)
                t.steal = v;
        }
        return t;
    }
};

/** Fraction of host CPU time stolen by the hypervisor between a, b. */
inline double
stealFraction(const CpuTimes &a, const CpuTimes &b)
{
    const std::uint64_t total = b.total - a.total;
    return total == 0 ? 0.0
                      : static_cast<double>(b.steal - a.steal) /
                            static_cast<double>(total);
}

/** Peak resident set (VmHWM) of process @p pid, in MiB; 0 if unknown. */
inline double
peakRssMib(const std::string &pid = "self")
{
    std::ifstream in("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kib = 0;
            fields >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}

} // namespace perfbench

#endif // PERFBENCH_BENCH_UTIL_HH
