/**
 * @file
 * The benchmark's own tracing: spans recorded around calls into the
 * simulator's public functions, kept in memory and written out when the
 * benchmark ends, plus aggregate timers for boundaries crossed too
 * often to keep one span per call.
 *
 * Spans are recorded on the calling (main) thread only. A span's parent
 * is the span open when it started, so a parent always encloses its
 * children.
 */

#ifndef DWS_PERFBENCH_SPANS_HH
#define DWS_PERFBENCH_SPANS_HH

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/** @return monotonic host time in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
}

/** One timed call into a layer. */
struct Span
{
    /** Layer-qualified name, e.g. "harness.system_run" (a literal). */
    const char *name;
    std::int64_t startNs;
    std::int64_t endNs;
    /** Index of the enclosing span, -1 for a root. */
    std::int32_t parent;
    /** Measured pass the span belongs to. */
    std::int32_t pass;
};

/** In-memory span store; recording is a no-op while disabled. */
class SpanLog
{
  public:
    void setEnabled(bool on) { on_ = on; }
    bool enabled() const { return on_; }
    void setPass(int pass) { pass_ = pass; }

    /** Open a span. @return its index, or -1 while disabled. */
    int
    open(const char *name)
    {
        if (!on_)
            return -1;
        const int id = static_cast<int>(spans_.size());
        spans_.push_back(Span{name, nowNs(), 0,
                              stack_.empty() ? -1 : stack_.back(), pass_});
        stack_.push_back(id);
        return id;
    }

    /** Close the span `id` returned by open(). */
    void
    close(int id)
    {
        if (id < 0)
            return;
        spans_[static_cast<std::size_t>(id)].endNs = nowNs();
        stack_.pop_back();
    }

    /** @return durations in ms of every span named `name` in `pass`. */
    std::vector<double>
    durationsMs(const std::string &name, int pass) const
    {
        std::vector<double> out;
        for (const Span &s : spans_)
            if (s.pass == pass && name == s.name)
                out.push_back(double(s.endNs - s.startNs) * 1e-6);
        return out;
    }

    /** @return summed duration in ms of spans named `name` in `pass`. */
    double
    totalMs(const std::string &name, int pass) const
    {
        double t = 0.0;
        for (double d : durationsMs(name, pass))
            t += d;
        return t;
    }

    /**
     * Write every span as one JSON object per line (times relative to
     * the first span). @return false if the file cannot be written.
     */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        const std::int64_t t0 = spans_.empty() ? 0 : spans_[0].startNs;
        for (std::size_t i = 0; i < spans_.size(); i++) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "{\"id\":%zu,\"name\":\"%s\",\"pass\":%d,"
                         "\"parent\":%d,\"start_ns\":%lld,"
                         "\"end_ns\":%lld}\n",
                         i, s.name, s.pass, s.parent,
                         (long long)(s.startNs - t0),
                         (long long)(s.endNs - t0));
        }
        return std::fclose(f) == 0;
    }

  private:
    bool on_ = false;
    int pass_ = 0;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span around one call. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name)
        : log_(log), id_(log.open(name))
    {}
    ~ScopedSpan() { log_.close(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog &log_;
    int id_;
};

/**
 * Aggregate timer for a boundary crossed millions of times (one
 * MemSystem::accessData per simulated access): call count, total time
 * and a latency histogram exact to 1 ns below 4 us, in power-of-two
 * buckets above.
 */
class CallTimer
{
  public:
    void
    add(std::int64_t ns)
    {
        calls_++;
        totalNs_ += ns;
        const std::uint64_t v = ns < 0 ? 0 : std::uint64_t(ns);
        if (v < kFine) {
            fine_[v]++;
        } else {
            int b = 0;
            while (b + 1 < int(coarse_.size()) && (kFine << (b + 1)) <= v)
                b++;
            coarse_[std::size_t(b)]++;
        }
    }

    std::uint64_t calls() const { return calls_; }
    double meanNs() const { return calls_ ? double(totalNs_) / calls_ : 0.0; }

    /** @return the q-quantile (0..1) in ns; a coarse bucket's lower edge. */
    double
    quantileNs(double q) const
    {
        if (!calls_)
            return 0.0;
        const std::uint64_t rank =
                std::min<std::uint64_t>(calls_ - 1,
                                        std::uint64_t(q * double(calls_)));
        std::uint64_t seen = 0;
        for (std::uint64_t v = 0; v < kFine; v++) {
            seen += fine_[v];
            if (seen > rank)
                return double(v);
        }
        for (std::size_t b = 0; b < coarse_.size(); b++) {
            seen += coarse_[b];
            if (seen > rank)
                return double(kFine << b);
        }
        return double(kFine << (coarse_.size() - 1));
    }

  private:
    static constexpr std::uint64_t kFine = 4096;
    std::uint64_t calls_ = 0;
    std::int64_t totalNs_ = 0;
    std::vector<std::uint64_t> fine_ = std::vector<std::uint64_t>(kFine);
    std::array<std::uint64_t, 24> coarse_{};
};

} // namespace perfbench

#endif // DWS_PERFBENCH_SPANS_HH
