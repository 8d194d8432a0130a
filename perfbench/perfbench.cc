/**
 * @file
 * The repository benchmark (see README.md): runs one workload for a
 * host-time budget, checks every output, and prints one JSON line of
 * metrics as its last line of standard output.
 *
 *   dws_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 [--smoke] [--digests FILE] [--record-digests FILE]
 *                 [--spans-out FILE] [--tmp-dir DIR]
 *
 * Workloads: fig13-sweep, dws-serial, conv-serial, fabric-traffic.
 * With --trace 0 the end-to-end metrics are printed; with --trace 1
 * the per-layer metrics, taken from spans the benchmark records around
 * its calls into the simulator (every other pass is traced, so the
 * span overhead is measured in the same process). Every number is
 * measured from outside the simulator, around calls to its public
 * functions.
 *
 * Failures are counted, never fatal: a failed validate(), a non-Ok
 * outcome, a digest mismatch, a warm cache hit whose fingerprint
 * differs from its cold cell, or a fabric run that does not drain each
 * add one to "failed".
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/executor.hh"
#include "harness/sweep.hh"
#include "harness/system.hh"
#include "kernels/kernel.hh"
#include "mem/memsys.hh"
#include "serve/result_cache.hh"
#include "sim/abort.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "spans.hh"
#include "trace/trace.hh"

using namespace dws;
using namespace perfbench;

namespace {

// --- metric catalogue -------------------------------------------------

/** One printed metric; must match BENCHMARK.json (run.py checks). */
struct MetricDecl
{
    const char *name;
    const char *unit;
    bool endToEnd;
};

constexpr MetricDecl kMetrics[] = {
    {"wall_s", "s", true},
    {"cpu_s", "s", true},
    {"setup_s", "s", true},
    {"peak_rss_mb", "MB", true},
    {"sim_cycles", "cycles", true},
    {"sim_cycles_per_s", "1/s", true},
    {"mem_accesses_per_s", "1/s", true},

    {"harness.system_ctor_ms", "ms", false},
    {"kernels.build_ms", "ms", false},
    {"kernels.validate_ms", "ms", false},
    {"harness.run_ns_per_sim_cycle", "ns", false},
    {"harness.run_ns_per_issued_instr", "ns", false},
    {"harness.executor.queue_wait_ms_p50", "ms", false},
    {"harness.executor.queue_wait_ms_p90", "ms", false},
    {"harness.executor.worker_util", "frac", false},
    {"harness.executor.critical_cell_ms", "ms", false},
    {"scalar_instrs_per_s", "1/s", false},
    {"wpu.issued_instrs", "count", false},
    {"wpu.avg_simd_width", "lanes", false},
    {"wpu.mem_stall_frac", "frac", false},
    {"wpu.divergent_branches", "count", false},
    {"wpu.branch_splits", "count", false},
    {"wpu.mem_splits", "count", false},
    {"wpu.pc_merges", "count", false},
    {"wpu.stack_merges", "count", false},
    {"wpu.wst_full_denials", "count", false},
    {"mem.l1d_accesses", "count", false},
    {"mem.l1d_miss_rate", "frac", false},
    {"mem.l1_mshr_full", "count", false},
    {"mem.bank_conflicts", "count", false},
    {"mem.coalesced", "count", false},
    {"mem.l2_miss_rate", "frac", false},
    {"mem.dram_accesses", "count", false},
    {"mem.coherence_recalls", "count", false},
    {"mem.retry_frac", "frac", false},
    {"mem.l1_hit_frac", "frac", false},
    {"mem_access_ns_p50", "ns", false},
    {"mem_access_ns_p99", "ns", false},
    {"sim.run_until_ns", "ns", false},
    {"sim.events_pending_max", "count", false},
    {"serve.insert_ms_p50", "ms", false},
    {"serve.lookup_ms_p50", "ms", false},
    {"serve.warm_sweep_ms", "ms", false},
    {"serve.hit_frac", "frac", false},
    {"serve.cold_over_warm", "x", false},
    {"trace.events_overhead_frac", "frac", false},
    {"trace.records_per_sim_cycle", "1/cycle", false},
    {"bench.span_overhead_frac", "frac", false},
    {"revive_hmean_speedup", "x", false},
    {"hmean_err_vs_paper", "frac", false},
    {"fail_frac", "frac", false},
};

/** The paper's Fig. 13 h-mean speedup of DWS.ReviveSplit over Conv. */
constexpr double kPaperReviveHmean = 1.71;

// --- small helpers ----------------------------------------------------

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double median(const std::vector<double> &v) { return quantile(v, 0.5); }

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/**
 * Digest of a kernel cell: FNV-1a 64 over the energy-stripped
 * RunStats::fingerprint(), the rule of the golden-fingerprint test
 * (energy is the one field derived by floating-point arithmetic).
 */
std::string
digestOf(const RunStats &stats)
{
    std::string fp = stats.fingerprint();
    const std::size_t at = fp.find(" energy");
    if (at != std::string::npos) {
        const std::size_t end = fp.find('|', at);
        fp.erase(at, end == std::string::npos ? std::string::npos
                                              : end - at);
    }
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : fp) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)h);
    return buf;
}

// --- run-wide state ---------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 12345;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    std::string digestsIn;
    std::string digestsOut;
    std::string spansOut;
    std::string tmpDir = ".bench_build/tmp";
};

SpanLog spans;

/**
 * Recorded per-cell digests. At the recorded seed every cell must match
 * its entry; at any seed every pass must reproduce the first pass.
 */
class Digests
{
  public:
    /** @return false with a message in `err` if `path` is malformed. */
    bool
    load(const std::string &path, std::string &err)
    {
        std::ifstream in(path);
        if (!in) {
            err = "cannot read digests file " + path;
            return false;
        }
        loaded_ = true;
        std::string line;
        while (std::getline(in, line)) {
            if (line.rfind("# seed ", 0) == 0) {
                seed_ = std::strtoull(line.c_str() + 7, nullptr, 10);
                continue;
            }
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream ss(line);
            std::string wl, cell, hex;
            if (!(ss >> wl >> cell >> hex)) {
                err = "malformed digests line: " + line;
                return false;
            }
            expected_[wl + " " + cell] = hex;
        }
        return true;
    }

    void
    begin(const std::string &workload, std::uint64_t seed)
    {
        workload_ = workload;
        atRecordedSeed_ = loaded_ && seed == seed_;
    }

    /** @return true if `cell`'s digest is as expected. */
    bool
    check(const std::string &cell, const std::string &hex)
    {
        const std::string key = workload_ + " " + cell;
        const auto [it, fresh] = seen_.emplace(key, hex);
        if (!fresh && it->second != hex)
            return false;
        if (!atRecordedSeed_)
            return true;
        const auto e = expected_.find(key);
        return e != expected_.end() && e->second == hex;
    }

    /** Write every digest seen, in the load() format. */
    bool
    write(const std::string &path, std::uint64_t seed) const
    {
        std::ofstream out(path);
        out << "# seed " << seed << "\n";
        for (const auto &[key, hex] : seen_)
            out << key << " " << hex << "\n";
        return bool(out);
    }

  private:
    std::uint64_t seed_ = 0;
    bool loaded_ = false;
    bool atRecordedSeed_ = false;
    std::string workload_;
    std::map<std::string, std::string> expected_;
    std::map<std::string, std::string> seen_;
};

Digests digests;

/** What one run measured. */
struct Report
{
    int attempted = 0;
    int failed = 0;
    /** Per-pass end-to-end inputs (every pass). */
    std::vector<double> wall, cpu, setup, cycles, cyclesPerS, accessesPerS;
    /** Wall time of traced / untraced passes (span overhead). */
    std::vector<double> tracedWall, plainWall;
    /** Per-layer values, one per traced pass (median reported). */
    std::map<std::string, std::vector<double>> layer;

    void
    check(bool ok, const std::string &what)
    {
        attempted++;
        if (!ok) {
            failed++;
            std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
        }
    }

    void put(const std::string &name, double v) { layer[name].push_back(v); }
};

/** What a workload's pass reports back to the measuring loop. */
struct PassWork
{
    double simCycles = 0.0;
    double memAccesses = 0.0;
    double scalarInstrs = 0.0;
};

/**
 * Run passes until the budget is spent (one pass in smoke mode). In a
 * traced run even passes record spans and odd passes do not, and at
 * least two passes run so both kinds exist.
 */
template <class F>
void
measure(const Args &a, Report &r, F runPass)
{
    const std::int64_t deadline =
            nowNs() + std::int64_t(a.seconds * 1e9);
    for (int pass = 0;; pass++) {
        const bool traced = a.trace && pass % 2 == 0;
        spans.setEnabled(traced);
        spans.setPass(pass);
        const double cpu0 = cpuSeconds();
        const std::int64_t t0 = nowNs();
        const PassWork w = runPass(traced, pass);
        const double wall = double(nowNs() - t0) * 1e-9;
        r.wall.push_back(wall);
        r.cpu.push_back(cpuSeconds() - cpu0);
        r.cycles.push_back(w.simCycles);
        r.cyclesPerS.push_back(w.simCycles / wall);
        r.accessesPerS.push_back(w.memAccesses / wall);
        (traced ? r.tracedWall : r.plainWall).push_back(wall);
        std::fprintf(stderr, "perfbench: pass %d%s wall %.3f s\n", pass,
                     traced ? " (traced)" : "", wall);
        if (traced && w.scalarInstrs > 0)
            r.put("scalar_instrs_per_s", w.scalarInstrs / wall);
        if (a.smoke || (nowNs() >= deadline && (!a.trace || pass >= 1)))
            break;
    }
    spans.setEnabled(false);
}

/**
 * Set up what one pass needs and tear it down again, at least five
 * times and for at least 0.5 s (once in smoke mode); setup_s is the
 * median. Traced runs record the rounds' spans under negative pass
 * ids, from which the set-up layer metrics are taken, and after each
 * timed round run `probe`, whose time is not part of setup_s.
 */
template <class F>
void
measureSetup(const Args &a, Report &r, F setupOnce,
             const std::function<void()> &probe = {})
{
    const std::int64_t until = nowNs() + 500'000'000;
    spans.setEnabled(a.trace);
    for (int round = 0;; round++) {
        const int pass = -1 - round;
        spans.setPass(pass);
        const std::int64_t t0 = nowNs();
        setupOnce();
        r.setup.push_back(double(nowNs() - t0) * 1e-9);
        if (a.trace) {
            if (probe)
                probe();
            r.put("harness.system_ctor_ms",
                  spans.totalMs("harness.system_ctor", pass));
            r.put("kernels.build_ms", spans.totalMs("kernels.build", pass));
        }
        if (a.smoke || (round >= 4 && nowNs() >= until))
            break;
    }
    spans.setEnabled(false);
}

// --- kernel cells -----------------------------------------------------

KernelParams
kernelParams(const SystemConfig &cfg, KernelScale scale)
{
    KernelParams kp;
    kp.scale = scale;
    kp.seed = cfg.seed;
    kp.subdivThreshold = cfg.policy.subdivMaxPostBlock;
    kp.launchThreads = cfg.totalThreads();
    return kp;
}

/** A built, not yet run, cell. */
struct BuiltCell
{
    std::unique_ptr<Kernel> kernel;
    std::unique_ptr<System> sys;
};

/**
 * makeKernel + the System constructor, as runKernel does; the
 * constructor builds the kernel's program.
 */
BuiltCell
buildCell(const std::string &name, const SystemConfig &cfg,
          KernelScale scale)
{
    BuiltCell c;
    c.kernel = makeKernel(name, kernelParams(cfg, scale));
    if (!c.kernel)
        fatal("unknown kernel '%s'", name.c_str());
    ScopedSpan s(spans, "harness.system_ctor");
    c.sys = std::make_unique<System>(cfg, *c.kernel);
    return c;
}

/**
 * Build and drop every cell of a pass on this thread: the set-up a pass
 * pays (fig13-sweep's workers build their own copies).
 */
void
buildAll(const std::vector<SweepJob> &jobs)
{
    for (const SweepJob &job : jobs) {
        ScopedRecoverableAborts recoverable;
        try {
            (void)buildCell(job.kernel, job.cfg, job.scale);
        } catch (const SimAbortError &) {
            // The measured pass reports the failure.
        }
    }
}

/**
 * Time Kernel::buildProgram of every cell on its own. The System
 * constructor builds the program too, so this is the share of
 * harness.system_ctor that the program build takes; it runs outside
 * every timed set-up round and pass.
 */
void
probeBuild(const std::vector<SweepJob> &jobs)
{
    for (const SweepJob &job : jobs) {
        ScopedRecoverableAborts recoverable;
        try {
            const std::unique_ptr<Kernel> k =
                    makeKernel(job.kernel, kernelParams(job.cfg, job.scale));
            if (!k)
                continue;
            ScopedSpan s(spans, "kernels.build");
            (void)k->buildProgram();
        } catch (const SimAbortError &) {
            // The measured pass reports the failure.
        }
    }
}

/** One kernel simulated on the calling thread. */
struct CellRun
{
    RunStats stats;
    bool ok = false;
    std::string error;
    double runS = 0.0;
};

CellRun
runCell(const std::string &name, const SystemConfig &cfg, KernelScale scale,
        std::unique_ptr<TraceSink> sink = nullptr)
{
    CellRun c;
    ScopedRecoverableAborts recoverable;
    try {
        BuiltCell b = buildCell(name, cfg, scale);
        if (sink)
            b.sys->attachTraceSink(std::move(sink));
        const std::int64_t t1 = nowNs();
        {
            ScopedSpan s(spans, "harness.system_run");
            c.stats = b.sys->run();
        }
        c.runS = double(nowNs() - t1) * 1e-9;
        ScopedSpan s(spans, "kernels.validate");
        c.ok = b.kernel->validate(b.sys->memory());
        if (!c.ok)
            c.error = "output failed validation";
    } catch (const SimAbortError &e) {
        c.error = std::string(simOutcomeName(e.outcome)) + ": " + e.what();
    }
    return c;
}

/** Sums of the RunStats counters the per-layer metrics read. */
struct StatsSum
{
    double cycles = 0, issued = 0, scalar = 0, memStall = 0, wpuCycles = 0;
    double divBranches = 0, branchSplits = 0, memSplits = 0;
    double pcMerges = 0, stackMerges = 0, wstDenials = 0;
    double l1dAccesses = 0, l1dMisses = 0, mshrFull = 0, bankConflicts = 0;
    double coalesced = 0, l2Accesses = 0, l2Misses = 0, dram = 0, recalls = 0;

    void
    add(const RunStats &s)
    {
        cycles += double(s.cycles);
        for (const WpuStats &w : s.wpus) {
            issued += double(w.issuedInstrs);
            scalar += double(w.scalarInstrs);
            memStall += double(w.memStallCycles);
            wpuCycles += double(w.totalCycles());
            divBranches += double(w.divergentBranches);
            branchSplits += double(w.branchSplits);
            memSplits += double(w.memSplits);
            pcMerges += double(w.pcMerges);
            stackMerges += double(w.stackMerges);
            wstDenials += double(w.wstFullDenials);
        }
        addMem(s.dcaches, s.mem);
    }

    void
    addMem(const std::vector<CacheStats> &dcaches, const MemStats &m)
    {
        for (const CacheStats &d : dcaches) {
            l1dAccesses += double(d.accesses());
            l1dMisses += double(d.misses());
            mshrFull += double(d.mshrFullEvents);
            bankConflicts += double(d.bankConflicts);
            coalesced += double(d.coalescedRequests);
        }
        l2Accesses += double(m.l2.accesses());
        l2Misses += double(m.l2.misses());
        dram += double(m.dramAccesses);
        recalls += double(m.coherenceRecalls);
    }

    void
    report(Report &r) const
    {
        r.put("wpu.issued_instrs", issued);
        r.put("wpu.avg_simd_width", ratio(scalar, issued));
        r.put("wpu.mem_stall_frac", ratio(memStall, wpuCycles));
        r.put("wpu.divergent_branches", divBranches);
        r.put("wpu.branch_splits", branchSplits);
        r.put("wpu.mem_splits", memSplits);
        r.put("wpu.pc_merges", pcMerges);
        r.put("wpu.stack_merges", stackMerges);
        r.put("wpu.wst_full_denials", wstDenials);
        reportMem(r);
    }

    void
    reportMem(Report &r) const
    {
        r.put("mem.l1d_accesses", l1dAccesses);
        r.put("mem.l1d_miss_rate", ratio(l1dMisses, l1dAccesses));
        r.put("mem.l1_mshr_full", mshrFull);
        r.put("mem.bank_conflicts", bankConflicts);
        r.put("mem.coalesced", coalesced);
        r.put("mem.l2_miss_rate", ratio(l2Misses, l2Accesses));
        r.put("mem.dram_accesses", dram);
        r.put("mem.coherence_recalls", recalls);
    }
};

const std::vector<std::string> &
kernelList(const Args &a)
{
    static const std::vector<std::string> smoke = {"SVM"};
    return a.smoke ? smoke : kernelNames();
}

// --- counting trace sink (trace.* metrics) ----------------------------

class CountingSink : public TraceSink
{
  public:
    explicit CountingSink(std::uint64_t &count) : count_(count) {}
    void begin(const TraceFileHeader &) override {}
    void write(const TraceRecord *, std::size_t n) override { count_ += n; }
    void end(const TraceFileFooter &) override {}

  private:
    std::uint64_t &count_;
};

/**
 * One cell run three times with cfg.traceMode = events into a counting
 * sink and three times untraced, alternating: host-time overhead of
 * event tracing and records per simulated cycle. The traced run must
 * leave the fingerprint unchanged.
 */
void
traceProbe(const SystemConfig &base, const std::string &kernel,
           KernelScale scale, Report &r)
{
    std::vector<double> on, off;
    std::uint64_t records = 0;
    Cycle cycles = 0;
    for (int i = 0; i < 3; i++) {
        CellRun plain = runCell(kernel, base, scale);
        SystemConfig cfg = base;
        cfg.traceMode = int(TraceMode::Events);
        records = 0;
        CellRun traced = runCell(kernel, cfg, scale,
                                 std::make_unique<CountingSink>(records));
        r.check(plain.ok && traced.ok &&
                        traced.stats.fingerprint() ==
                                plain.stats.fingerprint(),
                "trace probe " + kernel + ": " + plain.error +
                        traced.error);
        off.push_back(plain.runS);
        on.push_back(traced.runS);
        cycles = plain.stats.cycles;
    }
    r.put("trace.events_overhead_frac", median(on) / median(off) - 1.0);
    r.put("trace.records_per_sim_cycle", ratio(double(records), double(cycles)));
}

// --- serial kernel workloads ------------------------------------------

/** dws-serial / conv-serial: every kernel, Default inputs, one thread. */
void
runSerial(const Args &a, const PolicyConfig &pol, const std::string &label,
          Report &r)
{
    SystemConfig cfg = SystemConfig::table3(pol);
    cfg.seed = a.seed;
    const KernelScale scale = KernelScale::Default;
    std::vector<SweepJob> jobs;
    for (const std::string &k : kernelList(a))
        jobs.push_back(SweepJob{k, cfg, scale, label});

    // Untimed warm-up cell: first-touch page faults and lazy
    // initialisation stay out of the measured passes.
    if (!a.smoke) {
        const CellRun warm = runCell("SVM", cfg, scale);
        r.check(warm.ok, label + "/SVM warm-up: " + warm.error);
    }
    measureSetup(
            a, r, [&] { buildAll(jobs); }, [&] { probeBuild(jobs); });

    measure(a, r, [&](bool traced, int pass) {
        StatsSum sum;
        for (const SweepJob &job : jobs) {
            const CellRun c = runCell(job.kernel, cfg, scale);
            const std::string cell = label + "/" + job.kernel;
            r.check(c.ok && digests.check(cell, digestOf(c.stats)),
                    cell + " " + c.error);
            sum.add(c.stats);
        }
        if (traced) {
            r.put("kernels.validate_ms",
                  spans.totalMs("kernels.validate", pass));
            const double runNs = spans.totalMs("harness.system_run", pass) * 1e6;
            r.put("harness.run_ns_per_sim_cycle", ratio(runNs, sum.cycles));
            r.put("harness.run_ns_per_issued_instr", ratio(runNs, sum.issued));
            sum.report(r);
        }
        return PassWork{sum.cycles, sum.l1dAccesses, sum.scalar};
    });

    if (a.trace && label == "DWS.ReviveSplit") {
        const std::string k = a.smoke ? "SVM" : "Short";
        traceProbe(cfg, k, scale, r);
    }
}

// --- fig13-sweep --------------------------------------------------------

/** Result-cache key of a cell, from the canonical config key. */
std::uint64_t
cellKey(const SweepJob &job)
{
    return fnv1a(job.kernel + "|tiny|" + job.cfg.cacheKey());
}

/**
 * Submit every job, then poll the futures to see when each completes.
 * @return the results; `queueWaitMs` gets each job's time from submit
 *         to completion minus the executor's own per-job wall time.
 */
std::vector<JobResult>
submitAndWatch(SweepExecutor &ex, const std::vector<SweepJob> &jobs,
               std::vector<double> &queueWaitMs)
{
    std::vector<std::future<JobResult>> futs;
    std::vector<std::int64_t> submitted;
    for (const SweepJob &job : jobs) {
        ScopedSpan s(spans, "harness.executor.submit");
        submitted.push_back(nowNs());
        futs.push_back(ex.submit(job));
    }
    std::vector<std::int64_t> done(jobs.size(), 0);
    for (std::size_t left = jobs.size(); left;) {
        for (std::size_t i = 0; i < futs.size(); i++) {
            if (done[i] == 0 && futs[i].wait_for(std::chrono::seconds(0)) ==
                                        std::future_status::ready) {
                done[i] = nowNs();
                left--;
            }
        }
        if (left)
            std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    std::vector<JobResult> out;
    for (std::size_t i = 0; i < futs.size(); i++) {
        out.push_back(futs[i].get());
        queueWaitMs.push_back(double(done[i] - submitted[i]) * 1e-6 -
                              out.back().wallMs);
    }
    return out;
}

/** @return the Revive-over-Conv h-mean of one set of per-cell stats. */
double
reviveHmean(const std::map<std::string, PolicyRun> &runs)
{
    const auto conv = runs.find("Conv"), revive = runs.find("Revive");
    if (conv == runs.end() || revive == runs.end())
        return 0.0;
    return hmeanSpeedup(conv->second, revive->second);
}

/**
 * Fill a fresh result cache in `dir` with the cold results, then read
 * every cell back through a second, freshly opened cache (the warm
 * pass). Each hit must carry its cold cell's fingerprint, and the warm
 * h-mean must equal the cold one. @return the number of hits.
 */
std::uint64_t
cacheRoundTrip(const std::string &dir, const std::vector<SweepJob> &jobs,
               const std::vector<JobResult> &cold, double coldHmean,
               Report &r)
{
    std::filesystem::remove_all(dir);
    std::string err;
    {
        ResultCache cache(dir);
        {
            ScopedSpan s(spans, "serve.open");
            r.check(cache.open(err), "cache open: " + err);
        }
        for (std::size_t i = 0; i < jobs.size(); i++) {
            const RunResult &run = cold[i].run;
            ScopedSpan s(spans, "serve.insert");
            cache.insert(cellKey(jobs[i]),
                         ResultCache::Entry{jobs[i].kernel, "tiny", run.policy,
                                            run.stats.cycles,
                                            run.stats.energyNj,
                                            cold[i].wallMs,
                                            run.stats.fingerprint()});
        }
    }

    ScopedSpan warmSpan(spans, "serve.warm_sweep");
    ResultCache cache(dir);
    {
        ScopedSpan s(spans, "serve.open");
        r.check(cache.open(err), "warm cache open: " + err);
    }
    std::uint64_t hits = 0;
    std::map<std::string, PolicyRun> warm;
    for (std::size_t i = 0; i < jobs.size(); i++) {
        const SweepJob &job = jobs[i];
        ResultCache::Entry e;
        bool hit;
        {
            ScopedSpan s(spans, "serve.lookup");
            hit = cache.lookup(cellKey(job), e);
        }
        hits += hit;
        RunStats stats;
        const bool same =
                hit && RunStats::parseFingerprint(e.fingerprint, stats) &&
                e.fingerprint == cold[i].run.stats.fingerprint();
        r.check(same, "warm hit " + job.label + "/" + job.kernel);
        if (same)
            warm[job.label].stats[job.kernel] = stats;
    }
    r.check(reviveHmean(warm) == coldHmean, "warm h-mean differs from cold");
    return hits;
}

void
runFig13(const Args &a, Report &r)
{
    const std::vector<std::pair<std::string, PolicyConfig>> rows = {
        {"Conv", PolicyConfig::conv()},
        {"BranchOnly", PolicyConfig::branchOnly()},
        {"MemOnly", PolicyConfig::reviveMemOnly()},
        {"Aggress", PolicyConfig::dws(SplitScheme::Aggressive)},
        {"Lazy", PolicyConfig::dws(SplitScheme::Lazy)},
        {"Revive", PolicyConfig::reviveSplit()},
        {"Slip", PolicyConfig::adaptiveSlip()},
        {"Slip.BB", PolicyConfig::slipBranchBypassCfg()},
    };
    const int workers =
            std::max(1, std::min(4, int(std::thread::hardware_concurrency())));
    std::vector<SweepJob> jobs;
    for (const auto &[label, pol] : rows) {
        // Smoke: only the two rows the h-mean needs.
        if (a.smoke && label != "Conv" && label != "Revive")
            continue;
        SystemConfig cfg = SystemConfig::table3(pol);
        cfg.seed = a.seed;
        for (const std::string &k : kernelList(a))
            jobs.push_back(SweepJob{k, cfg, KernelScale::Tiny, label});
    }
    std::filesystem::create_directories(a.tmpDir);

    measureSetup(a, r, [&] {
        {
            ScopedSpan s(spans, "harness.executor_ctor");
            SweepExecutor ex(workers);
        }
        buildAll(jobs);
    }, [&] { probeBuild(jobs); });

    measure(a, r, [&](bool traced, int pass) {
        SweepExecutor ex(workers);
        const std::int64_t tCold = nowNs();
        std::vector<double> queueWaitMs;
        std::vector<JobResult> results;
        {
            ScopedSpan s(spans, "harness.executor.batch");
            results = traced ? submitAndWatch(ex, jobs, queueWaitMs)
                             : ex.runBatch(jobs);
        }
        const double coldMs = double(nowNs() - tCold) * 1e-6;

        std::map<std::string, PolicyRun> cold;
        StatsSum sum;
        double cellMs = 0.0, criticalMs = 0.0;
        for (std::size_t i = 0; i < jobs.size(); i++) {
            const SweepJob &job = jobs[i];
            const JobResult &res = results[i];
            const std::string cell = job.label + "/" + job.kernel;
            r.check(res.ok() && res.run.valid &&
                            digests.check(cell, digestOf(res.run.stats)),
                    cell + " " + simOutcomeName(res.outcome) + " " +
                            res.error);
            if (res.ok())
                cold[job.label].stats[job.kernel] = res.run.stats;
            sum.add(res.run.stats);
            cellMs += res.wallMs;
            criticalMs = std::max(criticalMs, res.wallMs);
        }
        const double hmean = reviveHmean(cold);

        const std::string dir = a.tmpDir + "/cache-" +
                                std::to_string(getpid()) + "-" +
                                std::to_string(pass);
        const std::uint64_t hits = cacheRoundTrip(dir, jobs, results, hmean, r);
        std::filesystem::remove_all(dir);

        if (traced) {
            const double warmMs = spans.totalMs("serve.warm_sweep", pass);
            r.put("harness.run_ns_per_sim_cycle",
                  ratio(cellMs * 1e6, sum.cycles));
            r.put("harness.run_ns_per_issued_instr",
                  ratio(cellMs * 1e6, sum.issued));
            r.put("harness.executor.queue_wait_ms_p50",
                  quantile(queueWaitMs, 0.5));
            r.put("harness.executor.queue_wait_ms_p90",
                  quantile(queueWaitMs, 0.9));
            r.put("harness.executor.worker_util",
                  ratio(cellMs, workers * coldMs));
            r.put("harness.executor.critical_cell_ms", criticalMs);
            r.put("serve.insert_ms_p50",
                  median(spans.durationsMs("serve.insert", pass)));
            r.put("serve.lookup_ms_p50",
                  median(spans.durationsMs("serve.lookup", pass)));
            r.put("serve.warm_sweep_ms", warmMs);
            r.put("serve.hit_frac", ratio(double(hits), double(jobs.size())));
            r.put("serve.cold_over_warm", ratio(coldMs, warmMs));
            r.put("revive_hmean_speedup", hmean);
            r.put("hmean_err_vs_paper",
                  std::fabs(hmean - kPaperReviveHmean) / kPaperReviveHmean);
            sum.report(r);
        }
        return PassWork{sum.cycles, sum.l1dAccesses, sum.scalar};
    });
}

// --- fabric-traffic -----------------------------------------------------

constexpr int kFabricWpus = 16;
constexpr std::uint64_t kLineBytes = 128;

/*
 * The traffic shape. Each client stands for one WPU: kFabricGroups SIMD
 * groups, each with one memory instruction of kBurstLines lines in
 * flight; retried lines are re-attempted together at the earliest retry
 * hint, and the next instruction issues when the last line's data is
 * ready, as Wpu::issueLines does. An instruction either streams through
 * a region larger than the L1 (its lines miss), reuses a region that
 * fits in the L1 (they hit), or touches the shared hot set. The
 * constants are fitted to the eight kernels' pooled L1D statistics
 * (README.md, "fabric-traffic"); the hot set's writes are the one
 * departure from the kernels' traffic.
 */
/** SIMD groups per client: Table 3's warps per WPU. */
constexpr int kFabricGroups = 4;
/** Lines per memory instruction: Table 3's SIMD width, one per lane. */
constexpr std::size_t kBurstLines = 16;
/** Lines of each client's streamed region (L1D: 256 lines). */
constexpr std::uint64_t kStreamLines = 320;
/** Lines of each client's reused region. */
constexpr std::uint64_t kReuseLines = 128;
/** Lines of the shared hot set every client reads and writes. */
constexpr std::uint64_t kHotLines = 256;
/** Percent of instructions that stream / touch the hot set. */
constexpr std::uint64_t kStreamPct = 18;
constexpr std::uint64_t kHotPct = 5;
/** Percent of private lines written; hot-set lines: half. */
constexpr std::uint64_t kWritePct = 30;

/** One client's access sequence: line address | write bit. */
using Traffic = std::vector<std::vector<std::uint64_t>>;

/**
 * Seeded synthetic traffic of `instrs` instructions per client, each
 * kBurstLines consecutive entries. Streamed instructions continue one
 * sweep through the client's streamed region; reused ones start at a
 * random line of its reused region; hot ones pick random hot lines.
 */
Traffic
makeTraffic(std::uint64_t seed, std::size_t instrs)
{
    Rng rng(seed ^ 0xfab51cULL);
    Traffic t(kFabricWpus);
    // The hot set and then each client's regions, back to back, so no
    // two regions alias onto the same cache sets.
    const std::uint64_t hotBase = 1ull << 30;
    constexpr std::uint64_t kPrivateLines = kStreamLines + kReuseLines;
    for (int w = 0; w < kFabricWpus; w++) {
        const std::uint64_t streamBase =
                hotBase + (kHotLines + std::uint64_t(w) * kPrivateLines) *
                                  kLineBytes;
        const std::uint64_t reuseBase = streamBase + kStreamLines * kLineBytes;
        std::uint64_t cursor = rng.nextBounded(kStreamLines);
        std::vector<std::uint64_t> &ops = t[std::size_t(w)];
        for (std::size_t n = 0; n < instrs; n++) {
            const std::uint64_t kind = rng.nextBounded(100);
            const std::uint64_t start = rng.nextBounded(kReuseLines);
            for (std::size_t i = 0; i < kBurstLines; i++) {
                std::uint64_t addr;
                bool write;
                if (kind < kHotPct) {
                    addr = hotBase + rng.nextBounded(kHotLines) * kLineBytes;
                    write = rng.nextBounded(2) == 0;
                } else {
                    addr = kind < kHotPct + kStreamPct
                                   ? streamBase + (cursor++ % kStreamLines) *
                                                          kLineBytes
                                   : reuseBase + ((start + i) % kReuseLines) *
                                                         kLineBytes;
                    write = rng.nextBounded(100) < kWritePct;
                }
                ops.push_back(addr | std::uint64_t(write));
            }
        }
    }
    return t;
}

/** Outcome of one closed-loop fabric run. */
struct FabricRun
{
    Cycle cycles = 0;
    std::uint64_t calls = 0, retries = 0, hits = 0;
    std::size_t pendingMax = 0;
    bool drained = false;
    std::string digest;
    StatsSum sum;
};

/**
 * Drive every client's accesses through `ms` until all have issued, then
 * drain the event queue. Time jumps to the next cycle at which a group
 * can act. `Timed` (traced runs) times every accessData and runUntil
 * call.
 */
template <bool Timed>
FabricRun
driveFabric(MemSystem &ms, EventQueue &eq, const SystemConfig &cfg,
            const Traffic &traffic, CallTimer &accessT, CallTimer &untilT)
{
    FabricRun f;
    struct Group
    {
        /** Lines of the current instruction not yet accepted. */
        std::vector<std::uint64_t> lines;
        /** Next attempt, or next instruction once `lines` is empty. */
        Cycle readyAt = 0;
        /** When the current instruction's last accepted line is ready. */
        Cycle dataAt = 0;
    };
    struct Client
    {
        std::size_t next = 0;
        std::array<Group, kFabricGroups> groups;
    };
    std::vector<Client> clients(traffic.size());
    Cycle now = 0, lastReady = 0;
    for (;;) {
        if constexpr (Timed) {
            const std::int64_t t0 = nowNs();
            eq.runUntil(now);
            untilT.add(nowNs() - t0);
        } else {
            eq.runUntil(now);
        }
        Cycle wake = ~Cycle(0);
        for (std::size_t w = 0; w < clients.size(); w++) {
            Client &c = clients[w];
            const std::vector<std::uint64_t> &ops = traffic[w];
            for (Group &g : c.groups) {
                if (g.lines.empty() && c.next == ops.size())
                    continue;
                if (g.readyAt > now) {
                    wake = std::min(wake, g.readyAt);
                    continue;
                }
                if (g.lines.empty()) {
                    const std::size_t n =
                            std::min(kBurstLines, ops.size() - c.next);
                    g.lines.assign(ops.begin() + std::ptrdiff_t(c.next),
                                   ops.begin() + std::ptrdiff_t(c.next + n));
                    c.next += n;
                    g.dataAt = now;
                }
                Cycle retryAt = 0;
                std::size_t kept = 0;
                for (const std::uint64_t op : g.lines) {
                    LineResponse resp;
                    if constexpr (Timed) {
                        const std::int64_t t0 = nowNs();
                        resp = ms.accessData(WpuId(w), op & ~std::uint64_t(1),
                                             op & 1, 0, now);
                        accessT.add(nowNs() - t0);
                    } else {
                        resp = ms.accessData(WpuId(w), op & ~std::uint64_t(1),
                                             op & 1, 0, now);
                    }
                    f.calls++;
                    if (resp.retry) {
                        f.retries++;
                        g.lines[kept++] = op;
                        if (resp.readyAt > 0 &&
                            (retryAt == 0 || resp.readyAt < retryAt))
                            retryAt = resp.readyAt;
                    } else {
                        f.hits += resp.l1Hit;
                        g.dataAt = std::max(g.dataAt, resp.readyAt);
                    }
                }
                g.lines.resize(kept);
                g.readyAt = std::max(kept ? retryAt : g.dataAt, now + 1);
                lastReady = std::max(lastReady, g.dataAt);
                wake = std::min(wake, g.readyAt);
            }
        }
        if constexpr (Timed)
            f.pendingMax = std::max(f.pendingMax, eq.size());
        if (wake == ~Cycle(0))
            break;
        // Nothing issues before `wake`; runUntil(wake) then fires the
        // events in between in the order per-cycle stepping would.
        now = wake;
    }
    while (!eq.empty()) {
        now = std::max(now, eq.nextEventCycle());
        eq.runUntil(now);
    }
    f.cycles = std::max(now, lastReady);

    f.drained = eq.empty();
    for (int w = 0; w < cfg.numWpus; w++)
        f.drained &= ms.l1MshrFile(WpuId(w)).inUse() == 0;
    for (int li = 0; li < ms.sharedLevels(); li++)
        for (int s = 0; s < ms.sliceCount(li); s++)
            f.drained &= ms.sharedMshrFile(li, s).inUse() == 0;

    RunStats rs;
    rs.cycles = f.cycles;
    for (int w = 0; w < cfg.numWpus; w++)
        rs.dcaches.push_back(ms.dcache(WpuId(w)).stats);
    rs.mem = ms.stats();
    f.sum.addMem(rs.dcaches, rs.mem);
    f.digest = digestOf(rs);
    return f;
}

void
runFabric(const Args &a, Report &r)
{
    SystemConfig cfg = SystemConfig::table3(PolicyConfig::conv());
    cfg.numWpus = kFabricWpus;
    const HierarchySpec spec = HierarchySpec::withL3(8u << 20, 16, 60);
    const std::string bad = spec.validate(cfg.numWpus);
    if (!bad.empty())
        fatal("fabric hierarchy: %s", bad.c_str());
    cfg.applyHierarchy(spec);

    const std::size_t instrs = a.smoke ? 125 : 4000;
    const Traffic traffic = makeTraffic(a.seed, instrs);
    const std::string cell = "pass-i" + std::to_string(instrs);

    measureSetup(a, r, [&] {
        ScopedSpan s(spans, "mem.memsys_ctor");
        EventQueue eq;
        MemSystem ms(cfg, eq);
    });

    measure(a, r, [&](bool traced, int) {
        EventQueue eq;
        MemSystem ms(cfg, eq);
        CallTimer accessT, untilT;
        FabricRun f;
        {
            ScopedSpan s(spans, "mem.drive");
            f = traced ? driveFabric<true>(ms, eq, cfg, traffic, accessT,
                                           untilT)
                       : driveFabric<false>(ms, eq, cfg, traffic, accessT,
                                            untilT);
        }
        r.check(f.drained, "fabric run did not drain");
        r.check(digests.check(cell, f.digest), "fabric digest " + cell);
        if (traced) {
            r.put("mem.retry_frac", ratio(double(f.retries), double(f.calls)));
            r.put("mem.l1_hit_frac", ratio(double(f.hits), double(f.calls)));
            r.put("mem_access_ns_p50", accessT.quantileNs(0.5));
            r.put("mem_access_ns_p99", accessT.quantileNs(0.99));
            r.put("sim.run_until_ns", untilT.meanNs());
            r.put("sim.events_pending_max", double(f.pendingMax));
            f.sum.reportMem(r);
        }
        return PassWork{double(f.cycles), double(f.calls), 0.0};
    });
}

// --- output -----------------------------------------------------------

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

void
printResult(const Args &a, const Report &r)
{
    std::map<std::string, double> v;
    if (!a.trace) {
        v["wall_s"] = median(r.wall);
        v["cpu_s"] = median(r.cpu);
        v["setup_s"] = median(r.setup);
        v["peak_rss_mb"] = peakRssMb();
        v["sim_cycles"] = median(r.cycles);
        v["sim_cycles_per_s"] = median(r.cyclesPerS);
        v["mem_accesses_per_s"] = median(r.accessesPerS);
    } else {
        for (const auto &[name, vals] : r.layer)
            v[name] = median(vals);
        v["bench.span_overhead_frac"] =
                r.plainWall.empty() ? 0.0
                                    : median(r.tracedWall) /
                                                      median(r.plainWall) -
                                              1.0;
        v["fail_frac"] = ratio(double(r.failed), double(r.attempted));
    }
    std::string out = "{\"correct\": ";
    out += r.failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const MetricDecl &m : kMetrics) {
        if (m.endToEnd == a.trace)
            continue;
        const auto it = v.find(m.name);
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      first ? "" : ", ", m.name,
                      it == v.end() ? 0.0 : it->second, m.unit);
        out += buf;
        first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "dws_perfbench: %s\nusage: dws_perfbench --workload "
                 "fig13-sweep|dws-serial|conv-serial|fabric-traffic "
                 "--seed N --seconds S --trace 0|1 [--smoke] "
                 "[--digests FILE] [--record-digests FILE] "
                 "[--spans-out FILE] [--tmp-dir DIR]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; i++) {
        const std::string f = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + f).c_str());
            return argv[++i];
        };
        if (f == "--workload")
            a.workload = val();
        else if (f == "--seed")
            a.seed = std::strtoull(val().c_str(), nullptr, 10);
        else if (f == "--seconds")
            a.seconds = std::atof(val().c_str());
        else if (f == "--trace")
            a.trace = val() == "1";
        else if (f == "--smoke")
            a.smoke = true;
        else if (f == "--digests")
            a.digestsIn = val();
        else if (f == "--record-digests")
            a.digestsOut = val();
        else if (f == "--spans-out")
            a.spansOut = val();
        else if (f == "--tmp-dir")
            a.tmpDir = val();
        else
            usage(("unknown flag " + f).c_str());
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    const Args a = parseArgs(argc, argv);

    std::string err;
    if (!a.digestsIn.empty() && !digests.load(a.digestsIn, err))
        usage(err.c_str());
    digests.begin(a.workload, a.seed);

    Report r;
    if (a.workload == "fig13-sweep")
        runFig13(a, r);
    else if (a.workload == "dws-serial")
        runSerial(a, PolicyConfig::reviveSplit(), "DWS.ReviveSplit", r);
    else if (a.workload == "conv-serial")
        runSerial(a, PolicyConfig::conv(), "Conv", r);
    else if (a.workload == "fabric-traffic")
        runFabric(a, r);
    else
        usage(("unknown workload " + a.workload).c_str());

    if (!a.spansOut.empty() && !spans.write(a.spansOut))
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     a.spansOut.c_str());
    if (!a.digestsOut.empty() && !digests.write(a.digestsOut, a.seed))
        fatal("cannot write %s", a.digestsOut.c_str());
    printResult(a, r);
    return 0;
}
