#include "workloads.hpp"

#include <sys/resource.h>
#include <pthread.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "dag/builders.hpp"
#include "fiber/fiber.hpp"
#include "measure.hpp"
#include "runtime/dag_engine.hpp"
#include "runtime/poly_deque.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/tenant/tenant_service.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using abp::runtime::Scheduler;
using abp::runtime::SchedulerOptions;
using abp::runtime::TaskGroup;
using abp::runtime::Worker;
using abp::runtime::WorkerStats;
namespace tenant = abp::runtime::tenant;

constexpr std::uint64_t kMinUnits = 3;
// latency_p90_ms is the median of the p90s of this many consecutive slices
// of a run: the hypervisor runs other guests on a VM's vCPUs for seconds at
// a time, which put a 0.09-0.16 run-to-run spread (IQR over median, ten
// seeds) into the plain p90 of steal_loops and request_stream_high.
constexpr std::size_t kLatencyWindows = 5;
// peak_rss_mb is read after this many timed units, so that a run's length
// (how many units fit in --seconds) does not move it.
constexpr std::size_t kRssUnits = 5;
// Warm-up target: measured P_A >= kWarmupShare * P twice in a row.
constexpr double kWarmupShare = 0.9;

// ---- host and process probes ----------------------------------------------

std::size_t processors() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

// Seconds the hypervisor ran other guests on this guest's vCPUs (the
// "steal" column of /proc/stat), summed over all CPUs.
double host_steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  in >> cpu;
  for (double& x : v) in >> x;
  return in ? v[7] / static_cast<double>(sysconf(_SC_CLK_TCK)) : 0.0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double current_rss_bytes() {
  std::ifstream in("/proc/self/statm");
  double size = 0.0, resident = 0.0;
  in >> size >> resident;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE));
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

void diag(Result& r, const std::string& key, double v) {
  r.diag.push_back(key + " " + num(v));
}

void check(Result& r, bool ok, const std::string& what) {
  if (!ok) {
    r.correct = false;
    r.errors.push_back(what);
  }
}

void spin(std::uint32_t iterations) {
  for (std::uint32_t i = 0; i < iterations; ++i) asm volatile("" ::: "memory");
}

// ---- timed units ------------------------------------------------------------

// T1 and T-infinity of one unit, from timed runs of (part of) its serial
// version after every unit: P copies at once, averaged, so that the serial
// version runs on every vCPU the parallel unit ran on. The host runs a
// guest's vCPUs at different and changing speeds (one copy of fib(30)
// took ~1.4 or ~2.5 ms from one process to the next on a 4-vCPU VM); one
// copy alone put a 17-26% run-to-run spread into T1, P copies 5-8%. A
// phase's T1 is the mean over all its units.
struct Shape {
  double t1 = 0.0;
  double tinf = 0.0;
};
// Called from P threads at once.
using SerialRef = std::function<Shape()>;

struct UnitLog {
  std::vector<double> wall, cpu;
  std::vector<Shape> shape;
  std::uint64_t failed = 0;
  double rss_mb = 0.0;
  std::size_t units() const { return wall.size(); }
};

// Thread CPU seconds of one call of `serial`.
template <class Serial>
double serial_cpu_s(Serial&& serial) {
  const double c0 = thread_cpu_s();
  serial();
  return thread_cpu_s() - c0;
}

// The mean shape of `copies` concurrent runs of the serial reference; this
// thread runs one of them.
Shape concurrent_shape(std::size_t copies, const SerialRef& ref) {
  std::vector<Shape> shapes(copies);
  {
    std::vector<std::jthread> others;
    for (std::size_t i = 1; i < copies; ++i)
      others.emplace_back([&shapes, &ref, i] { shapes[i] = ref(); });
    shapes[0] = ref();
  }
  Shape mean;
  for (const Shape& sh : shapes) {
    mean.t1 += sh.t1 / static_cast<double>(copies);
    mean.tinf += sh.tinf / static_cast<double>(copies);
  }
  return mean;
}

// Runs units until `seconds` have passed (at least kMinUnits). prepare(),
// check() and the serial reference are outside the timed region. Each unit
// is called from a fresh thread: a caller that stays on one vCPU for the
// whole process put run_dag into a fast (~47 ms) or slow (~65 ms) mode per
// process on a 4-vCPU VM, because the host runs its vCPUs at different
// speeds; from fresh threads the modes mix within every process.
template <class Prepare, class Unit, class Check>
UnitLog timed_units(double seconds, double p, const SerialRef& ref,
                    Prepare&& prepare, Unit&& unit, Check&& check_unit) {
  UnitLog log;
  const double end = wall_s() + seconds;
  do {
    prepare();
    std::thread([&] {
      const double c0 = process_cpu_s(), w0 = wall_s();
      unit();
      const double w1 = wall_s(), c1 = process_cpu_s();
      log.wall.push_back(w1 - w0);
      log.cpu.push_back(c1 - c0);
    }).join();
    if (!check_unit()) ++log.failed;
    log.shape.push_back(concurrent_shape(static_cast<std::size_t>(p), ref));
    if (log.units() == kRssUnits) log.rss_mb = peak_rss_mb();
  } while (wall_s() < end || log.units() < kMinUnits);
  if (log.units() < kRssUnits) log.rss_mb = peak_rss_mb();
  return log;
}

Shape mean_shape(const UnitLog& log) {
  Shape sum;
  for (const Shape& sh : log.shape) {
    sum.t1 += sh.t1;
    sum.tinf += sh.tinf;
  }
  const double n = static_cast<double>(log.shape.size());
  return {sum.t1 / n, sum.tinf / n};
}

void report_units(Metrics& m, const UnitLog& log, double p) {
  const Shape shape = mean_shape(log);
  const double n = static_cast<double>(log.units());
  m["latency_p50_ms"] = {median(log.wall) * 1e3, "ms"};
  m["latency_p90_ms"] = {
      windowed_percentile(log.wall, 90.0, kLatencyWindows) * 1e3, "ms"};
  m["cpu_per_unit_ms"] = {median(log.cpu) * 1e3, "ms"};
  m["bound_ratio"] = {bound_ratio(median(log.cpu), shape.t1, shape.tinf, p),
                      "ratio"};
  m["ok_frac"] = {(n - static_cast<double>(log.failed)) / n, "ratio"};
  m["peak_rss_mb"] = {log.rss_mb, "MiB"};
}

void pa_diag(Result& r, const std::string& phase, const UnitLog& log,
             double p) {
  std::vector<double> pa;
  std::size_t low = 0;
  for (std::size_t i = 0; i < log.units(); ++i) {
    pa.push_back(processor_average(log.cpu[i], log.wall[i]));
    if (pa.back() < kWarmupShare * p) ++low;
  }
  diag(r, phase + ".units", static_cast<double>(log.units()));
  diag(r, phase + ".t1_s", mean_shape(log).t1);
  diag(r, phase + ".tinf_s", mean_shape(log).tinf);
  diag(r, phase + ".p_a.median", median(pa));
  diag(r, phase + ".p_a.min", percentile(pa, 0.0));
  diag(r, phase + ".p_a.max", percentile(pa, 100.0));
  diag(r, phase + ".p_a.low_frac",
       static_cast<double>(low) / static_cast<double>(pa.size()));
  diag(r, phase + ".latency_p90_all_units_ms", percentile(log.wall, 90.0) * 1e3);
  const double q = highest_supported_percentile(log.units());
  diag(r, phase + ".latency_p99_ms (n=" + num(log.units()) + ")",
       percentile(log.wall, 99.0) * 1e3);
  if (q > 0.0)
    diag(r, phase + ".latency_p" + num(q) + "_ms (highest with >=10 beyond)",
         percentile(log.wall, q) * 1e3);
}

// Untraced phase, then (traced runs) a traced phase of the same length,
// of a workload made of identical units.
template <class Prepare, class Unit, class Check>
void measure_units(const Config& cfg, Result& res, double p,
                   const SerialRef& ref, Prepare&& prepare, Unit&& unit,
                   Check&& check_unit) {
  const double span = cfg.seconds / (cfg.untraced + cfg.traced);
  for (const bool traced : {false, true}) {
    if (traced ? !cfg.traced : !cfg.untraced) continue;
    if (traced) Tracer::get().reset_totals();
    const double st0 = host_steal_s();
    const UnitLog log = timed_units(
        span, p, ref, [&] { prepare(traced); }, [&] { unit(traced); },
        check_unit);
    const std::string phase = traced ? "traced" : "untraced";
    report_units(traced ? res.e2e_traced : res.e2e, log, p);
    pa_diag(res, phase, log, p);
    diag(res, phase + ".host_steal_s", host_steal_s() - st0);
    res.attempted += log.units();
    res.failed += log.failed;
    check(res, log.failed == 0, phase + ": " + num(log.failed) +
                                    " unit(s) failed the output check");
  }
}

struct Warmup {
  double seconds = 0.0;
  double last_pa = 0.0;
  bool reached = false;
};

// Runs busy units until the measured P_A reaches kWarmupShare * P twice in
// a row, or `limit_s` passes: workers that start or wake together can share
// one vCPU for a second or more, and timing that would put set-up noise in
// every unit. Its length is set by the host, not by the program, so it is
// reported as host.warmup_s and kept out of setup_s.
template <class Busy>
Warmup warm_up(double p, double limit_s, Busy&& busy) {
  Warmup w;
  const double start = wall_s();
  int in_a_row = 0;
  while (wall_s() - start < limit_s) {
    const double c0 = process_cpu_s(), w0 = wall_s();
    busy();
    w.last_pa = processor_average(process_cpu_s() - c0, wall_s() - w0);
    in_a_row = w.last_pa >= kWarmupShare * p ? in_a_row + 1 : 0;
    if (in_a_row == 2) {
      w.reached = true;
      break;
    }
  }
  w.seconds = wall_s() - start;
  return w;
}

// setup_s times what a user pays before the first call: runtime
// construction and the inputs built through the library, in a process that
// has not built them before. Each sample is the set-up of a child process
// of this binary (perfbench --probe setup), kSetupBatch of them before the
// first unit and kSetupBatch after the last; setup_s is their median. Later
// set-ups inside one process were no steadier: they reuse freed memory and
// malloc arenas to a degree that differed from process to process (a
// request service's took ~0.7 or ~1.2 ms per process on a 4-vCPU VM), and
// they skip one-time work a user does pay, such as the telemetry hooks'
// TSC calibration. The serial reference outputs the checks compare against
// are the benchmark's own, not a user's cost, so they are never timed.
constexpr int kSetupBatch = 10;

// This binary's path, quoted for the shell popen() runs.
std::string self_command() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  std::string q = "'";
  for (const char c : std::string(buf, n > 0 ? static_cast<std::size_t>(n) : 0))
    q += c == '\'' ? std::string("'\\''") : std::string(1, c);
  return q + "'";
}

void cold_setups(Result& res, const Config& cfg, std::vector<double>& setups) {
  if (!cfg.untraced) return;  // a traced-only probe phase reports no setup_s
  // The workload name comes from the registry, so it needs no quoting.
  const std::string cmd = self_command() + " --probe setup --workload " +
                          cfg.workload + " --seed " + std::to_string(cfg.seed);
  for (int i = 0; i < kSetupBatch; ++i) {
    double s = 0.0;
    std::FILE* child = popen(cmd.c_str(), "r");
    const bool read = child != nullptr && std::fscanf(child, "SETUP %lf", &s) == 1;
    const bool ok = child != nullptr && pclose(child) == 0 && read && s > 0.0;
    check(res, ok, "set-up probe failed: " + cmd);
    if (ok) setups.push_back(s);
  }
}

// `setups` holds the batch taken before the first unit, then the one after
// the last.
void setup_report(Result& res, const std::vector<double>& setups,
                  const std::optional<Warmup>& warmup) {
  res.e2e["setup_s"] = {median(setups), "s"};
  if (setups.size() == 2 * kSetupBatch) {
    const auto mid = setups.begin() + kSetupBatch;
    diag(res, "setup.start_median_s", median({setups.begin(), mid}));
    diag(res, "setup.end_median_s", median({mid, setups.end()}));
  }
  if (warmup) {
    diag(res, "host.warmup_s", warmup->seconds);
    diag(res, "host.warmup_reached", warmup->reached ? 1.0 : 0.0);
    diag(res, "host.warmup_last_p_a", warmup->last_pa);
  }
}

// ---- scheduler units (spawn_fib, steal_loops) -------------------------------

WorkerStats stats_delta(const WorkerStats& after, const WorkerStats& before) {
  WorkerStats d;
  d.jobs_executed = after.jobs_executed - before.jobs_executed;
  d.spawns = after.spawns - before.spawns;
  d.steal_attempts = after.steal_attempts - before.steal_attempts;
  d.steals = after.steals - before.steals;
  d.steal_cas_failures = after.steal_cas_failures - before.steal_cas_failures;
  d.steal_empty_victim = after.steal_empty_victim - before.steal_empty_victim;
  d.yields = after.yields - before.yields;
  return d;
}

double frac(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

void stats_layer(Metrics& m, const WorkerStats& d, double units) {
  const auto per = [units](std::uint64_t v) {
    return units > 0 ? static_cast<double>(v) / units : 0.0;
  };
  m["scheduler.spawns"] = {per(d.spawns), "count"};
  m["scheduler.jobs_executed"] = {per(d.jobs_executed), "count"};
  m["scheduler.steal_attempts"] = {per(d.steal_attempts), "count"};
  m["scheduler.steals"] = {per(d.steals), "count"};
  m["scheduler.yields"] = {per(d.yields), "count"};
  m["scheduler.steal_success_frac"] = {frac(d.steals, d.steal_attempts),
                                       "ratio"};
  m["deque.steal_lost_race_frac"] = {
      frac(d.steal_cas_failures, d.steal_attempts), "ratio"};
  m["deque.steal_empty_frac"] = {frac(d.steal_empty_victim, d.steal_attempts),
                                 "ratio"};
}

void obs_layer(Metrics& m, const std::vector<SpanTotals>& tt) {
  m["obs.live_sample_us"] = {tt[kSpanLiveSample].mean_ns() / 1e3, "us"};
  m["obs.stats_json_us"] = {tt[kSpanStatsJson].mean_ns() / 1e3, "us"};
}

template <class F>
auto timed_span(std::uint16_t name, F&& f) {
  const std::int64_t t0 = now_ns();
  auto out = f();
  Tracer::get().record(name, Tracer::get().new_id(), 0, t0, now_ns());
  return out;
}

// Traced-phase accumulators of one scheduler workload.
struct SchedAcc {
  std::uint64_t units = 0;
  double handoff_ns = 0.0;
  WorkerStats delta;
};

// One Scheduler::run per unit. Traced: spans around the run call and the
// root body (their difference is the hand-off), and total_stats() deltas.
template <class Body>
void sched_unit(Scheduler& s, bool traced, SchedAcc& acc, Body&& body) {
  if (!traced) {
    s.run([&](Worker& w) { body(w); });
    return;
  }
  const WorkerStats before = s.total_stats();
  Tracer& tr = Tracer::get();
  const std::uint64_t run_id = tr.new_id();
  std::int64_t b0 = 0, b1 = 0;
  const std::int64_t r0 = now_ns();
  s.run([&](Worker& w) {
    b0 = now_ns();
    body(w);
    b1 = now_ns();
  });
  const std::int64_t r1 = now_ns();
  tr.record(kSpanRootBody, tr.new_id(), run_id, b0, b1);
  tr.record(kSpanRun, run_id, 0, r0, r1, b1 - b0);
  acc.handoff_ns += static_cast<double>((r1 - r0) - (b1 - b0));
  acc.delta += stats_delta(s.total_stats(), before);
  ++acc.units;
}

// The obs calls a user makes between runs, spanned (traced phase only).
void obs_calls(Scheduler& s) {
  (void)timed_span(kSpanLiveSample, [&] { return s.live_sample().size(); });
  (void)timed_span(kSpanStatsJson, [&] { return s.stats_json().size(); });
}

void sched_layer(Result& res, const SchedAcc& acc) {
  const std::vector<SpanTotals> tt = Tracer::get().totals();
  Metrics& m = res.layer;
  const double units = static_cast<double>(acc.units);
  m["scheduler.spawn_ns"] = {tt[kSpanSpawn].mean_ns(), "ns"};
  m["scheduler.wait_self_ns"] = {tt[kSpanWait].mean_self_ns(), "ns"};
  m["scheduler.run_handoff_us"] = {
      units > 0 ? acc.handoff_ns / units / 1e3 : 0.0, "us"};
  stats_layer(m, acc.delta, units);
  obs_layer(m, tt);
  diag(res, "traced.sampled_spawns", static_cast<double>(tt[kSpanSpawn].count));
  diag(res, "traced.sampled_waits", static_cast<double>(tt[kSpanWait].count));
}

// TaskGroup::spawn; traced, every 64th call on a thread is spanned.
template <bool kTraced, class F>
void tg_spawn(TaskGroup& tg, F&& f) {
  if constexpr (kTraced) {
    thread_local unsigned calls = 0;
    if (sample_every<64>(calls)) {
      const std::uint64_t parent = SpanStack::top_id();
      const std::int64_t t0 = now_ns();
      tg.spawn(std::forward<F>(f));
      const std::int64_t t1 = now_ns();
      Tracer::get().record(kSpanSpawn, Tracer::get().new_id(), parent, t0, t1);
      return;
    }
  }
  tg.spawn(std::forward<F>(f));
}

// TaskGroup::wait; traced, every 64th call on a thread is spanned, and the
// child jobs this thread runs inside it open job spans (JobSpanIf), so its
// self time excludes them.
template <bool kTraced>
void tg_wait(TaskGroup& tg) {
  if constexpr (kTraced) {
    thread_local unsigned calls = 0;
    if (sample_every<64>(calls)) {
      SpanStack::push(kSpanWait);
      tg.wait();
      SpanStack::pop();
      return;
    }
  }
  tg.wait();
}

struct NoSpan {};
template <bool kTraced>
using JobSpanIf = std::conditional_t<kTraced, JobSpan, NoSpan>;

// ---- spawn_fib ----------------------------------------------------------------

constexpr int kFibN = 30;
constexpr int kWarmFibN = 25;

long fib_serial(int n) { return n < 2 ? n : fib_serial(n - 1) + fib_serial(n - 2); }

template <bool kTraced>
long fib_spawn(Worker& w, int n) {
  if (n < 2) return n;
  long a = 0;
  TaskGroup tg(w);
  tg_spawn<kTraced>(tg, [&a, n](Worker& wc) {
    [[maybe_unused]] JobSpanIf<kTraced> js;
    a = fib_spawn<kTraced>(wc, n - 1);
  });
  const long b = fib_spawn<kTraced>(w, n - 2);
  tg_wait<kTraced>(tg);
  return a + b;
}

// The set-up of spawn_fib and steal_loops: a Scheduler with default
// options; its workers are started, its deques and rings allocated.
double scheduler_setup_s(std::uint64_t seed) {
  SchedulerOptions o;
  o.seed = seed;
  const double t0 = wall_s();
  Scheduler s(o);
  return wall_s() - t0;
}

// Calls made by fib(n): the unit's work, counted in calls; its critical
// path is the chain of n nested calls.
double fib_calls(int n) {
  double a = 1.0, b = 1.0;  // calls(0), calls(1)
  for (int i = 2; i <= n; ++i) {
    const double c = a + b + 1.0;
    a = b;
    b = c;
  }
  return n < 1 ? 1.0 : b;
}

Result run_spawn_fib(const Config& cfg) {
  Result res;
  volatile int n_in = kFibN;  // keeps the serial reference out of constexpr
  const long expected = fib_serial(n_in);
  std::vector<double> setups;
  cold_setups(res, cfg, setups);
  SchedulerOptions o;
  o.seed = cfg.seed;
  auto sched = std::make_unique<Scheduler>(o);
  Scheduler& s = *sched;
  const Warmup warmup =
      warm_up(static_cast<double>(s.num_workers()), cfg.warmup_limit_s, [&] {
        long r = 0;
        s.run([&](Worker& w) { r = fib_spawn<false>(w, kWarmFibN); });
        asm volatile("" : : "r"(r));
      });
  const double p = static_cast<double>(s.num_workers());
  // Work and critical path in calls: the call tree's size and depth.
  const SerialRef ref = [&] {
    const double t1 = serial_cpu_s([&] {
      const long r = fib_serial(n_in);
      asm volatile("" : : "r"(r));
    });
    return Shape{t1, t1 * kFibN / fib_calls(kFibN)};
  };

  SchedAcc acc;
  long got = 0;
  measure_units(
      cfg, res, p, ref,
      [&](bool traced) {
        if (traced && acc.units > 0) obs_calls(s);
        got = 0;
      },
      [&](bool traced) {
        sched_unit(s, traced, acc, [&](Worker& w) {
          got = traced ? fib_spawn<true>(w, kFibN) : fib_spawn<false>(w, kFibN);
        });
      },
      [&] { return got == expected; });
  if (cfg.traced) sched_layer(res, acc);
  sched.reset();
  cold_setups(res, cfg, setups);
  setup_report(res, setups, warmup);
  return res;
}

// ---- steal_loops -------------------------------------------------------------

constexpr std::size_t kCells = 4096;  // power of two: periodic boundary mask
constexpr std::size_t kGrain = 64;
constexpr int kRoundsPerUnit = 4000;
constexpr int kWarmRounds = 400;

inline double stencil_cell(const double* in, std::size_t i) {
  return 0.25 * in[(i + kCells - 1) & (kCells - 1)] + 0.5 * in[i] +
         0.25 * in[(i + 1) & (kCells - 1)];
}

// Returns the buffer holding the result after `rounds` rounds.
double* stencil_serial(double* a, double* b, int rounds) {
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < kCells; ++i) b[i] = stencil_cell(a, i);
    std::swap(a, b);
  }
  return a;
}

// The library's parallel_for (spawn the right half, recurse on the left,
// wait), written over TaskGroup so that the traced phase can span spawn and
// wait while both phases run the same code.
template <bool kTraced, class Body>
void pfor(Worker& w, std::size_t b, std::size_t e, const Body& body) {
  if (e - b <= kGrain) {
    for (std::size_t i = b; i < e; ++i) body(i);
    return;
  }
  const std::size_t mid = b + (e - b) / 2;
  TaskGroup tg(w);
  tg_spawn<kTraced>(tg, [mid, e, &body](Worker& wc) {
    [[maybe_unused]] JobSpanIf<kTraced> js;
    pfor<kTraced>(wc, mid, e, body);
  });
  pfor<kTraced>(w, b, mid, body);
  tg_wait<kTraced>(tg);
}

template <bool kTraced>
double* stencil_parallel(Worker& w, double* a, double* b, int rounds) {
  for (int r = 0; r < rounds; ++r) {
    pfor<kTraced>(w, 0, kCells,
                  [a, b](std::size_t i) { b[i] = stencil_cell(a, i); });
    std::swap(a, b);
  }
  return a;
}

Result run_steal_loops(const Config& cfg) {
  Result res;
  std::vector<double> init(kCells), expected(kCells), a(kCells), b(kCells);
  abp::Xoshiro256 rng(cfg.seed * 0x9e3779b97f4a7c15ULL + 17);
  for (double& x : init) x = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
  a = init;
  std::memcpy(expected.data(), stencil_serial(a.data(), b.data(), kRoundsPerUnit),
              kCells * sizeof(double));
  std::vector<double> setups;
  cold_setups(res, cfg, setups);
  SchedulerOptions o;
  o.seed = cfg.seed;
  auto sched = std::make_unique<Scheduler>(o);
  Scheduler& s = *sched;
  const Warmup warmup =
      warm_up(static_cast<double>(s.num_workers()), cfg.warmup_limit_s, [&] {
        s.run([&](Worker& w) {
          stencil_parallel<false>(w, a.data(), b.data(), kWarmRounds);
        });
      });
  const double p = static_cast<double>(s.num_workers());
  // Timed on a tenth of the unit's rounds. Each round's critical path is
  // one grain of cells.
  const SerialRef ref = [&] {
    std::vector<double> sa = init, sb(kCells);
    const double t1 = 10.0 * serial_cpu_s([&] {
      (void)stencil_serial(sa.data(), sb.data(), kRoundsPerUnit / 10);
    });
    return Shape{t1, t1 * static_cast<double>(kGrain) / kCells};
  };

  SchedAcc acc;
  const double* out = nullptr;
  measure_units(
      cfg, res, p, ref,
      [&](bool traced) {
        if (traced && acc.units > 0) obs_calls(s);
        a = init;
        out = nullptr;
      },
      [&](bool traced) {
        sched_unit(s, traced, acc, [&](Worker& w) {
          out = traced ? stencil_parallel<true>(w, a.data(), b.data(),
                                                kRoundsPerUnit)
                       : stencil_parallel<false>(w, a.data(), b.data(),
                                                 kRoundsPerUnit);
        });
      },
      [&] {
        return out != nullptr &&
               std::memcmp(out, expected.data(), kCells * sizeof(double)) == 0;
      });
  if (cfg.traced) sched_layer(res, acc);
  sched.reset();
  cold_setups(res, cfg, setups);
  setup_report(res, setups, warmup);
  return res;
}

// ---- wavefront ---------------------------------------------------------------

constexpr std::size_t kDagRows = 600, kDagCols = 600;
constexpr std::uint32_t kDagSpin = 50;  // per-node busy-work iterations
constexpr std::size_t kFiberRows = 256, kFiberCols = 256;
constexpr unsigned kSemSample = 16;  // every 16th P and V is spanned

inline std::uint64_t cell_value(std::uint64_t up, std::uint64_t left,
                                std::uint32_t salt) {
  return (up * 31 + left * 17 + salt) & 0xffffffffULL;
}

inline void grid_cell(std::uint64_t* g, const std::uint32_t* salt,
                      std::size_t cols, std::size_t i, std::size_t j) {
  const std::size_t v = i * cols + j;
  g[v] = cell_value(i > 0 ? g[v - cols] : 0, j > 0 ? g[v - 1] : 0, salt[v]);
}

void grid_serial(std::uint64_t* g, const std::uint32_t* salt,
                 std::size_t rows, std::size_t cols, std::uint32_t spin_iters) {
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) {
      spin(spin_iters);
      grid_cell(g, salt, cols, i, j);
    }
}

struct WaveAcc {
  std::uint64_t dag_calls = 0, fiber_calls = 0;
  double dag_call_s = 0.0, dag_startup_ms = 0.0, dag_cpu_s = 0.0;
  std::uint64_t dag_nodes = 0, dag_steals = 0, dag_attempts = 0;
  double fiber_startup_ms = 0.0;
  WorkerStats fiber_delta;
};

// The inputs wavefront builds through the library: the dag through its
// builder, the semaphore grid and the fiber scheduler.
struct WaveRuntime {
  abp::dag::Dag d;
  std::unique_ptr<abp::fiber::Semaphore[]> sems;
  std::unique_ptr<abp::fiber::FiberScheduler> fs;
};

SchedulerOptions wavefront_options(std::uint64_t seed) {
  SchedulerOptions o;
  o.num_workers = processors();
  o.seed = seed;
  return o;
}

// Builds `rt`; returns the seconds that took.
double build_wavefront(WaveRuntime& rt, const SchedulerOptions& opts) {
  const double t0 = wall_s();
  rt.d = abp::dag::grid_wavefront(kDagRows, kDagCols);
  rt.sems.reset(new abp::fiber::Semaphore[kFiberRows * kFiberCols]);
  rt.fs = std::make_unique<abp::fiber::FiberScheduler>(opts);
  return wall_s() - t0;
}

Result run_wavefront(const Config& cfg) {
  Result res;
  const std::size_t p = processors();
  const std::size_t dag_n = kDagRows * kDagCols, fib_n = kFiberRows * kFiberCols;
  std::vector<std::uint32_t> salt_d(dag_n), salt_f(fib_n);
  std::vector<std::uint64_t> ref_d(dag_n), ref_f(fib_n), grid_d, grid_f;
  const SchedulerOptions opts = wavefront_options(cfg.seed);
  abp::Xoshiro256 rng(cfg.seed * 0x9e3779b97f4a7c15ULL + 29);
  for (auto& x : salt_d) x = static_cast<std::uint32_t>(rng.next());
  for (auto& x : salt_f) x = static_cast<std::uint32_t>(rng.next());
  grid_serial(ref_d.data(), salt_d.data(), kDagRows, kDagCols, kDagSpin);
  grid_serial(ref_f.data(), salt_f.data(), kFiberRows, kFiberCols, 0);
  std::vector<double> setups;
  cold_setups(res, cfg, setups);
  WaveRuntime rt;
  (void)build_wavefront(rt, opts);
  const abp::dag::Dag& d = rt.d;
  // Node ids are row-major: run_dag's node body maps id -> (i, j).
  check(res, d.num_nodes() == dag_n && d.successors(0).size() >= 1 &&
                 d.successors(0)[0] == 1,
        "grid_wavefront node layout is not row-major");
  // Timed on the first quarter of each grid's rows. The two grids run one
  // after the other, so their critical paths, (rows + cols - 1) of
  // rows * cols cells each, add up.
  const SerialRef ref = [&] {
    std::vector<std::uint64_t> sd(dag_n / 4), sf(fib_n / 4);
    const double t1_d = 4.0 * serial_cpu_s([&] {
      grid_serial(sd.data(), salt_d.data(), kDagRows / 4, kDagCols, kDagSpin);
    });
    const double t1_f = 4.0 * serial_cpu_s([&] {
      grid_serial(sf.data(), salt_f.data(), kFiberRows / 4, kFiberCols, 0);
    });
    return Shape{t1_d + t1_f,
                 t1_d * (kDagRows + kDagCols - 1) / static_cast<double>(dag_n) +
                     t1_f * (kFiberRows + kFiberCols - 1) /
                         static_cast<double>(fib_n)};
  };

  WaveAcc acc;
  std::vector<double> part_s[4];  // dag wall, dag cpu, fiber wall, fiber cpu
  std::uint64_t* gd = nullptr;
  std::uint64_t* gf = nullptr;
  bool dag_ok = false;
  Tracer& tr = Tracer::get();

  const auto dag_part = [&](bool traced) {
    std::atomic<std::int64_t> first{0};
    abp::runtime::DagNodeBody body;
    const std::uint32_t* salt = salt_d.data();
    if (traced) {
      body = [gd, salt, &first](abp::dag::NodeId v) {
        if (first.load(std::memory_order_relaxed) == 0) {
          std::int64_t zero = 0;
          first.compare_exchange_strong(zero, now_ns(),
                                        std::memory_order_relaxed);
        }
        grid_cell(gd, salt, kDagCols, v / kDagCols, v % kDagCols);
      };
    } else {
      body = [gd, salt](abp::dag::NodeId v) {
        grid_cell(gd, salt, kDagCols, v / kDagCols, v % kDagCols);
      };
    }
    const double c0 = process_cpu_s();
    const std::int64_t t0 = now_ns();
    const abp::runtime::DagRunResult r =
        abp::runtime::run_dag(d, opts, kDagSpin, {}, std::move(body));
    const std::int64_t t1n = now_ns();
    dag_ok = r.ok;
    if (!traced) return;
    tr.record(kSpanRunDag, tr.new_id(), 0, t0, t1n);
    ++acc.dag_calls;
    acc.dag_call_s += static_cast<double>(t1n - t0) * 1e-9;
    acc.dag_startup_ms +=
        static_cast<double>(first.load(std::memory_order_relaxed) - t0) * 1e-6;
    acc.dag_cpu_s += process_cpu_s() - c0;
    acc.dag_nodes += r.executed_nodes;
    acc.dag_steals += r.totals.steals;
    acc.dag_attempts += r.totals.steal_attempts;
  };

  const auto fiber_row = [&](std::size_t i, bool traced) {
    using abp::fiber::FiberScheduler;
    const std::uint64_t row_id = traced ? tr.new_id() : 0;
    const std::int64_t row_t0 = traced ? now_ns() : 0;
    abp::fiber::Semaphore* s = rt.sems.get();
    unsigned sample = 0;  // fiber-local: fibers migrate between OS threads
    for (std::size_t j = 0; j < kFiberCols; ++j) {
      const std::size_t v = i * kFiberCols + j;
      const bool spanned = traced && ++sample % kSemSample == 0;
      if (i > 0) {
        if (spanned) {
          const std::int64_t t0 = now_ns();
          s[v].p();
          tr.record(kSpanSemP, tr.new_id(), row_id, t0, now_ns());
        } else {
          s[v].p();
        }
      }
      grid_cell(gf, salt_f.data(), kFiberCols, i, j);
      if (i + 1 < kFiberRows) {
        if (spanned) {
          const std::int64_t t0 = now_ns();
          s[v + kFiberCols].v();
          tr.record(kSpanSemV, tr.new_id(), row_id, t0, now_ns());
        } else {
          s[v + kFiberCols].v();
        }
      }
    }
    if (traced) tr.record(kSpanFiberRow, row_id, 0, row_t0, now_ns());
  };

  const auto fiber_part = [&](bool traced) {
    using abp::fiber::FiberScheduler;
    const WorkerStats before = rt.fs->total_stats();
    std::int64_t root_t0 = 0;
    const std::int64_t t0 = now_ns();
    rt.fs->run([&] {
      if (traced) root_t0 = now_ns();
      std::vector<abp::fiber::Fiber*> rows;
      rows.reserve(kFiberRows);
      for (std::size_t i = 0; i < kFiberRows; ++i) {
        const std::int64_t s0 = traced ? now_ns() : 0;
        rows.push_back(FiberScheduler::spawn([&, i] { fiber_row(i, traced); }));
        if (traced) tr.record(kSpanFiberSpawn, tr.new_id(), 0, s0, now_ns());
      }
      for (abp::fiber::Fiber* f : rows) FiberScheduler::join(f);
    });
    if (!traced) return;
    tr.record(kSpanFiberRun, tr.new_id(), 0, t0, now_ns());
    ++acc.fiber_calls;
    acc.fiber_startup_ms += static_cast<double>(root_t0 - t0) * 1e-6;
    acc.fiber_delta += stats_delta(rt.fs->total_stats(), before);
  };

  measure_units(
      cfg, res, static_cast<double>(p), ref,
      [&](bool) {
        grid_d.assign(dag_n, 0);
        grid_f.assign(fib_n, 0);
        gd = grid_d.data();
        gf = grid_f.data();
        dag_ok = false;
      },
      [&](bool traced) {
        const double w0 = wall_s(), c0 = process_cpu_s();
        dag_part(traced);
        const double w1 = wall_s(), c1 = process_cpu_s();
        fiber_part(traced);
        part_s[0].push_back(w1 - w0);
        part_s[1].push_back(c1 - c0);
        part_s[2].push_back(wall_s() - w1);
        part_s[3].push_back(process_cpu_s() - c1);
      },
      [&] { return dag_ok && grid_d == ref_d && grid_f == ref_f; });
  diag(res, "run_dag.wall_ms", median(part_s[0]) * 1e3);
  diag(res, "run_dag.cpu_ms", median(part_s[1]) * 1e3);
  diag(res, "fiber_run.wall_ms", median(part_s[2]) * 1e3);
  diag(res, "fiber_run.cpu_ms", median(part_s[3]) * 1e3);
  rt = WaveRuntime();
  cold_setups(res, cfg, setups);
  setup_report(res, setups, std::nullopt);

  if (cfg.traced) {
    const std::vector<SpanTotals> tt = tr.totals();
    Metrics& m = res.layer;
    const double dc = static_cast<double>(acc.dag_calls);
    const double fc = static_cast<double>(acc.fiber_calls);
    m["dag_engine.call_s"] = {dc > 0 ? acc.dag_call_s / dc : 0.0, "s"};
    m["dag_engine.startup_ms"] = {dc > 0 ? acc.dag_startup_ms / dc : 0.0, "ms"};
    m["dag_engine.cpu_ns_per_node"] = {
        acc.dag_nodes ? acc.dag_cpu_s * 1e9 / static_cast<double>(acc.dag_nodes)
                      : 0.0,
        "ns"};
    m["dag_engine.steals"] = {dc > 0 ? static_cast<double>(acc.dag_steals) / dc
                                     : 0.0,
                              "count"};
    m["dag_engine.steal_success_frac"] = {frac(acc.dag_steals, acc.dag_attempts),
                                          "ratio"};
    m["fiber.spawn_us"] = {tt[kSpanFiberSpawn].mean_ns() / 1e3, "us"};
    m["fiber.p_wait_us"] = {tt[kSpanSemP].mean_ns() / 1e3, "us"};
    m["fiber.v_ns"] = {tt[kSpanSemV].mean_ns(), "ns"};
    m["fiber.run_startup_ms"] = {fc > 0 ? acc.fiber_startup_ms / fc : 0.0, "ms"};
    m["fiber.resumes"] = {
        fc > 0 ? static_cast<double>(acc.fiber_delta.jobs_executed) / fc : 0.0,
        "count"};
    m["fiber.steals"] = {
        fc > 0 ? static_cast<double>(acc.fiber_delta.steals) / fc : 0.0,
        "count"};
  }
  return res;
}

// ---- request_stream -----------------------------------------------------------

constexpr std::size_t kServiceWorkers = 2;
constexpr tenant::TenantId kTenants = 4;
constexpr std::uint32_t kRequestNodes = 4;
constexpr std::uint32_t kRequestSpinNs = 50'000;
constexpr double kPipelineShare = 0.25;  // 3:1 fan-out:pipeline
constexpr int kWarmBurst = 32;           // requests per warm-up unit
// Admission headroom: a host that deschedules both workers for ~50 ms at
// 5000 req/s queues ~250 requests, which the service's default quotas
// (64 per tenant) would reject. The workloads are sized so that nothing
// is rejected; a rejection then marks a real regression.
constexpr std::size_t kTenantQuota = 256;

tenant::RequestShape request_shape(std::uint8_t kind) {
  return {kind ? tenant::RequestKind::kPipeline : tenant::RequestKind::kFanOut,
          kRequestNodes, kRequestSpinNs};
}

// Seeded open-loop schedule: Poisson arrivals, tenant and request kind.
struct Arrivals {
  std::vector<std::int64_t> offset_ns;
  std::vector<std::uint8_t> tenant, kind;
};

Arrivals make_arrivals(std::uint64_t seed, double rate_hz, double dur_s) {
  abp::Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + 41);
  Arrivals a;
  double t = 0.0;
  for (;;) {
    const double u = (static_cast<double>(rng.next() >> 11) + 1.0) * 0x1.0p-53;
    t += -std::log(u) / rate_hz;
    if (t >= dur_s) break;
    a.offset_ns.push_back(static_cast<std::int64_t>(t * 1e9));
    a.tenant.push_back(static_cast<std::uint8_t>(rng.below(kTenants)));
    a.kind.push_back(rng.below(4) == 0 ? 1 : 0);
  }
  return a;
}

struct Traffic {
  std::vector<double> latency_ms;  // completed requests, due -> finalize
  std::vector<double> late_us;     // generator lateness per request
  std::uint64_t attempted = 0, completed = 0, rejected = 0;
  double cpu_s = 0.0, wall_s = 0.0, rss_growth = 0.0, steal_s = 0.0;
  bool drained = false;
  WorkerStats delta;
  double depth_sum = 0.0;
  std::uint64_t depth_samples = 0;
};

// One traffic phase: one generator thread submits on the seeded schedule,
// never back-pressured, then the service drains. The generator busy-waits
// for each due time: a sleeping vCPU can take milliseconds to be scheduled
// again on a contended host, and that lateness would land in every
// latency. Its own CPU time is not charged to the service. Traced, this
// thread times obs calls and samples queued_depth() at a fixed interval.
Traffic run_traffic(tenant::TenantService& svc, FinalizeLedger& ledger,
                    const Arrivals& arr, bool traced) {
  Traffic out;
  const std::size_t n = arr.offset_ns.size();
  std::vector<std::uint64_t> seq(n, 0);
  std::vector<std::int64_t> late(n, 0);
  Tracer& tr = Tracer::get();
  const WorkerStats s0 = svc.scheduler().live_snapshot().stats;
  const double rss0 = current_rss_bytes(), st0 = host_steal_s();
  const double c0 = process_cpu_s(), w0 = wall_s();
  const std::int64_t start = now_ns() + 2'000'000;
  // 1: every request submitted; 2: the generator's CPU clock has been read
  // for the last time, so the thread may exit.
  std::atomic<int> gen_state{0};
  std::thread gen([&] {
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t due = start + arr.offset_ns[i];
      std::int64_t s = now_ns();
      while (s < due) {
        abp::cpu_relax();
        s = now_ns();
      }
      late[i] = s - due;
      const tenant::SubmitResult r =
          svc.submit(arr.tenant[i], request_shape(arr.kind[i]));
      if (traced) tr.record(kSpanSubmit, tr.new_id(), 0, s, now_ns());
      if (r.admitted()) {
        ledger.admit(r.admit_seq);
        seq[i] = r.admit_seq;
      }
    }
    gen_state.store(1, std::memory_order_release);
    while (gen_state.load(std::memory_order_acquire) != 2)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
  });
  clockid_t gen_clock{};
  pthread_getcpuclockid(gen.native_handle(), &gen_clock);
  const double gen_cpu0 = clock_s(gen_clock);
  unsigned tick = 0;
  while (gen_state.load(std::memory_order_acquire) != 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (!traced) continue;
    out.depth_sum += static_cast<double>(svc.queued_depth());
    ++out.depth_samples;
    if (++tick % 2 == 0) {
      (void)timed_span(kSpanLiveSample,
                       [&] { return svc.scheduler().live_sample().size(); });
      (void)timed_span(kSpanStatsJson, [&] { return svc.stats_json().size(); });
    }
  }
  const double gen_cpu = clock_s(gen_clock) - gen_cpu0;
  gen_state.store(2, std::memory_order_release);
  gen.join();
  out.drained = svc.drain(std::chrono::milliseconds(20'000));
  out.cpu_s = process_cpu_s() - c0 - gen_cpu;
  out.wall_s = wall_s() - w0;
  out.steal_s = host_steal_s() - st0;
  out.rss_growth = current_rss_bytes() - rss0;
  out.delta = stats_delta(svc.scheduler().live_snapshot().stats, s0);
  out.attempted = n;
  for (std::size_t i = 0; i < n; ++i) {
    out.late_us.push_back(static_cast<double>(late[i]) * 1e-3);
    if (seq[i] == 0) {
      ++out.rejected;
      continue;
    }
    if (!ledger.completed(seq[i])) continue;
    ++out.completed;
    const std::int64_t due = start + arr.offset_ns[i];
    out.latency_ms.push_back(
        static_cast<double>(ledger.finalize_ns(seq[i]) - due) * 1e-6);
  }
  return out;
}

// Builds, registers and starts the service, finalising into `lg`; returns
// the seconds that took.
double start_service(std::unique_ptr<tenant::TenantService>& svc,
                     FinalizeLedger* lg, std::uint64_t seed) {
  const double t0 = wall_s();
  tenant::ServiceOptions o;
  o.scheduler.num_workers = kServiceWorkers;
  o.max_outstanding_total = kTenants * kTenantQuota;
  o.scheduler.seed = seed;
  o.on_finalize = [lg](tenant::TenantId, std::uint64_t seq, bool completed) {
    lg->on_finalize(seq, completed, now_ns());
  };
  svc = std::make_unique<tenant::TenantService>(o);
  for (tenant::TenantId t = 0; t < kTenants; ++t)
    svc->register_tenant("tenant-" + std::to_string(t), {kTenantQuota, 1});
  svc->start();
  return wall_s() - t0;
}

void check_tenants(Result& res, const std::vector<tenant::TenantSnapshot>& snaps,
                   const std::string& when) {
  for (const tenant::TenantSnapshot& s : snaps) {
    const std::uint64_t rejected = s.rejected_tenant_quota + s.rejected_global +
                                   s.rejected_stopped + s.timed_out;
    check(res, s.submitted == s.admitted + rejected,
          when + ": tenant " + s.name + " submitted != admitted + rejected");
    check(res, s.admitted == s.completed + s.shed,
          when + ": tenant " + s.name + " admitted != completed + shed");
  }
}

void check_ledger(Result& res, const FinalizeLedger& ledger,
                  const std::string& when) {
  const FinalizeLedger::Verdict v = ledger.verify();
  check(res, v.ok(), when + ": on_finalize ledger: " + num(v.duplicates) +
                         " duplicate(s), " + num(v.gaps) + " gap(s), " +
                         num(v.strays) + " stray(s) over " + num(v.admitted) +
                         " admitted");
}

Result run_request_stream(const Config& cfg, double rate_hz) {
  Result res;
  const double idle_s = std::min(1.0, 0.1 * cfg.seconds);
  const double traffic_s = cfg.seconds - idle_s;
  std::vector<bool> phases;  // traced?
  if (cfg.untraced) phases.push_back(false);
  if (cfg.traced) phases.push_back(true);
  const double phase_s = traffic_s / static_cast<double>(phases.size());
  std::vector<Arrivals> arrivals;
  for (std::size_t ph = 0; ph < phases.size(); ++ph)
    arrivals.push_back(make_arrivals(cfg.seed + 1000u * ph, rate_hz, phase_s));
  std::size_t total = 0;
  for (const Arrivals& a : arrivals) total += a.offset_ns.size();
  // A warm-up unit (kWarmBurst requests, drained) takes well over 0.5 ms.
  const auto warm_max = static_cast<std::size_t>(
      (cfg.warmup_limit_s / 0.0005 + 2) * kWarmBurst);
  const std::size_t ledger_cap = total + warm_max + 16;

  std::vector<double> setups;
  cold_setups(res, cfg, setups);
  FinalizeLedger ledger(ledger_cap);
  std::unique_ptr<tenant::TenantService> svc;
  (void)start_service(svc, &ledger, cfg.seed);
  const Warmup warmup = warm_up(kServiceWorkers, cfg.warmup_limit_s, [&] {
    for (int i = 0; i < kWarmBurst; ++i) {
      const tenant::SubmitResult r =
          svc->submit(static_cast<tenant::TenantId>(i % kTenants),
                      request_shape(static_cast<std::uint8_t>(i % 4 == 0)));
      if (r.admitted()) ledger.admit(r.admit_seq);
    }
    (void)svc->drain(std::chrono::milliseconds(5'000));
  });
  const double p = kServiceWorkers;
  // A request's nodes run serially; its critical path is one node for
  // fan-out and every node for pipeline, mixed 3:1. A node spins for a
  // wall-clock time, so a run the host preempts reads low: take the median.
  std::vector<double> t1s;
  for (int i = 0; i < 9; ++i)
    t1s.push_back(serial_cpu_s([] {
      for (std::uint32_t k = 0; k < kRequestNodes; ++k)
        tenant::spin_for_ns(kRequestSpinNs);
    }));
  const double t1 = median(t1s);
  const double tinf =
      t1 * ((1.0 - kPipelineShare) / kRequestNodes + kPipelineShare);
  diag(res, "t1_s", t1);
  diag(res, "tinf_s", tinf);
  diag(res, "rate_hz", rate_hz);

  // Idle phase: service started, no traffic.
  const double ic0 = process_cpu_s(), iw0 = wall_s();
  std::this_thread::sleep_for(std::chrono::duration<double>(idle_s));
  const double idle_cpu = processor_average(process_cpu_s() - ic0, wall_s() - iw0);
  diag(res, "idle_cpu_s_per_s", idle_cpu);

  Tracer::get().reset_totals();
  for (std::size_t ph = 0; ph < phases.size(); ++ph) {
    const bool traced = phases[ph];
    const std::vector<tenant::TenantSnapshot> before = svc->snapshot_all();
    const Traffic tf = run_traffic(*svc, ledger, arrivals[ph], traced);
    const std::string phase = traced ? "traced" : "untraced";
    Metrics& m = traced ? res.e2e_traced : res.e2e;
    const double completed = static_cast<double>(tf.completed);
    const double cpu_per = completed > 0 ? tf.cpu_s / completed : 0.0;
    m["latency_p50_ms"] = {median(tf.latency_ms), "ms"};
    m["latency_p90_ms"] = {
        windowed_percentile(tf.latency_ms, 90.0, kLatencyWindows), "ms"};
    m["cpu_per_unit_ms"] = {cpu_per * 1e3, "ms"};
    m["bound_ratio"] = {bound_ratio(cpu_per, t1, tinf, p), "ratio"};
    m["ok_frac"] = {completed / static_cast<double>(tf.attempted), "ratio"};
    res.attempted += tf.attempted;
    res.failed += tf.attempted - tf.completed;
    check(res, tf.drained, phase + ": service did not drain");

    diag(res, phase + ".requests", static_cast<double>(tf.attempted));
    diag(res, phase + ".p_a", processor_average(tf.cpu_s, tf.wall_s));
    diag(res, phase + ".host_steal_s", tf.steal_s);
    diag(res, phase + ".latency_p90_all_requests_ms",
         percentile(tf.latency_ms, 90.0));
    const double q = highest_supported_percentile(tf.latency_ms.size());
    diag(res, phase + ".latency_p99_ms (n=" + num(tf.latency_ms.size()) + ")",
         percentile(tf.latency_ms, 99.0));
    diag(res, phase + ".latency_p" + num(q) + "_ms (highest with >=10 beyond)",
         percentile(tf.latency_ms, q));
    diag(res, phase + ".generator_late_p99_us", percentile(tf.late_us, 99.0));
    diag(res, phase + ".generator_late_max_us", percentile(tf.late_us, 100.0));
    diag(res, phase + ".rejected", static_cast<double>(tf.rejected));

    if (traced) {
      const std::vector<SpanTotals> tt = Tracer::get().totals();
      Metrics& l = res.layer;
      l["tenant.submit_ns"] = {tt[kSpanSubmit].mean_ns(), "ns"};
      abp::obs::LatencyHistogram svc_lat;
      std::uint64_t rejected = 0, shed = 0;
      const std::vector<tenant::TenantSnapshot> now = svc->snapshot_all();
      for (std::size_t t = 0; t < now.size(); ++t) {
        svc_lat.merge(now[t].latency);
        rejected += (now[t].rejected_tenant_quota + now[t].rejected_global +
                     now[t].rejected_stopped + now[t].timed_out) -
                    (before[t].rejected_tenant_quota + before[t].rejected_global +
                     before[t].rejected_stopped + before[t].timed_out);
        shed += now[t].shed - before[t].shed;
      }
      l["tenant.service_p50_ms"] = {svc_lat.percentile(50.0) * 1e-6, "ms"};
      l["tenant.service_p90_ms"] = {svc_lat.percentile(90.0) * 1e-6, "ms"};
      l["tenant.queued_depth_mean"] = {
          tf.depth_samples ? tf.depth_sum / static_cast<double>(tf.depth_samples)
                           : 0.0,
          "count"};
      l["tenant.rejected"] = {static_cast<double>(rejected), "count"};
      l["tenant.shed"] = {static_cast<double>(shed), "count"};
      l["tenant.rss_bytes_per_request"] = {
          tf.rss_growth / static_cast<double>(tf.attempted), "B"};
      l["tenant.idle_cpu_s_per_s"] = {idle_cpu, "s/s"};
      stats_layer(l, tf.delta, static_cast<double>(tf.attempted));
      obs_layer(l, tt);
    }
  }
  check_tenants(res, svc->snapshot_all(), "after traffic");
  const tenant::ShutdownReport rep = svc->shutdown(std::chrono::milliseconds(10'000));
  check(res, rep.drained && rep.consistent, "service shutdown did not drain");
  for (const tenant::TenantRow& row : rep.tenants)
    check(res, row.partitions_ok() && row.abandoned_total() == 0,
          "shutdown report: tenant " + row.name + " partitions do not hold");
  check_ledger(res, ledger, "traffic");
  svc.reset();
  res.e2e["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
  cold_setups(res, cfg, setups);
  setup_report(res, setups, warmup);
  return res;
}

// The set-up of the request workloads: the service is built, its tenants
// registered and started, then shut down untimed. It sees no traffic, so
// its finalize ledger must stay empty.
double service_setup_s(std::uint64_t seed) {
  FinalizeLedger spare(1);
  std::unique_ptr<tenant::TenantService> svc;
  const double t = start_service(svc, &spare, seed);
  const bool ok = svc->shutdown(std::chrono::milliseconds(5'000)).drained &&
                  spare.verify().ok();
  return ok ? t : -1.0;
}

// ---- registry -------------------------------------------------------------

struct WorkloadDef {
  Result (*run)(const Config&);
  double (*setup_s)(std::uint64_t seed);
};

const std::map<std::string, WorkloadDef>& workloads() {
  static const std::map<std::string, WorkloadDef> m = {
      {"spawn_fib", {run_spawn_fib, scheduler_setup_s}},
      {"steal_loops", {run_steal_loops, scheduler_setup_s}},
      {"wavefront",
       {run_wavefront,
        [](std::uint64_t seed) {
          WaveRuntime rt;
          return build_wavefront(rt, wavefront_options(seed));
        }}},
      {"request_stream_low",
       {[](const Config& c) { return run_request_stream(c, 1000.0); },
        service_setup_s}},
      {"request_stream_high",
       {[](const Config& c) { return run_request_stream(c, 5000.0); },
        service_setup_s}},
  };
  return m;
}

}  // namespace

bool is_workload(const std::string& name) { return workloads().count(name) != 0; }

const std::vector<LayerMetricDef>& layer_metric_defs() {
  static const char* const kStealLoopsAndRequests =
      "cpu_per_unit_ms, bound_ratio on steal_loops; cpu_per_unit_ms on "
      "request_stream_*";
  static const char* const kStealPath =
      "bound_ratio on steal_loops; cpu_per_unit_ms on request_stream_low";
  static const char* const kDag = "latency_p50_ms, bound_ratio on wavefront";
  static const char* const kFiber = "latency_p50_ms, peak_rss_mb on wavefront";
  static const std::vector<LayerMetricDef> defs = {
      {"scheduler.spawn_ns", "cpu_per_unit_ms, bound_ratio on spawn_fib"},
      {"scheduler.wait_self_ns", "bound_ratio on steal_loops"},
      {"scheduler.run_handoff_us", "latency_p50_ms on spawn_fib, steal_loops"},
      {"scheduler.spawns", kStealLoopsAndRequests},
      {"scheduler.jobs_executed", kStealLoopsAndRequests},
      {"scheduler.steal_attempts", kStealLoopsAndRequests},
      {"scheduler.steals", kStealLoopsAndRequests},
      {"scheduler.yields", kStealLoopsAndRequests},
      {"scheduler.steal_success_frac", kStealLoopsAndRequests},
      {"deque.owner_push_pop_ns", "cpu_per_unit_ms on spawn_fib"},
      {"deque.steal_lost_race_frac", kStealPath},
      {"deque.steal_empty_frac", kStealPath},
      {"dag_engine.call_s", kDag},
      {"dag_engine.startup_ms", kDag},
      {"dag_engine.cpu_ns_per_node", kDag},
      {"dag_engine.steals", kDag},
      {"dag_engine.steal_success_frac", kDag},
      {"fiber.spawn_us", kFiber},
      {"fiber.p_wait_us", kFiber},
      {"fiber.v_ns", kFiber},
      {"fiber.run_startup_ms", kFiber},
      {"fiber.resumes", kFiber},
      {"fiber.steals", kFiber},
      {"tenant.submit_ns", "latency_p50_ms on request_stream_*"},
      {"tenant.service_p50_ms", "latency_p90_ms on request_stream_high"},
      {"tenant.service_p90_ms", "latency_p90_ms on request_stream_high"},
      {"tenant.queued_depth_mean", "latency_p90_ms on request_stream_high"},
      {"tenant.rejected", "ok_frac, peak_rss_mb on request_stream_*"},
      {"tenant.shed", "ok_frac, peak_rss_mb on request_stream_*"},
      {"tenant.rss_bytes_per_request", "ok_frac, peak_rss_mb on request_stream_*"},
      {"tenant.idle_cpu_s_per_s",
       "cpu_per_unit_ms, bound_ratio on request_stream_low"},
      {"obs.live_sample_us", "cpu_per_unit_ms on request_stream_*"},
      {"obs.stats_json_us", "cpu_per_unit_ms on request_stream_*"},
      {"obs.hook_ns_per_spawn", "cpu_per_unit_ms on spawn_fib"},
  };
  return defs;
}

Result run_workload(const Config& cfg) {
  return workloads().at(cfg.workload).run(cfg);
}

double setup_probe(const std::string& workload, std::uint64_t seed) {
  return workloads().at(workload).setup_s(seed);
}

double spawn_cost_probe(std::uint64_t seed, double seconds) {
  SchedulerOptions o;
  o.seed = seed;
  Scheduler s(o);
  const double p = static_cast<double>(s.num_workers());
  (void)warm_up(p, 1.0, [&] {
    long r = 0;
    s.run([&](Worker& w) { r = fib_spawn<false>(w, kWarmFibN); });
    asm volatile("" : : "r"(r));
  });
  std::vector<double> per_spawn;
  const double end = wall_s() + seconds;
  do {
    const std::uint64_t sp0 = s.total_stats().spawns;
    const double c0 = process_cpu_s();
    long r = 0;
    s.run([&](Worker& w) { r = fib_spawn<false>(w, kFibN); });
    const double cpu = process_cpu_s() - c0;
    asm volatile("" : : "r"(r));
    per_spawn.push_back(cpu * 1e9 /
                        static_cast<double>(s.total_stats().spawns - sp0));
  } while (wall_s() < end || per_spawn.size() < kMinUnits);
  return median(per_spawn);
}

double deque_owner_push_pop_ns() {
  const SchedulerOptions o;
  abp::runtime::PolyDeque<abp::runtime::Job*> d(o.deque, o.deque_capacity);
  alignas(64) static char storage[64];
  auto* job = reinterpret_cast<abp::runtime::Job*>(storage);  // never run
  constexpr int kPairs = 1 << 20;
  std::vector<double> ns;
  for (int rep = 0; rep < 7; ++rep) {
    std::uintptr_t sink = 0;
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kPairs; ++i) {
      d.push_bottom(job);
      const auto got = d.pop_bottom();
      sink += reinterpret_cast<std::uintptr_t>(got.value_or(nullptr));
    }
    const std::int64_t t1 = now_ns();
    asm volatile("" : : "r"(sink));
    ns.push_back(static_cast<double>(t1 - t0) / kPairs);
  }
  return median(ns);
}

}  // namespace perfbench
