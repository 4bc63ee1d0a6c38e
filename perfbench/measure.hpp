#pragma once

// Measurement arithmetic, the exactly-once finalize ledger and the span
// tracer of the runtime benchmark. Kept free of workload code so the
// self-test (perfbench --selftest) can check it on fixed inputs.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// ---- clocks ----------------------------------------------------------------

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double clock_s(clockid_t id) noexcept {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
inline double process_cpu_s() noexcept {
  return clock_s(CLOCK_PROCESS_CPUTIME_ID);
}
inline double thread_cpu_s() noexcept { return clock_s(CLOCK_THREAD_CPUTIME_ID); }
inline double wall_s() noexcept { return static_cast<double>(now_ns()) * 1e-9; }

// ---- order statistics ------------------------------------------------------

// Percentile p in [0, 100] by linear interpolation between the closest
// ranks (the "linear" method: position p/100 * (n - 1)). 0 for no samples.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(p, 0.0, 100.0) / 100.0 *
                     static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double median(const std::vector<double>& v) { return percentile(v, 50.0); }

// The median, over `windows` consecutive slices of `v` (samples in time
// order), of each slice's percentile p. A host disturbance confined to one
// slice of a run moves that slice's percentile, not the result.
inline double windowed_percentile(const std::vector<double>& v, double p,
                                  std::size_t windows) {
  if (v.size() < windows) return percentile(v, p);
  std::vector<double> per;
  for (std::size_t k = 0; k < windows; ++k)
    per.push_back(percentile({v.begin() + static_cast<std::ptrdiff_t>(v.size() * k / windows),
                              v.begin() + static_cast<std::ptrdiff_t>(v.size() * (k + 1) / windows)},
                             p));
  return median(per);
}

// The highest percentile of {50, 90, 99, 99.9, 99.99} that still has at
// least ten samples beyond it (0 when even the median has fewer).
inline double highest_supported_percentile(std::size_t n) {
  double best = 0.0;
  // In hundredths of a percent, so the count test is exact integer math.
  for (const std::uint64_t q : {5000u, 9000u, 9900u, 9990u, 9999u})
    if (n * (10000 - q) >= 10 * 10000) best = static_cast<double>(q) / 100.0;
  return best;
}

// ---- the paper's yardstick -------------------------------------------------

// Measured processor average P_A: processor seconds the process received
// per wall second.
inline double processor_average(double cpu_s, double wall_s) {
  return wall_s > 0.0 ? cpu_s / wall_s : 0.0;
}

// T = c * (T1 + P*Tinf) / P_A, so c = T * P_A / (T1 + P*Tinf)
// = cpu / (T1 + P*Tinf): the constant the paper's bound hides.
inline double bound_ratio(double cpu_s, double t1_s, double tinf_s,
                          double p) {
  const double denom = t1_s + p * tinf_s;
  return denom > 0.0 ? cpu_s / denom : 0.0;
}

// ---- exactly-once finalize ledger ------------------------------------------

// Counts, per admission sequence number, how often the service's
// on_finalize hook reported it, next to which numbers were admitted.
// on_finalize is called from worker threads; admit() from the submitter.
// verify() runs after the service drained.
class FinalizeLedger {
 public:
  struct Verdict {
    std::uint64_t admitted = 0;
    std::uint64_t finalized_once = 0;
    std::uint64_t duplicates = 0;  // admitted seqs finalized more than once
    std::uint64_t gaps = 0;        // admitted seqs never finalized
    std::uint64_t strays = 0;      // finalized seqs never admitted
    bool ok() const noexcept {
      return duplicates == 0 && gaps == 0 && strays == 0;
    }
  };

  explicit FinalizeLedger(std::size_t capacity)
      : cap_(capacity),
        admitted_(std::make_unique<std::atomic<std::uint8_t>[]>(capacity)),
        count_(std::make_unique<std::atomic<std::uint32_t>[]>(capacity)),
        fin_ns_(std::make_unique<std::atomic<std::int64_t>[]>(capacity)),
        completed_(std::make_unique<std::atomic<std::uint8_t>[]>(capacity)) {
    for (std::size_t i = 0; i < cap_; ++i) {
      admitted_[i].store(0, std::memory_order_relaxed);
      count_[i].store(0, std::memory_order_relaxed);
      fin_ns_[i].store(0, std::memory_order_relaxed);
      completed_[i].store(0, std::memory_order_relaxed);
    }
  }

  void admit(std::uint64_t seq) noexcept {
    if (seq < cap_) admitted_[seq].store(1, std::memory_order_relaxed);
    else out_of_range_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_finalize(std::uint64_t seq, bool completed,
                   std::int64_t t_ns) noexcept {
    if (seq >= cap_) {
      out_of_range_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    fin_ns_[seq].store(t_ns, std::memory_order_relaxed);
    completed_[seq].store(completed ? 1 : 0, std::memory_order_relaxed);
    count_[seq].fetch_add(1, std::memory_order_acq_rel);
  }

  Verdict verify() const noexcept {
    Verdict v;
    v.strays = out_of_range_.load(std::memory_order_acquire);
    for (std::size_t s = 0; s < cap_; ++s) {
      const bool adm = admitted_[s].load(std::memory_order_acquire) != 0;
      const std::uint32_t c = count_[s].load(std::memory_order_acquire);
      if (adm) {
        ++v.admitted;
        if (c == 0) ++v.gaps;
        else if (c == 1) ++v.finalized_once;
        else ++v.duplicates;
      } else if (c != 0) {
        ++v.strays;
      }
    }
    return v;
  }

  bool completed(std::uint64_t seq) const noexcept {
    return seq < cap_ && completed_[seq].load(std::memory_order_acquire) != 0;
  }
  std::int64_t finalize_ns(std::uint64_t seq) const noexcept {
    return seq < cap_ ? fin_ns_[seq].load(std::memory_order_acquire) : 0;
  }

 private:
  std::size_t cap_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> admitted_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> count_;
  std::unique_ptr<std::atomic<std::int64_t>[]> fin_ns_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> completed_;
  std::atomic<std::uint64_t> out_of_range_{0};
};

// ---- spans -----------------------------------------------------------------

// Span names. The benchmark opens spans only around its own calls into the
// library; nothing inside the library is instrumented.
enum SpanName : std::uint16_t {
  kSpanRun,         // Scheduler::run, caller side
  kSpanRootBody,    // the root job's body inside Scheduler::run
  kSpanSpawn,       // TaskGroup::spawn (sampled)
  kSpanWait,        // TaskGroup::wait (sampled)
  kSpanJob,         // a child job body run directly inside a sampled wait
  kSpanRunDag,      // runtime::run_dag
  kSpanFiberRun,    // FiberScheduler::run
  kSpanFiberRow,    // one row fiber's body
  kSpanFiberSpawn,  // FiberScheduler::spawn
  kSpanSemP,        // Semaphore::p, including the time blocked (sampled)
  kSpanSemV,        // Semaphore::v (sampled)
  kSpanSubmit,      // TenantService::submit
  kSpanLiveSample,  // Scheduler::live_sample
  kSpanStatsJson,   // Scheduler::stats_json
  kSpanCount
};

inline const char* span_name(std::uint16_t n) noexcept {
  static const char* const kNames[kSpanCount] = {
      "scheduler.run", "scheduler.root_body",
      "taskgroup.spawn", "taskgroup.wait", "job",
      "dag.run_dag", "fiber.run",     "fiber.row",
      "fiber.spawn", "fiber.sem_p",   "fiber.sem_v",
      "tenant.submit", "obs.live_sample", "obs.stats_json"};
  return n < kSpanCount ? kNames[n] : "?";
}

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = no parent span
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint16_t name = 0;
};

// Per-name totals: count, summed duration and summed self time (duration
// minus the part covered by child spans).
struct SpanTotals {
  std::uint64_t count = 0;
  double dur_ns = 0.0;
  double self_ns = 0.0;
  double mean_ns() const noexcept {
    return count ? dur_ns / static_cast<double>(count) : 0.0;
  }
  double mean_self_ns() const noexcept {
    return count ? self_ns / static_cast<double>(count) : 0.0;
  }
};

// Process-wide span store. Spans are kept in per-thread buffers in memory
// and written out when the benchmark ends. Fiber spans can begin on one OS
// thread and end on another, so a span is stored once, when it ends, into
// the buffer of the thread that ends it.
class Tracer {
 public:
  static constexpr std::size_t kMaxSpans = 200'000;

  static Tracer& get() {
    static Tracer t;
    return t;
  }

  // Out of line: a fiber may resume on another OS thread, so the
  // thread-local buffer must be looked up afresh on every call, never
  // cached by the caller across a context switch.
  std::uint64_t new_id();
  void record(std::uint16_t name, std::uint64_t id, std::uint64_t parent,
              std::int64_t start, std::int64_t end, std::int64_t child_ns = 0);

  // Totals summed over every thread so far; call while no span is open.
  std::vector<SpanTotals> totals() const {
    std::vector<SpanTotals> out(kSpanCount);
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& b : bufs_)
      for (std::size_t i = 0; i < kSpanCount; ++i) {
        out[i].count += b->totals[i].count;
        out[i].dur_ns += b->totals[i].dur_ns;
        out[i].self_ns += b->totals[i].self_ns;
      }
    return out;
  }
  void reset_totals() {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& b : bufs_)
      for (auto& t : b->totals) t = SpanTotals{};
  }

  std::uint64_t stored() const noexcept {
    return stored_.load(std::memory_order_relaxed);
  }

  // CSV: id,parent,name,start_ns,end_ns (one line per kept span).
  bool write_csv(const std::string& path) const;

 private:
  struct ThreadBuf {
    std::uint64_t next_id = 1;
    std::vector<SpanRecord> spans;
    SpanTotals totals[kSpanCount];
  };

  ThreadBuf& local();

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
  std::atomic<std::uint64_t> stored_{0};
};

// Nested spans on one OS thread (scheduler jobs never migrate mid-body).
// A frame is opened by a sampled wait; the jobs that thread runs directly
// inside it open frames too, so the wait's self time excludes them.
class SpanStack {
 public:
  static std::uint64_t top_id() noexcept {
    return frames().empty() ? 0 : frames().back().id;
  }
  static bool top_is(std::uint16_t name) noexcept {
    return !frames().empty() && frames().back().name == name;
  }

  static void push(std::uint16_t name) {
    frames().push_back(Frame{Tracer::get().new_id(), name, now_ns(), 0});
  }
  static void pop() {
    auto& fs = frames();
    const Frame f = fs.back();
    fs.pop_back();
    const std::int64_t end = now_ns();
    const std::uint64_t parent = fs.empty() ? 0 : fs.back().id;
    if (!fs.empty()) fs.back().child_ns += end - f.start;
    Tracer::get().record(f.name, f.id, parent, f.start, end, f.child_ns);
  }

 private:
  struct Frame {
    std::uint64_t id;
    std::uint16_t name;
    std::int64_t start;
    std::int64_t child_ns;
  };
  static std::vector<Frame>& frames() {
    thread_local std::vector<Frame> f;
    return f;
  }
};

// RAII job span: opens a frame only for a job run directly inside a
// sampled wait (deeper jobs are inside that job's frame already).
class JobSpan {
 public:
  JobSpan() : open_(SpanStack::top_is(kSpanWait)) {
    if (open_) SpanStack::push(kSpanJob);
  }
  ~JobSpan() {
    if (open_) SpanStack::pop();
  }
  JobSpan(const JobSpan&) = delete;
  JobSpan& operator=(const JobSpan&) = delete;

 private:
  bool open_;
};

// Every kth call on this thread is sampled (per-call counters per site).
template <unsigned K>
inline bool sample_every(unsigned& counter) noexcept {
  return ++counter % K == 0;
}

}  // namespace perfbench
