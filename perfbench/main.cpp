// Runtime benchmark binary. perfbench/run.py builds it and is the command
// BENCHMARK.json names; run it directly as
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <file.csv>] [--hook-ns-per-spawn <ns>]
//   perfbench --probe spawn_cost --seed <n> --seconds <s>
//   perfbench --probe setup --workload <name> --seed <n>
//   perfbench --selftest
//
// A run prints "e2e", "layer", "overhead", "diag" and "error" lines, then
// one "RESULT {...}" line. It exits 1 when an output check failed.
// obs.hook_ns_per_spawn compares this build against its trace-OFF twin, so
// run.py measures it with the spawn_cost probe of both binaries and hands
// it to the traced run through --hook-ns-per-spawn.

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <thread>

#include "measure.hpp"
#include "runtime/scheduler.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

std::string json_metrics(const Metrics& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", metric.value);
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  return out + "}";
}

void print_metrics(const char* kind, const Metrics& m) {
  for (const auto& [name, metric] : m)
    std::printf("%s %s %.9g %s\n", kind, name.c_str(), metric.value,
                metric.unit.c_str());
}

// The workload whose traced phase measures a layer the main workload does
// not reach.
const char* probe_for(const std::string& metric) {
  if (metric.rfind("dag_engine.", 0) == 0 || metric.rfind("fiber.", 0) == 0)
    return "wavefront";
  if (metric.rfind("tenant.", 0) == 0) return "request_stream_high";
  return "spawn_fib";
}

int run(const Config& cfg, const std::string& spans_out, double hook_ns) {
  Result res = run_workload(cfg);
  std::map<std::string, std::string> source;
  if (cfg.traced) {
    for (const auto& [name, metric] : res.layer) source[name] = cfg.workload;
    res.layer["deque.owner_push_pop_ns"] = {deque_owner_push_pop_ns(), "ns"};
    source["deque.owner_push_pop_ns"] = "micro-loop";
    if (!std::isnan(hook_ns)) {
      res.layer["obs.hook_ns_per_spawn"] = {hook_ns, "ns"};
      source["obs.hook_ns_per_spawn"] = "spawn_cost probe, trace ON - OFF";
    }
    // Layers this workload does not reach are measured by a short traced
    // phase of the workload that does, so every traced run prints every
    // per-layer metric.
    std::set<std::string> probes;
    for (const LayerMetricDef& d : layer_metric_defs())
      if (!res.layer.count(d.name) &&
          std::strcmp(d.name, "obs.hook_ns_per_spawn") != 0)
        probes.insert(probe_for(d.name));
    for (const std::string& w : probes) {
      Config pc = cfg;
      pc.workload = w;
      pc.untraced = false;
      pc.seconds = w == "request_stream_high" ? 1.0 : 0.6;
      pc.warmup_limit_s = 0.5;
      const Result pr = run_workload(pc);
      for (const auto& [name, metric] : pr.layer)
        if (!res.layer.count(name) && std::string(probe_for(name)) == w) {
          res.layer[name] = metric;
          source[name] = w + " (probe)";
        }
      for (const std::string& e : pr.errors) res.errors.push_back("probe " + w + ": " + e);
      if (!pr.correct) res.correct = false;
    }
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "trace_hooks=%d processors=%u\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.traced ? 1 : 0,
              abp::runtime::Scheduler::trace_compiled() ? 1 : 0,
              std::thread::hardware_concurrency());
  print_metrics("e2e", res.e2e);
  if (cfg.traced) {
    for (const auto& [name, untraced] : res.e2e) {
      const auto it = res.e2e_traced.find(name);
      // ru_maxrss only grows: the traced phase's reading includes the
      // untraced phase before it, so it says nothing about tracing.
      if (it == res.e2e_traced.end() || name == "peak_rss_mb") continue;
      std::printf("overhead %s untraced=%.6g traced=%.6g traced/untraced=%.4f\n",
                  name.c_str(), untraced.value, it->second.value,
                  untraced.value != 0.0 ? it->second.value / untraced.value : 0.0);
    }
    for (const LayerMetricDef& d : layer_metric_defs()) {
      const auto it = res.layer.find(d.name);
      if (it == res.layer.end()) continue;
      std::printf("layer %s %.9g %s source=%s moves: %s\n", d.name,
                  it->second.value, it->second.unit.c_str(),
                  source[d.name].c_str(), d.moves);
    }
    std::printf("diag traced.spans_recorded %llu\n",
                static_cast<unsigned long long>(Tracer::get().stored()));
    if (!spans_out.empty() && !Tracer::get().write_csv(spans_out))
      std::printf("diag spans_out_failed %s\n", spans_out.c_str());
  }
  for (const std::string& d : res.diag) std::printf("diag %s\n", d.c_str());
  for (const std::string& e : res.errors) std::printf("error %s\n", e.c_str());
  std::printf("RESULT {\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              res.correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed),
              json_metrics(cfg.traced ? res.layer : res.e2e).c_str());
  std::fflush(stdout);
  return res.correct ? 0 : 1;
}

// ---- self-test ------------------------------------------------------------

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("selftest %s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * (1 + std::fabs(b)); }

int selftest() {
  const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  expect(near(median(ten), 5.5), "median of 1..10 is 5.5");
  expect(near(percentile(ten, 90.0), 9.1), "p90 of 1..10 is 9.1");
  expect(near(percentile(ten, 0.0), 1.0) && near(percentile(ten, 100.0), 10.0),
         "p0 / p100 are the extremes");
  expect(percentile({}, 50.0) == 0.0 && near(percentile({3.5}, 90.0), 3.5),
         "percentile of 0 and 1 samples");
  {
    // Five slices of 1..10; the fourth is disturbed (x10).
    std::vector<double> run;
    for (int k = 0; k < 5; ++k)
      for (int i = 1; i <= 10; ++i) run.push_back(k == 3 ? 10.0 * i : i);
    expect(near(windowed_percentile(run, 90.0, 5), 9.1) &&
               percentile(run, 90.0) > 10.0,
           "windowed p90 ignores one disturbed slice");
  }
  expect(highest_supported_percentile(100) == 90.0 &&
             highest_supported_percentile(1000) == 99.0 &&
             highest_supported_percentile(20) == 50.0 &&
             highest_supported_percentile(19) == 0.0,
         "highest percentile with >= 10 samples beyond it");
  expect(near(processor_average(2.0, 0.5), 4.0) &&
             processor_average(1.0, 0.0) == 0.0,
         "P_A = cpu / wall");
  expect(near(bound_ratio(0.4, 0.1, 0.05, 4.0), 0.4 / 0.3),
         "bound_ratio = cpu / (T1 + P*Tinf)");
  // T = c*(T1 + P*Tinf)/P_A with c = 2, T1 = 1, Tinf = 0.25, P = 4,
  // P_A = 2.5: wall 1.6 s, cpu 4 s; the ratio must recover c.
  expect(near(bound_ratio(1.6 * 2.5, 1.0, 0.25, 4.0), 2.0),
         "bound_ratio recovers the paper's constant");

  {
    FinalizeLedger clean(8);
    for (std::uint64_t s = 1; s <= 5; ++s) clean.admit(s);
    for (std::uint64_t s = 1; s <= 5; ++s) clean.on_finalize(s, true, 100 + s);
    const auto v = clean.verify();
    expect(v.ok() && v.admitted == 5 && v.finalized_once == 5 &&
               clean.finalize_ns(3) == 103 && clean.completed(3),
           "ledger accepts an exactly-once stream");
  }
  {
    FinalizeLedger bad(8);
    for (std::uint64_t s = 1; s <= 5; ++s) bad.admit(s);
    for (const std::uint64_t s : {1, 2, 2, 3, 5}) bad.on_finalize(s, true, 0);
    const auto v = bad.verify();
    expect(!v.ok() && v.duplicates == 1 && v.gaps == 1 && v.strays == 0,
           "ledger catches one duplicate and one gap");
  }
  {
    FinalizeLedger stray(4);
    stray.admit(1);
    stray.on_finalize(1, true, 0);
    stray.on_finalize(2, false, 0);   // never admitted
    stray.on_finalize(99, true, 0);   // out of range
    const auto v = stray.verify();
    expect(!v.ok() && v.strays == 2 && v.gaps == 0, "ledger catches strays");
  }
  {
    Tracer& tr = Tracer::get();
    tr.reset_totals();
    SpanStack::push(kSpanWait);
    {
      SpanStack::push(kSpanJob);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      SpanStack::pop();
    }
    SpanStack::pop();
    const auto tt = tr.totals();
    const SpanTotals& w = tt[kSpanWait];
    const SpanTotals& j = tt[kSpanJob];
    expect(w.count == 1 && j.count == 1 && j.dur_ns >= 2e6 &&
               near(w.self_ns, w.dur_ns - j.dur_ns) && w.self_ns < 1e6,
           "span self time excludes child spans");
  }
  std::printf("selftest %s (%d failure(s))\n", g_failures ? "FAILED" : "passed",
              g_failures);
  return g_failures ? 1 : 0;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-out <file>]\n"
               "                 [--hook-ns-per-spawn <ns>]\n"
               "       perfbench --probe spawn_cost --seed <n> --seconds <s>\n"
               "       perfbench --probe setup --workload <name> --seed <n>\n"
               "       perfbench --selftest\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  // Pin glibc's mmap threshold at its initial 128 KiB. Left dynamic, the
  // first free of a 256 KiB fiber stack may raise it, and a process then
  // serves later stacks from arena memory instead of fresh mappings: the
  // fiber layer's cost and the peak RSS would flip between two modes from
  // one process to the next.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Config cfg;
  std::string probe, spans_out;
  double hook_ns = std::nan("");
  bool self = false, have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    char* end = nullptr;
    if (a == "--selftest") {
      self = true;
    } else if (a == "--workload") {
      cfg.workload = value();
      have_workload = true;
    } else if (a == "--seed") {
      const std::string v = value();
      cfg.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("--seed takes a whole number");
    } else if (a == "--seconds") {
      const std::string v = value();
      cfg.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(cfg.seconds > 0.0) || cfg.seconds > 600.0)
        usage("--seconds takes a number in (0, 600]");
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      cfg.traced = v == "1";
    } else if (a == "--spans-out") {
      spans_out = value();
    } else if (a == "--hook-ns-per-spawn") {
      const std::string v = value();
      hook_ns = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0') usage("--hook-ns-per-spawn takes a number");
    } else if (a == "--probe") {
      probe = value();
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (self) return selftest();
  if (have_workload && !is_workload(cfg.workload))
    usage(("unknown workload " + cfg.workload).c_str());
  if (probe == "setup") {
    if (!have_workload) usage("--probe setup needs --workload");
    const double s = setup_probe(cfg.workload, cfg.seed);
    std::printf("SETUP %.9g\n", s);
    return s > 0.0 ? 0 : 1;
  }
  if (!probe.empty()) {
    if (probe != "spawn_cost") usage("the probes are spawn_cost and setup");
    std::printf("SPAWN_COST {\"cpu_ns_per_spawn\": %.9g, \"trace_hooks\": %d}\n",
                spawn_cost_probe(cfg.seed, cfg.seconds),
                abp::runtime::Scheduler::trace_compiled() ? 1 : 0);
    return 0;
  }
  if (!have_workload) usage("--workload is required");
  return run(cfg, spans_out, hook_ns);
}
