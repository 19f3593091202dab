// issr_perfbench — the repository's benchmark. One process runs one named
// workload (workloads.hpp) with operands generated from --seed, checks
// every call against the golden host reference, and prints its metrics
// as one JSON line (the last line of stdout):
//
//   --trace 0  end-to-end metrics from timed, untraced calls
//   --trace 1  per-layer metrics from a traced run of the same calls,
//              plus a Chrome trace-event file of every span
//
// Exit status: 0 when every call passed the correctness gate (and, at
// the default seed, every continuity pin held); 1 when a call failed
// (the result line is still printed, with "correct": false); 2 on a
// usage error or a build that is not Release (no result line).
// perfbench/README.md describes the workloads and every metric.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "common/version.hpp"
#include "core/engine.hpp"
#include "trace/stall.hpp"

#include "spans.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

/// Set-ups per run: the workload's own cold set-up plus fresh ones spread
/// over the timed window.
constexpr std::size_t kSetupReps = 12;
/// Fewest passes a timed window holds.
constexpr std::size_t kMinPasses = 20;
/// Share of each call's timed runs the timing metrics keep (its fastest),
/// and the fewest runs kept per call.
constexpr double kKeepShare = 0.02;
constexpr std::size_t kMinKeep = 3;
/// The host-speed calibration loop: steps per sample, table words, and
/// the time its fastest samples take on the reference host (the 4-vCPU
/// Intel Xeon VM this benchmark was tuned on).
constexpr int kCalSteps = 50000;
constexpr std::uint32_t kCalWords = 16384;
constexpr double kCalRefMs = 0.175;
/// Paired runs per same-process ratio.
constexpr int kRatioPairs = 5;
/// Stop timing by this point whatever --seconds asks, so a run always
/// ends within the benchmark's time limit.
constexpr double kMaxWindowSeconds = 120.0;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out = "perfbench.trace.json";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "issr_perfbench: %s\n"
               "usage: issr_perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-out FILE]\n"
               "workloads:",
               why.c_str());
  for (const auto& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\ndefault seed %llu, held-out seed %llu\n",
               static_cast<unsigned long long>(kDefaultSeed),
               static_cast<unsigned long long>(kHeldOutSeed));
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("bad --seed " + v);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.seconds > 0)) {
        usage("bad --seconds " + v);
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("bad --trace " + v);
      o.trace = v == "1";
    } else if (flag == "--trace-out") {
      o.trace_out = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

// --- Host facts ------------------------------------------------------------

unsigned host_nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return 1;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// High-water resident set of this process image. (/proc's VmHWM, not
/// getrusage: ru_maxrss carries the parent's footprint across exec.)
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

std::string host_json(const Options& o, unsigned nproc) {
  return std::string("{\"workload\": ") + json_str(o.workload) +
         ", \"seed\": " + std::to_string(o.seed) +
         ", \"trace\": " + (o.trace ? "1" : "0") +
         ", \"nproc\": " + std::to_string(nproc) +
         ", \"cpu\": " + json_str(cpu_model()) +
         ", \"compiler\": " + json_str(kCompiler) +
         ", \"build_type\": " + json_str(issr::engine_build_type()) +
         ", \"lto\": " + (issr::engine_build_lto() ? "true" : "false") +
         ", \"git\": " + json_str(issr::engine_version()) + "}";
}

// --- Statistics ------------------------------------------------------------

/// Linear-interpolation quantile (the "inclusive" method).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

using WorkloadFactory = std::function<std::unique_ptr<Workload>()>;

// --- Correctness gate ------------------------------------------------------

class Gate {
 public:
  /// Count one call; it fails on its own gate failure or when its
  /// fingerprint (simulated cycles and FP issues) differs from the
  /// reference pass's.
  void check(const Outcome& o, const Outcome* ref, const std::string& name) {
    ++attempted_;
    std::string why = o.failure;
    if (why.empty() && ref != nullptr && o.fingerprint != ref->fingerprint) {
      why = "a repeat gave different simulated cycles or FP issues";
    }
    if (!why.empty()) fail(name + ": " + why);
  }
  void fail(const std::string& why) {
    ++failed_;
    if (failed_ <= 10) std::fprintf(stderr, "FAIL %s\n", why.c_str());
  }
  void pin_broken(const std::string& why) {
    pins_ok_ = false;
    std::fprintf(stderr, "PIN %s\n", why.c_str());
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && pins_ok_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool pins_ok_ = true;
};

// --- Metrics ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string fmt_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const Gate& gate, const std::vector<Metric>& ms) {
  for (const auto& m : ms) {
    std::fprintf(stderr, "  %-30s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::string j = std::string("{\"correct\": ") +
                  (gate.correct() ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(gate.attempted()) +
                  ", \"failed\": " + std::to_string(gate.failed()) +
                  ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) j += ", ";
    j += json_str(ms[i].name) + ": {\"value\": " + fmt_num(ms[i].value) +
         ", \"unit\": " + json_str(ms[i].unit) + "}";
  }
  j += "}}";
  std::printf("%s\n", j.c_str());
  std::fflush(stdout);
}

/// One pass over every call of the workload, gated against `ref` (null
/// for the reference pass itself).
std::vector<Outcome> run_pass(Workload& wl, Tracer* tr, Gate& gate,
                              const std::vector<Outcome>* ref,
                              std::uint64_t* call_id = nullptr) {
  std::vector<Outcome> out;
  for (std::size_t i = 0; i < wl.calls(); ++i) {
    const std::string name = wl.call_name(i);
    if (tr != nullptr) {
      tr->set_call(++*call_id);
      Scope s(tr, "bench.call", name);
      out.push_back(wl.call(i, tr));
    } else {
      out.push_back(wl.call(i, nullptr));
    }
    gate.check(out.back(), ref ? &(*ref)[i] : nullptr, name);
  }
  return out;
}

/// Wall seconds of one cold set-up.
double timed_setup(Workload& wl, Tracer* tr) {
  const auto t0 = Clock::now();
  wl.setup(tr);
  return seconds_since(t0);
}

/// The fastest kKeepShare of one call's timed runs, at least kMinKeep.
/// The host's neighbours slow the simulator by up to 2x for most of a
/// run, in bursts of milliseconds; a call's fastest runs measure the
/// code rather than the neighbours as long as a fiftieth of its runs
/// fall between bursts.
std::vector<double> fastest_runs(std::vector<double> ms) {
  std::sort(ms.begin(), ms.end());
  const auto keep = static_cast<std::size_t>(
      std::ceil(kKeepShare * static_cast<double>(ms.size())));
  ms.resize(std::min(ms.size(), std::max(keep, kMinKeep)));
  return ms;
}

/// Moves the calling thread round the vCPUs it may run on, so a run
/// samples every vCPU rather than whichever one the scheduler left it
/// on; restores the thread's affinity when destroyed.
class VcpuRotation {
 public:
  VcpuRotation() {
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) cpus_.push_back(c);
    }
    if (cpus_.size() < 2) cpus_.clear();
  }
  ~VcpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  VcpuRotation(const VcpuRotation&) = delete;
  VcpuRotation& operator=(const VcpuRotation&) = delete;

  /// Pin to the `k`-th vCPU, counting round.
  void pin(std::size_t k) {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[k % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t saved_{};
  std::vector<int> cpus_;
};

/// Host speed, from a fixed calibration loop timed before every call.
/// The host's fastest state drifts by up to a tenth from minute to
/// minute, and the calls' fastest runs drift with it, but their ratio to
/// the loop's fastest runs holds to about 2%. So the timing metrics are
/// scaled to the reference host, on which the loop's fastest samples
/// take kCalRefMs.
class HostSpeed {
 public:
  HostSpeed() : table_(kCalWords) {
    for (std::uint32_t k = 0; k < kCalWords; ++k) {
      table_[k] = k * 2654435761u;
    }
  }

  /// Time one run of the loop: data-dependent loads from a 64 KiB table
  /// and a data-dependent branch, as in a simulator's inner loops.
  void sample() {
    const auto t0 = Clock::now();
    std::uint64_t acc = 1;
    for (int r = 0; r < kCalSteps; ++r) {
      const std::uint32_t v = table_[(acc >> 7) & (kCalWords - 1)];
      if (v & 1) {
        acc = acc * 6364136223846793005ull + v;
      } else {
        acc ^= v + (acc << 3);
      }
    }
    ms_.push_back(seconds_since(t0) * 1e3);
    sink_ = sink_ + acc;
  }

  /// Reference-host time per host second in this run: host times
  /// multiply by it.
  double scale() const {
    const std::vector<double> kept = fastest_runs(ms_);
    return kCalRefMs * static_cast<double>(kept.size()) /
           std::accumulate(kept.begin(), kept.end(), 0.0);
  }

 private:
  std::vector<std::uint32_t> table_;
  std::vector<double> ms_;
  volatile std::uint64_t sink_ = 0;
};

/// How many of `n` set-ups sorted fastest first `setup_s` keeps: the
/// fastest tenth, at least one.
std::size_t fastest_tenth(std::size_t n) {
  return std::min(n, std::max<std::size_t>((n + 9) / 10, 1));
}

/// Reference pass: gated, pins checked at the default seed.
std::vector<Outcome> reference_pass(Workload& wl, Gate& gate,
                                    std::uint64_t seed) {
  std::vector<Outcome> ref = run_pass(wl, nullptr, gate, nullptr);
  if (seed == kDefaultSeed) {
    for (const auto& why : wl.check_pins(ref)) gate.pin_broken(why);
  }
  return ref;
}

std::vector<Metric> end_to_end(Workload& wl, const Options& o, Gate& gate,
                               const WorkloadFactory& fresh) {
  std::vector<double> setup_s = {timed_setup(wl, nullptr)};
  const std::vector<Outcome> ref = reference_pass(wl, gate, o.seed);
  const auto spare_setup = [&] {
    const auto spare = fresh();
    setup_s.push_back(timed_setup(*spare, nullptr));
  };

  // Calls run one after another in whole passes.
  std::vector<std::vector<double>> call_ms(wl.calls());
  std::size_t passes = 0;
  const auto t0 = Clock::now();
  double window = 0.0;
  HostSpeed speed;
  {
    VcpuRotation rotation;
    while ((window < o.seconds || passes < kMinPasses) &&
           window < kMaxWindowSeconds) {
      if (setup_s.size() < kSetupReps &&
          window >= o.seconds * static_cast<double>(setup_s.size()) /
                        static_cast<double>(kSetupReps)) {
        spare_setup();
      }
      for (std::size_t i = 0; i < wl.calls(); ++i) {
        rotation.pin(passes + i);
        speed.sample();
        const auto c0 = Clock::now();
        const Outcome out = wl.call(i, nullptr);
        call_ms[i].push_back(seconds_since(c0) * 1e3);
        gate.check(out, &ref[i], wl.call_name(i));
      }
      ++passes;
      window = seconds_since(t0);
    }
  }

  while (setup_s.size() < kSetupReps) spare_setup();

  // Every run of a call simulates the same work (the gate holds it to
  // the reference pass), so its runs compare directly; the timing
  // metrics come from each call's fastest runs, and a pass's time is the
  // sum of its calls' kept means.
  std::vector<double> lat_ms;
  double pass_ms = 0.0;
  for (const auto& runs : call_ms) {
    const std::vector<double> kept = fastest_runs(runs);
    lat_ms.insert(lat_ms.end(), kept.begin(), kept.end());
    pass_ms += std::accumulate(kept.begin(), kept.end(), 0.0) /
               static_cast<double>(kept.size());
  }
  std::sort(setup_s.begin(), setup_s.end());
  setup_s.resize(fastest_tenth(setup_s.size()));
  const double scale = speed.scale();

  std::uint64_t sim_cycles = 0, pass_core_cycles = 0;
  double fp = 0.0;
  for (const auto& r : ref) {
    sim_cycles += r.cycles;
    pass_core_cycles += r.core_cycles;
    fp += r.fp_compute;
  }
  std::fprintf(stderr, "%s: %zu calls in %zu passes in %.3f s; timing from "
               "the fastest %zu calls; host at %.4f of the reference's "
               "speed, so %.4f Mcycles/s unscaled\n",
               o.workload.c_str(), passes * wl.calls(), passes, window,
               lat_ms.size(),
               scale, static_cast<double>(pass_core_cycles) / pass_ms / 1e3);

  return {
      {"mcps", static_cast<double>(pass_core_cycles) / (pass_ms * scale) / 1e3,
       "Mcycles/s"},
      {"lat_ms_p50", quantile(lat_ms, 0.5) * scale, "ms"},
      {"lat_ms_p90", quantile(lat_ms, 0.9) * scale, "ms"},
      {"setup_s", median(setup_s) * scale, "s"},
      {"sim_cycles", static_cast<double>(sim_cycles), "cycles"},
      {"fpu_util", fp / static_cast<double>(pass_core_cycles), "ratio"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
      {"pass_frac",
       1.0 - static_cast<double>(gate.failed()) /
                 static_cast<double>(gate.attempted()),
       "ratio"},
  };
}

// --- Traced run ------------------------------------------------------------

/// Wall seconds of one untraced run of `calls`, gated against `ref`.
double time_calls(Workload& wl, const std::vector<std::size_t>& calls,
                  Gate& gate, const std::vector<Outcome>& ref) {
  const auto t0 = Clock::now();
  std::vector<Outcome> outs;
  for (const std::size_t i : calls) outs.push_back(wl.call(i, nullptr));
  const double s = seconds_since(t0);
  for (std::size_t k = 0; k < calls.size(); ++k) {
    gate.check(outs[k], &ref[calls[k]], wl.call_name(calls[k]));
  }
  return s;
}

/// Same-process ratio on `calls`: wall time with `use(true)` in force
/// over wall time with `use(false)`, the median of kRatioPairs pairs,
/// alternating which side runs first. Leaves `use(false)` in force.
template <typename Switch>
double paired_ratio(Workload& wl, const std::vector<std::size_t>& calls,
                    Gate& gate, const std::vector<Outcome>& ref,
                    Switch&& use) {
  if (calls.empty()) return 0.0;
  std::vector<double> ratios;
  for (int p = 0; p < kRatioPairs; ++p) {
    double t[2];
    for (int k = 0; k < 2; ++k) {
      const int side = (p + k) % 2;  // 0 = numerator side
      use(side == 0);
      t[side] = time_calls(wl, calls, gate, ref);
    }
    ratios.push_back(t[0] / t[1]);
  }
  use(false);
  return median(ratios);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Per-simulation harvested series folded over one pass: counters sum,
/// gauges average weighted by each simulation's core-cycles.
class HarvestTally {
 public:
  explicit HarvestTally(const std::vector<Outcome>& pass) {
    for (const auto& o : pass) {
      for (const auto& [snap, weight] : o.harvest) {
        weight_ += static_cast<double>(weight);
        for (const auto& e : snap.entries()) {
          if (e.kind == issr::metrics::Kind::kCounter) {
            sums_[e.name] += static_cast<double>(e.count);
          } else if (e.kind != issr::metrics::Kind::kHistogram) {
            sums_[e.name] += e.value * static_cast<double>(weight);
          }
        }
      }
    }
  }
  double counter(const std::string& n) const { return get(n); }
  double gauge(const std::string& n) const {
    return weight_ > 0 ? get(n) / weight_ : 0.0;
  }

 private:
  double get(const std::string& n) const {
    const auto it = sums_.find(n);
    return it == sums_.end() ? 0.0 : it->second;
  }
  std::map<std::string, double> sums_;
  double weight_ = 0.0;
};

/// Mean duration (ms) of the spans called `name`, and their summed
/// duration per simulated cycle (ns).
struct SpanStat {
  double mean_ms = 0.0;
  double ns_per_cycle = 0.0;
};

SpanStat span_stat(const Tracer& tr, const char* name) {
  double ms = 0.0, cycles = 0.0;
  std::size_t n = 0;
  for (const auto& s : tr.spans()) {
    if (std::string(s.name) != name) continue;
    ms += s.ms();
    cycles += static_cast<double>(s.cycles);
    ++n;
  }
  SpanStat out;
  if (n) out.mean_ms = ms / static_cast<double>(n);
  if (cycles > 0) out.ns_per_cycle = ms * 1e6 / cycles;
  return out;
}

std::vector<Metric> per_layer(Workload& wl, const Options& o, Gate& gate,
                              unsigned nproc, const std::string& host) {
  Tracer tr;
  for (std::size_t k = 0; k < kSetupReps; ++k) timed_setup(wl, &tr);
  const std::size_t pass_spans_from = tr.spans().size();

  wl.set_harvest(true);
  const std::vector<Outcome> ref = reference_pass(wl, gate, o.seed);
  wl.set_harvest(false);

  // Alternate untraced and traced passes over the same calls; the
  // untraced ones give the tracing overhead's base.
  std::vector<double> untraced_s, traced_s;
  std::uint64_t call_id = 0;
  const auto t0 = Clock::now();
  for (int k = 0; (seconds_since(t0) < o.seconds || k < 4) &&
                  seconds_since(t0) < kMaxWindowSeconds;
       ++k) {
    for (int side = 0; side < 2; ++side) {
      const bool traced = (k + side) % 2 == 1;
      const auto p0 = Clock::now();
      run_pass(wl, traced ? &tr : nullptr, gate, &ref, &call_id);
      (traced ? traced_s : untraced_s).push_back(seconds_since(p0));
    }
  }
  const double traced_passes = static_cast<double>(traced_s.size());

  const double compiled_speedup = paired_ratio(
      wl, wl.ratio_calls(), gate, ref,
      [](bool interp) { issr::core::set_engine_compiled_default(!interp); });
  const double ff_speedup = paired_ratio(
      wl, wl.ratio_calls(), gate, ref,
      [](bool off) { issr::core::set_engine_fast_forward_default(!off); });
  const unsigned par_threads = std::min(8u, nproc);
  const double par_speedup =
      par_threads > 1
          ? paired_ratio(wl, wl.par_calls(), gate, ref,
                         [&](bool serial) {
                           wl.set_sys_threads(serial ? 1 : par_threads);
                         })
          : 0.0;
  wl.set_sys_threads(1);

  if (!tr.write_chrome(o.trace_out, host)) {
    std::fprintf(stderr, "issr_perfbench: cannot write %s\n",
                 o.trace_out.c_str());
    gate.fail("trace file not written");
  } else {
    std::fprintf(stderr, "wrote %zu spans to %s\n", tr.spans().size(),
                 o.trace_out.c_str());
  }

  // Pass-level simulated series from the reference pass.
  std::uint64_t cycles = 0, core_cycles = 0, ff = 0;
  issr::trace::StallBuckets stalls;
  for (const auto& r : ref) {
    cycles += r.cycles;
    core_cycles += r.core_cycles;
    ff += r.ff_skipped;
    stalls += r.stalls;
  }
  const HarvestTally h(ref);
  const HostStats host_stats = wl.host_stats();
  const auto& cache = host_stats.cache;
  const double hits = static_cast<double>(
      cache.workload_hits + cache.program_hits + cache.compiled_hits);
  const double builds = static_cast<double>(
      cache.workload_builds + cache.program_builds + cache.compiled_builds);

  const SpanStat core_sim = span_stat(tr, "core.sim");
  const SpanStat cluster_sim = span_stat(tr, "cluster.sim");
  const SpanStat system_sim = span_stat(tr, "system.sim");

  std::vector<Metric> ms = {
      {"sparse.gen_ms", span_stat(tr, "sparse.gen").mean_ms, "ms"},
      {"sparse.ref_ms", span_stat(tr, "sparse.ref").mean_ms, "ms"},
      {"kernels.build_ms", span_stat(tr, "kernels.build").mean_ms, "ms"},
      {"kernels.fig4a_util_err", wl.fig4a_util_err(ref), "ratio"},
      {"core.compile_ms", span_stat(tr, "core.compile").mean_ms, "ms"},
      {"core.sim_ms", core_sim.mean_ms, "ms"},
      {"core.ns_per_cycle", core_sim.ns_per_cycle, "ns/cycle"},
      {"core.compiled_speedup", compiled_speedup, "x"},
      {"core.ff_frac",
       ratio(static_cast<double>(ff), static_cast<double>(cycles)), "ratio"},
      {"core.ff_speedup", ff_speedup, "x"},
  };
  for (unsigned b = 0; b < issr::trace::kNumBuckets; ++b) {
    const auto bucket = static_cast<issr::trace::Bucket>(b);
    ms.push_back({std::string("trace.stall.") + issr::trace::to_string(bucket),
                  ratio(static_cast<double>(stalls[bucket]),
                        static_cast<double>(core_cycles)),
                  "ratio"});
  }
  const double grants = h.counter("tcdm_grants");
  const double conflicts = h.counter("tcdm_conflicts");
  const double beats = h.counter("noc_beats_in") + h.counter("noc_beats_out");
  const double denied =
      h.counter("noc_denied_in") + h.counter("noc_denied_out");
  const std::vector<Metric> more = {
      {"ssr.util_issr_lane", h.gauge("util_issr_lane"), "ratio"},
      {"ssr.util_ssr_lane", h.gauge("util_ssr_lane"), "ratio"},
      {"ssr.idx_words_per_elem",
       ratio(h.counter("issr_idx_word_reqs"), h.counter("issr_lane_elems")),
       "ratio"},
      {"mem.tcdm_conflict_rate", ratio(conflicts, grants + conflicts),
       "ratio"},
      {"mem.tcdm_grants", grants, "count"},
      {"mem.util_dma", h.gauge("util_dma"), "ratio"},
      {"mem.dma_bytes", h.counter("dma_bytes_in") + h.counter("dma_bytes_out"),
       "bytes"},
      {"mem.noc_denied_frac", ratio(denied, beats + denied), "ratio"},
      {"mem.noc_beats", beats, "count"},
      {"cluster.sim_ms", cluster_sim.mean_ms, "ms"},
      {"cluster.ns_per_core_cycle", cluster_sim.ns_per_cycle, "ns/cycle"},
      {"cluster.barrier_wait_frac", h.gauge("barrier_wait_frac"), "ratio"},
      {"system.sim_ms", system_sim.mean_ms, "ms"},
      {"system.ns_per_core_cycle", system_sim.ns_per_cycle, "ns/cycle"},
      {"system.steal_claims", h.counter("steal_claims"), "count"},
      {"system.par_speedup", par_speedup, "x"},
      {"driver.sweep_ms", span_stat(tr, "driver.sweep").mean_ms, "ms"},
      {"driver.report_ms", span_stat(tr, "driver.report").mean_ms, "ms"},
      {"driver.busy_frac", host_stats.busy_frac, "ratio"},
      {"driver.steals", host_stats.steals, "count"},
      {"driver.cache_hit_frac", ratio(hits, hits + builds), "ratio"},
      {"bench.trace_overhead",
       quantile(traced_s, 0.25) / quantile(untraced_s, 0.25), "x"},
  };
  ms.insert(ms.end(), more.begin(), more.end());

  // Self time per layer, per traced pass (set-up spans excluded).
  const auto self = tr.self_ms(pass_spans_from);
  for (const char* layer :
       {"bench", "sparse", "kernels", "core", "cluster", "system", "driver"}) {
    const auto it = self.find(layer);
    ms.push_back({std::string(layer) + ".self_ms",
                  it == self.end() ? 0.0 : it->second / traced_passes, "ms"});
  }
  return ms;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const unsigned nproc = host_nproc();
  auto wl = make_workload(o.workload, o.seed);
  if (!wl) usage("unknown workload " + o.workload);

  const std::string host = host_json(o, nproc);
  std::fprintf(stderr, "host %s\n", host.c_str());
  if (std::string(issr::engine_build_type()) != "Release") {
    std::fprintf(stderr,
                 "issr_perfbench: refusing to report timings from a %s "
                 "build; configure with -DCMAKE_BUILD_TYPE=Release\n",
                 issr::engine_build_type());
    return 2;
  }
  std::printf("%s\n", host.c_str());

  Gate gate;
  const std::vector<Metric> ms =
      o.trace ? per_layer(*wl, o, gate, nproc, host)
              : end_to_end(*wl, o, gate, [&] {
                  return make_workload(o.workload, o.seed);
                });
  print_result(gate, ms);
  return gate.correct() ? 0 : 1;
}
