// throughput — the simulator's host-throughput harness. One binary, one
// timing loop, one record schema (issr-throughput-v1), one JSON writer.
// It measures MCPS (million simulated core-cycles per wall-second) on
// three fixed record groups and pins their exact simulated cycle counts:
//
//   cc    — the seven Fig. 4a/4b/4c scenarios, timed under the compiled
//           tier and again under the pure interpreter (same cycles);
//   sweep — a cache-friendly fig4a/4b/4c scenario mix through the sweep
//           engine, checked bytewise against a serial, uncached sweep;
//   scale — the four-family CsrMV mix on 1/2/4/8 clusters (simulated
//           time-to-solution speedup over one cluster).
//
// Simulated cycle counts are workload invariants (independent of host
// speed, jobs, tiers and --no-fast-forward): every timed rep must
// reproduce its warm-up's cycles or the harness aborts, and
// scripts/check_bench.py gates them against bench/baseline_throughput.json.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/version.hpp"
#include "core/engine.hpp"
#include "driver/report.hpp"
#include "driver/runs.hpp"
#include "driver/scenario.hpp"
#include "driver/sweep.hpp"
#include "sparse/generate.hpp"
#include "trace/chrome.hpp"

using namespace issr;

namespace {

constexpr const char* kUsage = R"(throughput — simulator host-throughput harness

Usage: throughput [options]

Options:
  --out FILE         output JSON path            [BENCH_throughput.json]
  --min-seconds S    wall budget per timed loop  [0.5]
  --no-fast-forward  tick every cycle instead of skipping provably idle
                     stretches (simulated cycle counts are identical)
  --compiled, --no-compiled
                     execution tier of the sweep and scale groups (the cc
                     group always times both tiers)
  --help             this text

Writes one issr-throughput-v1 document: host facts plus one record per
measurement, {group, name, cycles, core_cycles, reps, seconds, mcps, ...}.
Check it with scripts/check_bench.py.
)";

constexpr unsigned kWorkers = 8;     ///< workers per cluster (scale)
constexpr unsigned kSweepReps = 4;   ///< reps per scenario in the sweep mix

using Clock = std::chrono::steady_clock;
/// Simulated cycles of one pass: a run's fingerprint, compared rep to rep.
using Cycles = std::vector<std::uint64_t>;

/// One way to run a workload (a tier); returns its cycles.
using Arm = std::function<Cycles()>;

struct Timed {
  Cycles cycles;  ///< the warm-up pass's fingerprint, repeated by every rep
  unsigned reps = 0;
  double seconds = 0.0;  ///< wall clock of this arm's timed reps only

  double mcps(std::uint64_t core_cycles) const {
    return static_cast<double>(core_cycles) * reps / seconds / 1e6;
  }
};

[[noreturn]] void diverged(const std::string& what, std::size_t arm) {
  std::fprintf(stderr, "FATAL: %s: simulated cycles of arm %zu diverged\n",
               what.c_str(), arm);
  std::abort();
}

/// The one timing loop. The arms run the same workload different ways
/// and take turns, so a host slowdown hits them alike and their MCPS
/// ratio holds. An untimed warm-up pass per arm (cold caches, page
/// allocation) fixes the cycle fingerprint; timed passes repeat until
/// every arm has run `min_seconds`. Aborts when an arm's warm-up cycles
/// differ from the first arm's, or a pass's from its warm-up's.
std::vector<Timed> time_loop(const std::string& what, double min_seconds,
                             const std::vector<Arm>& arms) {
  std::vector<Timed> t(arms.size());
  for (std::size_t i = 0; i < arms.size(); ++i) {
    t[i].cycles = arms[i]();
    if (t[i].cycles != t[0].cycles) diverged(what, i);
  }
  for (;;) {
    bool done = true;
    for (std::size_t i = 0; i < arms.size(); ++i) {
      const auto t0 = Clock::now();
      if (arms[i]() != t[i].cycles) diverged(what, i);
      t[i].seconds += std::chrono::duration<double>(Clock::now() - t0).count();
      ++t[i].reps;
      done = done && t[i].seconds >= min_seconds;
    }
    if (done) return t;
  }
}

std::uint64_t sum(const Cycles& c) {
  std::uint64_t s = 0;
  for (const auto v : c) s += v;
  return s;
}

std::string fixed4(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

/// One issr-throughput-v1 record: the fields every group shares plus
/// group-specific extras, rendered as JSON values in output order.
struct Record {
  std::string group;
  std::string name;
  std::uint64_t cycles = 0;       ///< the pinned simulated cycle count
  std::uint64_t core_cycles = 0;  ///< simulated core-cycles of one pass
  Timed timed;
  std::vector<std::pair<std::string, std::string>> extra;

  Record(std::string g, std::string n, std::uint64_t c, std::uint64_t cc,
         Timed t)
      : group(std::move(g)), name(std::move(n)), cycles(c), core_cycles(cc),
        timed(std::move(t)) {}

  double mcps() const { return timed.mcps(core_cycles); }
  Record& add(const std::string& key, std::string json) {
    extra.emplace_back(key, std::move(json));
    return *this;
  }
  Record& add(const std::string& key, std::uint64_t v) {
    return add(key, std::to_string(v));
  }
  Record& add(const std::string& key, double v) { return add(key, fixed4(v)); }
};

/// Toggle the process-wide compiled-tier default for one scope.
class ScopedCompiled {
 public:
  explicit ScopedCompiled(bool on) : prev_(core::engine_compiled_default()) {
    core::set_engine_compiled_default(on);
  }
  ~ScopedCompiled() { core::set_engine_compiled_default(prev_); }

 private:
  bool prev_;
};

// --- cc: the Fig. 4 single-CC and cluster scenarios ------------------------

/// Time one scenario under the compiled tier (arm 0) and the pure
/// interpreter (arm 1); the two tiers must simulate identical cycles.
Record measure_cc(const std::string& name, double min_seconds,
                  const Arm& run) {
  const auto tier = [&](bool compiled) -> Arm {
    return [&run, compiled] {
      ScopedCompiled scope(compiled);
      return run();
    };
  };
  const auto t = time_loop(name, min_seconds, {tier(true), tier(false)});
  const std::uint64_t cycles = sum(t[0].cycles);
  Record r("cc", name, cycles, cycles, t[0]);
  const double mcps_interp = t[1].mcps(cycles);
  r.add("mcps_interpreted", mcps_interp);
  r.add("speedup", r.mcps() / mcps_interp);
  return r;
}

void cc_group(double min_seconds, std::vector<Record>& out) {
  // fig4a: single-CC SpVV, streaming-dominated, both index widths.
  {
    Rng rng(1);
    const auto a = sparse::random_sparse_vector(rng, 32768, 16384);
    const auto b = sparse::random_dense_vector(rng, 32768);
    for (const auto width :
         {sparse::IndexWidth::kU16, sparse::IndexWidth::kU32}) {
      const std::string name = width == sparse::IndexWidth::kU16
                                   ? "fig4a_spvv_issr16"
                                   : "fig4a_spvv_issr32";
      out.push_back(measure_cc(name, min_seconds, [&] {
        return Cycles{driver::run_spvv_cc(kernels::Variant::kIssr, width, a,
                                          b, nullptr, /*validate=*/false)
                          .sim.cycles};
      }));
    }
  }
  // fig4b: single-CC CsrMV across kernel variants (base exercises the
  // scalar load path, issr the full indirection datapath).
  {
    Rng rng(2);
    const auto a = sparse::random_fixed_row_nnz_matrix(rng, 384, 512, 26);
    const auto x = sparse::random_dense_vector(rng, 512);
    const struct {
      const char* name;
      kernels::Variant variant;
      sparse::IndexWidth width;
    } points[] = {
        {"fig4b_csrmv_base", kernels::Variant::kBase,
         sparse::IndexWidth::kU32},
        {"fig4b_csrmv_ssr", kernels::Variant::kSsr, sparse::IndexWidth::kU32},
        {"fig4b_csrmv_issr16", kernels::Variant::kIssr,
         sparse::IndexWidth::kU16},
        {"fig4b_csrmv_issr32", kernels::Variant::kIssr,
         sparse::IndexWidth::kU32},
    };
    for (const auto& p : points) {
      out.push_back(measure_cc(p.name, min_seconds, [&] {
        return Cycles{driver::run_csrmv_cc(p.variant, p.width, a, x, nullptr,
                                           /*validate=*/false)
                          .sim.cycles};
      }));
    }
  }
  // fig4c: 8-worker cluster CsrMV with DMA double-buffering and TCDM
  // arbitration; cycles are core-cycles (cycles x workers).
  {
    Rng rng(3);
    const auto a = sparse::random_fixed_row_nnz_matrix(rng, 512, 1024, 51);
    const auto x = sparse::random_dense_vector(rng, 1024);
    out.push_back(measure_cc("fig4c_cluster_issr16", min_seconds, [&] {
      const auto r = driver::run_csrmv_mc(kernels::Variant::kIssr,
                                          sparse::IndexWidth::kU16, 8, a, x,
                                          nullptr, /*validate=*/false);
      return Cycles{r.mc.cluster.cycles * 8};
    }));
  }
}

// --- sweep: the sweep engine on a cache-friendly mix -----------------------

/// Fig. 4a/4b/4c-shaped scenarios in which many variant/width points
/// share a few workloads (the asset cache's case), with the heavy cluster
/// scenario declared last (the cost-ordered scheduler's case).
std::vector<driver::Scenario> sweep_mix() {
  std::vector<driver::Scenario> out;
  const auto append = [&](const driver::ScenarioMatrix& m) {
    for (const auto& s : m.expand()) out.push_back(s);
  };
  // ISSR CsrMV across the structural families at low densities: 14
  // scenarios over 7 workloads (torus pins its own density).
  driver::ScenarioMatrix csrmv;
  csrmv.kernels = {driver::Kernel::kCsrmv};
  csrmv.variants = {kernels::Variant::kIssr};
  csrmv.families = {
      sparse::MatrixFamily::kUniform, sparse::MatrixFamily::kBanded,
      sparse::MatrixFamily::kPowerLaw, sparse::MatrixFamily::kTorus};
  csrmv.densities = {0.01, 0.02};
  csrmv.cores = {1};
  csrmv.rows = 512;
  csrmv.cols = 1024;
  csrmv.base_seed = 42;
  append(csrmv);
  // Single-CC SpVV, both widths on one vector pair.
  driver::ScenarioMatrix spvv;
  spvv.kernels = {driver::Kernel::kSpvv};
  spvv.variants = {kernels::Variant::kIssr};
  spvv.densities = {0.25};
  spvv.cols = 16384;
  spvv.base_seed = 42;
  append(spvv);
  // One 8-worker cluster CsrMV, declared last.
  driver::ScenarioMatrix cluster;
  cluster.kernels = {driver::Kernel::kCsrmv};
  cluster.variants = {kernels::Variant::kIssr};
  cluster.widths = {sparse::IndexWidth::kU16};
  cluster.families = {sparse::MatrixFamily::kUniform};
  cluster.densities = {0.02};
  cluster.cores = {8};
  cluster.rows = 256;
  cluster.cols = 512;
  cluster.base_seed = 42;
  append(cluster);
  return out;
}

/// Returns false when a scenario failed validation or the timed sweep's
/// results differ from the serial, uncached reference sweep.
bool sweep_group(double min_seconds, std::vector<Record>& out) {
  const unsigned hw = std::thread::hardware_concurrency();
  driver::SweepSpec spec;
  spec.scenarios = sweep_mix();
  spec.jobs = std::min(8u, hw == 0 ? 2u : hw);
  spec.reps = kSweepReps;
  driver::SweepOutcome timed_pass;
  const Timed t = time_loop("sweep_mix", min_seconds, {[&] {
    timed_pass = driver::run_sweep(spec);
    return Cycles{timed_pass.stats.core_cycles, timed_pass.stats.runs};
  }})[0];

  driver::SweepSpec reference = spec;
  reference.jobs = 1;
  reference.asset_cache = false;
  const bool identical =
      driver::results_to_json(driver::run_sweep(reference).results) ==
      driver::results_to_json(timed_pass.results);
  if (!identical) {
    std::fprintf(stderr, "FATAL: sweep results differ from the serial, "
                         "uncached sweep of the same mix\n");
  }
  bool valid = true;
  for (const auto& r : timed_pass.results) {
    if (!r.ok) {
      std::fprintf(stderr, "FATAL: %s failed validation\n",
                   r.scenario.name().c_str());
      valid = false;
    }
  }

  Record r("sweep", "sweep_mix", t.cycles[0], t.cycles[0], t);
  r.add("scenarios", std::uint64_t{spec.scenarios.size()});
  r.add("runs", t.cycles[1]);
  r.add("jobs", std::uint64_t{spec.jobs});
  r.add("outputs_identical", identical ? "true" : "false");
  out.push_back(std::move(r));
  return identical && valid;
}

// --- scale: the four-family multi-cluster mix -------------------------------

struct Member {
  std::string name;
  sparse::CsrMatrix a;
  sparse::DenseVector x;
};

/// The four-family CsrMV mix, one matrix per generator family: a
/// bandwidth-hungry uniform matrix (fig4c-shaped, 51 nnz/row), a banded
/// FEM-stencil structure, a torus-graph Laplacian, and a mildly skewed
/// power-law graph whose unsplittable hub rows are the mix's Amdahl
/// anchor. Each x is drawn right after its matrix, so operands are a
/// fixed function of the seed.
std::vector<Member> system_mix() {
  constexpr unsigned n = 4096;
  constexpr unsigned side = 64;
  const std::string h = std::to_string(n / 2);
  Rng rng(4);
  std::vector<Member> mix;
  const auto add = [&](std::string name, sparse::CsrMatrix a) {
    auto x = sparse::random_dense_vector(rng, a.cols());
    mix.push_back(Member{std::move(name), std::move(a), std::move(x)});
  };
  add("uniform" + std::to_string(n) + "x51",
      sparse::random_fixed_row_nnz_matrix(rng, n, n, 51));
  add("banded" + h + "bw24", sparse::banded_matrix(rng, n / 2, 24));
  add("torus" + std::to_string(side) + "x" + std::to_string(side),
      sparse::torus2d_matrix(rng, side, side));
  add("powerlaw" + h + "m24",
      sparse::powerlaw_matrix(rng, n / 2, n / 4, 24.0, 0.5));
  return mix;
}

/// One pass over the mix on `clusters` clusters; returns each member's
/// cycles.
Cycles run_mix(const std::vector<Member>& mix, unsigned clusters) {
  Cycles cycles;
  for (const auto& m : mix) {
    cycles.push_back(driver::run_csrmv_sys(kernels::Variant::kIssr,
                                           sparse::IndexWidth::kU16, clusters,
                                           kWorkers, m.a, m.x, nullptr,
                                           /*validate=*/false, {}, {})
                         .sys.system.cycles);
  }
  return cycles;
}

/// The mix on the System engine: simulated time-to-solution speedup over
/// one cluster, for the mix and per member.
void scale_group(double min_seconds, std::vector<Record>& out) {
  const auto mix = system_mix();
  Cycles one_cluster;
  for (const unsigned clusters : {1u, 2u, 4u, 8u}) {
    const std::string name = "scale_x" + std::to_string(clusters);
    const Timed t = time_loop(name, min_seconds, {[&] {
      return run_mix(mix, clusters);
    }})[0];
    if (clusters == 1) one_cluster = t.cycles;
    const double t2s = static_cast<double>(sum(one_cluster)) /
                       static_cast<double>(sum(t.cycles));
    std::string matrices = "[";
    for (std::size_t i = 0; i < mix.size(); ++i) {
      matrices += std::string(i ? ", " : "") + "{\"name\": \"" +
                  mix[i].name + "\", \"sim_cycles\": " +
                  std::to_string(t.cycles[i]) + ", \"t2s_speedup\": " +
                  fixed4(static_cast<double>(one_cluster[i]) /
                         static_cast<double>(t.cycles[i])) +
                  "}";
    }
    const std::uint64_t cycles = sum(t.cycles);
    Record r("scale", name, cycles, cycles * clusters * kWorkers, t);
    r.add("clusters", std::uint64_t{clusters});
    r.add("t2s_speedup", t2s);
    r.add("scaling_efficiency", t2s / clusters);
    r.add("matrices", matrices + "]");
    out.push_back(std::move(r));
  }
}

// --- output -----------------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    const auto start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "unknown" : line.substr(start);
  }
  return "unknown";
}

std::string quoted(const std::string& s) {
  return "\"" + trace::json_escape(s) + "\"";
}

std::string to_json(const std::vector<Record>& records, double min_seconds) {
  const unsigned hw = std::thread::hardware_concurrency();
  std::string j = "{\n  \"schema\": \"issr-throughput-v1\",\n";
  j += "  \"host\": {\"git\": " + quoted(engine_version()) +
       ", \"nproc\": " + std::to_string(hw) +
       ", \"cpu\": " + quoted(cpu_model()) +
       ", \"compiler\": " + quoted(__VERSION__) +
       ", \"build_type\": " + quoted(engine_build_type()) +
       ", \"lto\": " + (engine_build_lto() ? "true" : "false") + "},\n";
  j += std::string("  \"fast_forward\": ") +
       (core::engine_fast_forward_default() ? "true" : "false") +
       ",\n  \"compiled\": " +
       (core::engine_compiled_default() ? "true" : "false") +
       ",\n  \"min_seconds\": " + fixed4(min_seconds) + ",\n";
  j += "  \"records\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    j += "    {\"group\": " + quoted(r.group) + ", \"name\": " +
         quoted(r.name) + ", \"cycles\": " + std::to_string(r.cycles) +
         ", \"core_cycles\": " + std::to_string(r.core_cycles) +
         ", \"reps\": " + std::to_string(r.timed.reps) +
         ", \"seconds\": " + fixed4(r.timed.seconds) +
         ", \"mcps\": " + fixed4(r.mcps());
    for (const auto& [key, value] : r.extra) {
      j += ", \"" + key + "\": " + value;
    }
    j += i + 1 < records.size() ? "},\n" : "}\n";
  }
  j += "  ]\n}\n";
  return j;
}

void print_table(const std::vector<Record>& records) {
  Table t("Simulator throughput (million simulated core-cycles / second)");
  t.set_header({"group", "record", "cycles", "reps", "MCPS", "ratio"});
  for (const auto& r : records) {
    std::string ratio = "-";
    for (const auto& [key, value] : r.extra) {
      if (key == "speedup" || key == "t2s_speedup") ratio = value + "x";
    }
    t.add_row({r.group, r.name, fmt_u(r.cycles), fmt_u(r.timed.reps),
               fixed4(r.mcps()), ratio});
  }
  t.print();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_throughput.json";
  double min_seconds = 0.5;

  cli::FlagParser parser("throughput", kUsage);
  core::register_engine_cli(parser);
  parser.add_value("--out", [&](const std::string& v) {
    out_path = v;
    return !v.empty();
  });
  parser.add_value("--min-seconds", [&](const std::string& v) {
    return cli::parse_double(v, min_seconds) && min_seconds > 0.0;
  });
  parser.parse(argc, argv);

  std::vector<Record> records;
  cc_group(min_seconds, records);
  const bool sweep_ok = sweep_group(min_seconds, records);
  scale_group(min_seconds, records);
  print_table(records);

  if (!driver::write_text_file(out_path, to_json(records, min_seconds))) {
    std::fprintf(stderr, "throughput: failed to write %s\n",
                 out_path.c_str());
    return 1;
  }
  std::printf("wrote %s (git %s)\n", out_path.c_str(),
              engine_version().c_str());
  return sweep_ok ? 0 : 1;
}
