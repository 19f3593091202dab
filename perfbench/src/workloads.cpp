#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <set>
#include <tuple>

#include "cluster/csrmv_mc.hpp"
#include "common/rng.hpp"
#include "core/compile.hpp"
#include "core/sim.hpp"
#include "driver/report.hpp"
#include "driver/runs.hpp"
#include "driver/sweep.hpp"
#include "kernels/csrmv.hpp"
#include "kernels/spvv.hpp"
#include "metrics/harvest.hpp"
#include "sparse/generate.hpp"
#include "sparse/reference.hpp"
#include "sparse/suite.hpp"
#include "system/csrmv_sys.hpp"

namespace perfbench {

using namespace issr;
using kernels::Variant;
using sparse::IndexWidth;

namespace {

std::uint64_t fp_compute_of(const cluster::ClusterResult& c) {
  std::uint64_t n = 0;
  for (const auto& f : c.fpss) n += f.fp_compute;
  return n;
}

/// Fill the simulated-side fields shared by every single simulation and
/// apply the fault / stall-sum parts of the correctness gate.
void record_sim(Outcome& o, cycle_t cycles, std::uint64_t core_cycles,
                double fp_compute, cycle_t ff_skipped,
                const trace::StallBuckets& stalls, const sim::Fault& fault,
                bool ok) {
  o.cycles += cycles;
  o.core_cycles += core_cycles;
  o.fp_compute += fp_compute;
  o.ff_skipped += ff_skipped;
  o.stalls += stalls;
  o.fingerprint.push_back(cycles);
  o.fingerprint.push_back(
      static_cast<std::uint64_t>(std::llround(fp_compute)));
  if (fault) o.fail("fault: " + fault.describe());
  if (!fault && !ok) o.fail("output mismatches the golden reference");
  if (stalls.total() != core_cycles) {
    o.fail("stall buckets do not sum to the core-cycles");
  }
}

bool spvv_matches(double got, double want) {
  return std::abs(got - want) <= 1e-9 + 1e-9 * std::abs(want);
}

// --- cc_fig4 ---------------------------------------------------------------

/// Single-CC paper kernels on the Fig. 4a (SpVV) and Fig. 4b (CsrMV)
/// shapes: ideal memory, so the core, FPSS and SSR/ISSR lanes do the work.
class CcFig4 final : public Workload {
 public:
  explicit CcFig4(std::uint64_t seed) : seed_(seed) {}

  void setup(Tracer* tr) override {
    {
      Rng rng(seed_);
      {
        Scope s(tr, "sparse.gen", "random_sparse_vector 32768/16384");
        a_ = sparse::random_sparse_vector(rng, 32768, 16384);
      }
      Scope s(tr, "sparse.gen", "random_dense_vector 32768");
      b_ = sparse::random_dense_vector(rng, 32768);
    }
    {
      Rng rng(seed_ + 1);
      {
        Scope s(tr, "sparse.gen", "random_fixed_row_nnz_matrix 384x512/26");
        m_ = sparse::random_fixed_row_nnz_matrix(rng, 384, 512, 26);
      }
      Scope s(tr, "sparse.gen", "random_dense_vector 512");
      x_ = sparse::random_dense_vector(rng, 512);
    }
    built_.clear();
    for (const Point& p : kPoints) {
      core::CcSim sim;
      Built b;
      {
        Scope s(tr, "core.stage", p.name);
        stage(sim, p, b);
      }
      isa::Program program;
      {
        Scope s(tr, "kernels.build", p.name);
        program = p.spvv ? kernels::build_spvv(p.variant, b.spvv)
                         : kernels::build_csrmv(p.variant, b.csrmv);
      }
      {
        Scope s(tr, "core.compile", p.name);
        b.compiled = std::make_shared<const core::CompiledProgram>(program);
      }
      b.program = std::make_shared<const isa::Program>(std::move(program));
      built_.push_back(std::move(b));
    }
    programs_ = std::make_unique<driver::AssetCache>();
  }

  std::size_t calls() const override { return std::size(kPoints); }
  std::string call_name(std::size_t i) const override {
    return kPoints[i].name;
  }

  Outcome call(std::size_t i, Tracer* tr) override {
    const Point& p = kPoints[i];
    Outcome o;
    core::CcSimResult r;
    bool ok = false;
    if (tr == nullptr) {
      driver::RunAids aids;
      aids.programs = programs_.get();
      if (p.spvv) {
        auto run = driver::run_spvv_cc(p.variant, p.width, a_, b_, nullptr,
                                       /*validate=*/true, aids);
        r = std::move(run.sim);
        ok = run.ok;
      } else {
        auto run = driver::run_csrmv_cc(p.variant, p.width, m_, x_, nullptr,
                                        /*validate=*/true, aids);
        r = std::move(run.sim);
        ok = run.ok;
      }
    } else {
      // The same simulation through the steps driver::run_*_cc is made
      // of, with the set-up's program and translation in place of the
      // asset cache's identical copies.
      core::CcSim sim;
      Built b;
      {
        Scope s(tr, "core.stage", p.name);
        stage(sim, p, b);
      }
      const Built& want = built_[i];
      if (!same_args(b, want)) o.fail("staging differs from the set-up's");
      sim.set_program(want.program);
      if (sim.config().compiled) sim.set_compiled_program(want.compiled);
      {
        Scope s(tr, "core.sim", p.name);
        r = sim.run();
        s.set_cycles(r.cycles);
      }
      if (!r.fault) {
        Scope s(tr, "sparse.ref", p.name);
        if (p.spvv) {
          ok = spvv_matches(sim.read_f64(b.spvv.result),
                            sparse::ref_spvv(a_, b_));
        } else {
          const sparse::DenseVector y(sim.read_f64s(b.csrmv.y, m_.rows()));
          ok = sparse::allclose(y, sparse::ref_csrmv(m_, x_), 1e-9, 1e-9);
        }
      }
    }
    record_sim(o, r.cycles, r.cycles, static_cast<double>(r.fpss.fp_compute),
               r.ff_skipped, r.stalls, r.fault, ok);
    if (harvest_) o.harvest.emplace_back(metrics::harvest_cc(r), r.cycles);
    return o;
  }

  std::vector<std::string> check_pins(
      const std::vector<Outcome>& pass) const override {
    std::vector<std::string> out;
    for (std::size_t i = 0; i < pass.size(); ++i) {
      if (pass[i].cycles != kPoints[i].pin) {
        out.push_back(std::string(kPoints[i].name) + ": " +
                      std::to_string(pass[i].cycles) + " cycles, pinned " +
                      std::to_string(kPoints[i].pin));
      }
    }
    return out;
  }

  /// The program cache over the whole run.
  HostStats host_stats() const override {
    HostStats h;
    if (programs_) h.cache = programs_->stats();
    return h;
  }

  double fig4a_util_err(const std::vector<Outcome>& pass) const override {
    double err = 0.0;
    for (std::size_t i = 0; i < pass.size(); ++i) {
      const Point& p = kPoints[i];
      if (!p.spvv || p.variant != Variant::kIssr) continue;
      const double ref = driver::paper_util_reference(p.variant, p.width);
      const double util = pass[i].fp_compute / pass[i].core_cycles;
      err = std::max(err, std::abs(util - ref) / ref);
    }
    return err;
  }

 private:
  struct Point {
    const char* name;
    bool spvv;
    Variant variant;
    IndexWidth width;
    cycle_t pin;  ///< BENCH_simspeed.json cycles at the default seed
  };
  static constexpr Point kPoints[] = {
      {"spvv_issr16", true, Variant::kIssr, IndexWidth::kU16, 20519},
      {"spvv_issr32", true, Variant::kIssr, IndexWidth::kU32, 24618},
      {"csrmv_base", false, Variant::kBase, IndexWidth::kU32, 94479},
      {"csrmv_ssr", false, Variant::kSsr, IndexWidth::kU32, 74524},
      {"csrmv_issr16", false, Variant::kIssr, IndexWidth::kU16, 15794},
      {"csrmv_issr32", false, Variant::kIssr, IndexWidth::kU32, 17713},
  };

  struct Built {
    kernels::SpvvArgs spvv;
    kernels::CsrmvArgs csrmv;
    std::shared_ptr<const isa::Program> program;
    std::shared_ptr<const core::CompiledProgram> compiled;
  };

  /// Stage the operands exactly as driver::run_spvv_cc / run_csrmv_cc do.
  void stage(core::CcSim& sim, const Point& p, Built& b) const {
    if (p.spvv) {
      b.spvv.a_vals = sim.stage(a_.vals());
      b.spvv.a_idcs = sim.stage_indices(a_.idcs(), p.width);
      b.spvv.nnz = a_.nnz();
      b.spvv.b = sim.stage(b_);
      b.spvv.result = sim.alloc(8);
      b.spvv.width = p.width;
    } else {
      b.csrmv.ptr = sim.stage_u32(m_.ptr());
      b.csrmv.idcs = sim.stage_indices(m_.idcs(), p.width);
      b.csrmv.vals = sim.stage(m_.vals());
      b.csrmv.nrows = m_.rows();
      b.csrmv.nnz = m_.nnz();
      b.csrmv.x = sim.stage(x_);
      b.csrmv.y = sim.alloc(8ull * m_.rows());
      b.csrmv.width = p.width;
    }
  }

  static bool same_args(const Built& a, const Built& b) {
    const auto& s = a.spvv;
    const auto& t = b.spvv;
    const auto& c = a.csrmv;
    const auto& d = b.csrmv;
    return std::tie(s.a_vals, s.a_idcs, s.nnz, s.b, s.result, s.width) ==
               std::tie(t.a_vals, t.a_idcs, t.nnz, t.b, t.result, t.width) &&
           std::tie(c.ptr, c.idcs, c.vals, c.nrows, c.nnz, c.x, c.y,
                    c.width) == std::tie(d.ptr, d.idcs, d.vals, d.nrows,
                                         d.nnz, d.x, d.y, d.width);
  }

  std::uint64_t seed_;
  sparse::SparseFiber a_;
  sparse::DenseVector b_;
  sparse::CsrMatrix m_;
  sparse::DenseVector x_;
  std::vector<Built> built_;
  std::unique_ptr<driver::AssetCache> programs_;
};

// --- cluster_scaleout ------------------------------------------------------

/// The Fig. 4c 8-worker cluster CsrMV plus bench/system_simspeed's
/// four-family mix at 1/2/4/8 clusters: TCDM, DMA, the interconnect and
/// the System engine do the work.
class ClusterScaleout final : public Workload {
 public:
  explicit ClusterScaleout(std::uint64_t seed) : seed_(seed) {}

  void setup(Tracer* tr) override {
    {
      Rng rng(seed_ + 2);
      {
        Scope s(tr, "sparse.gen", "random_fixed_row_nnz_matrix 512x1024/51");
        fig4c_a_ = sparse::random_fixed_row_nnz_matrix(rng, 512, 1024, 51);
      }
      Scope s(tr, "sparse.gen", "random_dense_vector 1024");
      fig4c_x_ = sparse::random_dense_vector(rng, 1024);
    }
    // Generator order of bench/system_simspeed: each member's matrix,
    // then its dense vector, from one stream.
    Rng rng(seed_ + 3);
    mix_.clear();
    const auto add = [&](const char* name, const char* what,
                         const std::function<sparse::CsrMatrix()>& gen) {
      Member m;
      m.name = name;
      {
        Scope s(tr, "sparse.gen", what);
        m.a = gen();
      }
      Scope s(tr, "sparse.gen", "random_dense_vector");
      m.x = sparse::random_dense_vector(rng, m.a.cols());
      mix_.push_back(std::move(m));
    };
    add("uniform2048x51", "random_fixed_row_nnz_matrix 2048x2048/51", [&] {
      return sparse::random_fixed_row_nnz_matrix(rng, 2048, 2048, 51);
    });
    add("banded1024bw24", "banded_matrix 1024/24",
        [&] { return sparse::banded_matrix(rng, 1024, 24); });
    add("torus48x48", "torus2d_matrix 48x48",
        [&] { return sparse::torus2d_matrix(rng, 48, 48); });
    add("powerlaw1024m24", "powerlaw_matrix 1024x512",
        [&] { return sparse::powerlaw_matrix(rng, 1024, 512, 24.0, 0.5); });
  }

  std::size_t calls() const override {
    return 1 + std::size(kClusters) * mix_.size();
  }
  std::string call_name(std::size_t i) const override {
    if (i == 0) return "fig4c_issr16";
    return "sys_x" + std::to_string(clusters_of(i)) + "_" +
           mix_[member_of(i)].name;
  }

  Outcome call(std::size_t i, Tracer* tr) override {
    Outcome o;
    if (i == 0) {
      run_fig4c(o, tr);
    } else {
      run_system(o, clusters_of(i), mix_[member_of(i)], tr);
    }
    return o;
  }

  std::vector<std::size_t> ratio_calls() const override {
    std::vector<std::size_t> out = {0};
    for (const std::size_t i : par_calls()) out.push_back(i);
    return out;
  }
  /// The mix at 8 clusters (ROADMAP item 2's System-engine decision).
  std::vector<std::size_t> par_calls() const override {
    std::vector<std::size_t> out;
    for (std::size_t i = calls() - mix_.size(); i < calls(); ++i) {
      out.push_back(i);
    }
    return out;
  }
  void set_sys_threads(unsigned n) override { sys_threads_ = n; }

  std::vector<std::string> check_pins(
      const std::vector<Outcome>& pass) const override {
    std::vector<std::string> out;
    if (pass[0].core_cycles != kFig4cPin) {
      out.push_back("fig4c_issr16: " + std::to_string(pass[0].core_cycles) +
                    " core-cycles, pinned " + std::to_string(kFig4cPin));
    }
    for (std::size_t c = 0; c < std::size(kClusters); ++c) {
      std::uint64_t sum = 0;
      for (std::size_t m = 0; m < mix_.size(); ++m) {
        sum += pass[1 + c * mix_.size() + m].cycles;
      }
      if (sum != kMixPins[c]) {
        out.push_back("mix at " + std::to_string(kClusters[c]) +
                      " clusters: " + std::to_string(sum) +
                      " cycles, pinned " + std::to_string(kMixPins[c]));
      }
    }
    return out;
  }

 private:
  static constexpr unsigned kWorkers = 8;
  static constexpr unsigned kClusters[] = {1, 2, 4, 8};
  /// BENCH_simspeed.json fig4c core-cycles and BENCH_syssimspeed.json mix
  /// cycles per cluster count, at the default seed.
  static constexpr std::uint64_t kFig4cPin = 62968;
  static constexpr std::uint64_t kMixPins[] = {58183, 30954, 16446, 9704};

  struct Member {
    std::string name;
    sparse::CsrMatrix a;
    sparse::DenseVector x;
  };

  unsigned clusters_of(std::size_t i) const {
    return kClusters[(i - 1) / mix_.size()];
  }
  std::size_t member_of(std::size_t i) const { return (i - 1) % mix_.size(); }

  void run_fig4c(Outcome& o, Tracer* tr) const {
    const auto& a = fig4c_a_;
    const auto& x = fig4c_x_;
    cluster::McCsrmvResult r;
    bool ok = false;
    if (tr == nullptr) {
      auto run = driver::run_csrmv_mc(Variant::kIssr, IndexWidth::kU16,
                                      kWorkers, a, x, nullptr,
                                      /*validate=*/true);
      r = std::move(run.mc);
      ok = run.ok;
    } else {
      // driver::run_csrmv_mc's steps: the cluster run, then the check.
      cluster::McCsrmvConfig cfg;
      cfg.variant = Variant::kIssr;
      cfg.width = IndexWidth::kU16;
      cfg.cluster.num_workers = kWorkers;
      {
        Scope s(tr, "cluster.sim", "fig4c_issr16");
        r = cluster::run_csrmv_multicore(a, x, cfg);
        s.set_cycles(r.cluster.cycles * kWorkers);
      }
      if (!r.cluster.fault) {
        Scope s(tr, "sparse.ref", "fig4c_issr16");
        ok = sparse::allclose(r.y, sparse::ref_csrmv(a, x), 1e-9, 1e-9);
      }
    }
    const auto& c = r.cluster;
    const std::uint64_t core_cycles = c.cycles * kWorkers;
    record_sim(o, c.cycles, core_cycles,
               static_cast<double>(fp_compute_of(c)), c.ff_skipped,
               c.total_stalls(), c.fault, ok);
    if (harvest_) {
      o.harvest.emplace_back(metrics::harvest_cluster(c), core_cycles);
    }
  }

  void run_system(Outcome& o, unsigned clusters, const Member& m,
                  Tracer* tr) const {
    driver::SysTuning tuning;  // serial engine, stealing on
    tuning.sys_threads = sys_threads_;
    system::SysCsrmvResult r;
    bool ok = false;
    if (tr == nullptr) {
      auto run = driver::run_csrmv_sys(Variant::kIssr, IndexWidth::kU16,
                                       clusters, kWorkers, m.a, m.x, nullptr,
                                       /*validate=*/true, {}, tuning);
      r = std::move(run.sys);
      ok = run.ok;
    } else {
      // driver::run_csrmv_sys's steps: the system run, then the check.
      system::SysCsrmvConfig cfg;
      cfg.variant = Variant::kIssr;
      cfg.width = IndexWidth::kU16;
      cfg.system.num_clusters = clusters;
      cfg.system.cluster.num_workers = kWorkers;
      cfg.system.noc.link_beats_per_cycle = tuning.noc_links;
      cfg.system.noc.link_latency = tuning.noc_latency;
      cfg.system.host_threads = tuning.sys_threads;
      cfg.steal = tuning.steal;
      const std::string label =
          "sys_x" + std::to_string(clusters) + "_" + m.name;
      {
        Scope s(tr, "system.sim", label);
        r = system::run_csrmv_system(m.a, m.x, cfg);
        s.set_cycles(r.system.core_cycles());
      }
      if (!r.system.fault) {
        Scope s(tr, "sparse.ref", label);
        ok = sparse::allclose(r.y, sparse::ref_csrmv(m.a, m.x), 1e-9, 1e-9);
      }
    }
    const auto& sys = r.system;
    std::uint64_t fp = 0;
    for (const auto& c : sys.clusters) fp += fp_compute_of(c);
    record_sim(o, sys.cycles, sys.core_cycles(), static_cast<double>(fp),
               sys.ff_skipped, sys.total_stalls(), sys.fault, ok);
    if (harvest_) {
      o.harvest.emplace_back(
          metrics::harvest_system(sys, r.steal ? &r.queue : nullptr),
          sys.core_cycles());
    }
  }

  std::uint64_t seed_;
  unsigned sys_threads_ = 1;
  sparse::CsrMatrix fig4c_a_;
  sparse::DenseVector fig4c_x_;
  std::vector<Member> mix_;
};

// --- suite_sweep -----------------------------------------------------------

/// What one issr_run invocation does: a whole scenario sweep on the
/// work-stealing engine with the asset cache on, then both report
/// writers. The only workload through the scheduler, the asset cache,
/// the report writer and sparse generation.
class SuiteSweep final : public Workload {
 public:
  /// 69 single-CC scenarios, run as one sweep per kernel, family and
  /// density: the grouping within which the asset cache shares operands
  /// and programs. On a shared host only calls of a few milliseconds
  /// ever run unslowed (see the README's Host noise), so a call is one
  /// such sweep, not the whole suite, and the 8-core scenarios (tens of
  /// milliseconds each) are left to cluster_scaleout. Each sweep has one
  /// worker, because a sweep spread over every vCPU runs at the pace of
  /// whichever one is slowed most.
  explicit SuiteSweep(std::uint64_t seed) {
    for (const auto kernel : {driver::Kernel::kSpvv, driver::Kernel::kCsrmv}) {
      for (const auto family :
           {sparse::MatrixFamily::kUniform, sparse::MatrixFamily::kBanded,
            sparse::MatrixFamily::kPowerLaw, sparse::MatrixFamily::kTorus}) {
        for (const double density : {0.01, 0.02, 0.05}) {
          driver::ScenarioMatrix m;
          m.kernels = {kernel};
          m.variants = {Variant::kBase, Variant::kSsr, Variant::kIssr};
          m.widths = {IndexWidth::kU16, IndexWidth::kU32};
          m.families = {family};
          m.densities = {density};
          m.cores = {1};
          m.rows = 512;
          m.cols = 1024;
          m.base_seed = seed;
          driver::SweepSpec spec;
          spec.scenarios = m.expand();
          spec.jobs = 1;
          spec.asset_cache = true;
          specs_.push_back(std::move(spec));
          char name[64];
          std::snprintf(name, sizeof name, "sweep_%s_%s_%g",
                        driver::to_string(kernel), sparse::to_string(family),
                        density);
          names_.emplace_back(name);
        }
      }
    }
  }

  /// Every distinct workload the sweep generates, and every distinct
  /// single-CC program and translation its asset cache builds.
  void setup(Tracer* tr) override {
    std::vector<driver::WorkloadKey> keys;
    std::vector<std::shared_ptr<const driver::Workload>> workloads;
    using ProgramId = std::tuple<int, int, int, std::size_t>;
    std::set<ProgramId> programs;
    for (const auto& spec : specs_) {
      for (const auto& s : spec.scenarios) {
        const driver::WorkloadKey key = driver::workload_key(s);
        std::size_t w = std::find(keys.begin(), keys.end(), key) - keys.begin();
        if (w == keys.size()) {
          Scope span(tr, "sparse.gen", s.name());
          keys.push_back(key);
          workloads.push_back(std::make_shared<const driver::Workload>(
              driver::build_workload(key)));
        }
        // Cluster runs assemble their programs inside the run.
        if (s.cores != 1 || s.clusters != 1) continue;
        const ProgramId id{static_cast<int>(s.kernel),
                           static_cast<int>(s.variant),
                           static_cast<int>(s.width), w};
        if (!programs.insert(id).second) continue;
        const driver::Workload& wl = *workloads[w];
        core::CcSim sim;
        isa::Program program;
        if (s.kernel == driver::Kernel::kSpvv) {
          kernels::SpvvArgs args;
          {
            Scope span(tr, "core.stage", s.name());
            args.a_vals = sim.stage(wl.spvv_a->vals());
            args.a_idcs = sim.stage_indices(wl.spvv_a->idcs(), s.width);
            args.nnz = wl.spvv_a->nnz();
            args.b = sim.stage(*wl.dense);
            args.result = sim.alloc(8);
            args.width = s.width;
          }
          Scope span(tr, "kernels.build", s.name());
          program = kernels::build_spvv(s.variant, args);
        } else {
          const sparse::CsrMatrix& a = *wl.csrmv_a;
          kernels::CsrmvArgs args;
          {
            Scope span(tr, "core.stage", s.name());
            args.ptr = sim.stage_u32(a.ptr());
            args.idcs = sim.stage_indices(a.idcs(), s.width);
            args.vals = sim.stage(a.vals());
            args.nrows = a.rows();
            args.nnz = a.nnz();
            args.x = sim.stage(*wl.dense);
            args.y = sim.alloc(8ull * a.rows());
            args.width = s.width;
          }
          Scope span(tr, "kernels.build", s.name());
          program = kernels::build_csrmv(s.variant, args);
        }
        Scope span(tr, "core.compile", s.name());
        const core::CompiledProgram compiled(program);
        sink_ += compiled.size();
      }
    }
  }

  std::size_t calls() const override { return specs_.size(); }
  std::string call_name(std::size_t i) const override { return names_[i]; }

  Outcome call(std::size_t i, Tracer* tr) override {
    const driver::SweepSpec& spec = specs_[i];
    driver::SweepOutcome sweep;
    std::string json, csv;
    {
      Scope s(tr, "driver.sweep", call_name(i));
      sweep = driver::run_sweep(spec);
      s.set_cycles(sweep.stats.core_cycles);
    }
    {
      Scope s(tr, "driver.report", call_name(i));
      json = driver::results_to_json(sweep.results);
      csv = driver::results_to_csv(sweep.results);
    }
    Outcome o;
    for (const auto& r : sweep.results) {
      record_sim(o, r.cycles, r.core_cycles, r.fpu_util * r.core_cycles, 0,
                 r.stalls, r.fault, r.ok);
      if (r.skipped) o.fail("row skipped: " + r.scenario.name());
      if (harvest_) o.harvest.emplace_back(r.metrics, r.core_cycles);
    }
    if (sweep.results.size() != spec.scenarios.size()) {
      o.fail("sweep returned the wrong number of rows");
    }
    o.fingerprint.push_back(std::hash<std::string>{}(json));
    o.fingerprint.push_back(std::hash<std::string>{}(csv));
    // Host counters add up over one pass, from its first call.
    if (i == 0) pass_ = {};
    const auto& c = sweep.stats.cache;
    pass_.cache.workload_builds += c.workload_builds;
    pass_.cache.workload_hits += c.workload_hits;
    pass_.cache.program_builds += c.program_builds;
    pass_.cache.program_hits += c.program_hits;
    pass_.cache.compiled_builds += c.compiled_builds;
    pass_.cache.compiled_hits += c.compiled_hits;
    pass_.steals += static_cast<double>(sweep.stats.steals);
    pass_.busy_us += sweep.host_metrics.value("host_busy_us");
    pass_.worker_us += sweep.host_metrics.value("host_workers") *
                       sweep.stats.wall_seconds * 1e6;
    return o;
  }

  HostStats host_stats() const override {
    HostStats h;
    h.cache = pass_.cache;
    h.steals = pass_.steals;
    h.busy_frac = pass_.worker_us > 0 ? pass_.busy_us / pass_.worker_us : 0.0;
    return h;
  }

 private:
  std::vector<driver::SweepSpec> specs_;
  std::vector<std::string> names_;
  struct PassStats {
    driver::AssetCacheStats cache;
    double steals = 0.0;
    double busy_us = 0.0;    ///< sweep workers' busy time
    double worker_us = 0.0;  ///< sweep wall time x workers
  } pass_;
  std::size_t sink_ = 0;  ///< keeps the set-up translations observable
};

}  // namespace

std::vector<std::size_t> Workload::ratio_calls() const {
  std::vector<std::size_t> out(calls());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = i;
  return out;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"cc_fig4",
                                                 "cluster_scaleout",
                                                 "suite_sweep"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "cc_fig4") return std::make_unique<CcFig4>(seed);
  if (name == "cluster_scaleout") {
    return std::make_unique<ClusterScaleout>(seed);
  }
  if (name == "suite_sweep") return std::make_unique<SuiteSweep>(seed);
  return nullptr;
}

}  // namespace perfbench
