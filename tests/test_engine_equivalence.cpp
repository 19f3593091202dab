// Fast-forward engine equivalence: the idle-cycle skip in CcSim::run /
// Cluster::run must be invisible in every observable — cycle counts, all
// statistic counters, stall-attribution buckets, simulated results,
// result-file bytes, and trace-file bytes. This suite runs the full
// scenario matrix (and targeted high-latency / cluster configurations
// where the skip engages heavily) through both engines and demands
// bitwise identity, plus proof that the fast path actually skipped.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "core/sim.hpp"
#include "driver/report.hpp"
#include "driver/runner.hpp"
#include "driver/runs.hpp"
#include "driver/scenario.hpp"
#include "driver/sweep.hpp"
#include "isa/assembler.hpp"
#include "kernels/csrmv.hpp"
#include "kernels/kargs.hpp"
#include "kernels/spvv.hpp"
#include "sparse/generate.hpp"
#include "trace/chrome.hpp"
#include "trace/ring.hpp"

namespace issr {
namespace {

/// Toggle the process-wide engine default for one scope.
class ScopedFastForward {
 public:
  explicit ScopedFastForward(bool on)
      : prev_(core::engine_fast_forward_default()) {
    core::set_engine_fast_forward_default(on);
  }
  ~ScopedFastForward() { core::set_engine_fast_forward_default(prev_); }

 private:
  bool prev_;
};

void expect_cc_results_equal(const core::CcSimResult& fast,
                             const core::CcSimResult& ref,
                             const std::string& what) {
  EXPECT_EQ(fast.cycles, ref.cycles) << what;
  EXPECT_EQ(fast.aborted, ref.aborted) << what;
  EXPECT_EQ(fast.last_pc, ref.last_pc) << what;
  EXPECT_EQ(fast.core, ref.core) << what << " (core stats)";
  EXPECT_EQ(fast.fpss, ref.fpss) << what << " (fpss stats)";
  EXPECT_EQ(fast.ssr_lane, ref.ssr_lane) << what << " (ssr lane stats)";
  EXPECT_EQ(fast.issr_lane, ref.issr_lane) << what << " (issr lane stats)";
  EXPECT_EQ(fast.stalls, ref.stalls) << what << " (stall buckets)";
  EXPECT_EQ(fast.stalls.total(), fast.cycles) << what << " (bucket sum)";
}

/// The scenario matrix the equivalence sweep runs: every kernel, variant,
/// and width, single-CC and cluster, on workloads small enough to sweep
/// twice but large enough to stream, plus FREP-heavy epilogues.
std::vector<driver::Scenario> sweep_scenarios() {
  driver::ScenarioMatrix m;
  m.kernels = {driver::Kernel::kSpvv, driver::Kernel::kCsrmv};
  m.cores = {1, 2};
  m.rows = 48;
  m.cols = 96;
  return m.expand();
}

TEST(EngineEquivalence, ScenarioMatrixResultFilesAreBytewiseIdentical) {
  const auto scenarios = sweep_scenarios();
  ASSERT_FALSE(scenarios.empty());

  driver::SweepSpec spec;
  spec.scenarios = scenarios;
  std::vector<driver::ScenarioResult> fast, ref;
  {
    ScopedFastForward ff(true);
    fast = driver::run_sweep(spec).results;
  }
  {
    ScopedFastForward ff(false);
    ref = driver::run_sweep(spec).results;
  }
  ASSERT_EQ(fast.size(), ref.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    const std::string what = scenarios[i].name();
    EXPECT_TRUE(fast[i].ok) << what;
    EXPECT_TRUE(ref[i].ok) << what;
    EXPECT_EQ(fast[i].cycles, ref[i].cycles) << what;
    EXPECT_EQ(fast[i].macs, ref[i].macs) << what;
    EXPECT_EQ(fast[i].nnz, ref[i].nnz) << what;
    EXPECT_EQ(fast[i].core_cycles, ref[i].core_cycles) << what;
    EXPECT_EQ(fast[i].stalls, ref[i].stalls) << what << " (stall buckets)";
  }
  // The files a sweep writes must match byte for byte.
  EXPECT_EQ(driver::results_to_json(fast), driver::results_to_json(ref));
  EXPECT_EQ(driver::results_to_csv(fast), driver::results_to_csv(ref));
}

TEST(EngineEquivalence, TracedRunsEmitIdenticalTraceBytes) {
  Rng rng(7);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 24, 48, 5);
  const auto x = sparse::random_dense_vector(rng, 48);

  std::string fast_json, ref_json;
  {
    ScopedFastForward ff(true);
    trace::RingBufferSink sink(1 << 16);
    const auto r = driver::run_csrmv_cc(kernels::Variant::kIssr,
                                        sparse::IndexWidth::kU16, a, x, &sink);
    EXPECT_TRUE(r.ok);
    fast_json = trace::to_chrome_json(sink);
  }
  {
    ScopedFastForward ff(false);
    trace::RingBufferSink sink(1 << 16);
    const auto r = driver::run_csrmv_cc(kernels::Variant::kIssr,
                                        sparse::IndexWidth::kU16, a, x, &sink);
    EXPECT_TRUE(r.ok);
    ref_json = trace::to_chrome_json(sink);
  }
  EXPECT_EQ(fast_json, ref_json);
}

/// High memory latency on the single-CC harness: long load-use and
/// FPU-drain stretches where the fast-forward engages heavily. A base
/// (non-streaming) CsrMV maximizes scalar load waits.
TEST(EngineEquivalence, HighLatencySingleCcSkipsAndMatches) {
  Rng rng(11);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 16, 64, 6);
  const auto x = sparse::random_dense_vector(rng, 64);

  for (const auto variant :
       {kernels::Variant::kBase, kernels::Variant::kSsr,
        kernels::Variant::kIssr}) {
    core::CcSimResult fast, ref;
    for (const bool ff : {true, false}) {
      core::CcSimConfig cfg;
      cfg.mem_latency = 16;
      cfg.fast_forward = ff;
      core::CcSim sim(cfg);
      kernels::CsrmvArgs args;
      args.ptr = sim.stage_u32(a.ptr());
      args.idcs = sim.stage_indices(a.idcs(), sparse::IndexWidth::kU16);
      args.vals = sim.stage(a.vals());
      args.nrows = a.rows();
      args.nnz = a.nnz();
      args.x = sim.stage(x);
      args.y = sim.alloc(8ull * a.rows());
      args.width = sparse::IndexWidth::kU16;
      sim.set_program(kernels::build_csrmv(variant, args));
      (ff ? fast : ref) = sim.run();
    }
    const std::string what =
        std::string("variant ") + kernels::to_string(variant);
    expect_cc_results_equal(fast, ref, what);
    EXPECT_EQ(ref.ff_skipped, 0u) << what;
    // The whole point: at latency 16 the fast engine must actually skip.
    EXPECT_GT(fast.ff_skipped, 0u) << what;
    EXPECT_LT(fast.ff_skipped, fast.cycles) << what;
  }
}

TEST(EngineEquivalence, ClusterRunMatchesAndInvariantsHold) {
  Rng rng(13);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 32, 64, 6);
  const auto x = sparse::random_dense_vector(rng, 64);

  driver::McRun fast, ref;
  {
    ScopedFastForward ff(true);
    fast = driver::run_csrmv_mc(kernels::Variant::kIssr,
                                sparse::IndexWidth::kU16, 2, a, x);
  }
  {
    ScopedFastForward ff(false);
    ref = driver::run_csrmv_mc(kernels::Variant::kIssr,
                               sparse::IndexWidth::kU16, 2, a, x);
  }
  EXPECT_TRUE(fast.ok);
  EXPECT_TRUE(ref.ok);
  EXPECT_EQ(fast.mc.cluster.cycles, ref.mc.cluster.cycles);
  EXPECT_EQ(ref.mc.cluster.ff_skipped, 0u);
  ASSERT_EQ(fast.mc.cluster.stalls.size(), ref.mc.cluster.stalls.size());
  for (std::size_t w = 0; w < fast.mc.cluster.stalls.size(); ++w) {
    EXPECT_EQ(fast.mc.cluster.stalls[w], ref.mc.cluster.stalls[w])
        << "worker " << w;
    EXPECT_EQ(fast.mc.cluster.stalls[w].total(), fast.mc.cluster.cycles)
        << "worker " << w << " bucket sum";
  }
  EXPECT_EQ(fast.mc.cluster.tcdm, ref.mc.cluster.tcdm);
  EXPECT_EQ(fast.mc.cluster.main_mem_read, ref.mc.cluster.main_mem_read);
  EXPECT_EQ(fast.mc.cluster.main_mem_written,
            ref.mc.cluster.main_mem_written);
  for (std::size_t i = 0; i < fast.mc.y.size(); ++i) {
    EXPECT_EQ(fast.mc.y[i], ref.mc.y[i]) << "y[" << i << "]";
  }
}

/// FPU pipeline drain: a chain of dependent fdiv operations leaves the
/// whole CC waiting on the iterative unit — the engine must skip those
/// scoreboard stretches and land on identical counters.
TEST(EngineEquivalence, IterativeFpuDrainSkipsAndMatches) {
  using namespace issr::isa;
  core::CcSimResult fast, ref;
  for (const bool ff : {true, false}) {
    core::CcSimConfig cfg;
    cfg.fast_forward = ff;
    core::CcSim sim(cfg);
    const addr_t out = sim.alloc(8);
    Assembler a;
    a.li(kT0, 9);
    a.fcvt_d_w(kFa1, kT0);
    a.li(kT0, 2);
    a.fcvt_d_w(kFa2, kT0);
    for (int i = 0; i < 4; ++i) a.fdiv_d(kFa1, kFa1, kFa2);
    a.li(kS2, static_cast<std::int64_t>(out));
    kernels::emit_fpss_sync(a);
    a.fsd(kFa1, kS2, 0);
    kernels::emit_fpss_sync(a);
    kernels::emit_halt(a);
    sim.set_program(a.assemble());
    (ff ? fast : ref) = sim.run();
  }
  expect_cc_results_equal(fast, ref, "fdiv drain");
  EXPECT_GT(fast.ff_skipped, 0u);
  EXPECT_EQ(ref.ff_skipped, 0u);
}

}  // namespace
}  // namespace issr
