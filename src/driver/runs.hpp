// Composable single-simulation entry points: stage a workload, build the
// requested kernel variant, run to completion, and validate against the
// golden host reference. These are the building blocks shared by the
// figure/table benches (bench/), the experiment driver (driver/runner.hpp),
// and the examples — one staging path instead of a copy per binary. Each
// returns a validation flag; callers decide whether a mismatch is fatal.
#pragma once

#include "cluster/csrmv_mc.hpp"
#include "common/arena.hpp"
#include "core/sim.hpp"
#include "driver/assets.hpp"
#include "kernels/kargs.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"
#include "sparse/fiber.hpp"
#include "system/csrmv_sys.hpp"
#include "trace/trace.hpp"

namespace issr::driver {

/// Optional sweep-engine aids threaded into a run. The arena and program
/// cache are purely observational: simulated cycles, stats, and results
/// are bitwise identical with or without them. max_cycles and inject are
/// robustness knobs — they change only whether/how a run *fails*, never
/// the results of a run that completes.
struct RunAids {
  /// Backs the simulated-memory pages (CC ideal memory, cluster TCDM and
  /// main memory) instead of the heap. Must not be reset mid-run.
  Arena* arena = nullptr;
  /// Shares assembled kernel Programs across runs with identical staged
  /// arguments (single-CC kernels only; cluster programs embed per-run
  /// tile plans and are rebuilt).
  AssetCache* programs = nullptr;
  /// Cycle budget; 0 selects each simulator's default. Exhausting it
  /// faults the run (kCycleLimit) instead of crashing the process.
  cycle_t max_cycles = 0;
  /// Deterministic fault-injection switches (sim/fault.hpp); all false =
  /// no injection.
  sim::InjectSet inject;
};

/// Result of a single-CC SpVV (sparse-dense dot product) run.
struct SpvvRun {
  core::CcSimResult sim;
  double result = 0.0;
  bool ok = false;  ///< result matched ref_spvv within tolerance
};

/// Result of a single-CC CsrMV run.
struct CcRun {
  core::CcSimResult sim;
  sparse::DenseVector y;
  bool ok = false;  ///< y matched ref_csrmv within tolerance
};

/// Result of a multicore (cluster) CsrMV run.
struct McRun {
  cluster::McCsrmvResult mc;
  bool ok = false;  ///< y matched ref_csrmv within tolerance
};

/// Result of a multi-cluster (system) CsrMV run.
struct SysRun {
  system::SysCsrmvResult sys;
  bool ok = false;  ///< y matched ref_csrmv within tolerance
};

/// Timing-only system knobs threaded from the CLI/scenario layer into
/// the hierarchical model. Simulated results (y) are bitwise identical
/// for every combination; only cycle counts move. Defaults mirror
/// InterconnectConfig / SysCsrmvConfig.
struct SysTuning {
  unsigned noc_links = 1;    ///< link beats/cycle per cluster, 0 = unlimited
  unsigned noc_latency = 4;  ///< one-way NoC link latency in cycles
  bool steal = true;         ///< dynamic inter-cluster work stealing
  /// No-op: kept only so existing callers that still assign it compile.
  /// Every System runs the serial lockstep engine; nothing reads this.
  unsigned sys_threads = 1;
};

/// `validate = false` skips the host-reference comparison (and leaves
/// `ok` false) — for throughput measurements of the simulator itself.
/// A non-null `trace` records cycle-resolved telemetry for the run
/// without affecting any simulated result. A run that does not complete
/// (cycle budget, watchdog, injected deadlock) comes back with its
/// simulator result's `fault` set and validation skipped — callers must
/// check it instead of trusting `ok` alone.
SpvvRun run_spvv_cc(kernels::Variant variant, sparse::IndexWidth width,
                    const sparse::SparseFiber& a,
                    const sparse::DenseVector& b,
                    trace::TraceSink* trace = nullptr, bool validate = true,
                    const RunAids& aids = {});

CcRun run_csrmv_cc(kernels::Variant variant, sparse::IndexWidth width,
                   const sparse::CsrMatrix& a, const sparse::DenseVector& x,
                   trace::TraceSink* trace = nullptr, bool validate = true,
                   const RunAids& aids = {});

/// `cores == 0` selects the library's ClusterConfig default worker count.
McRun run_csrmv_mc(kernels::Variant variant, sparse::IndexWidth width,
                   unsigned cores, const sparse::CsrMatrix& a,
                   const sparse::DenseVector& x,
                   trace::TraceSink* trace = nullptr, bool validate = true,
                   const RunAids& aids = {});

/// Multi-cluster CsrMV on the hierarchical system model
/// (system/csrmv_sys.hpp): `clusters` clusters of `cores` workers each
/// around the shared bandwidth-limited main memory. `cores == 0` selects
/// the library's default worker count; `clusters == 0` means 1.
SysRun run_csrmv_sys(kernels::Variant variant, sparse::IndexWidth width,
                     unsigned clusters, unsigned cores,
                     const sparse::CsrMatrix& a, const sparse::DenseVector& x,
                     trace::TraceSink* trace = nullptr, bool validate = true,
                     const RunAids& aids = {}, const SysTuning& tuning = {});

}  // namespace issr::driver
