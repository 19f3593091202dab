// Scenario execution: run_scenario() materializes a scenario's workload
// from its derived seed (or picks it up from the sweep asset cache),
// dispatches to the right simulator (single CC or cluster), and collects
// a uniform metrics record. Sweeps over scenario lists go through
// run_sweep() (driver/sweep.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "common/types.hpp"
#include "driver/scenario.hpp"
#include "metrics/metrics.hpp"
#include "sim/fault.hpp"
#include "trace/stall.hpp"

namespace issr::driver {

class AssetCache;

/// Uniform per-scenario metrics record (the JSON/CSV row).
struct ScenarioResult {
  Scenario scenario;
  bool ok = false;          ///< simulated result matched the host reference
  /// Why this row failed structurally (code kNone when it ran to
  /// completion): watchdog/cycle-limit faults from the simulator,
  /// invalid-input rejections, injected faults, or a host exception the
  /// sweep engine caught. A faulted row always has ok == false; an
  /// ok == false row *without* a fault is a validation mismatch.
  sim::Fault fault;
  /// The sweep stopped (--fail-fast) before this scenario ran; every
  /// other field is default-initialized.
  bool skipped = false;
  /// Actual generated workload dimensions. These can differ from the
  /// scenario's requested rows/cols (the torus family is a fixed 5-point
  /// grid; banded matrices are square), and they are what density/per-row
  /// analyses of the results file must use.
  std::uint32_t rows = 0;
  std::uint32_t cols = 0;
  std::uint64_t nnz = 0;    ///< nonzeros in the generated workload
  cycle_t cycles = 0;       ///< end-to-end simulated cycles
  double fpu_util = 0.0;    ///< FP arithmetic issues per core-cycle
  std::uint64_t macs = 0;   ///< multiply-accumulate count (fmadd + fmul)
  double macs_per_cycle = 0.0;
  /// Attribution denominator: one entry per core per cycle, i.e.
  /// cycles x cores. stalls.total() == core_cycles is asserted per run.
  std::uint64_t core_cycles = 0;
  trace::StallBuckets stalls;  ///< exact per-cycle stall attribution
  /// Utilization/occupancy/traffic series for the run, derived at
  /// harvest from the simulator's own statistics (metrics/harvest.hpp) —
  /// never recorded mid-simulation, so timing is untouched. `util_fpu`
  /// equals `fpu_util` exactly (same member function computes both);
  /// every `util_*`/`*_frac`/`*_rate` entry is asserted within [0, 1]
  /// (a violation poisons `ok`, like a stall-sum mismatch).
  metrics::Snapshot metrics;
  /// The scenario's trace file could not be written (I/O failure only —
  /// independent of `ok`, which reports simulation validity). Not a
  /// report column: it describes this invocation, not the simulation.
  bool trace_write_failed = false;
};

/// Row status token for the results files ("ok" | "mismatch" | "fault" |
/// "skipped") — the v6 `status` column.
const char* row_status(const ScenarioResult& r);

/// Per-sweep execution options. trace_dir/trace_events are observational
/// (simulated results identical either way); max_cycles and inject change
/// only whether/how runs fail, never the results of runs that complete.
struct RunOptions {
  /// When non-empty, each scenario writes a Chrome trace-event file
  /// `<trace_dir>/<scenario>.trace.json` (the directory must exist;
  /// scenario name '/' separators become '_').
  std::string trace_dir;
  /// Retained-event window per scenario trace (ring buffer capacity).
  std::size_t trace_events = std::size_t{1} << 20;
  /// Per-run cycle budget; 0 selects each simulator's default. A run
  /// that exhausts it yields a fault row (cycle_limit), not a crash.
  cycle_t max_cycles = 0;
  /// Deterministic fault-injection plan (sim/fault.hpp); null = none.
  /// Must outlive the sweep.
  const sim::FaultPlan* inject = nullptr;
};

/// The trace file a scenario writes under `trace_dir` (filename logic
/// shared with reporting/tests).
std::string trace_file_path(const std::string& trace_dir, const Scenario& s);

/// Per-worker execution context the sweep engine threads into each run.
/// Everything here is observational: results are bitwise identical with
/// any combination of members set or null.
struct SweepContext {
  /// Shared immutable workloads + assembled programs (driver/assets.hpp);
  /// null rebuilds everything per run.
  AssetCache* assets = nullptr;
  /// Worker-owned arena backing the simulated-memory pages; the sweep
  /// engine resets it between runs. Null falls back to the heap.
  Arena* arena = nullptr;
};

/// Generate the workload for `s` (from s.seed, or shared via
/// `ctx.assets`) and simulate it. The returned record describes what
/// actually ran: a hand-built SpVV scenario with cores > 1 executes on
/// one core complex (there is no multicore SpVV kernel) and is recorded
/// with cores = 1.
ScenarioResult run_scenario(const Scenario& s, const RunOptions& opts = {},
                            const SweepContext& ctx = {});

}  // namespace issr::driver
