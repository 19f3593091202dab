// The benchmark's three workloads. Each owns its generated operands and
// exposes one pass as a fixed list of calls into the simulator's public
// entry points (driver::run_*_cc, driver::run_csrmv_mc/_sys,
// driver::run_sweep + the report writers). Untraced calls go through the
// driver entry points exactly as a user would; traced calls make the same
// simulations through the public steps those entry points are built from,
// with a span around each step.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "driver/assets.hpp"
#include "metrics/metrics.hpp"
#include "trace/stall.hpp"

#include "spans.hpp"

namespace perfbench {

/// Seed that reproduces the committed bench rails' operands (and so the
/// continuity pins), and the seed held out for confirming later claims.
inline constexpr std::uint64_t kDefaultSeed = 1;
inline constexpr std::uint64_t kHeldOutSeed = 7;

/// What one call simulated, and whether it passed the correctness gate.
struct Outcome {
  issr::cycle_t cycles = 0;       ///< simulated cycles, summed over rows
  std::uint64_t core_cycles = 0;  ///< cycles x cores x clusters
  double fp_compute = 0.0;        ///< FP arithmetic issues
  issr::cycle_t ff_skipped = 0;   ///< cycles credited by fast-forward
  issr::trace::StallBuckets stalls;
  /// Harvested simulated-hardware series, one entry per simulation with
  /// its core-cycles (the weight for pass-level averages).
  std::vector<std::pair<issr::metrics::Snapshot, std::uint64_t>> harvest;
  /// Per-simulation cycles and FP issues (plus, for sweeps, hashes of
  /// both reports); a repeat of the call must reproduce it exactly.
  std::vector<std::uint64_t> fingerprint;
  std::string failure;             ///< empty when the gate passed

  void fail(const std::string& why) {
    if (failure.empty()) failure = why;
  }
};

/// Host-side engine counters of the workload's last call (zeros where
/// the workload has no asset cache or sweep engine).
struct HostStats {
  issr::driver::AssetCacheStats cache;
  double busy_frac = 0.0;  ///< sweep busy time / (wall x workers)
  double steals = 0.0;     ///< sweep tasks run by a non-owner worker
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Cold set-up: generate every operand set, and build every kernel
  /// program and compiled translation the calls need. Replaces any
  /// earlier set-up.
  virtual void setup(Tracer* tr) = 0;

  /// Calls in one pass over the workload.
  virtual std::size_t calls() const = 0;
  virtual std::string call_name(std::size_t i) const = 0;

  /// Run call `i`; `tr` non-null selects the traced, step-split path.
  virtual Outcome call(std::size_t i, Tracer* tr) = 0;

  /// Calls the paired compiled/fast-forward ratios are timed on.
  virtual std::vector<std::size_t> ratio_calls() const;
  /// Calls the serial-vs-parallel System engine ratio is timed on (empty
  /// when the workload never enters the System engine), and the switch
  /// between the two engines.
  virtual std::vector<std::size_t> par_calls() const { return {}; }
  virtual void set_sys_threads(unsigned) {}

  /// Continuity pins against the committed bench rails, checked on one
  /// pass at the default seed; returns one message per broken pin.
  virtual std::vector<std::string> check_pins(
      const std::vector<Outcome>&) const {
    return {};
  }

  virtual HostStats host_stats() const { return {}; }

  /// Largest relative error of one pass's SpVV ISSR FPU utilization
  /// against the paper's Fig. 4a ceilings; 0 when the workload has no
  /// Fig. 4a point.
  virtual double fig4a_util_err(const std::vector<Outcome>&) const {
    return 0.0;
  }

  /// Collect harvested series into each Outcome (the traced run's
  /// reference pass); off for timed calls.
  void set_harvest(bool on) { harvest_ = on; }

 protected:
  bool harvest_ = false;
};

/// The workload names, in the order the benchmark documents them.
const std::vector<std::string>& workload_names();

/// Null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench
