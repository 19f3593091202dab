// Snitch FPU subsystem (Fig. 3 "FPU Subsystem"): receives offloaded FP
// instructions from the integer core through a queue (the decoupling that
// gives Snitch its pseudo-dual-issue behaviour, [6]), sequences them —
// including FREP hardware loops with register staggering — and executes
// them on a pipelined FPU, an FP load/store unit sharing the core's TCDM
// port, and the SSR/ISSR stream register file.
//
// Issue rules (one instruction per cycle):
//  - FP source registers with stream semantics pop their lane FIFO; the
//    instruction stalls until every stream source has data and a stream
//    destination has FIFO space (this stall is what transfers the ISSR
//    port-multiplexing ceiling onto FPU utilization);
//  - non-stream FP sources/destinations respect a scoreboard tracking
//    pipeline writebacks (RAW/WAW);
//  - fld/fsd issue through the FP LSU when the shared port is free;
//  - fdiv/fsqrt block the single iterative unit.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/ring_queue.hpp"
#include "core/fpu.hpp"
#include "isa/inst.hpp"
#include "ssr/port_hub.hpp"
#include "ssr/streamer.hpp"
#include "trace/trace.hpp"

namespace issr::core {

struct FpssParams {
  FpuParams fpu;
  std::size_t offload_queue_depth = 8;
  unsigned lsu_max_outstanding = 4;
};

struct FpssStats {
  std::uint64_t issued = 0;       ///< FP-subsystem instructions issued
  std::uint64_t fp_compute = 0;   ///< FPU arithmetic issues
  std::uint64_t fmadd = 0;        ///< FMA-class issues (paper's useful work)
  std::uint64_t fmul = 0;         ///< multiplies (the CsrMV row-head MACs)
  std::uint64_t flops = 0;        ///< double-precision flop count
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t stall_stream = 0;  ///< cycles stalled on stream FIFOs
  std::uint64_t stall_raw = 0;     ///< cycles stalled on FP scoreboard
  std::uint64_t stall_mem = 0;     ///< cycles stalled on LSU/port
  std::uint64_t idle_cycles = 0;   ///< nothing to issue

  bool operator==(const FpssStats&) const = default;

  /// Apply `f` to every counter (fast-forward bulk replay; keep in sync
  /// with the fields above).
  template <typename F>
  void for_each_counter(F&& f) {
    f(issued), f(fp_compute), f(fmadd), f(fmul), f(flops), f(loads);
    f(stores), f(stall_stream), f(stall_raw), f(stall_mem), f(idle_cycles);
  }
};

/// One offloaded instruction plus the integer operand captured at the
/// core's issue stage (effective address for fld/fsd, rs1 value for
/// int->FP converts, iteration count for FREP).
struct OffloadEntry {
  isa::Inst inst;
  std::uint64_t int_operand = 0;
  /// pc of the instruction at offload — the compiled tier's key for
  /// looking up a pre-lowered FREP body (compile.hpp).
  addr_t pc = 0;
};

class CompiledProgram;
struct CompiledFrep;
struct FpssMicroOp;

class Fpss {
 public:
  Fpss(const FpssParams& params, ssr::Streamer& streamer,
       ssr::PortClient lsu_port);

  // --- Core-side interface -------------------------------------------------
  bool can_offload() const { return queue_.size() < params_.offload_queue_depth; }
  void offload(const OffloadEntry& entry);

  /// True iff every offloaded instruction has fully completed (queue and
  /// FREP drained, pipeline writebacks done, no outstanding FP loads).
  bool idle(cycle_t now) const;

  /// Pop a matured FP->int writeback destined for the integer regfile.
  struct IntWriteback {
    std::uint8_t rd;
    std::uint64_t value;
  };
  std::optional<IntWriteback> pop_int_writeback(cycle_t now);

  // --- Simulation ----------------------------------------------------------
  void tick(cycle_t now);

  /// Fast-forward hook: earliest future cycle at which this subsystem's
  /// tick can differ from the one just performed, or at which idle(now)
  /// / pop_int_writeback(now) change answers (both are sampled by the
  /// core and the quiescence check every cycle). External wake-ups (lane
  /// FIFO data, port grants, memory responses) are covered by the other
  /// units' hooks.
  cycle_t next_event(cycle_t now) const {
    if (advanced_) return now;
    cycle_t e = self_wake_;
    if (!int_wb_.empty() && int_wb_.front().ready < e) {
      e = int_wb_.front().ready;
    }
    // Pipeline-drain completion flips idle() (and with it the core's
    // fpss-sync CSR stall and CC quiescence) at last_completion_. A drain
    // finishing exactly at `now` is still a future event: the core
    // samples idle(now) in the tick it has not performed yet.
    if (queue_.empty() && !frep_.active && lsu_outstanding_ == 0 &&
        int_wb_.empty() && last_completion_ >= now && last_completion_ < e) {
      e = last_completion_;
    }
    return e;
  }

  // --- State access (tests, result extraction) -----------------------------
  double freg(unsigned idx) const { return fregs_[idx]; }
  void set_freg(unsigned idx, double v) { fregs_[idx] = v; }

  const FpssStats& stats() const { return stats_; }
  /// Fast-forward replay hook (bulk counter credit); not for general use.
  FpssStats& mutable_stats() { return stats_; }
  void reset_stats() { stats_ = {}; }

  /// Timeline hook: FREP hardware-loop slices (trace/).
  trace::Tracer& tracer() { return trace_; }

  // --- Compiled-tier seams (core/compile.hpp) ------------------------------
  /// Attach the pre-lowered program. FREP setups then look up their
  /// compiled body by offload pc and replay from the micro-op table once
  /// the captured buffer validates against the static body; a lookup or
  /// validation miss silently keeps the interpreted replay path.
  void set_compiled(const CompiledProgram* cp) { compiled_ = cp; }

  /// True iff the sequencer is in steady-state compiled FREP replay with
  /// no outstanding FP memory traffic or integer writebacks — the fused
  /// executor's precondition (its tick must see this subsystem change
  /// only through the replay branch).
  bool fused_replay_ready() const {
    return frep_.active && !frep_.capturing && frep_mops_ != nullptr &&
           lsu_outstanding_ == 0 && int_wb_.empty();
  }

  /// Whether the last tick made progress (the fused executor's next_event
  /// shortcut; identical to next_event(now) == now under its
  /// preconditions).
  bool advanced_last_tick() const { return advanced_; }

  /// Gather the FP source register fields of an instruction (shared with
  /// the compiled tier's micro-op lowering).
  static unsigned fp_src_regs(const isa::Inst& inst, std::uint8_t out[3]);

 private:
  struct FrepState {
    bool active = false;
    bool capturing = false;
    std::vector<isa::Inst> buffer;
    unsigned n_insts = 0;
    std::uint64_t total_iters = 0;
    std::uint64_t iter = 0;  ///< current iteration (0-based)
    unsigned pos = 0;        ///< position within the buffer
    unsigned stagger_max = 0;
    unsigned stagger_mask = 0;
  };

  /// Apply FREP register staggering for the given iteration.
  isa::Inst staggered(const isa::Inst& inst, std::uint64_t iter) const;

  bool scoreboard_busy(unsigned reg, cycle_t now) const {
    return load_pending_[reg] || busy_until_[reg] > now;
  }

  /// A stall path blocked on FP register `reg` records when its pipeline
  /// timer expires (pending loads are external wake-ups).
  void note_fp_wait(unsigned reg, cycle_t now) {
    if (busy_until_[reg] > now && busy_until_[reg] < self_wake_) {
      self_wake_ = busy_until_[reg];
    }
  }

  /// Try to issue `inst` this cycle; returns true on success.
  bool try_issue(const isa::Inst& inst, std::uint64_t int_operand,
                 cycle_t now);

  /// Compiled FREP replay: issue one pre-lowered micro-op. Reproduces
  /// try_issue(m.inst, 0, now) exactly — natively for the FP->FP datapath
  /// class, by delegation otherwise.
  bool issue_mop(const FpssMicroOp& m, cycle_t now);

  FpssParams params_;
  ssr::Streamer& streamer_;
  ssr::PortClient lsu_;

  double fregs_[32] = {};
  cycle_t busy_until_[32] = {};
  bool load_pending_[32] = {};
  cycle_t iterative_busy_until_ = 0;
  cycle_t last_completion_ = 0;  ///< max over scheduled writebacks

  RingQueue<OffloadEntry> queue_;
  FrepState frep_;
  // Compiled-tier replay state for the active FREP: candidate body looked
  // up at setup, micro-op table armed once the capture validates.
  const CompiledProgram* compiled_ = nullptr;
  const CompiledFrep* frep_src_ = nullptr;
  const FpssMicroOp* frep_mops_ = nullptr;
  unsigned frep_period_ = 1;
  // Current stagger row: frep_mops_ + (iter % period) * n_insts, advanced
  // incrementally at each iteration wrap (replay indexes it per issue).
  const FpssMicroOp* frep_row_ = nullptr;
  const FpssMicroOp* frep_row_end_ = nullptr;  ///< mops + period * n_insts
  unsigned lsu_outstanding_ = 0;
  bool advanced_ = false;            ///< last tick issued or popped
  cycle_t self_wake_ = kCycleNever;  ///< earliest internal stall expiry

  struct PendingIntWb {
    cycle_t ready;  ///< first cycle the entry may retire
    std::uint8_t rd;
    std::uint64_t value;
  };
  RingQueue<PendingIntWb> int_wb_;

  FpssStats stats_;
  trace::Tracer trace_;
};

}  // namespace issr::core
