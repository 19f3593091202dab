#include "core/fpss.hpp"

#include <bit>
#include <cassert>

#include "core/compile.hpp"

namespace issr::core {

using isa::Inst;
using isa::Op;

Fpss::Fpss(const FpssParams& params, ssr::Streamer& streamer,
           ssr::PortClient lsu_port)
    : params_(params), streamer_(streamer), lsu_(lsu_port) {}

void Fpss::offload(const OffloadEntry& entry) {
  assert(can_offload());
  assert(op_is_fpss(entry.inst.op));
  queue_.push_back(entry);
}

bool Fpss::idle(cycle_t now) const {
  if (!queue_.empty() || frep_.active || lsu_outstanding_ > 0) return false;
  if (!int_wb_.empty()) return false;
  return last_completion_ <= now;
}

std::optional<Fpss::IntWriteback> Fpss::pop_int_writeback(cycle_t now) {
  if (int_wb_.empty() || int_wb_.front().ready > now) return std::nullopt;
  const auto& front = int_wb_.front();
  IntWriteback wb{front.rd, front.value};
  int_wb_.pop_front();
  return wb;
}

Inst Fpss::staggered(const Inst& inst, std::uint64_t iter) const {
  if (frep_.stagger_mask == 0 || frep_.stagger_max == 0) return inst;
  const auto offset =
      static_cast<std::uint8_t>(iter % (frep_.stagger_max + 1u));
  if (offset == 0) return inst;
  Inst out = inst;
  if (frep_.stagger_mask & 0x1) out.rd = (out.rd + offset) & 31;
  if (frep_.stagger_mask & 0x2) out.rs1 = (out.rs1 + offset) & 31;
  if (frep_.stagger_mask & 0x4) out.rs2 = (out.rs2 + offset) & 31;
  if (frep_.stagger_mask & 0x8) out.rs3 = (out.rs3 + offset) & 31;
  return out;
}

unsigned Fpss::fp_src_regs(const Inst& inst, std::uint8_t out[3]) {
  switch (inst.op) {
    case Op::kFmaddD: case Op::kFmsubD: case Op::kFnmsubD: case Op::kFnmaddD:
      out[0] = inst.rs1;
      out[1] = inst.rs2;
      out[2] = inst.rs3;
      return 3;
    case Op::kFaddD: case Op::kFsubD: case Op::kFmulD: case Op::kFdivD:
    case Op::kFsgnjD: case Op::kFsgnjnD: case Op::kFsgnjxD:
    case Op::kFminD: case Op::kFmaxD:
    case Op::kFeqD: case Op::kFltD: case Op::kFleD:
      out[0] = inst.rs1;
      out[1] = inst.rs2;
      return 2;
    case Op::kFsqrtD: case Op::kFcvtWD: case Op::kFcvtWuD: case Op::kFmvXD:
      out[0] = inst.rs1;
      return 1;
    case Op::kFsd:
      out[0] = inst.rs2;
      return 1;
    default:
      return 0;
  }
}

bool Fpss::try_issue(const Inst& inst, std::uint64_t int_operand,
                     cycle_t now) {
  // --- Readiness checks ----------------------------------------------------
  std::uint8_t srcs[3];
  const unsigned n_src = fp_src_regs(inst, srcs);

  // Stream sources must all have data; non-stream sources must not be
  // pending in the pipeline.
  for (unsigned s = 0; s < n_src; ++s) {
    const unsigned r = srcs[s];
    if (streamer_.is_stream_reg(r)) {
      if (!streamer_.lane(r).can_pop()) {
        streamer_.lane(r).note_starved();
        ++stats_.stall_stream;
        return false;
      }
    } else if (scoreboard_busy(r, now)) {
      note_fp_wait(r, now);
      ++stats_.stall_raw;
      return false;
    }
  }

  const bool writes_fp = op_writes_fp_rd(inst.op);
  if (writes_fp) {
    if (streamer_.is_stream_reg(inst.rd)) {
      if (inst.op == Op::kFld) {
        assert(false && "fld into a stream register is not supported");
      }
      if (!streamer_.lane(inst.rd).can_push()) {
        ++stats_.stall_stream;
        return false;
      }
    } else if (scoreboard_busy(inst.rd, now)) {
      note_fp_wait(inst.rd, now);
      ++stats_.stall_raw;  // WAW on an in-flight writeback
      return false;
    }
  }

  if (inst.op == Op::kFld || inst.op == Op::kFsd) {
    if (lsu_outstanding_ >= params_.lsu_max_outstanding ||
        !lsu_.can_request()) {
      ++stats_.stall_mem;
      return false;
    }
  }

  if (fpu_is_iterative(inst.op) && iterative_busy_until_ > now) {
    if (iterative_busy_until_ < self_wake_) self_wake_ = iterative_busy_until_;
    ++stats_.stall_raw;
    return false;
  }

  // --- Execute ---------------------------------------------------------------
  // A stream register pops exactly once per instruction, even when several
  // operand fields name it (the fsgnj.d rd, ftX, ftX move idiom).
  double stream_val[ssr::Streamer::kNumLanes] = {};
  bool stream_popped[ssr::Streamer::kNumLanes] = {};
  auto read_src = [&](unsigned r) -> double {
    if (streamer_.is_stream_reg(r)) {
      if (!stream_popped[r]) {
        stream_val[r] = streamer_.lane(r).pop();
        stream_popped[r] = true;
      }
      return stream_val[r];
    }
    return fregs_[r];
  };

  const unsigned lat = fpu_latency(params_.fpu, inst.op);

  switch (inst.op) {
    case Op::kFld: {
      mem::MemReq req;
      req.addr = int_operand;  // effective address captured at core issue
      req.bytes = 8;
      lsu_.request(req, inst.rd);
      load_pending_[inst.rd] = true;
      ++lsu_outstanding_;
      ++stats_.loads;
      break;
    }
    case Op::kFsd: {
      const double value = read_src(inst.rs2);
      mem::MemReq req;
      req.addr = int_operand;
      req.bytes = 8;
      req.is_write = true;
      req.wdata = std::bit_cast<std::uint64_t>(value);
      lsu_.request(req, 0);
      ++stats_.stores;
      break;
    }
    case Op::kFcvtDW: case Op::kFcvtDWu: case Op::kFmvDX: {
      const double result = fpu_compute_from_int(inst.op, int_operand);
      if (streamer_.is_stream_reg(inst.rd)) {
        streamer_.lane(inst.rd).push(result);
      } else {
        fregs_[inst.rd] = result;
        busy_until_[inst.rd] = now + lat;
        last_completion_ = std::max(last_completion_, now + lat);
      }
      break;
    }
    case Op::kFeqD: case Op::kFltD: case Op::kFleD:
    case Op::kFcvtWD: case Op::kFcvtWuD: case Op::kFmvXD: {
      const double a = read_src(srcs[0]);
      const double b = n_src > 1 ? read_src(srcs[1]) : 0.0;
      const std::uint64_t result = fpu_compute_to_int(inst.op, a, b);
      int_wb_.push_back({now + lat, inst.rd, result});
      last_completion_ = std::max(last_completion_, now + lat);
      break;
    }
    default: {
      // FP -> FP datapath op. Pop/read operands in field order.
      double a = 0.0, b = 0.0, c = 0.0;
      if (n_src >= 1) a = read_src(srcs[0]);
      if (n_src >= 2) b = read_src(srcs[1]);
      if (n_src >= 3) c = read_src(srcs[2]);
      const double result = fpu_compute(inst.op, a, b, c);
      assert(writes_fp);
      if (streamer_.is_stream_reg(inst.rd)) {
        streamer_.lane(inst.rd).push(result);
      } else {
        fregs_[inst.rd] = result;
        busy_until_[inst.rd] = now + lat;
        last_completion_ = std::max(last_completion_, now + lat);
      }
      if (fpu_is_iterative(inst.op)) iterative_busy_until_ = now + lat;
      if (op_is_fp_compute(inst.op)) {
        ++stats_.fp_compute;
        stats_.flops += op_flops(inst.op);
        switch (inst.op) {
          case Op::kFmaddD: case Op::kFmsubD:
          case Op::kFnmsubD: case Op::kFnmaddD:
            ++stats_.fmadd;
            break;
          case Op::kFmulD:
            ++stats_.fmul;
            break;
          default:
            break;
        }
      }
      break;
    }
  }

  ++stats_.issued;
  return true;
}

bool Fpss::issue_mop(const FpssMicroOp& m, cycle_t now) {
  if (!(m.mflags & kMNativeFp)) return try_issue(m.inst, 0, now);

  // FP->FP datapath op: the pre-gathered operands and flags replace
  // fp_src_regs and the op_* classification calls of try_issue; every
  // check and state effect below mirrors that function line for line.
  for (unsigned s = 0; s < m.n_src; ++s) {
    const unsigned r = m.srcs[s];
    if (streamer_.is_stream_reg(r)) {
      if (!streamer_.lane(r).can_pop()) {
        streamer_.lane(r).note_starved();
        ++stats_.stall_stream;
        return false;
      }
    } else if (scoreboard_busy(r, now)) {
      note_fp_wait(r, now);
      ++stats_.stall_raw;
      return false;
    }
  }
  const unsigned rd = m.inst.rd;
  if (streamer_.is_stream_reg(rd)) {
    if (!streamer_.lane(rd).can_push()) {
      ++stats_.stall_stream;
      return false;
    }
  } else if (scoreboard_busy(rd, now)) {
    note_fp_wait(rd, now);
    ++stats_.stall_raw;
    return false;
  }
  if ((m.mflags & kMIterative) && iterative_busy_until_ > now) {
    if (iterative_busy_until_ < self_wake_) self_wake_ = iterative_busy_until_;
    ++stats_.stall_raw;
    return false;
  }

  double stream_val[ssr::Streamer::kNumLanes] = {};
  bool stream_popped[ssr::Streamer::kNumLanes] = {};
  auto read_src = [&](unsigned r) -> double {
    if (streamer_.is_stream_reg(r)) {
      if (!stream_popped[r]) {
        stream_val[r] = streamer_.lane(r).pop();
        stream_popped[r] = true;
      }
      return stream_val[r];
    }
    return fregs_[r];
  };

  const unsigned lat = fpu_latency(params_.fpu, m.inst.op);
  double a = 0.0, b = 0.0, c = 0.0;
  if (m.n_src >= 1) a = read_src(m.srcs[0]);
  if (m.n_src >= 2) b = read_src(m.srcs[1]);
  if (m.n_src >= 3) c = read_src(m.srcs[2]);
  const double result = fpu_compute(m.inst.op, a, b, c);
  if (streamer_.is_stream_reg(rd)) {
    streamer_.lane(rd).push(result);
  } else {
    fregs_[rd] = result;
    busy_until_[rd] = now + lat;
    last_completion_ = std::max(last_completion_, now + lat);
  }
  if (m.mflags & kMIterative) iterative_busy_until_ = now + lat;
  if (m.mflags & kMFpCompute) {
    ++stats_.fp_compute;
    stats_.flops += m.flops;
    if (m.mflags & kMFmadd) ++stats_.fmadd;
    if (m.mflags & kMFmul) ++stats_.fmul;
  }
  ++stats_.issued;
  return true;
}

void Fpss::tick(cycle_t now) {
  advanced_ = false;
  self_wake_ = kCycleNever;

  // 1. FP load writebacks.
  mem::MemRsp rsp;
  while (lsu_.pop_response(rsp)) {
    const unsigned rd = rsp.id & 31;
    assert(load_pending_[rd]);
    fregs_[rd] = std::bit_cast<double>(rsp.rdata);
    load_pending_[rd] = false;
    assert(lsu_outstanding_ > 0);
    --lsu_outstanding_;
    advanced_ = true;
  }

  // 2. Sequencer: pick and issue at most one instruction.
  if (frep_.active && !frep_.capturing) {
    // Replay: from the compiled micro-op table when the captured body
    // validated against it, else from the loop buffer with staggering
    // applied per issue (identical semantics either way).
    bool ok;
    if (frep_mops_ != nullptr) {
      ok = issue_mop(frep_row_[frep_.pos], now);
    } else {
      const Inst inst = staggered(frep_.buffer[frep_.pos], frep_.iter);
      ok = try_issue(inst, 0, now);
    }
    if (ok) {
      advanced_ = true;
      ++frep_.pos;
      if (frep_.pos == frep_.n_insts) {
        frep_.pos = 0;
        ++frep_.iter;
        if (frep_.iter == frep_.total_iters) {
          frep_.active = false;
          frep_.buffer.clear();
          frep_mops_ = nullptr;
          frep_row_ = frep_row_end_ = nullptr;
          frep_src_ = nullptr;
          trace_.end(now, "frep");
        } else if (frep_mops_ != nullptr) {
          frep_row_ += frep_.n_insts;
          if (frep_row_ == frep_row_end_) frep_row_ = frep_mops_;
        }
      }
    }
    return;
  }

  if (queue_.empty()) {
    ++stats_.idle_cycles;
    return;
  }

  const OffloadEntry& front = queue_.front();
  if (front.inst.op == Op::kFrep) {
    assert(!frep_.active && "nested FREP is not supported");
    advanced_ = true;
    frep_.active = true;
    frep_.capturing = true;
    frep_.buffer.clear();
    frep_.n_insts = front.inst.frep_insts;
    frep_.total_iters = front.int_operand + 1;  // rs1 + 1 iterations
    frep_.iter = 0;
    frep_.pos = 0;
    frep_.stagger_max = front.inst.frep_stagger_max;
    frep_.stagger_mask = front.inst.frep_stagger_mask;
    frep_mops_ = nullptr;
    frep_row_ = frep_row_end_ = nullptr;
    frep_period_ = 1;
    frep_src_ = compiled_ != nullptr ? compiled_->frep_at(front.pc) : nullptr;
    const cycle_t setup_iters = frep_.total_iters;
    queue_.pop_front();
    ++stats_.issued;
    trace_.begin(now, "frep", setup_iters);
    if (frep_.n_insts == 0) {
      // A zero-length FREP body is a complete no-op loop. (It previously
      // wedged the sequencer: the capture-complete check only ran after a
      // successful push, which a zero-length capture never performs, so
      // every later FP offload was swallowed into the buffer and the sync
      // CSR hung until the watchdog.)
      frep_.active = false;
      frep_.capturing = false;
      frep_src_ = nullptr;
      trace_.end(now, "frep");
    }
    return;  // FREP setup occupies the issue slot this cycle
  }

  if (frep_.active && frep_.capturing) {
    // Iteration 0 executes while capturing into the loop buffer.
    assert(front.inst.op != Op::kFrep);
    assert(front.inst.op != Op::kFld && front.inst.op != Op::kFsd &&
           "memory operations inside FREP are not supported");
    if (try_issue(front.inst, front.int_operand, now)) {
      advanced_ = true;
      frep_.buffer.push_back(front.inst);
      queue_.pop_front();
      if (frep_.buffer.size() == frep_.n_insts) {
        frep_.capturing = false;
        frep_.pos = 0;
        frep_.iter = 1;
        // Arm the compiled micro-op table only when the captured buffer is
        // exactly the statically lowered body — a branch between the FREP
        // head and its body instructions can make the core offload a
        // different sequence, and replay must follow what was captured.
        if (frep_src_ != nullptr && frep_src_->valid &&
            frep_src_->body == frep_.buffer) {
          frep_mops_ = frep_src_->mops.data();
          frep_period_ = frep_src_->period;
          // Replay resumes at iter == 1.
          frep_row_end_ = frep_mops_ + frep_period_ * frep_.n_insts;
          frep_row_ =
              frep_period_ == 1 ? frep_mops_ : frep_mops_ + frep_.n_insts;
        }
        if (frep_.total_iters == 1) {
          frep_.active = false;
          frep_.buffer.clear();
          frep_mops_ = nullptr;
          frep_row_ = frep_row_end_ = nullptr;
          frep_src_ = nullptr;
          trace_.end(now, "frep");
        }
      }
    }
    return;
  }

  // Straight-line dispatch: native FP->FP datapath ops issue from the
  // pre-lowered per-instruction micro-op (source registers and
  // classification flags precomputed at translation; front.inst is by
  // construction the instruction at front.pc). Everything consuming the
  // captured integer operand — fld/fsd addresses, fp-from-int moves —
  // keeps the interpreted try_issue, which issue_mop would route to with
  // the operand lost.
  if (compiled_ != nullptr) {
    const FpssMicroOp& m = compiled_->imop(front.pc);
    if (m.mflags & kMNativeFp) {
      if (issue_mop(m, now)) {
        advanced_ = true;
        queue_.pop_front();
      }
      return;
    }
  }
  if (try_issue(front.inst, front.int_operand, now)) {
    advanced_ = true;
    queue_.pop_front();
  }
}

}  // namespace issr::core
