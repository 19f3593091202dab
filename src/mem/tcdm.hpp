// Tightly-coupled data memory: word-interleaved SRAM banks behind a
// single-cycle-arbitration interconnect, as in the Snitch cluster (32
// banks, 256 KiB, §II-C). Each bank serves one request per cycle; masters
// whose request loses arbitration stall until granted, which is the bank-
// conflict effect that lowers cluster ISSR utilization from 0.80 to ~0.71
// in the paper's Fig. 4c discussion.
//
// The DMA engine accesses the TCDM through a separate wide path: it claims
// whole banks for the current cycle (claim_for_dma) before core-side
// arbitration runs, modelling its 512-bit port.
//
// Arbitration costs what it serves: one pass buckets pending requests
// into per-bank candidate lists (intrusive linked lists over scratch
// arrays, no allocation) and marks each bank that gained a candidate in
// a bitmask of 64-bit words; the grant sweep then visits only the marked
// banks, lowest bit first, so grants and trace instants come out in the
// same ascending-bank order a dense scan would give. DMA claims are the
// same kind of bitmask. With 16 ports over 32 banks most banks are idle
// in any cycle, and the sweep skips them a word at a time.
#pragma once

#include <cstdint>
#include <vector>

#include "mem/backing_store.hpp"
#include "mem/port.hpp"
#include "trace/trace.hpp"

namespace issr::mem {

struct TcdmConfig {
  addr_t base = 0x1000'0000;
  std::uint32_t num_banks = 32;
  std::uint32_t bank_bytes = 8192;  ///< 32 x 8 KiB = 256 KiB
  cycle_t latency = 1;              ///< grant-to-response cycles

  std::uint64_t size_bytes() const {
    return static_cast<std::uint64_t>(num_banks) * bank_bytes;
  }
};

struct TcdmStats {
  std::uint64_t grants = 0;
  std::uint64_t conflicts = 0;  ///< master-cycles spent losing arbitration
  std::uint64_t dma_bank_claims = 0;

  double conflict_rate() const {
    const double total = static_cast<double>(grants + conflicts);
    return total > 0 ? static_cast<double>(conflicts) / total : 0.0;
  }
  bool operator==(const TcdmStats&) const = default;
};

class Tcdm {
 public:
  Tcdm(const TcdmConfig& cfg, unsigned num_masters);

  const TcdmConfig& config() const { return cfg_; }
  MemPort& port(unsigned i) { return ports_.at(i); }
  unsigned num_ports() const { return static_cast<unsigned>(ports_.size()); }

  BackingStore& store() { return store_; }
  const BackingStore& store() const { return store_; }

  /// True iff `addr` falls inside the TCDM address window.
  bool contains(addr_t addr) const {
    return addr >= cfg_.base && addr < cfg_.base + cfg_.size_bytes();
  }

  /// Bank index of a byte address (word-interleaved at 8 B granularity).
  std::uint32_t bank_of(addr_t addr) const {
    const addr_t word = (addr - cfg_.base) >> kWordBytesLog2;
    return bank_mask_ ? static_cast<std::uint32_t>(word & bank_mask_)
                      : static_cast<std::uint32_t>(word % cfg_.num_banks);
  }

  /// Reserve banks [first, first+count) for the DMA this cycle; must be
  /// called after the previous tick() and before the next. Returns the
  /// number of banks actually claimed (idempotent per cycle per bank).
  unsigned claim_for_dma(std::uint32_t first_bank, std::uint32_t count);

  /// Arbitrate and serve one request per non-claimed bank, mature
  /// responses, then clear DMA claims. Must run before requesters tick.
  void tick(cycle_t now);

  const TcdmStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  /// Fast-forward hook: earliest cycle any port changes state on its own
  /// (kCycleNever when every port is drained and idle).
  cycle_t next_event() const;

  /// Register one timeline track per bank on `sink` (track process
  /// `<prefix>tcdm`); conflicted cycles then emit an instant per bank
  /// (value = masters that lost).
  void attach_trace(trace::TraceSink& sink, const std::string& prefix = "");

 private:
  TcdmConfig cfg_;
  std::uint32_t bank_mask_ = 0;  ///< num_banks - 1 when a power of two
  BackingStore store_;
  std::vector<MemPort> ports_;
  std::vector<unsigned> rr_next_;  ///< per-bank round-robin pointer
  // Per-bank bitmasks, bank b at bit b % 64 of word b / 64: banks with a
  // candidate this tick (set while bucketing, cleared by the sweep), and
  // banks the DMA claimed for this cycle (cleared at the end of tick()).
  std::vector<std::uint64_t> bank_words_;
  std::vector<std::uint64_t> dma_words_;
  // Arbitration scratch (persistent to avoid per-cycle allocation):
  // head of each bank's candidate list / next candidate per master, both
  // -1-terminated and rebuilt each tick from the pending ports.
  std::vector<std::int32_t> bank_head_;
  std::vector<std::int32_t> cand_next_;
  TcdmStats stats_;
  trace::TraceSink* trace_ = nullptr;
  std::vector<std::uint32_t> bank_tracks_;
};

}  // namespace issr::mem
