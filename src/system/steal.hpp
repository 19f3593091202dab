// Dynamic inter-cluster work stealing: the shared, bandwidth-charged
// work queue behind the stealing variants of the system kernels
// (system/csrmv_sys.hpp, system/csrmm_sys.hpp).
//
// The queue models a fetch-and-increment counter in an LLC-side atomic
// unit next to main memory. A cluster's DMCC claims the next work item
// by sending a small request message across the NoC and receives the
// granted index in a reply. Timing:
//
//   - the request consumes one egress *link* beat when sent (denied by a
//     saturated link -> retried next cycle) and travels one link_latency;
//   - the atomic unit serves at most one claim per cycle, in arrival
//     order — concurrent claimants serialize here, which is the real
//     cost of centralized work distribution;
//   - the grant travels link_latency back and consumes one ingress link
//     beat on delivery (denied -> redelivered next cycle).
//
// Claims deliberately bypass the bank-group crossbar stage (the unit is
// not a memory bank; its one-per-cycle serving rate is its own
// serialization), so a claim costs link bandwidth but never steals a
// data beat's bank-group slot — see Interconnect::try_link_beat.
//
// Determinism: each cluster keeps at most one claim outstanding, the
// System ticks clusters in a deterministic rotating order, and grants
// are assigned in serve order — so the item->cluster ownership map is a
// pure function of the simulated schedule, reproducible across hosts
// and --jobs settings.
//
// The kernels that share a queue also share a TCDM *mailbox dispatch*
// protocol. Worker programs compile one body per (global tile, buffer)
// pair and an idle loop that polls a per-worker mailbox word; the DMCC
// dispatches work by writing the body's instruction address into the
// mailbox, the worker consumes it (zeroes the word) and jalr-jumps to
// the body. A tile a cluster did not win costs its workers nothing —
// they never see it — and a won tile can land in either buffer, so
// double buffering survives any ownership pattern. The layout helpers
// below are the single source of truth (8-byte words after the two
// tile-generation words the static planner always reserves):
//
//   flags_addr + 8*(2 + 3w)      mailbox: body pc, 0 = empty (worker w)
//   flags_addr + 8*(2 + 3w + 1)  mailbox argument (e.g. the done value)
//   flags_addr + 8*(2 + 3w + 2)  worker-private scratch word
//   flags_addr + 8*(2 + 3W + w)  per-worker done generation counters
//
// The DMCC writes the argument before the pc (the worker only reads the
// argument after seeing a nonzero pc) and never overwrites a nonzero
// mailbox (the worker zeroes it on consumption), so the channel needs
// no further synchronization. Tile boundaries and per-tile row shares
// are global constants and each row's FP reduction happens in one body
// in one fixed order, so y is bitwise identical at any cluster count
// and any ownership schedule.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/csrmv_mc.hpp"
#include "common/types.hpp"
#include "mem/interconnect.hpp"

namespace issr::system {

/// Reorder a steal plan's tiles longest-processing-time first (cost =
/// nnz + kRowCostOverhead per row, descending; stable, so equal-cost
/// tiles keep row order). Tiles are claimed in plan order, so this makes
/// the queue hand out the expensive tiles — e.g. a power-law matrix's
/// monster rows, which are unsplittable serial chains on one worker —
/// while every cluster still has other work to overlap them with,
/// instead of letting one surface late as the whole system's tail.
/// Execution order is free in steal mode: each row reduces in one body
/// in one fixed order and y tiles write back disjoint ranges, so y stays
/// bitwise identical under any tile order.
void steal_order_tiles(std::vector<cluster::McTilePlan::Tile>& tiles);

/// Words the steal protocol inserts between the tile-generation pair
/// and the done flags: mailbox pc + argument + scratch per worker.
inline constexpr unsigned steal_flag_words(unsigned workers) {
  return 3 * workers;
}

inline addr_t steal_mailbox_pc(addr_t flags_addr, unsigned worker) {
  return flags_addr + 8ull * (2 + 3u * worker);
}
inline addr_t steal_mailbox_arg(addr_t flags_addr, unsigned worker) {
  return flags_addr + 8ull * (2 + 3u * worker + 1);
}
inline addr_t steal_scratch(addr_t flags_addr, unsigned worker) {
  return flags_addr + 8ull * (2 + 3u * worker + 2);
}
inline addr_t steal_done_flag(addr_t flags_addr, unsigned workers,
                              unsigned worker) {
  return flags_addr + 8ull * (2 + 3u * workers + worker);
}

/// Observational claim-queue counters (metrics/harvest.hpp). Purely
/// derived from the simulated schedule — recording them never changes a
/// timing decision — and deterministic like everything else here.
struct SysQueueStats {
  std::uint64_t claims = 0;  ///< grants delivered (exhausted replies too)
  /// Sum over delivered claims of (delivery cycle - request send cycle):
  /// the full round trip including both hops, the serve slot, and any
  /// ingress-beat redelivery stalls. claims == 0 means no steal traffic.
  std::uint64_t claim_wait_cycles = 0;
  std::uint64_t claim_wait_max = 0;   ///< slowest single round trip
  std::uint64_t send_denied = 0;      ///< requests denied an egress beat
  std::uint64_t deliver_denied = 0;   ///< grants denied an ingress beat
};

/// The shared claim queue over `num_items` work items. One instance is
/// shared by every cluster's controller; ownership is recorded for
/// post-run reporting.
class SysWorkQueue {
 public:
  /// `hop_latency` is the one-way NoC traversal (normally the
  /// interconnect's link_latency).
  SysWorkQueue(std::uint32_t num_items, unsigned num_clusters,
               cycle_t hop_latency);

  std::uint32_t num_items() const { return total_; }

  /// Send cluster `c`'s claim (at most one outstanding per cluster).
  /// Consumes one egress link beat; false = link saturated, retry next
  /// cycle. The granted index is fixed at send time — serve order equals
  /// send order because every request pays the same one-way latency and
  /// the serve cursor is monotone.
  bool try_request(unsigned c, cycle_t now, mem::Interconnect& noc);

  bool outstanding(unsigned c) const { return pending_[c].active; }

  /// Poll for cluster `c`'s grant. Returns true once the reply has both
  /// arrived (request hop + serve slot + reply hop) and claimed an
  /// ingress link beat for its delivery; `item` is then the granted
  /// index, or num_items() if the queue was already exhausted.
  bool poll(unsigned c, cycle_t now, mem::Interconnect& noc,
            std::uint32_t& item);

  /// item -> owning cluster, filled as grants are issued (for results
  /// and determinism tests).
  const std::vector<unsigned>& owners() const { return owners_; }

  const SysQueueStats& stats() const { return stats_; }

 private:
  struct Pending {
    bool active = false;
    cycle_t sent = 0;  ///< request send cycle (claim-latency accounting)
    cycle_t ready = 0;
    std::uint32_t item = 0;
  };

  std::uint32_t total_;
  cycle_t hop_;
  std::uint32_t cursor_ = 0;    ///< next unclaimed item
  cycle_t serve_free_ = 0;      ///< first cycle the atomic unit is free
  std::vector<Pending> pending_;
  std::vector<unsigned> owners_;
  SysQueueStats stats_;
};

}  // namespace issr::system
