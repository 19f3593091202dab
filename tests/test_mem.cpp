// Memory system tests: backing store, ideal ports, TCDM banking and
// arbitration, DMA transfers.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "mem/backing_store.hpp"
#include "mem/dma.hpp"
#include "mem/ideal_mem.hpp"
#include "mem/interconnect.hpp"
#include "mem/main_mem.hpp"
#include "mem/tcdm.hpp"

namespace issr::mem {
namespace {

/// Optional-returning convenience over the in-place response slot.
std::optional<MemRsp> pop(MemPort& port) {
  MemRsp rsp;
  if (!port.pop_response(rsp)) return std::nullopt;
  return rsp;
}

TEST(BackingStore, TypedAccessRoundTrip) {
  BackingStore s;
  s.store_u8(5, 0xab);
  s.store_u16(100, 0x1234);
  s.store_u32(200, 0xdeadbeef);
  s.store_u64(300, 0x0123456789abcdefULL);
  s.store_f64(400, -3.25);
  EXPECT_EQ(s.load_u8(5), 0xab);
  EXPECT_EQ(s.load_u16(100), 0x1234);
  EXPECT_EQ(s.load_u32(200), 0xdeadbeefu);
  EXPECT_EQ(s.load_u64(300), 0x0123456789abcdefULL);
  EXPECT_EQ(s.load_f64(400), -3.25);
}

TEST(BackingStore, LittleEndianLayout) {
  BackingStore s;
  s.store_u32(0, 0x04030201);
  EXPECT_EQ(s.load_u8(0), 1);
  EXPECT_EQ(s.load_u8(3), 4);
}

TEST(BackingStore, UnallocatedReadsZero) {
  BackingStore s;
  EXPECT_EQ(s.load_u64(0x9999'0000), 0u);
  EXPECT_EQ(s.allocated_pages(), 0u);
}

TEST(BackingStore, CrossPageBlockOps) {
  BackingStore s;
  std::vector<std::uint8_t> data(10000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7);
  }
  const addr_t base = BackingStore::kPageBytes - 123;
  s.write_block(base, data.data(), data.size());
  std::vector<std::uint8_t> back(data.size());
  s.read_block(base, back.data(), back.size());
  EXPECT_EQ(back, data);
  EXPECT_GE(s.allocated_pages(), 3u);
}

TEST(BackingStore, UnalignedWideAccess) {
  BackingStore s;
  s.store_u64(3, 0x1122334455667788ULL);
  EXPECT_EQ(s.load_u64(3), 0x1122334455667788ULL);
  EXPECT_EQ(s.load_u8(3), 0x88);
}

TEST(BackingStore, PageCacheAliasedPagesStayIndependent) {
  // Pages p and p + 64 share one slot of the 64-entry direct-mapped page
  // cache: interleaved accesses evict each other every time and must
  // still land on their own bytes.
  BackingStore s;
  const addr_t p0 = 7 * BackingStore::kPageBytes;
  const addr_t p1 = p0 + 64 * BackingStore::kPageBytes;
  for (std::uint64_t i = 0; i < 64; ++i) {
    s.store_u64(p0 + 8 * i, 0xa000 + i);
    s.store_u64(p1 + 8 * i, 0xb000 + i);
  }
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(s.load_u64(p0 + 8 * i), 0xa000 + i);
    EXPECT_EQ(s.load_u64(p1 + 8 * i), 0xb000 + i);
    EXPECT_EQ(s.load_u32(p1 + 8 * i), 0xb000 + i);
    EXPECT_EQ(s.load_u16(p0 + 8 * i), 0xa000 + i);
  }
  EXPECT_EQ(s.allocated_pages(), 2u);
}

TEST(BackingStore, AbsentPageReadIsNotCachedAndLaterStoreIsVisible) {
  BackingStore s;
  const addr_t page = 3 * BackingStore::kPageBytes;
  const addr_t alias = page + 64 * BackingStore::kPageBytes;
  s.store_u64(alias, 1);  // occupies the slot `page` maps to
  EXPECT_EQ(s.load_u64(page + 16), 0u);
  EXPECT_EQ(s.load_u64(page + 16), 0u);  // probed again, still absent
  EXPECT_EQ(s.allocated_pages(), 1u);
  s.store_u64(page + 16, 0x5151);
  EXPECT_EQ(s.load_u64(page + 16), 0x5151u);
  EXPECT_EQ(s.load_u64(alias), 1u);
  EXPECT_EQ(s.load_u64(page + 16), 0x5151u);
  EXPECT_EQ(s.allocated_pages(), 2u);
}

TEST(BackingStore, PageStraddlingLoadAndStore) {
  BackingStore s;
  const addr_t edge = 5 * BackingStore::kPageBytes;
  // Only the lower page exists: the upper half of the load reads zero.
  s.store_u8(edge - 1, 0x77);
  EXPECT_EQ(s.load_u64(edge - 3), 0x77ull << 16);
  EXPECT_EQ(s.allocated_pages(), 1u);
  s.store_u64(edge - 3, 0x1122334455667788ULL);
  EXPECT_EQ(s.allocated_pages(), 2u);
  EXPECT_EQ(s.load_u64(edge - 3), 0x1122334455667788ULL);
  EXPECT_EQ(s.load_u8(edge - 3), 0x88);
  EXPECT_EQ(s.load_u8(edge - 1), 0x66);
  EXPECT_EQ(s.load_u8(edge), 0x55);
  EXPECT_EQ(s.load_u32(edge), 0x22334455u);
  EXPECT_EQ(s.load_u32(edge - 4), 0x66778800u);
}

TEST(IdealMemory, SingleRequestLatency) {
  IdealMemory mem(1, /*latency=*/1);
  mem.store().store_u64(0x40, 77);
  auto& port = mem.port(0);
  // Cycle 0: push request (requester phase).
  ASSERT_TRUE(port.can_accept());
  port.push_request({0x40, false, 8, 0, 9});
  EXPECT_FALSE(port.can_accept());
  EXPECT_FALSE(pop(port).has_value());
  // Cycle 1: memory grants; response pops in the same cycle's
  // requester phase (latency 1).
  mem.tick(1);
  EXPECT_TRUE(port.can_accept());
  const auto rsp = pop(port);
  ASSERT_TRUE(rsp.has_value());
  EXPECT_EQ(rsp->rdata, 77u);
  EXPECT_EQ(rsp->id, 9u);
}

TEST(IdealMemory, PipelinedThroughputOnePerCycle) {
  IdealMemory mem(1, 2);
  for (addr_t a = 0; a < 64; a += 8) mem.store().store_u64(a, a);
  auto& port = mem.port(0);
  unsigned received = 0;
  addr_t next = 0;
  for (cycle_t t = 0; t < 32; ++t) {
    mem.tick(t);
    while (auto rsp = pop(port)) {
      EXPECT_EQ(rsp->rdata, static_cast<std::uint64_t>(received * 8));
      ++received;
    }
    if (next < 64 && port.can_accept()) {
      port.push_request({next, false, 8, 0, 0});
      next += 8;
    }
  }
  EXPECT_EQ(received, 8u);
  // With latency 2 and full pipelining: 8 requests complete in ~10 cycles.
}

TEST(IdealMemory, WritesCommitOnGrant) {
  IdealMemory mem(2, 1);
  mem.port(0).push_request({0x10, true, 8, 0xfeed, 0});
  mem.tick(1);
  EXPECT_EQ(mem.store().load_u64(0x10), 0xfeedu);
  EXPECT_EQ(mem.port(0).stats().writes, 1u);
}

TEST(Tcdm, BankMappingWordInterleaved) {
  TcdmConfig cfg;
  Tcdm tcdm(cfg, 1);
  EXPECT_EQ(tcdm.bank_of(cfg.base + 0), 0u);
  EXPECT_EQ(tcdm.bank_of(cfg.base + 8), 1u);
  EXPECT_EQ(tcdm.bank_of(cfg.base + 8 * 31), 31u);
  EXPECT_EQ(tcdm.bank_of(cfg.base + 8 * 32), 0u);
  EXPECT_TRUE(tcdm.contains(cfg.base));
  EXPECT_TRUE(tcdm.contains(cfg.base + cfg.size_bytes() - 1));
  EXPECT_FALSE(tcdm.contains(cfg.base + cfg.size_bytes()));
}

TEST(Tcdm, ConflictSerializesSameBank) {
  TcdmConfig cfg;
  Tcdm tcdm(cfg, 2);
  tcdm.store().store_u64(cfg.base, 42);
  // Both masters target bank 0 in the same cycle.
  tcdm.port(0).push_request({cfg.base, false, 8, 0, 0});
  tcdm.port(1).push_request({cfg.base, false, 8, 0, 1});
  tcdm.tick(1);
  // Exactly one granted.
  const bool p0 = pop(tcdm.port(0)).has_value();
  const bool p1 = pop(tcdm.port(1)).has_value();
  EXPECT_NE(p0, p1);
  EXPECT_EQ(tcdm.stats().grants, 1u);
  EXPECT_EQ(tcdm.stats().conflicts, 1u);
  tcdm.tick(2);
  EXPECT_TRUE(pop(tcdm.port(p0 ? 1 : 0)).has_value());
}

TEST(Tcdm, DifferentBanksProceedInParallel) {
  TcdmConfig cfg;
  Tcdm tcdm(cfg, 2);
  tcdm.port(0).push_request({cfg.base, false, 8, 0, 0});
  tcdm.port(1).push_request({cfg.base + 8, false, 8, 0, 1});
  tcdm.tick(1);
  EXPECT_TRUE(pop(tcdm.port(0)).has_value());
  EXPECT_TRUE(pop(tcdm.port(1)).has_value());
  EXPECT_EQ(tcdm.stats().conflicts, 0u);
}

TEST(Tcdm, RoundRobinIsFairUnderPersistentConflict) {
  TcdmConfig cfg;
  Tcdm tcdm(cfg, 2);
  unsigned grants[2] = {0, 0};
  for (cycle_t t = 1; t <= 40; ++t) {
    for (unsigned m = 0; m < 2; ++m) {
      if (tcdm.port(m).can_accept()) {
        tcdm.port(m).push_request({cfg.base, false, 8, 0, m});
      }
    }
    tcdm.tick(t);
    for (unsigned m = 0; m < 2; ++m) {
      if (pop(tcdm.port(m))) ++grants[m];
    }
  }
  EXPECT_NEAR(static_cast<double>(grants[0]), static_cast<double>(grants[1]),
              2.0);
}

TEST(Tcdm, DmaClaimBlocksBank) {
  TcdmConfig cfg;
  Tcdm tcdm(cfg, 1);
  tcdm.port(0).push_request({cfg.base, false, 8, 0, 0});
  tcdm.claim_for_dma(0, 1);
  tcdm.tick(1);
  EXPECT_FALSE(pop(tcdm.port(0)).has_value());
  // Claim is per-cycle: next tick the core wins.
  tcdm.tick(2);
  EXPECT_TRUE(pop(tcdm.port(0)).has_value());
}

/// Dense reference arbiter: every cycle, every bank in ascending order,
/// every master in round-robin order from the bank's pointer — the
/// banks x masters scan the bitmask sweep in Tcdm::tick must reproduce.
struct DenseArbiter {
  DenseArbiter(unsigned banks, unsigned masters)
      : rr(banks, 0), claimed(banks, false), pending(masters, -1),
        stalls(masters, 0) {}

  /// Arbitrate one cycle; returns which masters were granted.
  std::vector<bool> tick() {
    const auto masters = static_cast<unsigned>(pending.size());
    std::vector<bool> granted(masters, false);
    for (unsigned b = 0; b < rr.size(); ++b) {
      int winner = -1;
      for (unsigned k = 0; k < masters; ++k) {
        const unsigned m = (rr[b] + k) % masters;
        if (pending[m] == static_cast<int>(b)) {
          winner = static_cast<int>(m);
          break;
        }
      }
      if (winner < 0) continue;
      if (claimed[b]) winner = -1;  // the DMA holds the bank
      for (unsigned m = 0; m < masters; ++m) {
        if (pending[m] == static_cast<int>(b) &&
            static_cast<int>(m) != winner) {
          ++stalls[m];
          ++conflicts;
        }
      }
      if (winner < 0) continue;
      const auto w = static_cast<unsigned>(winner);
      rr[b] = (w + 1) % masters;
      ++grants;
      granted[w] = true;
      pending[w] = -1;
    }
    claimed.assign(claimed.size(), false);
    return granted;
  }

  std::vector<unsigned> rr;
  std::vector<bool> claimed;
  std::vector<int> pending;  ///< per master: target bank, or -1
  std::vector<std::uint64_t> stalls;
  std::uint64_t grants = 0;
  std::uint64_t conflicts = 0;
};

TEST(Tcdm, BitmaskSweepMatchesDenseArbiterAcrossMaskWords) {
  // 96 banks (not a power of two) span two 64-bit mask words. Three
  // masters send a seeded random stream biased toward a few hot banks
  // on both sides of the word boundary, with random DMA claims that wrap
  // past the last bank.
  TcdmConfig cfg;
  cfg.num_banks = 96;
  constexpr unsigned kMasters = 3;
  Tcdm tcdm(cfg, kMasters);
  DenseArbiter ref(cfg.num_banks, kMasters);
  Rng rng(4242);
  const std::uint32_t hot[] = {0, 1, 63, 64, 95};
  for (cycle_t t = 1; t <= 20000; ++t) {
    for (unsigned m = 0; m < kMasters; ++m) {
      ASSERT_EQ(tcdm.port(m).can_accept(), ref.pending[m] < 0) << t;
      if (!tcdm.port(m).can_accept() || rng.uniform() < 0.2) continue;
      const auto bank = static_cast<std::uint32_t>(
          rng.uniform() < 0.6 ? hot[rng.uniform_int(0, 4)]
                              : rng.uniform_int(0, cfg.num_banks - 1));
      const addr_t row = rng.uniform_int(0, 63);
      const addr_t addr = cfg.base + 8 * (bank + cfg.num_banks * row);
      ASSERT_EQ(tcdm.bank_of(addr), bank);
      const bool write = rng.uniform() < 0.3;
      tcdm.port(m).push_request({addr, write, 8, t, m});
      ref.pending[m] = static_cast<int>(bank);
    }
    if (rng.uniform() < 0.25) {
      const auto first =
          static_cast<std::uint32_t>(rng.uniform_int(0, cfg.num_banks - 1));
      const auto count = static_cast<std::uint32_t>(rng.uniform_int(1, 8));
      tcdm.claim_for_dma(first, count);
      for (std::uint32_t i = 0; i < count; ++i) {
        ref.claimed[(first + i) % cfg.num_banks] = true;
      }
    }
    const std::vector<bool> granted = ref.tick();
    tcdm.tick(t);
    for (unsigned m = 0; m < kMasters; ++m) {
      // A grant frees the pending slot; granted loads answer at once.
      EXPECT_EQ(tcdm.port(m).can_accept(), ref.pending[m] < 0)
          << "master " << m << " cycle " << t;
      EXPECT_EQ(tcdm.port(m).stats().stall_cycles, ref.stalls[m])
          << "master " << m << " cycle " << t;
      while (pop(tcdm.port(m))) {
        EXPECT_TRUE(granted[m]) << "master " << m << " cycle " << t;
      }
    }
    ASSERT_FALSE(::testing::Test::HasFailure()) << "diverged at cycle " << t;
  }
  EXPECT_EQ(tcdm.stats().grants, ref.grants);
  EXPECT_EQ(tcdm.stats().conflicts, ref.conflicts);
  EXPECT_GT(ref.conflicts, 1000u);  // the stream really contends
}

class DmaTransfer : public ::testing::Test {
 protected:
  DmaTransfer() : tcdm_(TcdmConfig{}, 1), dma_(tcdm_, main_) {}

  void run_until_idle() {
    cycle_t t = 0;
    while (dma_.busy()) {
      dma_.tick(t);
      tcdm_.tick(t);
      ++t;
      ASSERT_LT(t, 100000u);
    }
  }

  Tcdm tcdm_;
  MainMemory main_;
  Dma dma_;
};

TEST_F(DmaTransfer, Copies1dMainToTcdm) {
  std::vector<std::uint8_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  main_.store().write_block(MainMemory::kBase + 7, data.data(), data.size());
  dma_.start_1d(tcdm_.config().base + 3, MainMemory::kBase + 7, data.size());
  run_until_idle();
  std::vector<std::uint8_t> back(data.size());
  tcdm_.store().read_block(tcdm_.config().base + 3, back.data(), back.size());
  EXPECT_EQ(back, data);
  EXPECT_EQ(main_.bytes_read(), data.size());
  EXPECT_EQ(dma_.completed_in(), 1u);
}

TEST_F(DmaTransfer, Copies2dWithStrides) {
  // 4 rows of 16 bytes, source stride 32 (picking every other row).
  for (unsigned r = 0; r < 4; ++r) {
    for (unsigned b = 0; b < 16; ++b) {
      main_.store().store_u8(MainMemory::kBase + r * 32 + b,
                             static_cast<std::uint8_t>(r * 100 + b));
    }
  }
  dma_.start_2d(tcdm_.config().base, MainMemory::kBase, 16, 4, 16, 32);
  run_until_idle();
  for (unsigned r = 0; r < 4; ++r) {
    for (unsigned b = 0; b < 16; ++b) {
      EXPECT_EQ(tcdm_.store().load_u8(tcdm_.config().base + r * 16 + b),
                static_cast<std::uint8_t>(r * 100 + b));
    }
  }
}

TEST_F(DmaTransfer, DuplexChannelsOverlap) {
  // One inbound and one outbound job of equal size run concurrently: the
  // total completes in ~bytes/64 cycles, not 2x.
  const std::uint64_t bytes = 6400;
  dma_.start_1d(tcdm_.config().base, MainMemory::kBase, bytes);
  dma_.start_1d(MainMemory::kBase + 0x100000, tcdm_.config().base + 0x8000,
                bytes);
  cycle_t t = 0;
  while (dma_.busy()) {
    dma_.tick(t);
    tcdm_.tick(t);
    ++t;
    ASSERT_LT(t, 10000u);
  }
  EXPECT_LE(t, bytes / 64 + 4);
  EXPECT_EQ(dma_.completed_in(), 1u);
  EXPECT_EQ(dma_.completed_out(), 1u);
}

TEST_F(DmaTransfer, ZeroByteJobCompletesImmediately) {
  dma_.start_1d(tcdm_.config().base, MainMemory::kBase, 0);
  dma_.tick(0);
  EXPECT_FALSE(dma_.busy());
  EXPECT_EQ(dma_.completed_jobs(), 1u);
}

// --- Cluster-to-memory interconnect ------------------------------------------

TEST(Interconnect, LinksArePerClusterAndPerDirection) {
  InterconnectConfig cfg;
  cfg.num_clusters = 2;
  cfg.link_beats_per_cycle = 1;
  cfg.bank_groups = 0;  // isolate the link stage
  Interconnect noc(cfg);
  noc.begin_cycle(0);
  // Each cluster owns a duplex link: cluster 0 exhausting its ingress
  // budget blocks neither its own egress nor cluster 1's ingress.
  EXPECT_TRUE(noc.try_beat(0, Interconnect::Dir::kIngress, 0, 0));
  EXPECT_FALSE(noc.try_beat(0, Interconnect::Dir::kIngress, 64, 0));
  EXPECT_TRUE(noc.try_beat(0, Interconnect::Dir::kEgress, 128, 0));
  EXPECT_TRUE(noc.try_beat(1, Interconnect::Dir::kIngress, 192, 0));
  // Budgets refill at the cycle boundary.
  noc.begin_cycle(1);
  EXPECT_TRUE(noc.try_beat(0, Interconnect::Dir::kIngress, 0, 1));
  EXPECT_EQ(noc.link_stats()[0].beats_in, 2u);
  EXPECT_EQ(noc.link_stats()[0].denied_in, 1u);
  EXPECT_EQ(noc.link_stats()[1].denied_in, 0u);
  EXPECT_EQ(noc.group_conflicts(), 0u);
}

TEST(Interconnect, BankGroupSerializesClustersSharingARegion) {
  InterconnectConfig cfg;
  cfg.num_clusters = 2;
  cfg.link_beats_per_cycle = 0;  // unlimited links: isolate the crossbar
  cfg.bank_groups = 8;
  cfg.group_beats_per_cycle = 1;
  Interconnect noc(cfg);
  noc.begin_cycle(0);
  // Both clusters touch addresses in bank group 0 (beat address / 64 mod
  // 8): the group serves one beat, the second cluster is denied and the
  // denial is attributed to the crossbar stage.
  EXPECT_EQ(noc.group_of(0), noc.group_of(512));
  EXPECT_TRUE(noc.try_beat(0, Interconnect::Dir::kIngress, 0, 0));
  EXPECT_FALSE(noc.try_beat(1, Interconnect::Dir::kIngress, 512, 0));
  EXPECT_EQ(noc.group_conflicts(), 1u);
  // A different group proceeds the same cycle.
  EXPECT_TRUE(noc.try_beat(1, Interconnect::Dir::kIngress, 64, 0));
}

TEST(Interconnect, LinkBeatBypassesCrossbarAndUnlimitedBypassesAll) {
  InterconnectConfig cfg;
  cfg.num_clusters = 1;
  cfg.link_beats_per_cycle = 1;
  cfg.bank_groups = 1;
  cfg.group_beats_per_cycle = 1;
  Interconnect noc(cfg);
  noc.begin_cycle(0);
  // A control message (work-queue claim) shares the link budget with
  // data beats but never consumes a bank-group slot.
  EXPECT_TRUE(noc.try_link_beat(0, Interconnect::Dir::kEgress, 0));
  EXPECT_FALSE(noc.try_beat(0, Interconnect::Dir::kEgress, 0, 0));
  noc.begin_cycle(1);
  EXPECT_TRUE(noc.try_beat(0, Interconnect::Dir::kEgress, 0, 1));
  EXPECT_FALSE(noc.try_link_beat(0, Interconnect::Dir::kEgress, 1));
  // Post-run harvest drain: every budget bypassed, nothing counted.
  const auto denied = noc.link_stats()[0].denied_out;
  noc.set_unlimited(true);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(noc.try_beat(0, Interconnect::Dir::kEgress, 0, 1));
  }
  EXPECT_EQ(noc.link_stats()[0].denied_out, denied);
  noc.set_unlimited(false);
}

}  // namespace
}  // namespace issr::mem
