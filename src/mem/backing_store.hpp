// Functional byte-addressable storage backing every simulated memory.
// Timing lives in the port/bank models (ideal_mem, tcdm, main_mem); this
// class only holds bytes. Pages are allocated lazily so a sparse 4 GiB
// address space costs only what is touched. A 64-entry direct-mapped
// page cache (tag = page index) sits in front of the page map, so the
// per-access path is one compare and one move for every requester —
// core LSUs, the TCDM's ports, DMA engines, and the compiled tier's
// lane bypass alike; no caller keeps a private page memo.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/arena.hpp"
#include "common/types.hpp"

namespace issr::mem {

class BackingStore {
 public:
  static constexpr std::size_t kPageBytes = 4096;

  /// Serve page storage from `arena` instead of the heap. Must be called
  /// before the first access; the arena must outlive the store, and may
  /// only be reset() once the store is destroyed (or never touched
  /// again). A sweep worker points every simulation's stores at its own
  /// arena and resets it between runs, so page allocation across a long
  /// sweep is a pointer bump over recycled chunks instead of malloc.
  void set_arena(Arena* arena) {
    assert(pages_.empty() && "set_arena must precede the first access");
    arena_ = arena;
  }

  std::uint8_t load_u8(addr_t addr) const {
    return static_cast<std::uint8_t>(load(addr, 1));
  }
  std::uint16_t load_u16(addr_t addr) const {
    return static_cast<std::uint16_t>(load(addr, 2));
  }
  std::uint32_t load_u32(addr_t addr) const {
    return static_cast<std::uint32_t>(load(addr, 4));
  }
  std::uint64_t load_u64(addr_t addr) const { return load(addr, 8); }
  double load_f64(addr_t addr) const {
    return std::bit_cast<double>(load(addr, 8));
  }

  void store_u8(addr_t addr, std::uint8_t v) { store(addr, v, 1); }
  void store_u16(addr_t addr, std::uint16_t v) { store(addr, v, 2); }
  void store_u32(addr_t addr, std::uint32_t v) { store(addr, v, 4); }
  void store_u64(addr_t addr, std::uint64_t v) { store(addr, v, 8); }
  void store_f64(addr_t addr, double v) {
    store(addr, std::bit_cast<std::uint64_t>(v), 8);
  }

  /// Generic little-endian load/store of 1, 2, 4 or 8 bytes. The fast
  /// path (a page-cache hit, access within one page) is inline; it
  /// copies the whole access at once, which like the raw-byte block
  /// copies below assumes a little-endian host.
  std::uint64_t load(addr_t addr, unsigned bytes) const {
    assert(bytes == 1 || bytes == 2 || bytes == 4 || bytes == 8);
    const addr_t idx = addr / kPageBytes;
    const std::size_t off = addr % kPageBytes;
    const CacheSlot& slot = cache_[idx % kCacheSlots];
    if (slot.page == idx && off + bytes <= kPageBytes) {
      return read_le(slot.data + off, bytes);
    }
    return load_slow(addr, bytes);
  }
  void store(addr_t addr, std::uint64_t v, unsigned bytes) {
    assert(bytes == 1 || bytes == 2 || bytes == 4 || bytes == 8);
    const addr_t idx = addr / kPageBytes;
    const std::size_t off = addr % kPageBytes;
    const CacheSlot& slot = cache_[idx % kCacheSlots];
    if (slot.page == idx && off + bytes <= kPageBytes) {
      write_le(slot.data + off, v, bytes);
      return;
    }
    store_slow(addr, v, bytes);
  }

  void write_block(addr_t addr, const void* src, std::size_t bytes);
  void read_block(addr_t addr, void* dst, std::size_t bytes) const;

  /// Convenience bulk writers for kernel data staging.
  void write_doubles(addr_t addr, const double* src, std::size_t count);
  void read_doubles(addr_t addr, double* dst, std::size_t count) const;
  void write_u32s(addr_t addr, const std::uint32_t* src, std::size_t count);

  /// Number of lazily-allocated pages (test/diagnostic hook).
  std::size_t allocated_pages() const { return pages_.size(); }

 private:
  static constexpr std::size_t kCacheSlots = 64;

  // Fixed-size copies per access width: a memcpy of a run-time size
  // inlined into a hot caller (the TCDM's grant loop) compiles to a
  // `rep movsb`, several times slower than these single moves.
  static std::uint64_t read_le(const std::uint8_t* p, unsigned bytes) {
    switch (bytes) {
      case 1:
        return *p;
      case 2: {
        std::uint16_t v;
        std::memcpy(&v, p, 2);
        return v;
      }
      case 4: {
        std::uint32_t v;
        std::memcpy(&v, p, 4);
        return v;
      }
      default: {
        std::uint64_t v;
        std::memcpy(&v, p, 8);
        return v;
      }
    }
  }
  static void write_le(std::uint8_t* p, std::uint64_t v, unsigned bytes) {
    switch (bytes) {
      case 1:
        *p = static_cast<std::uint8_t>(v);
        break;
      case 2: {
        const auto w = static_cast<std::uint16_t>(v);
        std::memcpy(p, &w, 2);
        break;
      }
      case 4: {
        const auto w = static_cast<std::uint32_t>(v);
        std::memcpy(p, &w, 4);
        break;
      }
      default:
        std::memcpy(p, &v, 8);
        break;
    }
  }

  /// One page-cache entry: a page index (the tag) and its bytes.
  struct CacheSlot {
    addr_t page = ~addr_t{0};
    std::uint8_t* data = nullptr;
  };

  std::uint64_t load_slow(addr_t addr, unsigned bytes) const;
  void store_slow(addr_t addr, std::uint64_t v, unsigned bytes);
  const std::uint8_t* page_for_read(addr_t addr) const;
  std::uint8_t* page_for_write(addr_t addr);
  std::uint8_t* allocate_page();

  // Page index -> page bytes (zero-initialized on materialization).
  // Unallocated reads return zero. Page storage comes from the arena
  // when one is set, else from owned_ below.
  std::unordered_map<addr_t, std::uint8_t*> pages_;
  std::vector<std::unique_ptr<std::uint8_t[]>> owned_;
  Arena* arena_ = nullptr;

  // Direct-mapped page cache in front of pages_: slot = page index mod
  // kCacheSlots, tag = page index. Many slots, not one: the TCDM's ports
  // and the DMA engines interleave over several arrays at once (matrix
  // values, indices, x, y, flags), so a single cached page would miss
  // into the hash map on nearly every access. Safe because a page's
  // byte buffer never moves (the map may rehash, but the page storage
  // is stable) and pages are never freed. Only allocated pages are
  // cached — a miss on an unallocated page must re-probe, since a later
  // store materializes it.
  mutable std::array<CacheSlot, kCacheSlots> cache_;
};

}  // namespace issr::mem
