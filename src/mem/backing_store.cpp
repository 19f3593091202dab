#include "mem/backing_store.hpp"

#include <algorithm>
#include <cstring>

namespace issr::mem {

const std::uint8_t* BackingStore::page_for_read(addr_t addr) const {
  const addr_t idx = addr / kPageBytes;
  CacheSlot& slot = cache_[idx % kCacheSlots];
  if (slot.page == idx) return slot.data;
  const auto it = pages_.find(idx);
  if (it == pages_.end()) return nullptr;  // absent pages are not cached
  slot = {idx, it->second};
  return it->second;
}

std::uint8_t* BackingStore::page_for_write(addr_t addr) {
  const addr_t idx = addr / kPageBytes;
  CacheSlot& slot = cache_[idx % kCacheSlots];
  if (slot.page == idx) return slot.data;
  auto& page = pages_[idx];
  if (page == nullptr) page = allocate_page();
  slot = {idx, page};
  return page;
}

std::uint8_t* BackingStore::allocate_page() {
  std::uint8_t* page;
  if (arena_ != nullptr) {
    page = arena_->allocate_array<std::uint8_t>(kPageBytes);
  } else {
    owned_.push_back(std::make_unique<std::uint8_t[]>(kPageBytes));
    page = owned_.back().get();
  }
  std::memset(page, 0, kPageBytes);
  return page;
}

// Cache misses and the rare page-straddling access; the byte loops
// assemble a straddling access little-endian, one page at a time.

std::uint64_t BackingStore::load_slow(addr_t addr, unsigned bytes) const {
  const std::size_t off = addr % kPageBytes;
  if (off + bytes <= kPageBytes) {
    const std::uint8_t* page = page_for_read(addr);
    return page != nullptr ? read_le(page + off, bytes) : 0;
  }
  std::uint64_t v = 0;
  for (unsigned i = 0; i < bytes; ++i) {
    const addr_t a = addr + i;
    const std::uint8_t* page = page_for_read(a);
    const std::uint8_t byte = page ? page[a % kPageBytes] : 0;
    v |= static_cast<std::uint64_t>(byte) << (8 * i);
  }
  return v;
}

void BackingStore::store_slow(addr_t addr, std::uint64_t v, unsigned bytes) {
  const std::size_t off = addr % kPageBytes;
  if (off + bytes <= kPageBytes) {
    write_le(page_for_write(addr) + off, v, bytes);
    return;
  }
  for (unsigned i = 0; i < bytes; ++i) {
    const addr_t a = addr + i;
    page_for_write(a)[a % kPageBytes] =
        static_cast<std::uint8_t>((v >> (8 * i)) & 0xffu);
  }
}

void BackingStore::write_block(addr_t addr, const void* src,
                               std::size_t bytes) {
  const auto* p = static_cast<const std::uint8_t*>(src);
  std::size_t done = 0;
  while (done < bytes) {
    const addr_t a = addr + done;
    const std::size_t in_page = kPageBytes - (a % kPageBytes);
    const std::size_t chunk = std::min(in_page, bytes - done);
    std::memcpy(page_for_write(a) + (a % kPageBytes), p + done, chunk);
    done += chunk;
  }
}

void BackingStore::read_block(addr_t addr, void* dst,
                              std::size_t bytes) const {
  auto* p = static_cast<std::uint8_t*>(dst);
  std::size_t done = 0;
  while (done < bytes) {
    const addr_t a = addr + done;
    const std::size_t in_page = kPageBytes - (a % kPageBytes);
    const std::size_t chunk = std::min(in_page, bytes - done);
    const std::uint8_t* page = page_for_read(a);
    if (page) {
      std::memcpy(p + done, page + (a % kPageBytes), chunk);
    } else {
      std::memset(p + done, 0, chunk);
    }
    done += chunk;
  }
}

void BackingStore::write_doubles(addr_t addr, const double* src,
                                 std::size_t count) {
  write_block(addr, src, count * sizeof(double));
}

void BackingStore::read_doubles(addr_t addr, double* dst,
                                std::size_t count) const {
  read_block(addr, dst, count * sizeof(double));
}

void BackingStore::write_u32s(addr_t addr, const std::uint32_t* src,
                              std::size_t count) {
  write_block(addr, src, count * sizeof(std::uint32_t));
}

}  // namespace issr::mem
