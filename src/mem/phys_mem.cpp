#include "mem/phys_mem.hpp"

#include <algorithm>

namespace mcs::mem {
namespace {

util::Status out_of_range(PhysAddr addr) noexcept {
  // Lazy status: the message renders only if someone reads it, so the
  // fault path itself never allocates.
  return {util::Code::EFault, "physical access outside DRAM at ", addr};
}

}  // namespace

std::uint8_t* PhysicalMemory::touch_page(PhysAddr addr) {
  const std::uint64_t index = (addr - base_) / kPageSize;
  std::uint8_t* page = table_[index];
  if (page == nullptr) {
    page = arena_.allocate_array<std::uint8_t>(kPageSize);
    std::memset(page, 0, kPageSize);
    table_[index] = page;
    ++resident_;
  }
  // Every caller is a write path, so touching *is* dirtying. Marking on
  // the transition only keeps the dirty list duplicate-free.
  if (dirty_flags_[index] == 0) {
    dirty_flags_[index] = 1;
    dirty_list_.push_back(index);
  }
  return page;
}

void PhysicalMemory::snapshot_to(Snapshot& out, util::Arena& arena) const {
  out.pages.clear();
  out.pages.reserve(dirty_list_.size());
  for (const std::uint64_t index : dirty_list_) {
    auto* copy = arena.allocate_array<std::uint8_t>(kPageSize);
    std::memcpy(copy, table_[index], kPageSize);
    out.pages.push_back({index, copy});
  }
  std::sort(out.pages.begin(), out.pages.end(),
            [](const Snapshot::Page& a, const Snapshot::Page& b) {
              return a.index < b.index;
            });
}

void PhysicalMemory::restore_from(const Snapshot& snapshot) {
  // Pass 1, the current dirty pages: copy the captured ones back, zero
  // and clean the rest.
  const auto begin = snapshot.pages.begin();
  const auto end = snapshot.pages.end();
  for (const std::uint64_t index : dirty_list_) {
    std::uint8_t* page = table_[index];
    const auto it = std::lower_bound(
        begin, end, index, [](const Snapshot::Page& p, std::uint64_t want) {
          return p.index < want;
        });
    if (it != end && it->index == index) {
      std::memcpy(page, it->data, kPageSize);
    } else {
      std::memset(page, 0, kPageSize);
      dirty_flags_[index] = 0;
    }
  }
  // Pass 2, captured pages that were clean here (a snapshot taken later
  // than the current state): materialise, copy and dirty them. The dirty
  // set is then exactly the snapshot's.
  dirty_list_.clear();
  for (const Snapshot::Page& page : snapshot.pages) {
    if (dirty_flags_[page.index] == 0) {
      // touch_page() materialises, dirties and lists the page.
      std::memcpy(touch_page(base_ + page.index * kPageSize), page.data, kPageSize);
    } else {
      dirty_list_.push_back(page.index);
    }
  }
}

util::Status PhysicalMemory::write_u8(PhysAddr addr, std::uint8_t value) {
  if (!contains(addr)) return out_of_range(addr);
  ++slow_ops_;
  note_span(addr, 1);
  touch_page(addr)[(addr - base_) % kPageSize] = value;
  return util::ok_status();
}

util::Status PhysicalMemory::write_u32_slow(PhysAddr addr, std::uint32_t value) {
  std::uint8_t bytes[4];
  std::memcpy(bytes, &value, sizeof bytes);
  return write_block(addr, bytes);
}

util::Status PhysicalMemory::write_u64_slow(PhysAddr addr, std::uint64_t value) {
  std::uint8_t bytes[8];
  std::memcpy(bytes, &value, sizeof bytes);
  return write_block(addr, bytes);
}

util::Status PhysicalMemory::write_block(PhysAddr addr,
                                         std::span<const std::uint8_t> data) {
  if (!contains(addr, data.size())) return out_of_range(addr);
  ++slow_ops_;
  note_span(addr, data.size());
  std::uint64_t offset = addr - base_;
  std::size_t written = 0;
  while (written < data.size()) {
    std::uint8_t* page = touch_page(base_ + offset);
    const std::uint64_t in_page = offset % kPageSize;
    const std::size_t chunk =
        std::min<std::size_t>(data.size() - written,
                              static_cast<std::size_t>(kPageSize - in_page));
    std::memcpy(page + in_page, data.data() + written, chunk);
    written += chunk;
    offset += chunk;
  }
  return util::ok_status();
}

util::Expected<std::uint8_t> PhysicalMemory::read_u8(PhysAddr addr) const {
  if (!contains(addr)) return out_of_range(addr);
  ++slow_ops_;
  note_span(addr, 1);
  const std::uint8_t* page = find_page(addr);
  if (page == nullptr) return std::uint8_t{0};
  return page[(addr - base_) % kPageSize];
}

util::Expected<std::uint32_t> PhysicalMemory::read_u32_slow(PhysAddr addr) const {
  std::uint8_t bytes[4]{};
  MCS_RETURN_IF_ERROR(read_block(addr, bytes));
  std::uint32_t value = 0;
  std::memcpy(&value, bytes, sizeof value);
  return value;
}

util::Expected<std::uint64_t> PhysicalMemory::read_u64_slow(PhysAddr addr) const {
  std::uint8_t bytes[8]{};
  MCS_RETURN_IF_ERROR(read_block(addr, bytes));
  std::uint64_t value = 0;
  std::memcpy(&value, bytes, sizeof value);
  return value;
}

util::Status PhysicalMemory::read_block(PhysAddr addr,
                                        std::span<std::uint8_t> out) const {
  if (!contains(addr, out.size())) return out_of_range(addr);
  ++slow_ops_;
  note_span(addr, out.size());
  std::uint64_t offset = addr - base_;
  std::size_t read = 0;
  while (read < out.size()) {
    const std::uint64_t in_page = offset % kPageSize;
    const std::size_t chunk =
        std::min<std::size_t>(out.size() - read,
                              static_cast<std::size_t>(kPageSize - in_page));
    const std::uint8_t* page = find_page(base_ + offset);
    if (page == nullptr) {
      std::memset(out.data() + read, 0, chunk);
    } else {
      std::memcpy(out.data() + read, page + in_page, chunk);
    }
    read += chunk;
    offset += chunk;
  }
  return util::ok_status();
}

util::Status PhysicalMemory::fill(PhysAddr addr, std::uint64_t len,
                                  std::uint8_t value) {
  if (!contains(addr, len)) return out_of_range(addr);
  ++slow_ops_;
  note_span(addr, len);
  std::uint64_t offset = 0;
  while (offset < len) {
    const std::uint64_t in_page = (addr + offset - base_) % kPageSize;
    const std::uint64_t chunk = std::min(kPageSize - in_page, len - offset);
    std::uint8_t* page = touch_page(addr + offset);
    std::memset(page + in_page, value, chunk);
    offset += chunk;
  }
  return util::ok_status();
}

}  // namespace mcs::mem
