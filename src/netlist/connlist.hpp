// Pooled small-inline connectivity lists.
//
// Per-cell `std::vector<CellId>` fan-in/fan-out lists cost one heap block
// per cell per direction — the dominant allocation source when loading a
// million-gate netlist. A `ConnList` stores up to `kInline` ids in place
// (covering >95% of fan-ins in ISCAS/ITC-class netlists, where 2-input
// gates dominate) and spills longer lists into a `ConnPool`: a chunked
// bump allocator owned by the `Netlist`.
//
// Pool slices are stable (chunks never move), so a ConnList is trivially
// copyable and `std::vector<Cell>` growth is a plain memcpy. A ConnList
// copied *between* netlists would alias the source pool — `Netlist`'s copy
// constructor re-houses every spilled list into the destination pool.
//
// Mutation that can grow a list takes the pool explicitly; growth
// abandons the old slice (bump pools don't free). The fan-out pool is
// rewound wholesale on every `rebuild_fanouts()` CSR pass, so abandoned
// fan-out slices never accumulate across finalizes; fan-in churn between
// parses is bounded by the editing passes that cause it.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

namespace stt {

using CellId = std::uint32_t;

class ConnPool {
 public:
  ConnPool() = default;
  ConnPool(ConnPool&&) noexcept = default;
  ConnPool& operator=(ConnPool&&) noexcept = default;
  ConnPool(const ConnPool&) = delete;
  ConnPool& operator=(const ConnPool&) = delete;

  CellId* alloc(std::uint32_t n) {
    while (cursor_ < chunks_.size() &&
           chunks_[cursor_].used + n > chunks_[cursor_].cap) {
      ++cursor_;
    }
    if (cursor_ == chunks_.size()) {
      // Chunks grow with the pool, from kFirstChunkIds up to kChunkIds, so
      // a small netlist holds a few KiB of pool rather than a whole chunk.
      const std::size_t grow =
          std::clamp(capacity_ids(), kFirstChunkIds, kChunkIds);
      const std::size_t cap = n > grow ? n : grow;
      chunks_.push_back({std::make_unique<CellId[]>(cap), 0, cap});
    }
    Chunk& c = chunks_[cursor_];
    CellId* p = c.data.get() + c.used;
    c.used += n;
    return p;
  }

  /// Rewind to empty, keeping the chunks for reuse. Every slice handed out
  /// becomes invalid; callers must rebuild all lists that used this pool.
  void reset() {
    for (Chunk& c : chunks_) c.used = 0;
    cursor_ = 0;
  }

  /// Pre-size for a bulk build of ~`ids` total list entries.
  void reserve(std::size_t ids) {
    if (ids > kChunkIds && chunks_.empty()) {
      chunks_.push_back({std::make_unique<CellId[]>(ids), 0, ids});
    }
  }

  std::size_t capacity_ids() const {
    std::size_t total = 0;
    for (const Chunk& c : chunks_) total += c.cap;
    return total;
  }

 private:
  static constexpr std::size_t kFirstChunkIds = std::size_t{1} << 10;
  static constexpr std::size_t kChunkIds = std::size_t{1} << 16;
  struct Chunk {
    std::unique_ptr<CellId[]> data;
    std::size_t used = 0;
    std::size_t cap = 0;
  };
  std::vector<Chunk> chunks_;
  std::size_t cursor_ = 0;  ///< first chunk with free space
};

class ConnList {
 public:
  using value_type = CellId;
  using const_iterator = const CellId*;
  using iterator = CellId*;
  static constexpr std::uint32_t kInline = 4;

  ConnList() = default;

  std::uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const CellId* data() const { return cap_ <= kInline ? rep_.inl : rep_.ptr; }
  CellId* data() { return cap_ <= kInline ? rep_.inl : rep_.ptr; }
  const CellId* begin() const { return data(); }
  const CellId* end() const { return data() + size_; }
  CellId* begin() { return data(); }
  CellId* end() { return data() + size_; }

  CellId operator[](std::size_t i) const {
    assert(i < size_);
    return data()[i];
  }
  CellId& operator[](std::size_t i) {
    assert(i < size_);
    return data()[i];
  }
  CellId at(std::size_t i) const {
    if (i >= size_) throw std::out_of_range("ConnList::at");
    return data()[i];
  }
  CellId front() const { return (*this)[0]; }
  CellId back() const { return (*this)[size_ - 1]; }

  /// Drop all entries; keeps the current storage for reuse.
  void clear() { size_ = 0; }

  void push_back(CellId v, ConnPool& pool) {
    if (size_ == cap_) grow(size_ + 1, pool);
    data()[size_++] = v;
  }

  /// Replace the contents with `[first, first + n)`. `first` must not
  /// point into this list's own storage.
  void assign(const CellId* first, std::size_t n, ConnPool& pool) {
    if (n > cap_) grow(n, pool);
    if (n > 0) std::memcpy(data(), first, n * sizeof(CellId));
    size_ = static_cast<std::uint32_t>(n);
  }

  /// Size to exactly `n` uninitialized-then-filled slots for CSR builds:
  /// resets length to zero with capacity >= n so `push_back` cannot spill
  /// mid-build. The exact capacity keeps pool usage at sum(degree).
  void rebuild_exact(std::uint32_t n, ConnPool& pool) {
    size_ = 0;
    if (n <= kInline) {
      cap_ = kInline;
      return;
    }
    rep_.ptr = pool.alloc(n);
    cap_ = n;
  }

  /// Append without a pool: legal only below the reserved capacity
  /// (CSR fill after `rebuild_exact`).
  void push_back_reserved(CellId v) {
    assert(size_ < cap_);
    data()[size_++] = v;
  }

  /// Erase the first occurrence of `v`, preserving the order of the rest
  /// (matches the seed's std::find + erase semantics byte for byte).
  void remove_first(CellId v) {
    CellId* p = data();
    for (std::uint32_t i = 0; i < size_; ++i) {
      if (p[i] == v) {
        std::memmove(p + i, p + i + 1, (size_ - i - 1) * sizeof(CellId));
        --size_;
        return;
      }
    }
  }

  bool operator==(const ConnList& o) const {
    if (size_ != o.size_) return false;
    return size_ == 0 ||
           std::memcmp(data(), o.data(), size_ * sizeof(CellId)) == 0;
  }
  bool operator!=(const ConnList& o) const { return !(*this == o); }

  bool spilled() const { return cap_ > kInline; }

  /// Copy contents from `src` (possibly housed in another netlist's pool)
  /// into storage owned by `pool`. Used by Netlist's copy constructor.
  void rehouse_from(const ConnList& src, ConnPool& pool) {
    size_ = src.size_;
    if (src.size_ <= kInline) {
      cap_ = kInline;
      if (src.size_ > 0) {
        std::memcpy(rep_.inl, src.data(), src.size_ * sizeof(CellId));
      }
      return;
    }
    rep_.ptr = pool.alloc(src.size_);
    cap_ = src.size_;
    std::memcpy(rep_.ptr, src.data(), src.size_ * sizeof(CellId));
  }

 private:
  void grow(std::uint32_t need, ConnPool& pool) {
    std::uint32_t cap = cap_ * 2;
    if (cap < need) cap = need;
    CellId* p = pool.alloc(cap);
    if (size_ > 0) std::memcpy(p, data(), size_ * sizeof(CellId));
    rep_.ptr = p;
    cap_ = cap;
  }

  union Rep {
    CellId inl[kInline];
    CellId* ptr;
  } rep_{};
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = kInline;
};

}  // namespace stt
