// A bit matrix packed in the blocked layout `CompiledSim::eval_batch`
// reads: one row per net, 64 patterns (say, clock cycles) per word, row r
// occupying words [r * words(), (r + 1) * words()). Bit (r, t) is bit
// t % 64 of word r * words() + t / 64; the bits past `patterns()` in a
// row's last word are zero.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace stt {

class PackedRows {
 public:
  PackedRows() = default;
  PackedRows(std::size_t rows, std::size_t patterns)
      : rows_(rows),
        patterns_(patterns),
        words_((patterns + 63) / 64),
        bits_(rows * words_, 0) {}

  std::size_t rows() const { return rows_; }
  std::size_t patterns() const { return patterns_; }
  /// Words per row: the `W` of an `eval_batch` over these rows.
  std::size_t words() const { return words_; }

  bool bit(std::size_t row, std::size_t pattern) const {
    return (bits_[row * words_ + pattern / 64] >> (pattern % 64)) & 1ull;
  }
  void set(std::size_t row, std::size_t pattern) {
    bits_[row * words_ + pattern / 64] |= 1ull << (pattern % 64);
  }

  std::span<const std::uint64_t> data() const { return bits_; }

  bool operator==(const PackedRows&) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t patterns_ = 0;
  std::size_t words_ = 0;
  std::vector<std::uint64_t> bits_;
};

}  // namespace stt
