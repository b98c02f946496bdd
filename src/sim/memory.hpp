// Ternary memory model shared by TIM and TDM.
//
// The hardware decodes a 9-trit address pattern to one of 3^9 = 19683 rows
// using the unsigned digit interpretation (paper §II-A).  Software-visible
// addresses in this repository are balanced values; the bijection is
// row = balanced + 9841 (mod 19683).  Reads/writes are counted so cycle
// models and power estimators can charge per-access energy.
#pragma once

#include <cstdint>
#include <vector>

#include "ternary/bct.hpp"
#include "ternary/word.hpp"

namespace art9::sim {

class TernaryMemory {
 public:
  /// Full 9-trit address space.
  static constexpr int64_t kRows = ternary::Word9::kStates;  // 19683

  TernaryMemory() : rows_(static_cast<std::size_t>(kRows)) {}

  /// Row index for a balanced address (wraps modulo 3^9).  Reduces before
  /// biasing: `balanced_address + kMaxValue` would be signed overflow (UB)
  /// for addresses near INT64_MAX — the same wraparound class the rv32 RAM
  /// checks were hardened against — and .t9 images can carry any int64.
  [[nodiscard]] static std::size_t row_of(int64_t balanced_address) noexcept {
    int64_t r = balanced_address % kRows;  // (-kRows, kRows): safe to bias
    r += ternary::Word9::kMaxValue;
    if (r < 0) r += kRows;
    if (r >= kRows) r -= kRows;
    return static_cast<std::size_t>(r);
  }

  [[nodiscard]] const ternary::Word9& read(int64_t balanced_address) {
    ++reads_;
    return rows_[row_of(balanced_address)];
  }

  /// Read without bumping the access counters (debug/bench inspection).
  [[nodiscard]] const ternary::Word9& peek(int64_t balanced_address) const {
    return rows_[row_of(balanced_address)];
  }

  void write(int64_t balanced_address, const ternary::Word9& value) {
    ++writes_;
    rows_[row_of(balanced_address)] = value;
  }

  /// Direct initialisation (program load) — not counted as an access.
  void poke(int64_t balanced_address, const ternary::Word9& value) {
    rows_[row_of(balanced_address)] = value;
  }

  [[nodiscard]] uint64_t reads() const noexcept { return reads_; }
  [[nodiscard]] uint64_t writes() const noexcept { return writes_; }

  /// Bit-identical comparison: contents *and* access counters (two equal
  /// memories are indistinguishable to cycle/power models too).
  friend bool operator==(const TernaryMemory&, const TernaryMemory&) = default;

  void reset_counters() noexcept { reads_ = writes_ = 0; }

  /// Restores the access counters — used when unpacking a packed-backend
  /// run into a reference memory for bit-identical comparison.
  void set_counters(uint64_t reads, uint64_t writes) noexcept {
    reads_ = reads;
    writes_ = writes;
  }

 private:
  std::vector<ternary::Word9> rows_;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
};

/// Plane-pair ternary memory: the packed datapath's TDM.  Rows are
/// BctWord9 plane pairs (18 host bits of payload per row — the same
/// encoding the paper's FPGA platform stores, §V-B) instead of
/// std::array<Trit, 9>, so loads/stores move two machine words and never
/// touch a Trit.  Same row bijection and access accounting as
/// TernaryMemory; `unpack()` is the inspection-boundary conversion and
/// reproduces contents *and* counters bit-identically.
class PackedMemory {
 public:
  static constexpr int64_t kRows = TernaryMemory::kRows;

  PackedMemory() : rows_(static_cast<std::size_t>(kRows)) {}

  /// Counted read by pre-folded row index (hot path — the packed engines
  /// fold addresses with ternary::packed::row_of).
  [[nodiscard]] const ternary::BctWord9& read_row(std::size_t row) noexcept {
    ++reads_;
    return rows_[row];
  }

  /// Counted write by pre-folded row index.
  void write_row(std::size_t row, const ternary::BctWord9& value) noexcept {
    ++writes_;
    rows_[row] = value;
  }

  /// Direct initialisation (program load) — not counted as an access.
  void poke(int64_t balanced_address, const ternary::BctWord9& value) {
    rows_[TernaryMemory::row_of(balanced_address)] = value;
  }

  /// Hot-loop escape hatch: raw row storage for a register-resident
  /// execute loop.  Callers that bypass read_row/write_row must account
  /// their accesses via add_counters before the next inspection.
  [[nodiscard]] ternary::BctWord9* data() noexcept { return rows_.data(); }
  void add_counters(uint64_t reads, uint64_t writes) noexcept {
    reads_ += reads;
    writes_ += writes;
  }

  [[nodiscard]] uint64_t reads() const noexcept { return reads_; }
  [[nodiscard]] uint64_t writes() const noexcept { return writes_; }

  /// Restores the access counters (snapshot restore re-packs a reference
  /// memory and must resume its accounting where it left off).
  void set_counters(uint64_t reads, uint64_t writes) noexcept {
    reads_ = reads;
    writes_ = writes;
  }

  friend bool operator==(const PackedMemory&, const PackedMemory&) = default;

  /// Decodes to the reference representation (contents + counters).
  [[nodiscard]] TernaryMemory unpack() const {
    TernaryMemory out;
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      if (rows_[r] == ternary::BctWord9{}) continue;  // zero rows match the default
      out.poke(static_cast<int64_t>(r) - ternary::Word9::kMaxValue, rows_[r].decode());
    }
    out.set_counters(reads_, writes_);
    return out;
  }

 private:
  std::vector<ternary::BctWord9> rows_;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
};

}  // namespace art9::sim
