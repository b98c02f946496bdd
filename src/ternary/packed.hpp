// Plane-packed SWAR datapath — the host-side realization of the paper's
// FPGA emulation strategy (§V-B): every ternary block becomes a handful of
// binary operations on two bit-planes.
//
// Tritwise logic is already 2-3 bitwise ops on the planes (bct.hpp).  This
// header adds the *arithmetic* half of the TALU in branchless form:
//
//  * packed -> balanced-int in table loads (one 512-entry plane-value
//    table per 9-bit plane chunk, subtract), and balanced-int -> packed as
//    divide-by-3^5 splits plus loads from a 243-entry (and, for the 9-trit
//    fast path, an 81-entry) half-word plane table — all tables together
//    stay under 2.5 KB, so the hot loop's conversion state is permanently
//    L1-resident;
//  * ADD/SUB/compare in the value domain: integer add, a precomputed
//    mod-3^N wrap as two conditional moves, then table loads back to
//    planes — no per-trit carry ripple;
//  * the unsigned-domain helpers the simulators need (register shift
//    amounts, memory row decode) as a couple of shifts/adds.
//
// Two layers share those tables:
//
//  * the free functions over BctWord9 (the original 9-trit datapath used
//    by the packed engines' hot loops), and
//  * the width-generic `PackedWord<N>` plane-pair template (1 <= N <= 32),
//    whose N == 9 instantiation reduces to exactly the same table loads;
//    no engine executes it — every width (21 trits cover a 32-bit binary
//    value) is width-tested only.
//
// Everything is constexpr, so every operation here is usable in constant
// expressions and the packed-vs-reference equivalence suites
// (tests/ternary/packed_test.cpp, tests/ternary/packed_word_test.cpp)
// check them exhaustively.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>

#include "ternary/bct.hpp"
#include "ternary/word.hpp"

namespace art9::ternary::packed {

/// Number of 9-trit states (3^9) and the balanced range bounds.
inline constexpr int32_t kStates = static_cast<int32_t>(Word9::kStates);   // 19683
inline constexpr int32_t kMax = static_cast<int32_t>(Word9::kMaxValue);    //  9841
inline constexpr int32_t kMin = static_cast<int32_t>(Word9::kMinValue);    // -9841

namespace detail {

/// plane -> sum of 3^i over set bits: to_int(w) = table[pos] - table[neg].
constexpr std::array<int16_t, 512> make_plane_value() {
  std::array<int16_t, 512> table{};
  for (uint32_t mask = 0; mask < 512; ++mask) {
    int32_t value = 0;
    int32_t p = 1;
    for (int i = 0; i < 9; ++i) {
      if ((mask >> i) & 1u) value += p;
      p *= 3;
    }
    table[mask] = static_cast<int16_t>(value);
  }
  return table;
}

/// Packed planes as (neg << 16) | pos for `digits` unsigned base-3 digits
/// of `u`, trit i = digit i - 1, bit positions starting at `shift`.
constexpr uint32_t planes_of_unsigned(uint32_t u, int digits, int shift) {
  uint32_t neg = 0;
  uint32_t pos = 0;
  for (int i = 0; i < digits; ++i) {
    const uint32_t level = u % 3;
    u /= 3;
    if (level == 0) neg |= 1u << (shift + i);
    if (level == 2) pos |= 1u << (shift + i);
  }
  return (neg << 16) | pos;
}

/// Unsigned low 5 digits (value + kMax in [0, 242]) -> planes of trits 0..4.
constexpr std::array<uint32_t, 243> make_packed_low() {
  std::array<uint32_t, 243> table{};
  for (uint32_t u = 0; u < 243; ++u) table[u] = planes_of_unsigned(u, 5, 0);
  return table;
}

/// Unsigned high 4 digits ((value + kMax) / 243 in [0, 80]) -> planes of
/// trits 5..8, pre-shifted into position.
constexpr std::array<uint32_t, 81> make_packed_high() {
  std::array<uint32_t, 81> table{};
  for (uint32_t u = 0; u < 81; ++u) table[u] = planes_of_unsigned(u, 4, 5);
  return table;
}

}  // namespace detail

inline constexpr std::array<int16_t, 512> kPlaneValue = detail::make_plane_value();
inline constexpr std::array<uint32_t, 243> kPackedLow = detail::make_packed_low();
inline constexpr std::array<uint32_t, 81> kPackedHigh = detail::make_packed_high();

/// Balanced value of a packed word: two table loads and a subtract.
[[nodiscard]] constexpr int32_t to_int(const BctWord9& w) noexcept {
  return kPlaneValue[w.pos_plane()] - kPlaneValue[w.neg_plane()];
}

/// Packed word for a balanced value: one divide-by-243 split (a
/// multiply-shift after strength reduction) and two small-table loads.
/// Precondition: v in [kMin, kMax].
[[nodiscard]] constexpr BctWord9 from_int(int32_t v) noexcept {
  const uint32_t u = static_cast<uint32_t>(v + kMax);  // unsigned digit view
  const uint32_t planes = kPackedLow[u % 243u] | kPackedHigh[u / 243u];
  return BctWord9::from_planes_unchecked(planes >> 16, planes & BctWord9::kMask);
}

/// Reduces a value into [kMin, kMax] modulo 3^9.  Branchless for the
/// datapath's overflow range: precondition |v| < 2 * kStates (one
/// correction per side), which covers every sum/difference of two in-range
/// values plus a small immediate.
[[nodiscard]] constexpr int32_t wrap(int32_t v) noexcept {
  v += v < kMin ? kStates : 0;
  v -= v > kMax ? kStates : 0;
  return v;
}

/// Balanced addition modulo 3^9 — the packed TALU ADD cell.
[[nodiscard]] constexpr BctWord9 add(const BctWord9& a, const BctWord9& b) noexcept {
  return from_int(wrap(to_int(a) + to_int(b)));
}

/// a + imm for a small pre-validated immediate (|imm| <= kStates - 1).
[[nodiscard]] constexpr BctWord9 add_int(const BctWord9& a, int32_t imm) noexcept {
  return from_int(wrap(to_int(a) + imm));
}

/// Balanced subtraction modulo 3^9 — the packed TALU SUB cell.
[[nodiscard]] constexpr BctWord9 sub(const BctWord9& a, const BctWord9& b) noexcept {
  return from_int(wrap(to_int(a) - to_int(b)));
}

/// sign(a - b) in {-1, 0, +1} — the packed compare tree.
[[nodiscard]] constexpr int compare(const BctWord9& a, const BctWord9& b) noexcept {
  const int32_t d = to_int(a) - to_int(b);
  return (d > 0) - (d < 0);
}

/// COMP result word: sign(a - b) in the least-significant trit, upper trits
/// zero (mirrors sim::comp_result).
[[nodiscard]] constexpr BctWord9 comp_word(const BctWord9& a, const BctWord9& b) noexcept {
  const int c = compare(a, b);
  return BctWord9::from_planes_unchecked(static_cast<uint32_t>(c < 0), static_cast<uint32_t>(c > 0));
}

/// Unsigned shift amount from the two least-significant trits (the
/// register-shift forms SR/SL, paper Table I): level(w[1]) * 3 + level(w[0]),
/// always in [0, 8].
[[nodiscard]] constexpr unsigned shift_amount(const BctWord9& w) noexcept {
  const uint32_t pos = w.pos_plane();
  const uint32_t neg = w.neg_plane();
  const uint32_t level0 = 1u + (pos & 1u) - (neg & 1u);
  const uint32_t level1 = 1u + ((pos >> 1) & 1u) - ((neg >> 1) & 1u);
  return level1 * 3u + level0;
}

/// Memory/TIM row of a balanced address: (v + kMax) mod 3^9, branchless.
/// Precondition: |v| < 2 * kStates (one correction per side), which holds
/// for any base register value plus an imm3 offset.
[[nodiscard]] constexpr std::size_t row_of(int32_t v) noexcept {
  int32_t r = v + kMax;
  r += r < 0 ? kStates : 0;
  r -= r >= kStates ? kStates : 0;
  return static_cast<std::size_t>(r);
}

// ===========================================================================
// PackedWord<N> — width-generic plane-pair word.
//
// The same two-plane encoding as BctWord9, for any width 1 <= N <= 32
// (uint32_t planes; value-domain math stays inside int64_t since
// 2 * 3^32 < 2^63).  Conversions chunk through the constexpr tables above:
// to_int() reads the 512-entry plane-value table once per 9 plane bits,
// from_int() emits 5 base-3 digits per 243-entry table load — so the
// N == 9 instantiation is exactly the original two-load / two-load path,
// and wider words pay one extra load per chunk instead of a per-trit
// ripple.
// ===========================================================================

template <std::size_t N>
class PackedWord {
  static_assert(N >= 1 && N <= 32,
                "PackedWord<N> requires 1 <= N <= 32 (two uint32_t planes; wider "
                "words need a wider plane type)");

 public:
  static constexpr std::size_t kTrits = N;
  static constexpr uint32_t kMask =
      N == 32 ? 0xFFFFFFFFu : ((uint32_t{1} << (N % 32)) - 1u);
  /// Number of representable states (3^N) and the balanced range bounds.
  static constexpr int64_t kStates = Word<N>::kStates;
  static constexpr int64_t kMaxValue = Word<N>::kMaxValue;
  static constexpr int64_t kMinValue = Word<N>::kMinValue;
  /// Storage cost of one word in the binary emulation (paper §V-B).
  static constexpr int kBitsPerWord = 2 * static_cast<int>(N);

  /// Zero word (both planes clear).
  constexpr PackedWord() noexcept = default;

  /// Constructs from raw planes.  Throws std::invalid_argument if any trit
  /// position has both NEG and POS set (the unused fourth code) or either
  /// plane carries bits beyond the word width.
  static constexpr PackedWord from_planes(uint32_t neg, uint32_t pos) {
    if ((neg & pos) != 0 || (neg | pos) > kMask) {
      throw std::invalid_argument("PackedWord: invalid plane encoding");
    }
    return from_planes_unchecked(neg, pos);
  }

  /// Unchecked plane construction for hot loops.  Precondition (not
  /// verified): `neg & pos == 0` and both fit kMask.
  static constexpr PackedWord from_planes_unchecked(uint32_t neg, uint32_t pos) noexcept {
    PackedWord w;
    w.neg_ = neg;
    w.pos_ = pos;
    return w;
  }

  /// Encodes a reference ternary word.
  static constexpr PackedWord encode(const Word<N>& w) noexcept {
    PackedWord out;
    for (std::size_t i = 0; i < N; ++i) {
      if (w[i] == kTritP) out.pos_ |= uint32_t{1} << i;
      if (w[i] == kTritN) out.neg_ |= uint32_t{1} << i;
    }
    return out;
  }

  /// Decodes back to the reference representation.
  [[nodiscard]] constexpr Word<N> decode() const noexcept {
    Word<N> out;
    for (std::size_t i = 0; i < N; ++i) {
      if (pos_ & (uint32_t{1} << i)) {
        out.set(i, kTritP);
      } else if (neg_ & (uint32_t{1} << i)) {
        out.set(i, kTritN);
      }
    }
    return out;
  }

  [[nodiscard]] constexpr uint32_t neg_plane() const noexcept { return neg_; }
  [[nodiscard]] constexpr uint32_t pos_plane() const noexcept { return pos_; }

  constexpr friend bool operator==(const PackedWord&, const PackedWord&) noexcept = default;

  // --- Fig. 1 gates on bit-planes (2 binary gate levels each) -------------

  /// STI: negate every trit = swap the planes.
  [[nodiscard]] constexpr PackedWord sti() const noexcept {
    return from_planes_unchecked(pos_, neg_);
  }

  /// NTI: +1 where input was -1, else -1.
  [[nodiscard]] constexpr PackedWord nti() const noexcept {
    return from_planes_unchecked(~neg_ & kMask, neg_);
  }

  /// PTI: -1 where input was +1, else +1.
  [[nodiscard]] constexpr PackedWord pti() const noexcept {
    return from_planes_unchecked(pos_, ~pos_ & kMask);
  }

  /// AND = tritwise min.
  [[nodiscard]] static constexpr PackedWord tand(const PackedWord& a,
                                                 const PackedWord& b) noexcept {
    const uint32_t neg = a.neg_ | b.neg_;
    return from_planes_unchecked(neg, a.pos_ & b.pos_ & ~neg);
  }

  /// OR = tritwise max.
  [[nodiscard]] static constexpr PackedWord tor(const PackedWord& a,
                                                const PackedWord& b) noexcept {
    const uint32_t pos = a.pos_ | b.pos_;
    return from_planes_unchecked(a.neg_ & b.neg_ & ~pos, pos);
  }

  /// XOR = negated tritwise product.
  [[nodiscard]] static constexpr PackedWord txor(const PackedWord& a,
                                                 const PackedWord& b) noexcept {
    return from_planes_unchecked((a.pos_ & b.pos_) | (a.neg_ & b.neg_),
                                 (a.pos_ & b.neg_) | (a.neg_ & b.pos_));
  }

  // --- plane shifts (the packed form of Word<N>::shl / shr) ---------------

  /// Shift left by `amount` trits (multiply by 3^amount mod 3^N); amounts
  /// >= N clear the word, matching Word<N>::shl.
  [[nodiscard]] constexpr PackedWord shl(unsigned amount) const noexcept {
    if (amount >= N) return PackedWord{};
    return from_planes_unchecked((neg_ << amount) & kMask, (pos_ << amount) & kMask);
  }

  /// Shift right by `amount` trits (balanced divide by 3^amount rounding to
  /// nearest); amounts >= N clear the word, matching Word<N>::shr.
  [[nodiscard]] constexpr PackedWord shr(unsigned amount) const noexcept {
    if (amount >= N) return PackedWord{};
    return from_planes_unchecked(neg_ >> amount, pos_ >> amount);
  }

  /// Balanced value of the least-significant trit in {-1, 0, +1}.
  [[nodiscard]] constexpr int lst_value() const noexcept {
    return static_cast<int>(pos_ & 1u) - static_cast<int>(neg_ & 1u);
  }

  /// Balanced value of trit `i` in {-1, 0, +1}.
  [[nodiscard]] constexpr int trit_value(std::size_t i) const noexcept {
    return static_cast<int>((pos_ >> i) & 1u) - static_cast<int>((neg_ >> i) & 1u);
  }

  // --- value-domain arithmetic (the packed TALU cells) --------------------

  /// Balanced value: one plane-value table load per 9-bit plane chunk.
  [[nodiscard]] constexpr int64_t to_int() const noexcept {
    int64_t value = 0;
    int64_t scale = 1;
    for (std::size_t shift = 0; shift < N; shift += 9) {
      value += scale * (kPlaneValue[(pos_ >> shift) & 0x1FFu] -
                        kPlaneValue[(neg_ >> shift) & 0x1FFu]);
      scale *= 19683;  // 3^9 per chunk
    }
    return value;
  }

  /// Packed word for a balanced value: divide-by-243 splits and small-table
  /// loads (5 digits per load).  Precondition: v in [kMinValue, kMaxValue].
  [[nodiscard]] static constexpr PackedWord from_int(int64_t v) noexcept {
    uint64_t u = static_cast<uint64_t>(v - kMinValue);  // unsigned digit view
    if constexpr (N == 9) {
      // The original 9-trit fast path: one 243/81 split, two loads.
      const uint32_t planes =
          kPackedLow[u % 243u] | kPackedHigh[static_cast<uint32_t>(u / 243u)];
      return from_planes_unchecked(planes >> 16, planes & kMask);
    } else {
      uint64_t neg = 0;
      uint64_t pos = 0;
      for (std::size_t shift = 0; shift < N; shift += 5) {
        const uint32_t planes = kPackedLow[u % 243u];
        u /= 243u;
        neg |= static_cast<uint64_t>(planes >> 16) << shift;
        pos |= static_cast<uint64_t>(planes & 0xFFFFu) << shift;
      }
      // Digits past trit N-1 decode as level 0 (NEG bits): mask them off.
      return from_planes_unchecked(static_cast<uint32_t>(neg) & kMask,
                                   static_cast<uint32_t>(pos) & kMask);
    }
  }

  /// Reduces a value into [kMinValue, kMaxValue] modulo 3^N.  Branchless
  /// for the datapath's overflow range: precondition |v| < 2 * kStates (one
  /// correction per side), which covers every sum/difference of two
  /// in-range values plus a small immediate.
  [[nodiscard]] static constexpr int64_t wrap(int64_t v) noexcept {
    v += v < kMinValue ? kStates : 0;
    v -= v > kMaxValue ? kStates : 0;
    return v;
  }

  /// Balanced addition modulo 3^N — the packed ADD cell.
  [[nodiscard]] static constexpr PackedWord add(const PackedWord& a,
                                                const PackedWord& b) noexcept {
    return from_int(wrap(a.to_int() + b.to_int()));
  }

  /// a + imm for a small pre-validated immediate (|imm| <= kStates - 1).
  [[nodiscard]] static constexpr PackedWord add_int(const PackedWord& a, int64_t imm) noexcept {
    return from_int(wrap(a.to_int() + imm));
  }

  /// Balanced subtraction modulo 3^N — the packed SUB cell.
  [[nodiscard]] static constexpr PackedWord sub(const PackedWord& a,
                                                const PackedWord& b) noexcept {
    return from_int(wrap(a.to_int() - b.to_int()));
  }

  /// sign(a - b) in {-1, 0, +1} — the packed compare tree.
  [[nodiscard]] static constexpr int compare(const PackedWord& a, const PackedWord& b) noexcept {
    const int64_t d = a.to_int() - b.to_int();
    return (d > 0) - (d < 0);
  }

  /// COMP result word: sign(a - b) in the least-significant trit, upper
  /// trits zero (mirrors sim::comp_result).
  [[nodiscard]] static constexpr PackedWord comp_word(const PackedWord& a,
                                                      const PackedWord& b) noexcept {
    const int c = compare(a, b);
    return from_planes_unchecked(static_cast<uint32_t>(c < 0), static_cast<uint32_t>(c > 0));
  }

  /// Unsigned shift amount from the two least-significant trits (the
  /// register-shift forms SR/SL, paper Table I), always in [0, 8].
  [[nodiscard]] constexpr unsigned shift_amount() const noexcept {
    static_assert(N >= 2, "shift_amount reads trits 0 and 1");
    const uint32_t level0 = 1u + (pos_ & 1u) - (neg_ & 1u);
    const uint32_t level1 = 1u + ((pos_ >> 1) & 1u) - ((neg_ >> 1) & 1u);
    return level1 * 3u + level0;
  }

  /// Memory row of a balanced address: (v + kMaxValue) mod 3^N, branchless.
  /// Precondition: |v| < 2 * kStates.
  [[nodiscard]] static constexpr std::size_t row_of(int64_t v) noexcept {
    int64_t r = v + kMaxValue;
    r += r < 0 ? kStates : 0;
    r -= r >= kStates ? kStates : 0;
    return static_cast<std::size_t>(r);
  }

 private:
  uint32_t neg_ = 0;
  uint32_t pos_ = 0;
};

/// BctWord9 interop: PackedWord<9> and BctWord9 share the exact plane
/// encoding, so conversion is a free plane copy in either direction.
[[nodiscard]] constexpr PackedWord<9> from_bct(const BctWord9& w) noexcept {
  return PackedWord<9>::from_planes_unchecked(w.neg_plane(), w.pos_plane());
}
[[nodiscard]] constexpr BctWord9 to_bct(const PackedWord<9>& w) noexcept {
  return BctWord9::from_planes_unchecked(w.neg_plane(), w.pos_plane());
}

}  // namespace art9::ternary::packed
