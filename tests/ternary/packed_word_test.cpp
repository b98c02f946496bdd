// PackedWord<N> equivalence suite: the width-generic plane-pair template
// must agree with the reference Word<N> semantics at every width, and its
// N == 9 instantiation must be bit-identical to the original BctWord9
// table path that the packed engines execute.
#include "ternary/packed.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>

#include "ternary/bct.hpp"
#include "ternary/word.hpp"

namespace art9::ternary::packed {
namespace {

// --- template contract -------------------------------------------------------

// The width bound is a compile-time contract: every legal width
// instantiates (spot-checked at the extremes), and the constants mirror
// Word<N>'s exactly.
static_assert(PackedWord<1>::kStates == 3);
static_assert(PackedWord<1>::kMask == 0x1u);
static_assert(PackedWord<9>::kStates == 19683);
static_assert(PackedWord<9>::kMaxValue == 9841);
static_assert(PackedWord<9>::kMask == 0x1FFu);
static_assert(PackedWord<21>::kStates == Word<21>::kStates);  // covers a uint32_t
static_assert(PackedWord<32>::kStates == Word<32>::kStates);
static_assert(PackedWord<32>::kMask == 0xFFFFFFFFu);

// The whole value-domain datapath is constexpr: usable in constant
// expressions at any width.
static_assert(PackedWord<5>::add(PackedWord<5>::from_int(100), PackedWord<5>::from_int(21))
                  .to_int() == 121);
static_assert(PackedWord<5>::add(PackedWord<5>::from_int(121), PackedWord<5>::from_int(1))
                  .to_int() == PackedWord<5>::kMinValue);  // mod-3^5 wrap
static_assert(PackedWord<21>::from_int(1'000'000).to_int() == 1'000'000);
static_assert(PackedWord<32>::from_int(-(int64_t{1} << 31)).to_int() == -(int64_t{1} << 31));

TEST(PackedWordContract, FromPlanesRejectsInvalidEncodings) {
  // The unused (1,1) fourth code and out-of-width plane bits both throw.
  EXPECT_THROW(static_cast<void>(PackedWord<3>::from_planes(0b001, 0b001)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(PackedWord<3>::from_planes(0b1000, 0)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(PackedWord<3>::from_planes(0, 0b1000)),
               std::invalid_argument);
  EXPECT_EQ(PackedWord<3>::from_planes(0b100, 0b010).to_int(), -9 + 3);
}

// --- exhaustive equivalence at small widths ----------------------------------

template <std::size_t N>
void exhaustive_width_sweep() {
  using P = PackedWord<N>;
  for (int64_t v = P::kMinValue; v <= P::kMaxValue; ++v) {
    const Word<N> ref = Word<N>::from_int(v);
    const P p = P::from_int(v);
    // Conversions are mutually inverse and agree with the reference word.
    EXPECT_EQ(p.to_int(), v);
    EXPECT_EQ(P::encode(ref), p);
    EXPECT_EQ(p.decode(), ref);
    // Unary gates.
    EXPECT_EQ(p.sti().decode(), sti(ref));
    EXPECT_EQ(p.nti().decode(), nti(ref));
    EXPECT_EQ(p.pti().decode(), pti(ref));
    // Shifts, including the >= N clearing contract.
    for (unsigned amount = 0; amount <= N + 1; ++amount) {
      EXPECT_EQ(p.shl(amount).decode(), ref.shl(amount));
      EXPECT_EQ(p.shr(amount).decode(), ref.shr(amount));
    }
    // Trit probes and the row bijection.
    EXPECT_EQ(p.lst_value(), ref.lst().value());
    for (std::size_t i = 0; i < N; ++i) EXPECT_EQ(p.trit_value(i), ref[i].value());
    EXPECT_EQ(static_cast<int64_t>(P::row_of(v)), v + P::kMaxValue);
  }
  // Binary ops over the full square at N == 3, a strided square at N == 5.
  const int64_t stride = N <= 3 ? 1 : 7;
  for (int64_t a = P::kMinValue; a <= P::kMaxValue; a += stride) {
    for (int64_t b = P::kMinValue; b <= P::kMaxValue; b += stride) {
      const Word<N> ra = Word<N>::from_int(a);
      const Word<N> rb = Word<N>::from_int(b);
      const P pa = P::from_int(a);
      const P pb = P::from_int(b);
      EXPECT_EQ(P::add(pa, pb).decode(), ra + rb);
      EXPECT_EQ(P::sub(pa, pb).decode(), ra - rb);
      EXPECT_EQ(P::compare(pa, pb), Word<N>::compare(ra, rb).value());
      EXPECT_EQ(P::tand(pa, pb).decode(), tand(ra, rb));
      EXPECT_EQ(P::tor(pa, pb).decode(), tor(ra, rb));
      EXPECT_EQ(P::txor(pa, pb).decode(), txor(ra, rb));
    }
  }
}

TEST(PackedWordExhaustive, Width3) { exhaustive_width_sweep<3>(); }
TEST(PackedWordExhaustive, Width5) { exhaustive_width_sweep<5>(); }

// --- N == 9: bit-identical to the BctWord9 table path ------------------------

TEST(PackedWord9, ExhaustiveConversionMatchesBctPath) {
  using P = PackedWord<9>;
  for (int32_t v = kMin; v <= kMax; ++v) {
    const BctWord9 bct = from_int(v);
    const P p = P::from_int(v);
    // Same planes, both directions, and free interop conversions.
    EXPECT_EQ(p.neg_plane(), bct.neg_plane());
    EXPECT_EQ(p.pos_plane(), bct.pos_plane());
    EXPECT_EQ(p.to_int(), to_int(bct));
    EXPECT_EQ(from_bct(bct), p);
    EXPECT_EQ(to_bct(p), bct);
  }
}

TEST(PackedWord9, RandomizedArithmeticMatchesBctPath) {
  using P = PackedWord<9>;
  std::mt19937_64 rng(0x9A41);
  std::uniform_int_distribution<int32_t> dist(kMin, kMax);
  for (int i = 0; i < 20'000; ++i) {
    const int32_t a = dist(rng);
    const int32_t b = dist(rng);
    const BctWord9 ba = from_int(a);
    const BctWord9 bb = from_int(b);
    const P pa = P::from_int(a);
    const P pb = P::from_int(b);
    EXPECT_EQ(to_bct(P::add(pa, pb)), add(ba, bb));
    EXPECT_EQ(to_bct(P::sub(pa, pb)), sub(ba, bb));
    EXPECT_EQ(P::compare(pa, pb), compare(ba, bb));
    EXPECT_EQ(to_bct(P::comp_word(pa, pb)), comp_word(ba, bb));
    EXPECT_EQ(pa.shift_amount(), shift_amount(ba));
    EXPECT_EQ(P::add_int(pa, b).to_int(), to_int(add_int(ba, b)));
  }
}

TEST(PackedWord9, CarryChainCorners) {
  using P = PackedWord<9>;
  // The classic balanced-ternary carry chains: +/-1 around the extremes,
  // the all-(+1)/all-(-1) words, and full-range sums that wrap.
  const int64_t corners[] = {P::kMinValue,     P::kMinValue + 1, -1, 0, 1,
                             P::kMaxValue - 1, P::kMaxValue};
  for (int64_t a : corners) {
    for (int64_t b : corners) {
      const Word9 expected_sum = Word9::from_int(a) + Word9::from_int(b);
      const Word9 expected_diff = Word9::from_int(a) - Word9::from_int(b);
      EXPECT_EQ(P::add(P::from_int(a), P::from_int(b)).decode(), expected_sum)
          << a << " + " << b;
      EXPECT_EQ(P::sub(P::from_int(a), P::from_int(b)).decode(), expected_diff)
          << a << " - " << b;
      EXPECT_EQ(P::wrap(a + b), expected_sum.to_int());
    }
  }
}

// --- wide words: the rv32 packing seam ---------------------------------------

TEST(PackedWordWide, RoundTripsAndArithmeticAt21And32) {
  // 21 trits cover a 32-bit binary value (3^21 > 2^32): the width the
  // rv32-side packing will use.  Randomized round-trip + arithmetic
  // against Word<N> at both widths.
  std::mt19937_64 rng(0xC0FFEE);
  auto sweep = [&rng](auto word_tag) {
    using P = decltype(word_tag);
    constexpr std::size_t n = P::kTrits;
    std::uniform_int_distribution<int64_t> dist(P::kMinValue, P::kMaxValue);
    for (int i = 0; i < 2'000; ++i) {
      const int64_t a = dist(rng);
      const int64_t b = dist(rng);
      const P pa = P::from_int(a);
      EXPECT_EQ(pa.to_int(), a);
      EXPECT_EQ(pa.decode(), Word<n>::from_int(a));
      EXPECT_EQ(P::encode(Word<n>::from_int(a)), pa);
      EXPECT_EQ(P::add(pa, P::from_int(b)).decode(),
                Word<n>::from_int(a) + Word<n>::from_int(b));
      EXPECT_EQ(P::compare(pa, P::from_int(b)), (a > b) - (a < b));
    }
  };
  sweep(PackedWord<21>{});
  sweep(PackedWord<32>{});
}

}  // namespace
}  // namespace art9::ternary::packed
