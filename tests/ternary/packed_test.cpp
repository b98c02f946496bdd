// Packed-vs-reference equivalence for the SWAR datapath layer: the
// branchless plane operations of ternary/packed.hpp (and the BctWord9
// shifts) must agree with the Trit-array reference semantics on every
// word — exhaustively for unary ops/conversions/shifts over all 3^9
// states, and on seeded-random plus carry-chain corner inputs for the
// value-domain add/sub/compare.
#include "ternary/packed.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "ternary/bct.hpp"
#include "ternary/random.hpp"
#include "ternary/word.hpp"

namespace art9::ternary {
namespace {

namespace pk = packed;

TEST(Packed, TableConstantsMatchWordBounds) {
  EXPECT_EQ(pk::kStates, 19683);
  EXPECT_EQ(pk::kMax, 9841);
  EXPECT_EQ(pk::kMin, -9841);
  // Plane-value table end points: empty plane is 0, full plane is kMax.
  EXPECT_EQ(pk::kPlaneValue[0], 0);
  EXPECT_EQ(pk::kPlaneValue[BctWord9::kMask], pk::kMax);
}

// --- exhaustive sweeps over all 19683 words ---------------------------------

TEST(Packed, ConversionsExhaustive) {
  for (int32_t v = pk::kMin; v <= pk::kMax; ++v) {
    const Word9 w = Word9::from_int(v);
    const BctWord9 e = BctWord9::encode(w);
    EXPECT_EQ(pk::to_int(e), v);
    EXPECT_EQ(pk::from_int(v), e);
    // The packed planes always satisfy the encoding invariant.
    const BctWord9 f = pk::from_int(v);
    EXPECT_EQ(f.neg_plane() & f.pos_plane(), 0u);
    EXPECT_LE(f.neg_plane() | f.pos_plane(), BctWord9::kMask);
  }
}

TEST(Packed, UnaryOpsExhaustive) {
  for (int32_t v = pk::kMin; v <= pk::kMax; ++v) {
    const Word9 w = Word9::from_int(v);
    const BctWord9 e = BctWord9::encode(w);
    EXPECT_EQ(e.sti().decode(), sti(w));
    EXPECT_EQ(e.nti().decode(), nti(w));
    EXPECT_EQ(e.pti().decode(), pti(w));
    EXPECT_EQ(e.lst_value(), w.lst().value());
    EXPECT_EQ(e.trit_value(8), w.mst().value());
  }
}

TEST(Packed, ShiftsExhaustive) {
  for (int32_t v = pk::kMin; v <= pk::kMax; ++v) {
    const Word9 w = Word9::from_int(v);
    const BctWord9 e = BctWord9::encode(w);
    for (unsigned amount = 0; amount <= 10; ++amount) {
      EXPECT_EQ(e.shl(amount).decode(), w.shl(amount)) << "v=" << v << " shl " << amount;
      EXPECT_EQ(e.shr(amount).decode(), w.shr(amount)) << "v=" << v << " shr " << amount;
    }
  }
}

TEST(Packed, RowOfExhaustive) {
  // Every balanced address, plus the out-of-range overflow band that
  // base+offset address arithmetic can produce.
  for (int32_t v = pk::kMin - 20; v <= pk::kMax + 20; ++v) {
    int64_t expected = (static_cast<int64_t>(v) + pk::kMax) % pk::kStates;
    if (expected < 0) expected += pk::kStates;
    EXPECT_EQ(pk::row_of(v), static_cast<std::size_t>(expected)) << "v=" << v;
  }
}

TEST(Packed, ShiftAmountExhaustive) {
  for (int32_t v = pk::kMin; v <= pk::kMax; ++v) {
    const Word9 w = Word9::from_int(v);
    const unsigned expected =
        static_cast<unsigned>(w[1].level() * 3 + w[0].level());
    EXPECT_EQ(pk::shift_amount(BctWord9::encode(w)), expected);
  }
}

// --- value-domain arithmetic: random pairs + carry-chain corner cases -------

/// Reference semantics for one packed pair.
void expect_arith_matches(const Word9& a, const Word9& b) {
  const BctWord9 ea = BctWord9::encode(a);
  const BctWord9 eb = BctWord9::encode(b);
  EXPECT_EQ(pk::add(ea, eb).decode(), a + b) << a << " + " << b;
  EXPECT_EQ(pk::sub(ea, eb).decode(), a - b) << a << " - " << b;
  EXPECT_EQ(pk::compare(ea, eb), Word9::compare(a, b).value()) << a << " vs " << b;
  // comp_word mirrors the COMP result layout: sign in the LST, zeros above.
  Word9 comp;
  comp.set(0, Word9::compare(a, b));
  EXPECT_EQ(pk::comp_word(ea, eb).decode(), comp);
  // The packed adder agrees with the plane-ripple reference adder too.
  EXPECT_EQ(pk::add(ea, eb), BctWord9::add(ea, eb));
}

TEST(Packed, ArithmeticSeededRandom) {
  std::mt19937_64 rng(2026);
  for (int i = 0; i < 20000; ++i) {
    expect_arith_matches(random_word<9>(rng), random_word<9>(rng));
  }
}

TEST(Packed, ArithmeticCarryChainCorners) {
  // Words that maximise carry propagation: all '+', all '-', the two
  // alternating patterns, the range extremes and the neighbourhood of zero.
  std::vector<Word9> corners;
  corners.push_back(Word9::filled(kTritP));          // +9841 (all-+)
  corners.push_back(Word9::filled(kTritN));          // -9841 (all--)
  corners.push_back(Word9::parse("+-+-+-+-+"));      // alternating from +
  corners.push_back(Word9::parse("-+-+-+-+-"));      // alternating from -
  corners.push_back(Word9{});                        // zero
  for (int32_t v : {1, -1, 2, -2, 3, -3, pk::kMax - 1, pk::kMin + 1, 4920, -4920}) {
    corners.push_back(Word9::from_int(v));
  }
  for (const Word9& a : corners) {
    for (const Word9& b : corners) {
      expect_arith_matches(a, b);
    }
  }
}

TEST(Packed, AddImmediateMatchesReference) {
  // add_int covers the ADDI path: every imm3 against random operands.
  std::mt19937_64 rng(7);
  for (int i = 0; i < 2000; ++i) {
    const Word9 a = random_word<9>(rng);
    const BctWord9 ea = BctWord9::encode(a);
    for (int32_t imm = -13; imm <= 13; ++imm) {
      EXPECT_EQ(pk::add_int(ea, imm).decode(), a + Word9::from_int(imm));
    }
  }
  // Full-range immediates: the one-correction wrap still covers them.
  std::uniform_int_distribution<int32_t> full_range(pk::kMin, pk::kMax);
  for (int i = 0; i < 20000; ++i) {
    const Word9 a = random_word<9>(rng);
    const int32_t imm = full_range(rng);
    EXPECT_EQ(pk::add_int(BctWord9::encode(a), imm).decode(), a + Word9::from_int(imm));
  }
}

TEST(Packed, WrapReducesDatapathOverflowRange) {
  for (int32_t v = -2 * pk::kStates + 1; v < 2 * pk::kStates; v += 13) {
    // Reference reduction.
    int32_t expected = v % pk::kStates;
    if (expected > pk::kMax) expected -= pk::kStates;
    if (expected < pk::kMin) expected += pk::kStates;
    // pk::wrap's documented precondition is one correction per side.
    if (v >= pk::kMin - pk::kStates && v <= pk::kMax + pk::kStates) {
      EXPECT_EQ(pk::wrap(v), expected) << "v=" << v;
    }
  }
}

TEST(Packed, LogicOpsAgreeOnRandomWords) {
  // The plane logic itself is locked exhaustively in bct_test; this pins
  // the word-level composition used by the packed TALU.
  std::mt19937_64 rng(11);
  for (int i = 0; i < 5000; ++i) {
    const Word9 a = random_word<9>(rng);
    const Word9 b = random_word<9>(rng);
    const BctWord9 ea = BctWord9::encode(a);
    const BctWord9 eb = BctWord9::encode(b);
    EXPECT_EQ(BctWord9::tand(ea, eb).decode(), tand(a, b));
    EXPECT_EQ(BctWord9::tor(ea, eb).decode(), tor(a, b));
    EXPECT_EQ(BctWord9::txor(ea, eb).decode(), txor(a, b));
  }
}

}  // namespace
}  // namespace art9::ternary
