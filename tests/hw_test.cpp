#include <gtest/gtest.h>

#include <cmath>

#include "hw/arch_state.h"
#include "hw/bitflip.h"
#include "hw/secded.h"
#include "util/rng.h"

namespace drivefi::hw {
namespace {

// ---------- Bit flips ----------

TEST(BitFlip, RoundTripBits) {
  for (double v : {0.0, 1.0, -3.5, 1e100, 1e-300}) {
    EXPECT_EQ(bits_to_double(double_to_bits(v)), v);
  }
}

TEST(BitFlip, FlipTwiceIsIdentity) {
  util::Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const double v = rng.uniform(-1e6, 1e6);
    const auto bit = static_cast<unsigned>(rng.uniform_index(64));
    EXPECT_EQ(flip_bit(flip_bit(v, bit), bit), v);
  }
}

TEST(BitFlip, SignBitNegates) {
  EXPECT_DOUBLE_EQ(flip_bit(3.5, 63), -3.5);
}

TEST(BitFlip, ExponentBitCanExplodeValue) {
  // Flipping the top exponent bit of a normal number yields a huge value.
  const double corrupted = flip_bit(1.5, 62);
  EXPECT_TRUE(std::abs(corrupted) > 1e100 || !std::isfinite(corrupted));
}

TEST(BitFlip, MantissaLsbIsBenign) {
  const double corrupted = flip_bit(1.0, 0);
  EXPECT_EQ(classify_corruption(1.0, corrupted),
            CorruptionKind::kBenignDelta);
}

TEST(BitFlip, MultiBitFlips) {
  const unsigned bits[] = {0, 1, 2};
  const double corrupted = flip_bits(1.0, bits, 3);
  // Flipping back restores.
  EXPECT_EQ(flip_bits(corrupted, bits, 3), 1.0);
}

TEST(BitFlip, ClassifyNonFinite) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(classify_corruption(1.0, nan), CorruptionKind::kNonFinite);
  EXPECT_EQ(classify_corruption(1.0, INFINITY), CorruptionKind::kNonFinite);
}

TEST(BitFlip, ClassifyTaxonomy) {
  EXPECT_EQ(classify_corruption(1.0, 1.0), CorruptionKind::kNone);
  EXPECT_EQ(classify_corruption(1.0, 2.0), CorruptionKind::kValueError);
  EXPECT_EQ(classify_corruption(1.0, 1e13), CorruptionKind::kExtreme);
}

// ---------- SECDED ----------

TEST(Secded, CleanRoundTrip) {
  for (std::uint64_t data :
       {0ULL, 1ULL, 0xdeadbeefULL, ~0ULL, 0x8000000000000001ULL}) {
    SecdedWord w = secded_encode(data);
    EXPECT_EQ(secded_decode(w), SecdedStatus::kClean);
    EXPECT_EQ(w.data, data);
  }
}

// Every single-bit data error is corrected.
class SecdedSingleBit : public ::testing::TestWithParam<unsigned> {};

TEST_P(SecdedSingleBit, Corrected) {
  const unsigned bit = GetParam();
  const std::uint64_t data = 0x0123456789abcdefULL;
  SecdedWord w = secded_encode(data);
  secded_flip(w, bit);
  EXPECT_EQ(secded_decode(w), SecdedStatus::kCorrected);
  EXPECT_EQ(w.data, data) << "bit " << bit;
}

INSTANTIATE_TEST_SUITE_P(AllDataBits, SecdedSingleBit,
                         ::testing::Values(0u, 1u, 7u, 15u, 31u, 32u, 47u,
                                           62u, 63u));

TEST(Secded, CheckBitErrorCorrected) {
  SecdedWord w = secded_encode(0xabcULL);
  secded_flip(w, 64);  // first check bit
  EXPECT_EQ(secded_decode(w), SecdedStatus::kCorrected);
  EXPECT_EQ(w.data, 0xabcULL);
}

TEST(Secded, ParityBitErrorCorrected) {
  SecdedWord w = secded_encode(0xabcULL);
  secded_flip(w, 71);
  EXPECT_EQ(secded_decode(w), SecdedStatus::kCorrected);
  EXPECT_EQ(w.data, 0xabcULL);
}

TEST(Secded, DoubleBitDetected) {
  util::Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    const std::uint64_t data = rng.next_u64();
    SecdedWord w = secded_encode(data);
    const auto b1 = static_cast<unsigned>(rng.uniform_index(64));
    auto b2 = static_cast<unsigned>(rng.uniform_index(64));
    while (b2 == b1) b2 = static_cast<unsigned>(rng.uniform_index(64));
    secded_flip(w, b1);
    secded_flip(w, b2);
    EXPECT_EQ(secded_decode(w), SecdedStatus::kDetectedDouble);
  }
}

// ---------- ArchState ----------

TEST(ArchState, UnprotectedFlipCorruptsVariable) {
  double value = 2.0;
  ArchState arch;
  arch.bind({Protection::kNone, [&] { return value; },
             [&](double v) { value = v; }});
  const InjectionResult result = arch.inject_bit(0, 63);  // sign bit
  EXPECT_FALSE(result.masked);
  EXPECT_DOUBLE_EQ(value, -2.0);
  EXPECT_EQ(result.kind, CorruptionKind::kValueError);
}

TEST(ArchState, SecdedMasksSingleBit) {
  double value = 2.0;
  ArchState arch;
  arch.bind({Protection::kSecded, [&] { return value; },
             [&](double v) { value = v; }});
  const InjectionResult result = arch.inject_bit(0, 62);
  EXPECT_TRUE(result.masked);
  EXPECT_DOUBLE_EQ(value, 2.0);  // unchanged
}

TEST(ArchState, SecdedDetectsDoubleBit) {
  double value = 2.0;
  ArchState arch;
  arch.bind({Protection::kSecded, [&] { return value; },
             [&](double v) { value = v; }});
  util::Rng rng(3);
  const InjectionResult result = arch.inject(0, 2, rng);
  EXPECT_TRUE(result.detected);
  EXPECT_DOUBLE_EQ(value, 2.0);  // update suppressed
}

TEST(ArchState, InstructionCounter) {
  ArchState arch;
  arch.retire_instructions(100);
  arch.retire_instructions(50);
  EXPECT_EQ(arch.instructions_retired(), 150u);
}

TEST(ArchState, RandomInjectionDistinctBits) {
  // With 3 requested bits the flip mask must have exactly 3 set bits, so
  // flipping cannot silently cancel.
  double value = 1.0;
  ArchState arch;
  arch.bind({Protection::kNone, [&] { return value; },
             [&](double v) { value = v; }});
  util::Rng rng(9);
  for (int trial = 0; trial < 50; ++trial) {
    value = 1.0;
    const InjectionResult result = arch.inject(0, 3, rng);
    const std::uint64_t diff =
        double_to_bits(result.original) ^ double_to_bits(result.corrupted);
    EXPECT_EQ(__builtin_popcountll(diff), 3);
  }
}

}  // namespace
}  // namespace drivefi::hw
