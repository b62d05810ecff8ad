#include "sc/packed.h"

#include <gtest/gtest.h>

#include <random>

namespace scbnn::sc {
namespace {

std::uint64_t naive_prefix_xor(std::uint64_t x) {
  std::uint64_t out = 0;
  bool parity = false;
  for (unsigned i = 0; i < 64; ++i) {
    parity = parity != (((x >> i) & 1u) != 0u);
    if (parity) out |= std::uint64_t{1} << i;
  }
  return out;
}

TEST(Packed, PrefixXorKnownValues) {
  EXPECT_EQ(prefix_xor(0u), 0u);
  // Single bit at position 0 -> all bits from 0 upward set.
  EXPECT_EQ(prefix_xor(1u), ~std::uint64_t{0});
  // Bits 0 and 1 set -> only bit 0 survives the parity scan.
  EXPECT_EQ(prefix_xor(0b11u), 0b01u);
}

TEST(Packed, PrefixXorMatchesNaiveOnRandomWords) {
  std::mt19937_64 rng(42);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t x = rng();
    EXPECT_EQ(prefix_xor(x), naive_prefix_xor(x)) << "word " << x;
  }
}

TEST(Packed, WordParity) {
  EXPECT_FALSE(word_parity(0u));
  EXPECT_TRUE(word_parity(1u));
  EXPECT_FALSE(word_parity(0b11u));
  EXPECT_TRUE(word_parity(0b111u));
  EXPECT_FALSE(word_parity(~std::uint64_t{0}));
}

TEST(Packed, LowMask) {
  EXPECT_EQ(low_mask(0), 0u);
  EXPECT_EQ(low_mask(1), 1u);
  EXPECT_EQ(low_mask(8), 0xFFu);
  EXPECT_EQ(low_mask(63), ~std::uint64_t{0} >> 1);
  EXPECT_EQ(low_mask(64), ~std::uint64_t{0});
}

TEST(Packed, ReverseBits) {
  EXPECT_EQ(reverse_bits(0b001u, 3), 0b100u);
  EXPECT_EQ(reverse_bits(0b110u, 3), 0b011u);
  EXPECT_EQ(reverse_bits(0x1u, 8), 0x80u);
  EXPECT_EQ(reverse_bits(0xFFu, 8), 0xFFu);
}

TEST(Packed, ReverseBitsIsInvolution) {
  for (std::uint32_t v = 0; v < 256; ++v) {
    EXPECT_EQ(reverse_bits(reverse_bits(v, 8), 8), v);
  }
}

TEST(Packed, PrefixXorIsLinearAndEndsInWordParity) {
  // prefix_xor is XOR-linear (each output bit is a parity of input bits),
  // and its top bit is the whole-word parity — the TFF state the
  // word-parallel adder carries from one word to the next.
  std::mt19937_64 rng(7);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t a = rng(), b = rng();
    EXPECT_EQ(prefix_xor(a ^ b), prefix_xor(a) ^ prefix_xor(b));
    EXPECT_EQ((prefix_xor(a) >> 63) & 1u, word_parity(a) ? 1u : 0u);
  }
}

TEST(Packed, PrefixXorBoundaryWords) {
  // All-ones input: running parity alternates 1,0,1,0,... from bit 0.
  EXPECT_EQ(prefix_xor(~std::uint64_t{0}), 0x5555555555555555ull);
  EXPECT_EQ(prefix_xor(std::uint64_t{1} << 63), std::uint64_t{1} << 63);
  EXPECT_EQ(prefix_xor(0xAAAAAAAAAAAAAAAAull),
            naive_prefix_xor(0xAAAAAAAAAAAAAAAAull));
}

TEST(Packed, WordParityMatchesPopcountOnRandomWords) {
  std::mt19937_64 rng(9);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t a = rng(), b = rng();
    EXPECT_EQ(word_parity(a), (__builtin_popcountll(a) & 1) != 0);
    // Parity is XOR-linear too.
    EXPECT_EQ(word_parity(a ^ b), word_parity(a) != word_parity(b));
  }
}

TEST(Packed, LowMaskClosedFormForEveryWidth) {
  for (unsigned n = 0; n <= 64; ++n) {
    const std::uint64_t m = low_mask(n);
    EXPECT_EQ(__builtin_popcountll(m), static_cast<int>(n)) << "n=" << n;
    if (n < 64) {
      EXPECT_EQ(m, (std::uint64_t{1} << n) - 1) << "n=" << n;
      // Monotone: each width adds exactly bit n.
      EXPECT_EQ(low_mask(n + 1), m | (std::uint64_t{1} << n)) << "n=" << n;
    }
  }
}

TEST(Packed, ReverseBitsMapsEachBitToItsMirror) {
  std::mt19937_64 rng(11);
  for (unsigned bits : {1u, 3u, 6u, 8u, 13u, 16u}) {
    for (int i = 0; i < 200; ++i) {
      const std::uint32_t v =
          static_cast<std::uint32_t>(rng()) & ((1u << bits) - 1u);
      const std::uint32_t r = reverse_bits(v, bits);
      EXPECT_EQ(reverse_bits(r, bits), v) << "bits=" << bits;
      for (unsigned j = 0; j < bits; ++j) {
        EXPECT_EQ((r >> (bits - 1 - j)) & 1u, (v >> j) & 1u)
            << "bits=" << bits << " v=" << v << " j=" << j;
      }
    }
  }
}

TEST(Packed, ReverseBitsIsPermutation) {
  // Bit reversal must visit every k-bit value exactly once.
  std::vector<bool> seen(64, false);
  for (std::uint32_t v = 0; v < 64; ++v) {
    const std::uint32_t r = reverse_bits(v, 6);
    ASSERT_LT(r, 64u);
    EXPECT_FALSE(seen[r]);
    seen[r] = true;
  }
}

}  // namespace
}  // namespace scbnn::sc
