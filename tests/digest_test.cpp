#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "dockmine/digest/digest.h"
#include "dockmine/digest/sha256.h"
#include "dockmine/digest/sha256_blocks.h"
#include "dockmine/util/rng.h"

namespace dockmine::digest {
namespace {

// FIPS 180-4 / NIST test vectors.
TEST(Sha256Test, NistVectors) {
  EXPECT_EQ(to_hex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(to_hex(Sha256::hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 hasher;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) hasher.update(chunk);
  EXPECT_EQ(to_hex(hasher.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShotAtAllSplitPoints) {
  const std::string message =
      "The quick brown fox jumps over the lazy dog, repeatedly, to cross "
      "block boundaries in interesting ways. 0123456789abcdef0123456789";
  const auto expected = Sha256::hash(message);
  for (std::size_t split = 0; split <= message.size(); split += 7) {
    Sha256 hasher;
    hasher.update(message.substr(0, split));
    hasher.update(message.substr(split));
    EXPECT_EQ(hasher.finish(), expected) << "split=" << split;
  }
}

TEST(Sha256Test, BlockBoundaryLengths) {
  // Lengths around the 64-byte block and 56-byte padding threshold.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const std::string message(len, 'x');
    Sha256 incremental;
    for (char c : message) incremental.update(&c, 1);
    EXPECT_EQ(incremental.finish(), Sha256::hash(message)) << len;
  }
}

TEST(Sha256Test, ResetAllowsReuse) {
  Sha256 hasher;
  hasher.update("garbage");
  (void)hasher.finish();
  hasher.reset();
  hasher.update("abc");
  EXPECT_EQ(to_hex(hasher.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// ---------- compression kernels ----------
//
// Each block function is driven directly, with the padding done here, so a
// kernel is checked on its own and not through the one Sha256 picked.

struct Kernel {
  const char* name;
  detail::Sha256BlockFn blocks;
  bool available;
};

void PrintTo(const Kernel& kernel, std::ostream* os) { *os << kernel.name; }

std::vector<Kernel> kernels() {
  std::vector<Kernel> all{{"portable", detail::sha256_blocks_portable, true}};
#if defined(DOCKMINE_SHA256_SHANI)
  all.push_back({"shani", detail::sha256_blocks_shani,
                 detail::sha256_shani_supported()});
#endif
  return all;
}

/// SHA-256 of `message` through `blocks`, padded by hand. The padded
/// message goes in as two runs split after `split_blocks` blocks, so the
/// state must carry across calls.
Sha256::Bytes digest_with(detail::Sha256BlockFn blocks, std::string_view message,
                          std::size_t split_blocks = 0) {
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::string padded(message);
  padded += '\x80';
  while (padded.size() % 64 != 56) padded += '\0';
  const std::uint64_t bits = static_cast<std::uint64_t>(message.size()) * 8;
  for (int i = 7; i >= 0; --i) padded += static_cast<char>(bits >> (8 * i));
  const auto* data = reinterpret_cast<const std::uint8_t*>(padded.data());
  const std::size_t total = padded.size() / 64;
  const std::size_t first = std::min(split_blocks, total);
  blocks(state, data, first);
  blocks(state, data + 64 * first, total - first);
  Sha256::Bytes out;
  for (int i = 0; i < 8; ++i) {
    for (int b = 0; b < 4; ++b) {
      out[4 * i + b] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * b));
    }
  }
  return out;
}

std::string random_bytes(std::size_t size, std::uint64_t seed) {
  util::Rng rng(seed);
  std::string out(size, '\0');
  for (char& c : out) c = static_cast<char>(rng());
  return out;
}

class Sha256KernelTest : public ::testing::TestWithParam<Kernel> {
 protected:
  void SetUp() override {
    if (!GetParam().available) GTEST_SKIP() << "CPU lacks " << GetParam().name;
  }
};

TEST_P(Sha256KernelTest, NistVectorsAndMillionAs) {
  const detail::Sha256BlockFn blocks = GetParam().blocks;
  EXPECT_EQ(to_hex(digest_with(blocks, "")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(digest_with(blocks, "abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(to_hex(digest_with(
                blocks,
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(to_hex(digest_with(
                blocks,
                "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
  EXPECT_EQ(to_hex(digest_with(blocks, std::string(1'000'000, 'a'), 7)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256KernelTest, MatchesPortableAtEveryLengthTo1100) {
  const std::string data = random_bytes(1100, 0x5a256);
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const std::string_view message(data.data(), len);
    ASSERT_EQ(digest_with(GetParam().blocks, message),
              digest_with(detail::sha256_blocks_portable, message))
        << "len=" << len;
  }
}

TEST_P(Sha256KernelTest, StateCarriesAcrossEveryBlockSplit) {
  const std::string data = random_bytes(1100, 0xb10c);
  for (std::size_t len : {0u, 63u, 64u, 119u, 120u, 191u, 192u, 1100u}) {
    const std::string_view message(data.data(), len);
    const auto whole = digest_with(detail::sha256_blocks_portable, message);
    for (std::size_t split = 0; split <= (len + 9 + 63) / 64; ++split) {
      EXPECT_EQ(digest_with(GetParam().blocks, message, split), whole)
          << "len=" << len << " split=" << split;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, Sha256KernelTest, ::testing::ValuesIn(kernels()),
    [](const ::testing::TestParamInfo<Kernel>& kernel) {
      return std::string(kernel.param.name);
    });

TEST(Sha256Test, SelectedKernelMatchesTheCpu) {
#if defined(DOCKMINE_SHA256_SHANI)
  EXPECT_EQ(detail::sha256_blocks(), detail::sha256_shani_supported()
                                         ? detail::sha256_blocks_shani
                                         : detail::sha256_blocks_portable);
#else
  EXPECT_EQ(detail::sha256_blocks(), detail::sha256_blocks_portable);
#endif
}

TEST(Sha256Test, IncrementalMatchesPortableAtEverySplitUpToThreeBlocks) {
  // Sha256's own buffering and in-place padding, over the kernel it chose:
  // every length up to three blocks, cut at every byte.
  const std::string data = random_bytes(192, 0x3b10c);
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const std::string_view message(data.data(), len);
    const auto expected = digest_with(detail::sha256_blocks_portable, message);
    ASSERT_EQ(Sha256::hash(message), expected) << "len=" << len;
    for (std::size_t split = 0; split <= len; ++split) {
      Sha256 hasher;
      hasher.update(message.substr(0, split));
      hasher.update(message.substr(split));
      ASSERT_EQ(hasher.finish(), expected) << "len=" << len << " split=" << split;
    }
  }
}

TEST(DigestTest, ToStringRoundTrips) {
  const Digest d = Digest::of("layer content");
  const auto parsed = Digest::parse(d.to_string());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), d);
}

TEST(DigestTest, ParseRejectsMalformed) {
  EXPECT_FALSE(Digest::parse("md5:abcd").ok());
  EXPECT_FALSE(Digest::parse("sha256:123").ok());
  EXPECT_FALSE(Digest::parse("sha256:" + std::string(64, 'z')).ok());
  EXPECT_TRUE(Digest::parse("sha256:" + std::string(64, 'a')).ok());
}

TEST(DigestTest, ShortHexIsPrefix) {
  const Digest d = Digest::of("abc");
  EXPECT_EQ(d.short_hex(), d.to_string().substr(7, 12));
}

TEST(DigestTest, FromU64DeterministicAndSpread) {
  EXPECT_EQ(Digest::from_u64(42), Digest::from_u64(42));
  std::set<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    keys.insert(Digest::from_u64(i).key64());
  }
  EXPECT_EQ(keys.size(), 10000u);  // no key64 collisions on sequential ids
}

TEST(DigestTest, EqualContentEqualDigestDifferentContentDifferent) {
  EXPECT_EQ(Digest::of("same"), Digest::of("same"));
  EXPECT_NE(Digest::of("same"), Digest::of("Same"));
  EXPECT_FALSE(Digest::of("x").is_zero());
  EXPECT_TRUE(Digest().is_zero());
}

}  // namespace
}  // namespace dockmine::digest
