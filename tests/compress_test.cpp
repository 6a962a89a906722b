#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "dockmine/compress/content_gen.h"
#include "dockmine/compress/crc32.h"
#include "dockmine/compress/gzip.h"
#include "dockmine/util/rng.h"

namespace dockmine::compress {
namespace {

// ---------- CRC-32 ----------

TEST(Crc32Test, KnownVectors) {
  EXPECT_EQ(Crc32::of(""), 0x00000000u);
  EXPECT_EQ(Crc32::of("123456789"), 0xcbf43926u);
  EXPECT_EQ(Crc32::of("The quick brown fox jumps over the lazy dog"),
            0x414fa339u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  Crc32 crc;
  crc.update("The quick brown fox ");
  crc.update("jumps over the lazy dog");
  EXPECT_EQ(crc.value(), 0x414fa339u);
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  // The textbook bit-at-a-time CRC, as the independent reference.
  auto step = [](std::uint32_t c, unsigned char byte) {
    c ^= byte;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    return c;
  };
  util::Rng rng(0xc3c32);
  std::string buffer(4096 + 8, '\0');
  for (char& c : buffer) c = static_cast<char>(rng());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    std::uint32_t reference = 0xffffffffu;
    for (std::size_t len = 0; len <= 4096; ++len) {
      const std::string_view data(buffer.data() + offset, len);
      ASSERT_EQ(Crc32::of(data), ~reference)
          << "offset=" << offset << " len=" << len;
      reference = step(reference, static_cast<unsigned char>(data.data()[len]));
    }
  }
  // Incremental updates over unaligned pieces agree with one shot.
  const std::string_view whole(buffer.data() + 3, 4096);
  Crc32 crc;
  for (std::size_t pos = 0, piece = 1; pos < whole.size(); pos += piece++) {
    crc.update(whole.substr(pos, piece));
  }
  EXPECT_EQ(crc.value(), Crc32::of(whole));
}

TEST(Crc32Test, EmptyAndNullUpdatesLeaveTheValue) {
  Crc32 crc;
  crc.update("123456789");
  crc.update(std::string_view{});
  crc.update(nullptr, 0);
  EXPECT_EQ(crc.value(), 0xcbf43926u);
  crc.reset();
  EXPECT_EQ(crc.value(), 0u);
}

// ---------- gzip ----------

TEST(GzipTest, RoundTripsText) {
  const std::string raw = "hello hello hello gzip world";
  auto member = gzip_compress(raw);
  ASSERT_TRUE(member.ok());
  auto back = gzip_decompress(member.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), raw);
}

TEST(GzipTest, RoundTripsEmpty) {
  auto member = gzip_compress("");
  ASSERT_TRUE(member.ok());
  auto back = gzip_decompress(member.value());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().empty());
}

TEST(GzipTest, RoundTripsLargeBinary) {
  util::Rng rng(1);
  std::string raw;
  append_random(raw, 3 * 1024 * 1024, rng);
  auto member = gzip_compress(raw, 1);
  ASSERT_TRUE(member.ok());
  // Random data does not compress.
  EXPECT_GT(member.value().size(), raw.size() * 95 / 100);
  auto back = gzip_decompress(member.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), raw);
}

TEST(GzipTest, ZerosCompressEnormously) {
  std::string raw(1 << 20, '\0');
  auto member = gzip_compress(raw);
  ASSERT_TRUE(member.ok());
  EXPECT_LT(member.value().size(), raw.size() / 500);
  EXPECT_EQ(gzip_decompress(member.value()).value(), raw);
}

TEST(GzipTest, DetectsCrcCorruption) {
  auto member = gzip_compress("content to protect");
  ASSERT_TRUE(member.ok());
  std::string corrupted = member.value();
  corrupted[corrupted.size() - 6] ^= 0x42;  // flip a CRC byte
  auto back = gzip_decompress(corrupted);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.error().code(), util::ErrorCode::kCorrupt);
}

TEST(GzipTest, DetectsTruncation) {
  auto member = gzip_compress(std::string(10000, 'a'));
  ASSERT_TRUE(member.ok());
  const std::string truncated = member.value().substr(0, 40);
  EXPECT_FALSE(gzip_decompress(truncated).ok());
}

TEST(GzipTest, RejectsBadMagicAndLevel) {
  EXPECT_FALSE(gzip_decompress("definitely not gzip data....").ok());
  EXPECT_FALSE(gzip_compress("x", 0).ok());
  EXPECT_FALSE(gzip_compress("x", 10).ok());
}

TEST(GzipTest, EnforcesOutputCap) {
  auto member = gzip_compress(std::string(1 << 20, '\0'));
  ASSERT_TRUE(member.ok());
  auto back = gzip_decompress(member.value(), /*max_output=*/1024);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.error().code(), util::ErrorCode::kOutOfRange);
}

TEST(GzipTest, ProbeParsesOptionalHeaderFields) {
  // Hand-build a member with FNAME, then our deflate body from a real
  // member (header fields do not affect the body offsets computed by probe).
  auto member = gzip_compress("payload");
  ASSERT_TRUE(member.ok());
  std::string with_name = member.value();
  with_name[3] = 0x08;  // FLG.FNAME
  with_name.insert(10, std::string("layer.tar\0", 10));
  auto info = gzip_probe(with_name);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().original_name, "layer.tar");
  EXPECT_EQ(info.value().header_size, 20u);
  // And the full decompress still works with the shifted header.
  EXPECT_EQ(gzip_decompress(with_name).value(), "payload");
}

// ---------- content generator ----------

class ContentRatioTest : public ::testing::TestWithParam<double> {};

TEST_P(ContentRatioTest, AchievesTargetWithin35Percent) {
  const double target = GetParam();
  util::Rng rng(42);
  const std::string raw = generate(512 * 1024, target, rng);
  ASSERT_EQ(raw.size(), 512u * 1024u);
  auto member = gzip_compress(raw);
  ASSERT_TRUE(member.ok());
  const double achieved =
      static_cast<double>(raw.size()) / static_cast<double>(member.value().size());
  EXPECT_GT(achieved, target * 0.65) << "target " << target;
  EXPECT_LT(achieved, target * 1.65) << "target " << target;
}

INSTANTIATE_TEST_SUITE_P(Targets, ContentRatioTest,
                         ::testing::Values(1.0, 1.5, 2.0, 2.6, 3.5, 5.0, 8.0,
                                           30.0, 120.0, 700.0));

class AsciiRatioTest : public ::testing::TestWithParam<double> {};

TEST_P(AsciiRatioTest, AsciiSafeStaysPrintableAndOnTarget) {
  const double target = GetParam();
  util::Rng rng(11);
  const std::string raw = generate(256 * 1024, target, rng, /*ascii_safe=*/true);
  for (char c : raw) {
    ASSERT_TRUE((c >= 0x20 && c < 0x7f) || c == '\n') << int(c);
  }
  auto member = gzip_compress(raw);
  ASSERT_TRUE(member.ok());
  const double achieved =
      static_cast<double>(raw.size()) /
      static_cast<double>(member.value().size());
  EXPECT_GT(achieved, target * 0.6);
  EXPECT_LT(achieved, target * 1.7);
}

INSTANTIATE_TEST_SUITE_P(Targets, AsciiRatioTest,
                         ::testing::Values(1.5, 2.6, 3.6, 4.2, 5.0));

TEST(ContentGenTest, MagicPrefixPreserved) {
  util::Rng rng(7);
  const std::string content = generate_with_magic("\x7f""ELF", 1000, 2.0, rng);
  EXPECT_EQ(content.size(), 1000u);
  EXPECT_EQ(content.substr(0, 4), "\x7f""ELF");
}

TEST(ContentGenTest, MagicLongerThanSizeIsTruncated) {
  util::Rng rng(7);
  const std::string content = generate_with_magic("ABCDEFGH", 3, 2.0, rng);
  EXPECT_EQ(content, "ABC");
}

TEST(ContentGenTest, DeterministicForSeed) {
  util::Rng a(5), b(5);
  EXPECT_EQ(generate(4096, 3.0, a), generate(4096, 3.0, b));
}

TEST(ContentGenTest, TextIsAsciiAndWordy) {
  util::Rng rng(9);
  std::string out;
  append_text(out, 1024, rng);
  EXPECT_EQ(out.size(), 1024u);
  for (char c : out) {
    EXPECT_TRUE((c >= 'a' && c <= 'z') || c == ' ' || c == '\n') << int(c);
  }
}

}  // namespace
}  // namespace dockmine::compress
