#include "io/byte_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "io/checksum.hpp"
#include "io/mapped_file.hpp"
#include "test_temp_dir.hpp"

namespace bwaver {
namespace {

TEST(ByteIo, ScalarRoundTrip) {
  ByteWriter writer;
  writer.u8(0xAB);
  writer.u16(0xBEEF);
  writer.u32(0xDEADBEEF);
  writer.u64(0x0123456789ABCDEFull);

  ByteReader reader(writer.data());
  EXPECT_EQ(reader.u8(), 0xAB);
  EXPECT_EQ(reader.u16(), 0xBEEF);
  EXPECT_EQ(reader.u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.u64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(reader.done());
}

TEST(ByteIo, LittleEndianLayout) {
  ByteWriter writer;
  writer.u32(0x01020304);
  ASSERT_EQ(writer.data().size(), 4u);
  EXPECT_EQ(writer.data()[0], 0x04);
  EXPECT_EQ(writer.data()[3], 0x01);
}

TEST(ByteIo, VectorRoundTrip) {
  ByteWriter writer;
  const std::vector<std::uint8_t> bytes = {1, 2, 3, 255};
  const std::vector<std::uint32_t> ints = {0, 42, 0xFFFFFFFF};
  writer.vec_u8(bytes);
  writer.vec_u32(ints);
  writer.str("hello world");

  ByteReader reader(writer.data());
  EXPECT_EQ(reader.vec_u8(), bytes);
  EXPECT_EQ(reader.vec_u32(), ints);
  EXPECT_EQ(reader.str(), "hello world");
  EXPECT_TRUE(reader.done());
}

TEST(ByteIo, EmptyVectorsRoundTrip) {
  ByteWriter writer;
  writer.vec_u8({});
  writer.vec_u32({});
  writer.str("");
  ByteReader reader(writer.data());
  EXPECT_TRUE(reader.vec_u8().empty());
  EXPECT_TRUE(reader.vec_u32().empty());
  EXPECT_TRUE(reader.str().empty());
}

TEST(ByteIo, TruncationThrows) {
  ByteWriter writer;
  writer.u32(7);
  {
    ByteReader reader(writer.data());
    reader.u16();
    EXPECT_THROW(reader.u32(), IoError);
  }
  {
    ByteReader reader(writer.data());
    EXPECT_THROW(reader.u64(), IoError);
  }
}

TEST(ByteIo, TruncatedVectorThrows) {
  ByteWriter writer;
  writer.u64(1000);  // claims 1000 bytes follow, none do
  ByteReader reader(writer.data());
  EXPECT_THROW(reader.vec_u8(), IoError);
}

TEST(ByteIo, BytesReadsExactSpan) {
  ByteWriter writer;
  const std::vector<std::uint8_t> payload = {9, 8, 7, 6};
  writer.bytes(payload);
  ByteReader reader(writer.data());
  std::vector<std::uint8_t> out(4);
  reader.bytes(out);
  EXPECT_EQ(out, payload);
}

TEST(ByteIo, FileRoundTrip) {
  const std::string path =
      (test::unique_test_dir("bwaver_byte_io_test") / "byte_io.bin").string();
  const std::vector<std::uint8_t> payload = {0, 1, 2, 3, 0xFF, 0x80};
  write_file(path, payload);
  EXPECT_EQ(read_file(path), payload);
  std::remove(path.c_str());
}

TEST(ByteIo, ReadMissingFileThrows) {
  EXPECT_THROW(read_file("/nonexistent/definitely/not/here.bin"), IoError);
}

TEST(ByteIo, WriteToBadPathThrows) {
  EXPECT_THROW(write_file("/nonexistent/dir/file.bin",
                          std::span<const std::uint8_t>{}),
               IoError);
}

TEST(ByteIo, TakeMovesBuffer) {
  ByteWriter writer;
  writer.u32(5);
  auto data = writer.take();
  EXPECT_EQ(data.size(), 4u);
}

TEST(ByteIo, PadAndAlignRoundTripFlatArrays) {
  // The archive v3 layout: scalars, zero padding to 64, then raw elements.
  std::vector<std::uint32_t> values(37);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<std::uint32_t>(i * 2654435761u);
  }
  ByteWriter writer;
  writer.u64(values.size());
  writer.pad_to(64);
  ASSERT_EQ(writer.size() % 64, 0u);
  writer.raw_u32(values);

  ByteReader reader(writer.data());
  const std::uint64_t count = reader.u64();
  reader.align_to(64);
  EXPECT_EQ(reader.offset() % 64, 0u);
  const std::span<const std::uint32_t> view =
      reader.span_u32(static_cast<std::size_t>(count));
  ASSERT_EQ(view.size(), values.size());
  EXPECT_TRUE(std::equal(view.begin(), view.end(), values.begin()));
  EXPECT_TRUE(reader.done());
}

TEST(ByteIo, RawArraysWithNoStorageWriteNothing) {
  // An empty vector may have no storage (data() == nullptr), e.g. the RRR
  // offset bits when every block class has a single member (b = 1).
  ByteWriter writer;
  writer.raw_u32(std::vector<std::uint32_t>{});
  writer.raw_u64(std::vector<std::uint64_t>{});
  EXPECT_EQ(writer.size(), 0u);
}

TEST(ByteIo, MisalignedSpanThrows) {
  ByteWriter writer;
  writer.u8(1);  // position 1: not 4-byte aligned
  writer.raw_u32(std::vector<std::uint32_t>{42});
  ByteReader reader(writer.data(), "bwt", 640);
  reader.u8();
  try {
    reader.span_u32(1);
    FAIL() << "misaligned span_u32 accepted";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("misaligned"), std::string::npos) << what;
    EXPECT_NE(what.find("bwt"), std::string::npos) << what;
  }
}

TEST(ByteIo, ContextualErrorsNameSectionAndFileOffset) {
  const std::vector<std::uint8_t> bytes = {1, 2, 3};
  ByteReader reader(bytes, "kmer", 1024);
  reader.u16();  // pos 2, absolute offset 1026
  try {
    reader.u32();
    FAIL() << "truncated read accepted";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("section 'kmer'"), std::string::npos) << what;
    EXPECT_NE(what.find("1026"), std::string::npos) << what;
  }

  // Without a context the message stays the plain legacy form.
  ByteReader plain(bytes);
  try {
    plain.u64();
    FAIL() << "truncated read accepted";
  } catch (const IoError& e) {
    EXPECT_EQ(std::string(e.what()).find("section"), std::string::npos)
        << e.what();
  }
}

TEST(ByteIo, AlignPastEndThrows) {
  const std::vector<std::uint8_t> bytes(10);
  ByteReader reader(bytes, "sa", 0);
  reader.bytes(std::span<std::uint8_t>());
  reader.u64();
  EXPECT_THROW(reader.align_to(64), IoError);
}

TEST(Checksum, AcceleratedKernelMatchesPortableAcrossSizes) {
  // Sizes straddle the >=128-byte dispatch threshold of the PCLMULQDQ
  // folding kernel, plus every small tail length after the folded body.
  std::vector<std::uint8_t> data(4096 + 3);
  std::uint32_t state = 0x9E3779B9u;
  for (auto& byte : data) {
    state = state * 1664525u + 1013904223u;
    byte = static_cast<std::uint8_t>(state >> 24);
  }
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{63},
        std::size_t{64}, std::size_t{127}, std::size_t{128}, std::size_t{129},
        std::size_t{255}, std::size_t{256}, std::size_t{1000},
        std::size_t{4096}, data.size()}) {
    const std::span<const std::uint8_t> span(data.data(), size);
    EXPECT_EQ(crc32_ieee(span), crc32_ieee_portable(span)) << "size " << size;
    // Seeded/incremental form must agree too.
    EXPECT_EQ(crc32_ieee(span, 0xDEADBEEFu),
              crc32_ieee_portable(span, 0xDEADBEEFu))
        << "size " << size;
  }
}

TEST(Checksum, UnalignedStartMatchesPortable) {
  std::vector<std::uint8_t> data(512);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31);
  }
  for (std::size_t shift = 1; shift < 16; ++shift) {
    const std::span<const std::uint8_t> span(data.data() + shift,
                                             data.size() - shift);
    EXPECT_EQ(crc32_ieee(span), crc32_ieee_portable(span)) << "shift " << shift;
  }
}

TEST(MappedFileTest, MapsBytesIdenticallyToRead) {
  const auto dir = test::unique_test_dir("bwaver_mapped_file_test");
  const std::string path = (dir / "blob.bin").string();
  std::vector<std::uint8_t> payload(8192);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i ^ (i >> 7));
  }
  write_file(path, payload);

  MappedFile file(path);
  ASSERT_EQ(file.size(), payload.size());
  EXPECT_EQ(std::memcmp(file.bytes().data(), payload.data(), payload.size()), 0);
  EXPECT_EQ(file.path(), path);
  file.advise(MappedFile::Advice::kSequential);
  file.advise(MappedFile::Advice::kRandom);

  // Moving transfers the mapping; the source becomes empty.
  MappedFile moved(std::move(file));
  EXPECT_EQ(moved.size(), payload.size());
  EXPECT_EQ(file.size(), 0u);

  std::filesystem::remove_all(dir);
}

TEST(MappedFileTest, MissingFileThrowsAndEmptyFileMapsEmpty) {
  EXPECT_THROW(MappedFile("/nonexistent/definitely/not/here.bin"), IoError);

  const auto dir = test::unique_test_dir("bwaver_mapped_file_test");
  const std::string path = (dir / "empty.bin").string();
  write_file(path, std::span<const std::uint8_t>{});
  MappedFile file(path);
  EXPECT_EQ(file.size(), 0u);
  EXPECT_TRUE(file.bytes().empty());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace bwaver
