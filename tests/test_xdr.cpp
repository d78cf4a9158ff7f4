// XDR codec and NFS call-marshalling tests: RFC 4506 primitives, error
// handling, and full round-trips of every call encoder.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "nfs/wire.hpp"
#include "nfs/xdr.hpp"

namespace kosha::nfs {
namespace {

TEST(Xdr, U32BigEndian) {
  XdrWriter writer;
  writer.put_u32(0x01020304);
  ASSERT_EQ(writer.size(), 4u);
  EXPECT_EQ(writer.data()[0], '\x01');
  EXPECT_EQ(writer.data()[3], '\x04');
  XdrReader reader(writer.data());
  EXPECT_EQ(reader.get_u32().value(), 0x01020304u);
  EXPECT_TRUE(reader.exhausted());
}

TEST(Xdr, U64RoundTrip) {
  XdrWriter writer;
  writer.put_u64(0x0102030405060708ull);
  XdrReader reader(writer.data());
  EXPECT_EQ(reader.get_u64().value(), 0x0102030405060708ull);
}

TEST(Xdr, OpaquePaddingToFourBytes) {
  for (const std::size_t length : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u}) {
    XdrWriter writer;
    writer.put_opaque(std::string(length, 'x'));
    EXPECT_EQ(writer.size(), xdr_opaque_size(length)) << length;
    EXPECT_EQ(writer.size() % 4, 0u) << length;
    XdrReader reader(writer.data());
    EXPECT_EQ(reader.get_opaque().value(), std::string(length, 'x'));
    EXPECT_TRUE(reader.exhausted());
  }
}

TEST(Xdr, BoolRoundTrip) {
  XdrWriter writer;
  writer.put_bool(true);
  writer.put_bool(false);
  XdrReader reader(writer.data());
  EXPECT_TRUE(reader.get_bool().value());
  EXPECT_FALSE(reader.get_bool().value());
}

TEST(Xdr, TruncatedReads) {
  XdrReader empty("");
  EXPECT_EQ(empty.get_u32().error(), XdrError::kTruncated);
  XdrReader partial("\x00\x00");
  EXPECT_EQ(partial.get_u32().error(), XdrError::kTruncated);
  // Opaque whose declared length exceeds the buffer.
  XdrWriter writer;
  writer.put_u32(100);
  XdrReader reader(writer.data());
  EXPECT_EQ(reader.get_opaque().error(), XdrError::kTruncated);
}

TEST(Xdr, OversizeOpaqueRejected) {
  XdrWriter writer;
  writer.put_opaque("0123456789");
  XdrReader reader(writer.data());
  EXPECT_EQ(reader.get_opaque(4).error(), XdrError::kOversize);
}

TEST(Xdr, NonZeroPaddingRejected) {
  XdrWriter writer;
  writer.put_opaque("abc");  // 1 padding byte
  std::string corrupted = writer.data();
  corrupted.back() = 'Z';
  XdrReader reader(corrupted);
  EXPECT_EQ(reader.get_opaque().error(), XdrError::kBadPadding);
}

TEST(Xdr, FixedRoundTrip) {
  const char payload[5] = {'a', 'b', 'c', 'd', 'e'};
  XdrWriter writer;
  writer.put_fixed(payload, sizeof(payload));
  EXPECT_EQ(writer.size() % 4, 0u);
  char out[5];
  XdrReader reader(writer.data());
  ASSERT_TRUE(reader.get_fixed(out, sizeof(out)).ok());
  EXPECT_EQ(std::memcmp(payload, out, 5), 0);
}

// --- wire-level call round-trips --------------------------------------------

FileHandle sample_handle(std::uint32_t seed) {
  return {seed, seed * 31 + 1, seed * 101 + 7};
}

TEST(Wire, HandleRoundTrip) {
  XdrWriter writer;
  encode_handle(writer, sample_handle(3));
  XdrReader reader(writer.data());
  EXPECT_EQ(decode_handle(reader).value(), sample_handle(3));
}

TEST(Wire, CallHeaderRoundTrip) {
  XdrWriter writer;
  encode_call_header(writer, 77, NfsProc::kWrite);
  XdrReader reader(writer.data());
  std::uint32_t xid = 0;
  EXPECT_EQ(decode_call_header(reader, &xid).value(), NfsProc::kWrite);
  EXPECT_EQ(xid, 77u);
  EXPECT_TRUE(reader.exhausted());
}

TEST(Wire, DiropargsRoundTrip) {
  const std::string message = encode_diropargs_call(1, NfsProc::kLookup, sample_handle(9),
                                                    "filename.txt");
  XdrReader reader(message);
  EXPECT_EQ(decode_call_header(reader).value(), NfsProc::kLookup);
  const auto args = decode_diropargs(reader);
  ASSERT_TRUE(args.ok());
  EXPECT_EQ(args->dir, sample_handle(9));
  EXPECT_EQ(args->name, "filename.txt");
  EXPECT_TRUE(reader.exhausted());
}

TEST(Wire, CreateRoundTrip) {
  const std::string message =
      encode_create_call(2, NfsProc::kCreate, sample_handle(4), "f", 0640, 1001);
  XdrReader reader(message);
  EXPECT_EQ(decode_call_header(reader).value(), NfsProc::kCreate);
  const auto args = decode_create_args(reader);
  ASSERT_TRUE(args.ok());
  EXPECT_EQ(args->mode, 0640u);
  EXPECT_EQ(args->uid, 1001u);
}

TEST(Wire, SymlinkRoundTrip) {
  const std::string message = encode_symlink_call(3, sample_handle(5), "docs", "docs#2");
  XdrReader reader(message);
  EXPECT_EQ(decode_call_header(reader).value(), NfsProc::kSymlink);
  const auto args = decode_symlink_args(reader);
  ASSERT_TRUE(args.ok());
  EXPECT_EQ(args->name, "docs");
  EXPECT_EQ(args->target, "docs#2");
}

TEST(Wire, ReadWriteRoundTrip) {
  const std::string read_message = encode_read_call(4, sample_handle(6), 4096, 65536);
  XdrReader read_reader(read_message);
  (void)decode_call_header(read_reader);
  const auto read_args = decode_read_args(read_reader);
  ASSERT_TRUE(read_args.ok());
  EXPECT_EQ(read_args->offset, 4096u);
  EXPECT_EQ(read_args->count, 65536u);

  const std::string payload = "some file contents!";
  const std::string write_message = encode_write_call(5, sample_handle(7), 100, payload);
  XdrReader write_reader(write_message);
  (void)decode_call_header(write_reader);
  const auto write_args = decode_write_args(write_reader);
  ASSERT_TRUE(write_args.ok());
  EXPECT_EQ(write_args->offset, 100u);
  EXPECT_EQ(write_args->data, payload);
}

TEST(Wire, SetattrRoundTripBothShapes) {
  {
    const std::string message = encode_setattr_call(6, sample_handle(8), true, 0600, false, 0);
    XdrReader reader(message);
    (void)decode_call_header(reader);
    const auto args = decode_setattr_args(reader);
    ASSERT_TRUE(args.ok());
    EXPECT_TRUE(args->set_mode);
    EXPECT_EQ(args->mode, 0600u);
    EXPECT_FALSE(args->set_size);
  }
  {
    const std::string message = encode_setattr_call(7, sample_handle(8), false, 0, true, 999);
    XdrReader reader(message);
    (void)decode_call_header(reader);
    const auto args = decode_setattr_args(reader);
    ASSERT_TRUE(args.ok());
    EXPECT_FALSE(args->set_mode);
    EXPECT_TRUE(args->set_size);
    EXPECT_EQ(args->size, 999u);
  }
}

TEST(Wire, RenameRoundTrip) {
  const std::string message =
      encode_rename_call(8, sample_handle(1), "old", sample_handle(2), "new");
  XdrReader reader(message);
  (void)decode_call_header(reader);
  const auto args = decode_rename_args(reader);
  ASSERT_TRUE(args.ok());
  EXPECT_EQ(args->from_dir, sample_handle(1));
  EXPECT_EQ(args->from_name, "old");
  EXPECT_EQ(args->to_dir, sample_handle(2));
  EXPECT_EQ(args->to_name, "new");
}

TEST(Wire, WriteSizeMatchesPayload) {
  // Charged bytes grow with the payload, 4-byte aligned.
  const auto small = encode_write_call(9, sample_handle(1), 0, "ab").size();
  const auto large = encode_write_call(9, sample_handle(1), 0, std::string(1000, 'x')).size();
  EXPECT_EQ(large - small, 1000u - 4u);  // 1000 vs 2+2pad
  EXPECT_EQ(large % 4, 0u);
}

// The client sizes every call with encoded_size_* instead of encoding it;
// each must equal the matching encoder's output size exactly, or the
// network would charge different bytes than the wire form has.
class WireSize : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireSize, ArithmeticSizesMatchEncoders) {
  Rng rng(GetParam());
  const auto random_name = [&rng] { return rng.next_name(rng.next_below(301)); };
  const auto handle = [&rng] { return sample_handle(static_cast<std::uint32_t>(rng.next_u64())); };
  const auto xid = [&rng] { return static_cast<std::uint32_t>(rng.next_u64()); };
  EXPECT_EQ(encoded_size_mount_call(), encode_mount_call(xid()).size());
  for (int i = 0; i < 200; ++i) {
    const std::string name = random_name();
    const std::string other = random_name();
    for (const NfsProc proc : kAllProcs) {
      EXPECT_EQ(encoded_size_handle_call(), encode_handle_call(xid(), proc, handle()).size());
      EXPECT_EQ(encoded_size_diropargs_call(name),
                encode_diropargs_call(xid(), proc, handle(), name).size())
          << name.size();
      EXPECT_EQ(encoded_size_create_call(name),
                encode_create_call(xid(), proc, handle(), name, 0644, 7).size())
          << name.size();
    }
    EXPECT_EQ(encoded_size_symlink_call(name, other),
              encode_symlink_call(xid(), handle(), name, other).size());
    EXPECT_EQ(encoded_size_rename_call(name, other),
              encode_rename_call(xid(), handle(), name, handle(), other).size());
    EXPECT_EQ(encoded_size_read_call(),
              encode_read_call(xid(), handle(), rng.next_u64(), 4096).size());
    for (const bool set_mode : {false, true}) {
      for (const bool set_size : {false, true}) {
        EXPECT_EQ(encoded_size_setattr_call(set_mode, set_size),
                  encode_setattr_call(xid(), handle(), set_mode, 0600, set_size, 99).size());
      }
    }
  }
}

TEST_P(WireSize, WritePayloadsOfEveryResidueUpTo4MiB) {
  Rng rng(GetParam());
  std::vector<std::size_t> lengths;
  for (std::size_t base : {std::size_t{0}, std::size_t{4096}, std::size_t{(4u << 20) - 4}}) {
    for (std::size_t r = 0; r <= 4; ++r) lengths.push_back(base + r);
  }
  for (int i = 0; i < 5; ++i) lengths.push_back(rng.next_below(1u << 16));
  for (const std::size_t length : lengths) {
    const std::string payload(length, 'p');
    EXPECT_EQ(encoded_size_write_call(length),
              encode_write_call(1, sample_handle(2), rng.next_u64(), payload).size())
        << length;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireSize, ::testing::Values(71, 72));

class XdrFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XdrFuzz, RandomOpaqueRoundTrips) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    std::string data;
    const std::size_t length = rng.next_below(300);
    for (std::size_t b = 0; b < length; ++b) {
      data.push_back(static_cast<char>(rng.next_below(256)));
    }
    XdrWriter writer;
    writer.put_opaque(data);
    writer.put_u32(0xdeadbeef);
    XdrReader reader(writer.data());
    EXPECT_EQ(reader.get_opaque().value(), data);
    EXPECT_EQ(reader.get_u32().value(), 0xdeadbeefu);
  }
}

TEST_P(XdrFuzz, DecoderNeverCrashesOnGarbage) {
  Rng rng(GetParam() + 500);
  for (int i = 0; i < 200; ++i) {
    std::string garbage;
    const std::size_t length = rng.next_below(64);
    for (std::size_t b = 0; b < length; ++b) {
      garbage.push_back(static_cast<char>(rng.next_below(256)));
    }
    XdrReader reader(garbage);
    (void)decode_call_header(reader);
    (void)decode_diropargs(reader);
    (void)decode_write_args(reader);
    (void)decode_rename_args(reader);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XdrFuzz, ::testing::Values(61, 62, 63));

}  // namespace
}  // namespace kosha::nfs
