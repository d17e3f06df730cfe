// The packed INT4 record kind of the v3 checkpoint (dtype 1): its byte
// layout, its size, and what its writer and loader refuse. Most models
// here are one bias-free conv, so the file's payload is that conv weight's
// record alone: the f32 scale, then ⌈numel/2⌉ bytes of codes.
#include <gtest/gtest.h>

#include "common/temp_path.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "nn/conv2d.hpp"
#include "nn/init.hpp"
#include "nn/model.hpp"
#include "nn/models.hpp"
#include "quant/int4_export.hpp"
#include "quant/quantizer.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace odq::nn {
namespace {

using tensor::Shape;
using tensor::TensorI8;
using util::StatusCode;

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string out;
  char buf[1 << 14];
  std::size_t n = 0;
  while (f != nullptr && (n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  if (f != nullptr) std::fclose(f);
  return out;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

Model one_conv(std::int64_t in, std::int64_t out, std::int64_t k) {
  Model m("packed");
  m.add<Conv2d>(in, out, k, 1, 0, /*bias=*/false);
  return m;
}

std::map<const Param*, Int4Codes> int4_weight(Model& m,
                                              std::vector<std::int8_t> codes,
                                              float scale) {
  Param& w = m.convs()[0]->weight();
  return {{&w, Int4Codes{TensorI8(w.value.shape(), std::move(codes)), scale}}};
}

std::int64_t payload_bytes(std::int64_t codes) { return 4 + (codes + 1) / 2; }

// Recomputes the header's CRC over the payload (the file's last `payload`
// bytes), so a hand-edited record meets the loader's own checks.
std::string reseal(std::string file, std::int64_t payload) {
  const std::size_t at = file.size() - static_cast<std::size_t>(payload);
  const std::uint32_t crc =
      util::crc32(file.data() + at, static_cast<std::size_t>(payload));
  std::memcpy(file.data() + at - sizeof(crc), &crc, sizeof(crc));
  return file;
}

class Packing : public ::testing::Test {
 protected:
  std::string path_ = testutil::temp_path("odq_ckpt_packed.bin");
  void TearDown() override { std::remove(path_.c_str()); }

  // The single code byte of a two-code record.
  unsigned char packed_pair(std::int8_t first, std::int8_t second) {
    Model m = one_conv(1, 2, 1);
    EXPECT_TRUE(
        m.try_save(path_, int4_weight(m, {first, second}, 1.0f)).ok());
    return static_cast<unsigned char>(read_file(path_).back());
  }

  // Loads a one-conv file that was edited by `edit` and resealed, and checks
  // the load is corruption and leaves the model's weight as it was.
  void expect_corrupt_after(
      std::int64_t codes,
      const std::function<void(std::string&, std::size_t)>& edit) {
    std::string file = read_file(path_);
    edit(file, file.size() - static_cast<std::size_t>(payload_bytes(codes)));
    write_file(path_, reseal(file, payload_bytes(codes)));
    Model b = one_conv(1, codes, 1);
    b.convs()[0]->weight().value.fill(3.0f);
    const util::Status s = b.try_load(path_);
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.to_string();
    EXPECT_EQ(b.convs()[0]->weight().value[0], 3.0f);
  }
};

// A record of n codes carries 4 + ⌈n/2⌉ payload bytes where the float
// record carries 4n; the header is the same length.
TEST_F(Packing, SizeFormula) {
  for (const std::int64_t n : {1, 2, 9, 1000}) {
    Model m = one_conv(1, n, 1);
    ASSERT_TRUE(m.try_save(path_).ok());
    const auto float_size = static_cast<std::int64_t>(read_file(path_).size());
    const std::vector<std::int8_t> zeros(static_cast<std::size_t>(n), 0);
    ASSERT_TRUE(m.try_save(path_, int4_weight(m, zeros, 1.0f)).ok());
    const auto int4_size = static_cast<std::int64_t>(read_file(path_).size());
    EXPECT_EQ(float_size - int4_size, 4 * n - payload_bytes(n)) << "n=" << n;
  }
}

// The INT4 export of a whole model stores each conv weight at 4 bits, the
// 0.5 B per weight the accelerator's DRAM model streams (weight_elems · 4 /
// 8, src/accel/simulator.cpp), plus one scale, and nothing else packed.
TEST_F(Packing, PackedSizesMatchAcceleratorWidths) {
  Model m = make_model("resnet20", 8);
  kaiming_init(m, 3);
  ASSERT_TRUE(m.try_save(path_).ok());
  std::int64_t want = static_cast<std::int64_t>(read_file(path_).size());
  for (Conv2d* c : m.convs()) {
    const std::int64_t n = c->weight().value.numel();
    want -= 4 * n - (4 + n * 4 / 8 + n % 2);
  }
  ASSERT_TRUE(quant::export_int4(m, path_).ok());
  EXPECT_EQ(static_cast<std::int64_t>(read_file(path_).size()), want);
}

// The dtype byte names the record's width; one the format does not have is
// corruption, found from the header before any payload is read.
TEST_F(Packing, RejectsBadBits) {
  Model m = one_conv(1, 2, 1);
  ASSERT_TRUE(m.try_save(path_, int4_weight(m, {1, 2}, 1.0f)).ok());
  const std::string original = read_file(path_);
  const std::size_t dtype_at = 4 + 4 + 8 + 8;  // magic, version, counts
  ASSERT_EQ(original[dtype_at], 1);
  for (const unsigned char bad : {2, 4, 8, 0xFF}) {
    std::string file = original;
    file[dtype_at] = static_cast<char>(bad);
    write_file(path_, file);
    const util::Status s = m.try_load(path_);
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.to_string();
    EXPECT_NE(s.message().find("unknown dtype"), std::string::npos);
  }
}

TEST_F(Packing, KnownLayoutLittleEndianWithinByte) {
  // Codes {1, 2}: the first code in the low nibble.
  EXPECT_EQ(packed_pair(1, 2), 0x21);
  EXPECT_EQ(packed_pair(7, 0), 0x07);
}

TEST_F(Packing, SignedFieldsUseTwosComplement) {
  EXPECT_EQ(packed_pair(-1, -7), 0x9F);  // -1 -> 0xF low, -7 -> 0x9 high
  EXPECT_EQ(packed_pair(-7, -1), 0xF9);
}

using PackParam = std::tuple<int, bool>;  // bits, signed

class PackRoundTrip : public Packing,
                      public ::testing::WithParamInterface<PackParam> {};

// Every code of the width loads as code·scale; an odd count leaves the last
// byte's high nibble 0.
TEST_P(PackRoundTrip, AllValuesRoundTrip) {
  const auto [bits, is_signed] = GetParam();
  const int hi = (1 << (bits - 1)) - 1;
  const int lo = is_signed ? -hi : 0;
  std::vector<std::int8_t> codes;
  for (int v = lo; v <= hi; ++v) codes.push_back(static_cast<std::int8_t>(v));
  if (codes.size() % 2 == 0) codes.push_back(static_cast<std::int8_t>(lo));
  const auto n = static_cast<std::int64_t>(codes.size());

  Model a = one_conv(1, n, 1);
  ASSERT_TRUE(a.try_save(path_, int4_weight(a, codes, 0.375f)).ok());
  EXPECT_EQ(static_cast<unsigned char>(read_file(path_).back()),
            static_cast<unsigned char>(codes.back()) & 0x0F);
  Model b = one_conv(1, n, 1);
  ASSERT_TRUE(b.try_load(path_).ok());
  const tensor::Tensor& w = b.convs()[0]->weight().value;
  for (std::int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(w[i], static_cast<float>(codes[static_cast<std::size_t>(i)]) *
                        0.375f)
        << "code " << static_cast<int>(codes[static_cast<std::size_t>(i)]);
  }
}

// The record stores signed INT4 only; -8 is outside its symmetric range
// (RejectsOutOfRangeCodes).
INSTANTIATE_TEST_SUITE_P(Widths, PackRoundTrip,
                         ::testing::Values(PackParam{4, true}));

// -8 fits a nibble but lies outside the symmetric INT4 range the quantizer
// uses: the writer refuses it, and the loader refuses its nibble.
TEST_F(Packing, RejectsOutOfRangeCodes) {
  Model m = one_conv(1, 1, 1);
  for (const std::int8_t bad : {8, -8, 100}) {
    const util::Status s = m.try_save(path_, int4_weight(m, {bad}, 1.0f));
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.to_string();
  }
  std::FILE* none = std::fopen(path_.c_str(), "rb");
  EXPECT_EQ(none, nullptr) << "a refused save wrote a file";
  if (none != nullptr) std::fclose(none);

  ASSERT_TRUE(m.try_save(path_, int4_weight(m, {1}, 1.0f)).ok());
  expect_corrupt_after(1, [](std::string& f, std::size_t at) {
    f[at + 4] = 0x08;  // code -8
  });
}

// The loaded weights are QTensor::dequantize's, bit for bit: the codes and
// the scale survive the file.
TEST_F(Packing, QTensorRoundTripPreservesMetadata) {
  util::Rng rng(1);
  tensor::Tensor w(Shape{3, 2, 3, 3});
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal_f(0, 0.3f);
  const quant::QTensor q = quant::quantize_weights(w, 4);
  Model a = one_conv(2, 3, 3);
  std::vector<std::int8_t> codes(q.q.data(), q.q.data() + q.q.numel());
  ASSERT_TRUE(a.try_save(path_, int4_weight(a, codes, q.scale)).ok());
  Model b = one_conv(2, 3, 3);
  ASSERT_TRUE(b.try_load(path_).ok());
  const tensor::Tensor want = q.dequantize();
  EXPECT_EQ(std::memcmp(b.convs()[0]->weight().value.data(), want.data(),
                        static_cast<std::size_t>(want.numel()) * sizeof(float)),
            0);
}

// The payload a packed record needs is fixed by its header, so a short or
// long file fails before the payload is read, and the unused high nibble
// of an odd count must be 0.
TEST_F(Packing, UnpackValidatesBufferSize) {
  Model m = one_conv(1, 3, 1);
  ASSERT_TRUE(m.try_save(path_, int4_weight(m, {1, 2, 3}, 1.0f)).ok());
  const std::string original = read_file(path_);
  for (const std::string& file :
       {original.substr(0, original.size() - 1), original + '\0'}) {
    write_file(path_, file);
    const util::Status s = m.try_load(path_);
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.to_string();
    EXPECT_NE(s.message().find("file size mismatch"), std::string::npos);
  }
  write_file(path_, original);
  expect_corrupt_after(3, [](std::string& f, std::size_t at) {
    f[at + 5] = static_cast<char>(0x13);  // code 3 plus a set pad nibble
  });
}

TEST_F(Packing, RejectsAScaleThatIsNotFiniteAndPositive) {
  Model m = one_conv(1, 2, 1);
  const float inf = std::numeric_limits<float>::infinity();
  for (const float bad : {0.0f, -0.0f, -1.0f, inf, -inf,
                          std::numeric_limits<float>::quiet_NaN()}) {
    SCOPED_TRACE(bad);
    const util::Status s = m.try_save(path_, int4_weight(m, {1, 2}, bad));
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.to_string();

    ASSERT_TRUE(m.try_save(path_, int4_weight(m, {1, 2}, 1.0f)).ok());
    expect_corrupt_after(2, [bad](std::string& f, std::size_t at) {
      std::memcpy(f.data() + at, &bad, sizeof(bad));
    });
  }
}

TEST_F(Packing, WriterRefusesARecordThatDoesNotFitTheModel) {
  Model m = one_conv(1, 2, 1);
  Param& w = m.convs()[0]->weight();
  const util::Status shape = m.try_save(
      path_, {{&w, Int4Codes{TensorI8(Shape{3}, std::int8_t{1}), 1.0f}}});
  EXPECT_EQ(shape.code(), StatusCode::kInvalidArgument) << shape.to_string();

  Model other = one_conv(1, 2, 1);
  const util::Status stranger =
      m.try_save(path_, int4_weight(other, {1, 2}, 1.0f));
  EXPECT_EQ(stranger.code(), StatusCode::kInvalidArgument)
      << stranger.to_string();
}

}  // namespace
}  // namespace odq::nn
