#include "quant/int4_export.hpp"

#include <gtest/gtest.h>

#include "common/temp_path.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>

#include "core/odq.hpp"
#include "nn/init.hpp"
#include "nn/models.hpp"
#include "util/rng.hpp"

namespace odq::quant {
namespace {

using tensor::Shape;
using tensor::Tensor;
using util::StatusCode;

std::int64_t file_size(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return -1;
  std::fseek(f, 0, SEEK_END);
  const long n = std::ftell(f);
  std::fclose(f);
  return n;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

class QModelIoTest : public ::testing::Test {
 protected:
  std::string path_ = odq::testutil::temp_path("odq_int4_export.bin");
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".float").c_str());
  }

  static Tensor random_image(Shape shape, std::uint64_t seed) {
    util::Rng rng(seed);
    Tensor t(std::move(shape));
    for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform_f(0, 1);
    return t;
  }
};

// A model loaded from the export runs the source model's ODQ forward bit
// for bit: requantizing code·scale gives back the same codes and scale.
TEST_F(QModelIoTest, RoundTripReproducesQuantizedForward) {
  for (const char* name : {"resnet20", "vgg16", "lenet5", "densenet"}) {
    for (const std::uint64_t seed : {1, 2, 3, 7}) {
      SCOPED_TRACE(std::string(name) + " seed " + std::to_string(seed));
      nn::Model a = nn::make_model(name, 8);
      nn::kaiming_init(a, seed);
      ASSERT_TRUE(export_int4(a, path_).ok());
      nn::Model b = nn::make_model(name, 8);
      nn::kaiming_init(b, seed + 100);
      ASSERT_TRUE(b.try_load(path_).ok());

      core::OdqConfig cfg;
      cfg.threshold = 0.3f;
      a.set_conv_executor(std::make_shared<core::OdqConvExecutor>(cfg));
      b.set_conv_executor(std::make_shared<core::OdqConvExecutor>(cfg));
      Shape in = nn::model_input_shape(name);
      const Tensor x =
          random_image(Shape{2, in[0], in[1], in[2]}, 40 + seed);
      EXPECT_TRUE(bitwise_equal(a.forward(x, false), b.forward(x, false)));
    }
  }
}

// Every tensor but a conv weight round-trips bit-exactly, BatchNorm's
// running statistics included.
TEST_F(QModelIoTest, NonConvParamsPreservedExactly) {
  nn::Model a = nn::make_resnet(8, 10, 4);
  nn::kaiming_init(a, 4);
  (void)a.forward(random_image(Shape{2, 3, 16, 16}, 9), /*train=*/true);
  ASSERT_TRUE(export_int4(a, path_).ok());
  nn::Model b = nn::make_resnet(8, 10, 4);
  nn::kaiming_init(b, 5);
  for (tensor::Tensor* t : b.buffers()) t->fill(7.0f);
  ASSERT_TRUE(b.try_load(path_).ok());

  std::size_t conv_weights = 0;
  const auto pa = a.params(), pb = b.params();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    bool is_conv_weight = false;
    for (nn::Conv2d* c : a.convs()) is_conv_weight |= &c->weight() == pa[i];
    if (is_conv_weight) {
      ++conv_weights;
    } else {
      EXPECT_TRUE(bitwise_equal(pa[i]->value, pb[i]->value)) << pa[i]->name;
    }
  }
  EXPECT_EQ(conv_weights, a.convs().size());
  const auto ba = a.buffers(), bb = b.buffers();
  for (std::size_t i = 0; i < ba.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(*ba[i], *bb[i])) << "buffer " << i;
  }
}

TEST_F(QModelIoTest, CheckpointSmallerThanFloat) {
  nn::Model m = nn::make_model("resnet20", 8);
  nn::kaiming_init(m, 6);
  ASSERT_TRUE(export_int4(m, path_).ok());
  ASSERT_TRUE(m.try_save(path_ + ".float").ok());
  // Conv weights dominate ResNet-20, so INT4 packing gets well below half
  // the float file.
  EXPECT_LT(file_size(path_), file_size(path_ + ".float") / 2);
}

TEST_F(QModelIoTest, ArchitectureMismatchRejected) {
  nn::Model a = nn::make_lenet5();
  nn::kaiming_init(a, 7);
  ASSERT_TRUE(export_int4(a, path_).ok());
  nn::Model b = nn::make_resnet(8, 10, 4);
  EXPECT_EQ(b.try_load(path_).code(), StatusCode::kFailedPrecondition);
}

// Neither junk nor a file in the retired "ODQQ" export layout is read as a
// model: both are corruption, and the model keeps its weights.
TEST_F(QModelIoTest, GarbageFileRejected) {
  nn::Model m = nn::make_lenet5();
  nn::kaiming_init(m, 8);
  const Tensor before = m.params()[0]->value;
  // The retired layout's header: u32 magic 0x4F445151, u64 param count,
  // u64 buffer count, u8 code bits.
  std::string odqq(4 + 8 + 8 + 1, '\0');
  const std::uint32_t magic = 0x4F445151U;
  std::memcpy(odqq.data(), &magic, sizeof(magic));
  odqq[4] = static_cast<char>(m.params().size());
  odqq[20] = 4;
  for (const std::string& bytes : {std::string("nope"), odqq}) {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    const util::Status s = m.try_load(path_);
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.to_string();
    EXPECT_TRUE(bitwise_equal(m.params()[0]->value, before));
  }
}

// Quantizing a NaN or ±inf weight would store a code the weight never had,
// so the export names the conv instead and writes nothing.
TEST_F(QModelIoTest, NonFiniteConvWeightIsRefused) {
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity()}) {
    nn::Model m = nn::make_lenet5();
    nn::kaiming_init(m, 8);
    m.convs()[1]->weight().value[3] = bad;
    const util::Status s = export_int4(m, path_);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.to_string();
    EXPECT_NE(s.message().find("conv 1"), std::string::npos) << s.message();
    EXPECT_EQ(file_size(path_), -1);
  }
}

TEST(QModelIo, SaveToBadPathThrows) {
  nn::Model m = nn::make_lenet5();
  const util::Status save = export_int4(m, "/nonexistent_dir_xyz/q.bin");
  EXPECT_EQ(save.code(), StatusCode::kIoError);
  EXPECT_THROW(save.throw_if_error(), std::runtime_error);
  EXPECT_THROW(m.load("/nonexistent_dir_xyz/q.bin"), std::runtime_error);
}

}  // namespace
}  // namespace odq::quant
