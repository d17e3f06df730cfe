// Randomized round-trip tests for the checkpoint format (docs/testing.md):
// generate a random small architecture, randomize every parameter and
// buffer (including zeros, denormals, infinities and NaNs — a byte-level
// format must preserve all of them), save, load into a freshly built copy
// of the same architecture, and compare bit-for-bit. The packed INT4 kind
// gets random codes and scales, odd code counts included.
//
// Failures print a replay line; rerun with ODQ_TEST_SEED=<base>.
#include <gtest/gtest.h>

#include "common/temp_path.hpp"

#include <cstdint>
#include <cstdio>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "common/proptest.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/model.hpp"
#include "nn/pooling.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace odq::nn {
namespace {

struct ArchSpec {
  std::int64_t in_ch, mid_ch, k, classes;
  bool batchnorm;
};

ArchSpec random_arch(util::Rng& rng) {
  ArchSpec a;
  a.in_ch = rng.uniform_int(1, 3);
  a.mid_ch = rng.uniform_int(2, 6);
  a.k = rng.uniform_int(0, 1) == 0 ? 1 : 3;
  a.classes = rng.uniform_int(2, 5);
  a.batchnorm = rng.uniform_int(0, 1) == 1;
  return a;
}

// Build the architecture the spec describes. Called twice per case — the
// saved model and the fresh load target must agree structurally.
Model build_arch(const ArchSpec& a) {
  Model m("proptest");
  m.add<Conv2d>(a.in_ch, a.mid_ch, a.k, 1, a.k / 2);
  if (a.batchnorm) m.add<BatchNorm2d>(a.mid_ch);
  m.add<ReLU>();
  m.add<GlobalAvgPool>();
  m.add<Flatten>();
  m.add<Linear>(a.mid_ch, a.classes);
  return m;
}

// Random values with adversarial bit patterns mixed in: a binary format
// must round-trip exactly what it was given, not just "nice" floats.
float random_value(util::Rng& rng) {
  const float p = rng.uniform_f(0, 1);
  if (p < 0.02f) return 0.0f;
  if (p < 0.04f) return -0.0f;
  if (p < 0.06f) return 1e-42f;  // denormal
  if (p < 0.08f) return std::numeric_limits<float>::infinity();
  if (p < 0.10f) return -std::numeric_limits<float>::infinity();
  if (p < 0.12f) return std::numeric_limits<float>::quiet_NaN();
  return rng.normal_f(0, 1);
}

void randomize(Model& m, util::Rng& rng) {
  for (Param* p : m.params()) {
    for (std::int64_t i = 0; i < p->value.numel(); ++i) {
      p->value[i] = random_value(rng);
    }
  }
  for (tensor::Tensor* b : m.buffers()) {
    for (std::int64_t i = 0; i < b->numel(); ++i) (*b)[i] = random_value(rng);
  }
}

// Bitwise equality over float storage — NaN payloads and signed zeros
// included (operator== would treat NaN != NaN and -0.0 == 0.0).
::testing::AssertionResult models_bitwise_equal(Model& a, Model& b) {
  auto pa = a.params(), pb = b.params();
  if (pa.size() != pb.size()) {
    return ::testing::AssertionFailure() << "param count mismatch";
  }
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (pa[i]->value.numel() != pb[i]->value.numel()) {
      return ::testing::AssertionFailure() << pa[i]->name << " numel mismatch";
    }
    if (std::memcmp(pa[i]->value.data(), pb[i]->value.data(),
                    static_cast<std::size_t>(pa[i]->value.numel()) *
                        sizeof(float)) != 0) {
      return ::testing::AssertionFailure() << pa[i]->name << " bytes differ";
    }
  }
  auto ba = a.buffers(), bb = b.buffers();
  if (ba.size() != bb.size()) {
    return ::testing::AssertionFailure() << "buffer count mismatch";
  }
  for (std::size_t i = 0; i < ba.size(); ++i) {
    if (ba[i]->numel() != bb[i]->numel() ||
        std::memcmp(ba[i]->data(), bb[i]->data(),
                    static_cast<std::size_t>(ba[i]->numel()) *
                        sizeof(float)) != 0) {
      return ::testing::AssertionFailure() << "buffer " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

class CheckpointRoundTrip : public ::testing::Test {
 protected:
  std::string path_ = testutil::temp_path("odq_ckpt_roundtrip.bin");
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CheckpointRoundTrip, V3PreservesEveryBitPattern) {
  for (std::uint64_t i = 0; i < 25; ++i) {
    ODQ_PROP_CASE(c, i);
    const ArchSpec spec = random_arch(c.rng());
    Model a = build_arch(spec);
    randomize(a, c.rng());
    ASSERT_TRUE(a.try_save(path_).ok());

    Model b = build_arch(spec);
    kaiming_init(b, 7);  // load must overwrite every value
    ASSERT_TRUE(b.try_load(path_).ok());
    EXPECT_TRUE(models_bitwise_equal(a, b));
  }
}

// The conv weight as a packed record: it loads as code·scale, and every
// other tensor keeps its bits.
TEST_F(CheckpointRoundTrip, Int4RecordsLoadAsCodeTimesScale) {
  for (std::uint64_t i = 50; i < 75; ++i) {
    ODQ_PROP_CASE(c, i);
    const ArchSpec spec = random_arch(c.rng());
    Model a = build_arch(spec);
    randomize(a, c.rng());
    Param& w = a.convs()[0]->weight();
    const float mantissa = c.rng().uniform_f(1, 2);
    Int4Codes q{tensor::TensorI8(w.value.shape()),
                std::ldexp(mantissa, c.rng().uniform_int(-20, 4))};
    for (std::int64_t j = 0; j < q.codes.numel(); ++j) {
      q.codes[j] = static_cast<std::int8_t>(c.rng().uniform_int(-7, 7));
      w.value[j] = static_cast<float>(q.codes[j]) * q.scale;
    }
    ASSERT_TRUE(a.try_save(path_, {{&w, q}}).ok());

    Model b = build_arch(spec);
    kaiming_init(b, 7);
    ASSERT_TRUE(b.try_load(path_).ok());
    EXPECT_TRUE(models_bitwise_equal(a, b));
  }
}

TEST_F(CheckpointRoundTrip, ArchitectureMismatchIsFailedPrecondition) {
  for (std::uint64_t i = 70; i < 80; ++i) {
    ODQ_PROP_CASE(c, i);
    const ArchSpec spec = random_arch(c.rng());
    Model a = build_arch(spec);
    randomize(a, c.rng());
    ASSERT_TRUE(a.try_save(path_).ok());

    // Perturb the architecture so a tensor shape must differ.
    ArchSpec other = spec;
    other.mid_ch = spec.mid_ch + 1;
    Model b = build_arch(other);
    util::Status s = b.try_load(path_);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), util::StatusCode::kFailedPrecondition) << s.message();
  }
}

}  // namespace
}  // namespace odq::nn
