// Corruption and fault-injection coverage for the v3 checkpoint layer.
//
// The heavyweight test here is the corruption matrix: a real LeNet-5
// checkpoint truncated at EVERY byte boundary, plus a seeded bit-flip
// corpus. Each mutation must produce a clean typed error — never a crash,
// hang, or partially-updated model. The matrix is tractable because the v3
// header pins the exact file size, so every truncated load is rejected in
// O(header) without scanning the payload. Every property is checked on a
// float checkpoint and on the INT4 export, whose conv weights are packed
// records (dtype 1).
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/temp_path.hpp"

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "nn/init.hpp"
#include "nn/models.hpp"
#include "quant/int4_export.hpp"
#include "tensor/ops.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace odq::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;
using util::Status;
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

bool file_exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

Tensor probe_input(std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor x(Shape{2, 1, 28, 28});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform_f(0, 1);
  return x;
}

enum class Kind { kFloat, kInt4 };
constexpr Kind kKinds[] = {Kind::kFloat, Kind::kInt4};

const char* kind_name(Kind kind) {
  return kind == Kind::kFloat ? "float checkpoint" : "INT4 export";
}

Status save_as(Kind kind, Model& m, const std::string& path) {
  return kind == Kind::kFloat ? m.try_save(path)
                              : quant::export_int4(m, path);
}

class CheckpointRobustnessTest : public ::testing::Test {
 protected:
  std::string path_ = odq::testutil::temp_path("odq_ckpt_robust.bin");
  void TearDown() override {
    util::fault_configure("");
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
};

TEST_F(CheckpointRobustnessTest, V3RoundTripsForward) {
  Model a = make_lenet5();
  kaiming_init(a, 1);
  ASSERT_TRUE(a.try_save(path_).ok());

  Model b = make_lenet5();
  kaiming_init(b, 2);
  ASSERT_TRUE(b.try_load(path_).ok());
  const Tensor x = probe_input(3);
  EXPECT_EQ(tensor::max_abs_diff(a.forward(x, false), b.forward(x, false)),
            0.0f);
}

TEST_F(CheckpointRobustnessTest, ArchitectureMismatchIsFailedPrecondition) {
  Model a = make_lenet5();
  kaiming_init(a, 1);
  Model b = make_resnet(8, 10, 4);
  for (const Kind kind : kKinds) {
    SCOPED_TRACE(kind_name(kind));
    ASSERT_TRUE(save_as(kind, a, path_).ok());
    const Status s = b.try_load(path_);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  }
}

TEST_F(CheckpointRobustnessTest, MissingFileIsNotFound) {
  Model m = make_lenet5();
  std::remove(path_.c_str());
  EXPECT_EQ(m.try_load(path_).code(), StatusCode::kNotFound);
}

TEST_F(CheckpointRobustnessTest, TrailingGarbageIsCorruption) {
  Model a = make_lenet5();
  kaiming_init(a, 1);
  for (const Kind kind : kKinds) {
    SCOPED_TRACE(kind_name(kind));
    ASSERT_TRUE(save_as(kind, a, path_).ok());
    std::string bytes = read_file(path_);
    bytes.push_back('\0');
    write_file(path_, bytes);
    const Status s = a.try_load(path_);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kCorruption);
    EXPECT_NE(s.message().find("file size mismatch"), std::string::npos);
  }
}

// The tentpole matrix: every prefix of a real checkpoint is a clean typed
// error, and a failed load never touches the model (v3 loads are staged).
TEST_F(CheckpointRobustnessTest, TruncationAtEveryByteBoundaryIsACleanError) {
  Model a = make_lenet5();
  kaiming_init(a, 1);
  Model b = make_lenet5();
  kaiming_init(b, 2);
  const Tensor x = probe_input(3);
  const Tensor untouched = b.forward(x, false);

  for (const Kind kind : kKinds) {
    SCOPED_TRACE(kind_name(kind));
    ASSERT_TRUE(save_as(kind, a, path_).ok());
    const std::string original = read_file(path_);
    ASSERT_GT(original.size(), 1000u);

    // Descending truncate() so each step is one metadata syscall, no rewrite.
    for (std::int64_t size = static_cast<std::int64_t>(original.size()) - 1;
         size >= 0; --size) {
      ASSERT_EQ(::truncate(path_.c_str(), size), 0);
      const Status s = b.try_load(path_);
      if (s.ok() || s.message().empty()) {
        FAIL() << "truncation to " << size << " bytes: expected a typed "
               << "error, got " << s.to_string();
      }
      // Truncation is corruption, except the degenerate 0..3-byte files
      // where even the magic is short — still corruption ("truncated
      // file").
      ASSERT_EQ(s.code(), StatusCode::kCorruption)
          << "size " << size << ": " << s.to_string();
    }

    // The ~200k failed loads above must not have modified the model.
    EXPECT_EQ(tensor::max_abs_diff(b.forward(x, false), untouched), 0.0f);
    write_file(path_, original);
  }

  // And the intact file still loads.
  ASSERT_TRUE(b.try_load(path_).ok());
}

TEST_F(CheckpointRobustnessTest, SeededBitFlipCorpusIsAlwaysDetected) {
  Model a = make_lenet5();
  kaiming_init(a, 1);
  Model b = make_lenet5();
  kaiming_init(b, 2);
  const Tensor x = probe_input(3);
  const Tensor untouched = b.forward(x, false);

  for (const Kind kind : kKinds) {
    SCOPED_TRACE(kind_name(kind));
    ASSERT_TRUE(save_as(kind, a, path_).ok());
    const std::string original = read_file(path_);
    util::Rng rng(0xC0FFEE);
    std::string mutated = original;
    for (int flip = 0; flip < 96; ++flip) {
      const std::size_t byte = rng.uniform_u64(mutated.size());
      const int bit = static_cast<int>(rng.uniform_u64(8));
      mutated[byte] = static_cast<char>(
          static_cast<unsigned char>(mutated[byte]) ^ (1U << bit));
      write_file(path_, mutated);
      const Status s = b.try_load(path_);
      // Every single-bit flip is detectable: header fields are validated
      // against the model architecture and CRC32 catches any payload flip.
      if (s.ok() || s.message().empty()) {
        FAIL() << "bit flip #" << flip << " (byte " << byte << " bit " << bit
               << "): expected a typed error, got " << s.to_string();
      }
      mutated[byte] = original[byte];  // restore for the next flip
    }
  }

  EXPECT_EQ(tensor::max_abs_diff(b.forward(x, false), untouched), 0.0f);
}

TEST_F(CheckpointRobustnessTest, FailedSavePreservesPreviousCheckpoint) {
  Model a = make_lenet5();
  kaiming_init(a, 1);
  Model c = make_lenet5();
  kaiming_init(c, 9);
  for (const Kind kind : kKinds) {
    SCOPED_TRACE(kind_name(kind));
    ASSERT_TRUE(save_as(kind, a, path_).ok());
    const std::string original = read_file(path_);

    util::fault_configure("ckpt.write:5");
    const Status s = save_as(kind, c, path_);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kIoError);
    util::fault_configure("");

    // tmp+rename: the failed save removed its temp file and never touched
    // the published checkpoint.
    EXPECT_FALSE(file_exists(path_ + ".tmp"));
    EXPECT_EQ(read_file(path_), original);
    Model b = make_lenet5();
    EXPECT_TRUE(b.try_load(path_).ok());
  }
}

TEST_F(CheckpointRobustnessTest, EveryFaultSiteProducesItsTypedError) {
  Model a = make_lenet5();
  kaiming_init(a, 1);
  for (const Kind kind : kKinds) {
    SCOPED_TRACE(kind_name(kind));
    util::fault_configure("ckpt.open_w:1");
    EXPECT_EQ(save_as(kind, a, path_).code(), StatusCode::kIoError);
    util::fault_configure("ckpt.short_write:1");
    EXPECT_EQ(save_as(kind, a, path_).code(), StatusCode::kIoError);
    util::fault_configure("ckpt.rename:1");
    EXPECT_EQ(save_as(kind, a, path_).code(), StatusCode::kIoError);
    EXPECT_FALSE(file_exists(path_ + ".tmp"));

    util::fault_configure("");
    ASSERT_TRUE(save_as(kind, a, path_).ok());

    util::fault_configure("ckpt.open_r:1");
    EXPECT_EQ(a.try_load(path_).code(), StatusCode::kIoError);
    util::fault_configure("ckpt.read:1");
    EXPECT_EQ(a.try_load(path_).code(), StatusCode::kIoError);
    util::fault_configure("ckpt.short_read:1");
    EXPECT_EQ(a.try_load(path_).code(), StatusCode::kCorruption);  // truncated
    util::fault_configure("");
    EXPECT_TRUE(a.try_load(path_).ok());
  }
}

TEST_F(CheckpointRobustnessTest, BitflipSiteCorruptsMediaNotTheSave) {
  Model a = make_lenet5();
  kaiming_init(a, 1);
  for (const Kind kind : kKinds) {
    SCOPED_TRACE(kind_name(kind));
    // The save succeeds — the flip models silent media corruption after the
    // CRC was computed — and only the reader notices. LeNet-5's first
    // payload is its first conv weight, so the INT4 export's flip lands in
    // a packed record's scale.
    util::fault_configure("ckpt.bitflip:1");
    ASSERT_TRUE(save_as(kind, a, path_).ok());
    util::fault_configure("");
    const Status s = a.try_load(path_);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kCorruption);
    EXPECT_NE(s.message().find("crc mismatch"), std::string::npos);
  }
}

TEST_F(CheckpointRobustnessTest, ThrowingWrappersStillThrow) {
  Model m = make_lenet5();
  EXPECT_THROW(m.load("/nonexistent_dir_xyz/m.bin"), std::runtime_error);
  EXPECT_THROW(m.save("/nonexistent_dir_xyz/m.bin"), std::runtime_error);
}

}  // namespace
}  // namespace odq::nn
