#include "util/atomic_file.hpp"

#include <gtest/gtest.h>

#include "common/temp_path.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/stat.h>
#include <unistd.h>

namespace odq::util {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool exists(const std::string& path) {
  struct stat st;
  return ::lstat(path.c_str(), &st) == 0;
}

class WriteFileTest : public ::testing::Test {
 protected:
  std::string path_ = odq::testutil::temp_path("odq_write_file_test");
  std::string link_ = path_ + ".link";
  void TearDown() override {
    std::remove(link_.c_str());
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
};

TEST_F(WriteFileTest, WritesThroughASymlink) {
  ASSERT_TRUE(write_file(path_, "old").ok());
  ASSERT_EQ(::symlink(path_.c_str(), link_.c_str()), 0);
  ASSERT_TRUE(write_file(link_, "new\n").ok());
  EXPECT_EQ(read_file(path_), "new\n");
  struct stat st;
  ASSERT_EQ(::lstat(link_.c_str(), &st), 0);
  EXPECT_TRUE(S_ISLNK(st.st_mode));
}

TEST_F(WriteFileTest, UnopenablePathIsIoError) {
  const Status st = write_file(path_ + ".missing_dir/out", "x");
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

TEST_F(WriteFileTest, AtomicReplacesTheFileAndLeavesNoTmp) {
  ASSERT_TRUE(write_file(path_, "old").ok());
  ASSERT_TRUE(write_file_atomic(path_, "new\n").ok());
  EXPECT_EQ(read_file(path_), "new\n");
  EXPECT_FALSE(exists(path_ + ".tmp"));
}

TEST_F(WriteFileTest, AtomicFailedRenameRemovesTmp) {
  // A directory at the target: the write succeeds, the rename cannot.
  ASSERT_EQ(::mkdir(path_.c_str(), 0700), 0);
  const Status st = write_file_atomic(path_, "new\n");
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_FALSE(exists(path_ + ".tmp"));
  ::rmdir(path_.c_str());
}

}  // namespace
}  // namespace odq::util
