#include "util/atomic_file.hpp"

#include <cstdio>

namespace odq::util {

Status write_file(const std::string& path, std::string_view content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return {StatusCode::kIoError, "cannot open " + path};
  bool ok = std::fwrite(content.data(), 1, content.size(), f) == content.size();
  ok = std::fflush(f) == 0 && ok;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) return {StatusCode::kIoError, "short write to " + path};
  return Status::Ok();
}

Status write_file_atomic(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp";
  Status st = write_file(tmp, content);
  if (st.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    st = {StatusCode::kIoError, "cannot rename " + tmp + " to " + path};
  }
  if (!st.ok()) std::remove(tmp.c_str());
  return st;
}

}  // namespace odq::util
