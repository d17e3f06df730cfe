// Whole-file writes with every step checked.
#pragma once

#include <string>
#include <string_view>

#include "util/status.hpp"

namespace odq::util {

// Writes `content` to `path` in place, through a symlink, FIFO or device
// as fopen does. A failed open, write, flush or close returns kIoError.
Status write_file(const std::string& path, std::string_view content);

// write_file to `path + ".tmp"`, then a rename over `path`: a reader finds
// the old file, the new one or none, never a partial write. A failed write
// or rename removes the tmp file and returns kIoError.
Status write_file_atomic(const std::string& path, std::string_view content);

}  // namespace odq::util
