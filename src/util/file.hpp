// Whole-file reads for the command-line tools.

#pragma once

#include <string>

namespace rapsim::util {

/// The whole content of the file at `path`, byte for byte. Throws
/// std::invalid_argument naming the path when it cannot be opened.
[[nodiscard]] std::string read_file(const std::string& path);

}  // namespace rapsim::util
