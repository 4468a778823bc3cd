#include "util/file.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace rapsim::util {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::invalid_argument("cannot open '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace rapsim::util
