// Fixed scratch names under the system temp dir: parallel ctest cases
// sharing them delete each other's files.
#include <filesystem>

std::filesystem::path capture_dir() {
  return std::filesystem::temp_directory_path() / "fixture_capture";
}

std::filesystem::path cache_dir() {
  namespace fs = std::filesystem;
  return fs::temp_directory_path () / "fixture_cache";
}
