// Fixture: each name is unique by construction elsewhere.
#include <filesystem>

std::filesystem::path capture_dir() {
  // synscan-lint: allow(temp-dir-literal) — fixture: caller appends the pid
  return std::filesystem::temp_directory_path() / "fixture_capture";
}

std::filesystem::path cache_dir() {
  namespace fs = std::filesystem;
  return fs::temp_directory_path() / "fixture_cache";  // synscan-lint: allow(temp-dir-literal)
}
