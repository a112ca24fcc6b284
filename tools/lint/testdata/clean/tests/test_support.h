// The one place tests may ask for the system temp dir.
#pragma once

#include <filesystem>
#include <string>

inline std::filesystem::path scratch_dir(const std::string& name) {
  return std::filesystem::temp_directory_path() / name;
}
