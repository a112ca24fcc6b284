// Scratch space comes from test_support.h; prose that mentions
// temp_directory_path() is not a call.
#include "test_support.h"

std::filesystem::path capture_dir() { return scratch_dir("capture"); }
const char* note() { return "temp_directory_path() stays in test_support.h"; }
