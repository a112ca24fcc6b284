#include "net/decoder.h"

#include <cstdint>

// The decoder's home: decode_frame and DecodedFrame are fine in src/net.
bool decode_frame(const std::uint8_t* data) { return data != nullptr; }
