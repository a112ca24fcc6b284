// Fixture: decode_frame lives in src/net.
#pragma once

#include <cstdint>

struct DecodedFrame {
  std::uint8_t protocol = 0;
};

bool decode_frame(const std::uint8_t* data);
