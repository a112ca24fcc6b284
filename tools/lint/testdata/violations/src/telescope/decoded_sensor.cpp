#include "net/packet.h"

bool decoded_is_tcp(const std::vector<std::uint8_t>& bytes) {
  const auto frame = synscan::net::decode_frame(bytes);
  const synscan::net::DecodedFrame* decoded = frame ? &*frame : nullptr;
  return decoded != nullptr;
}
