#include "telescope/raw_sensor.h"

#include <cstdint>

// Mirrors decode_frame's validation chain on raw bytes; mentioning
// DecodedFrame in a comment or "decode_frame" in a string is fine.
const char* raw_sensor_name() { return "not decode_frame"; }
