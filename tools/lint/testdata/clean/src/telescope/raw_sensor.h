// Fixture: a raw-byte classifier that only names the decoder in comments.
#pragma once

const char* raw_sensor_name();
