// Row <-> byte-buffer serialization ("the wire format"). Little-endian,
// length-prefixed strings. Used by joiner snapshots (src/core/joiner.cc).

#pragma once

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/tuple/row.h"

namespace ajoin {

/// Appends the serialized row to `out`.
void SerializeRow(const Row& row, std::vector<uint8_t>* out);

/// Deserializes one row starting at out[*offset]; advances *offset.
Result<Row> DeserializeRow(const std::vector<uint8_t>& buf, size_t* offset);

}  // namespace ajoin
