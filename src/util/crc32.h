// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the integrity
// checksum of persisted graph artifacts (runtime/graph_artifact.h). An
// artifact carries crc32 over every preceding container byte as a
// trailer, so a torn write or bit-flipped file is rejected at load instead
// of deserialized.
#pragma once

#include <cstddef>
#include <cstdint>

namespace csq {

// Checksum of `size` bytes at `data`. `seed` chains incremental updates:
// crc32(b, nb, crc32(a, na)) == crc32(concat(a, b), na + nb).
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

}  // namespace csq
