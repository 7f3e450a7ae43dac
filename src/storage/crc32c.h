#ifndef XQP_STORAGE_CRC32C_H_
#define XQP_STORAGE_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace xqp {
namespace storage {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6A41 reflected) over `size` bytes,
/// the checksum guarding every snapshot section. Uses the SSE4.2 / ARMv8
/// CRC instructions when the running CPU has them (detected once at first
/// use) and a slice-by-8-free table fallback otherwise; both paths produce
/// identical values, so snapshots written on one machine verify on another.
uint32_t Crc32c(const void* data, size_t size);

/// Incremental form: feed `crc` the previous return value (seed 0).
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t size);

}  // namespace storage
}  // namespace xqp

#endif  // XQP_STORAGE_CRC32C_H_
