#include "storage/crc32c.h"

#include <atomic>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define XQP_CRC32C_X86 1
#include <nmmintrin.h>
#elif defined(__aarch64__) && defined(__ARM_FEATURE_CRC32)
#define XQP_CRC32C_ARM 1
#include <arm_acle.h>
#endif

namespace xqp {
namespace storage {
namespace {

/// Software fallback: standard byte-at-a-time table for the Castagnoli
/// polynomial, generated at first use. ~400MB/s — the validation pass is
/// still far cheaper than re-parsing the XML it replaces.
struct SwTable {
  uint32_t t[256];
  SwTable() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
  }
};

uint32_t SwExtend(uint32_t crc, const uint8_t* p, size_t n) {
  static const SwTable table;
  uint32_t c = ~crc;
  for (size_t i = 0; i < n; ++i) {
    c = table.t[(c ^ p[i]) & 0xff] ^ (c >> 8);
  }
  return ~c;
}

#if defined(XQP_CRC32C_X86)

__attribute__((target("sse4.2"))) uint32_t HwExtend(uint32_t crc,
                                                    const uint8_t* p,
                                                    size_t n) {
  uint64_t c = ~crc;
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    c = _mm_crc32_u64(c, word);
    p += 8;
    n -= 8;
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  while (n > 0) {
    c32 = _mm_crc32_u8(c32, *p++);
    --n;
  }
  return ~c32;
}

bool HwAvailable() { return __builtin_cpu_supports("sse4.2"); }

#elif defined(XQP_CRC32C_ARM)

uint32_t HwExtend(uint32_t crc, const uint8_t* p, size_t n) {
  uint32_t c = ~crc;
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    c = __crc32cd(c, word);
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    c = __crc32cb(c, *p++);
    --n;
  }
  return ~c;
}

// __ARM_FEATURE_CRC32 means the compiler already targets a CPU with the
// CRC extension, so no runtime probe is needed.
bool HwAvailable() { return true; }

#else

uint32_t HwExtend(uint32_t crc, const uint8_t* p, size_t n) {
  return SwExtend(crc, p, n);
}
bool HwAvailable() { return false; }

#endif

/// One-time dispatch: 0 = undecided, 1 = hardware, 2 = software.
std::atomic<int> g_impl{0};

int Impl() {
  int impl = g_impl.load(std::memory_order_relaxed);
  if (impl == 0) {
    impl = HwAvailable() ? 1 : 2;
    g_impl.store(impl, std::memory_order_relaxed);
  }
  return impl;
}

}  // namespace

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  return Impl() == 1 ? HwExtend(crc, p, size) : SwExtend(crc, p, size);
}

uint32_t Crc32c(const void* data, size_t size) {
  return Crc32cExtend(0, data, size);
}

}  // namespace storage
}  // namespace xqp
