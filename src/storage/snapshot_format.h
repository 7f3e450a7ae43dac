#ifndef XQP_STORAGE_SNAPSHOT_FORMAT_H_
#define XQP_STORAGE_SNAPSHOT_FORMAT_H_

#include <cstdint>
#include <type_traits>

#include "xml/document.h"

namespace xqp {
namespace storage {

/// On-disk layout of a document snapshot (DM3 of the paper's data-
/// management life cycle): one offset-based binary file freezing a loaded
/// document — node table, string-pool arena, and its path-synopsis /
/// value indexes — for O(1) mmap reopen with zero parse cost.
///
///   [SnapshotHeader][SectionEntry x section_count][section payloads...]
///
/// Every section payload starts at an 8-byte-aligned offset and carries a
/// CRC-32C; the header checksums itself and the section table separately,
/// so a torn or bit-rotted file is detected before any pointer into the
/// mapping is handed out. The node records and the pooled string bytes are
/// used zero-copy straight out of the mapping; the synopsis and postings
/// arrays are copied, and the variable-length sections (names, namespace
/// declarations, value postings) are bounds-checked serialized streams
/// materialized on load.
///
/// The loader treats every field as hostile: magic/version/endianness/
/// record-layout checks, bounds validation of each offset and index
/// against the mapped extent, structural consistency replay of the node
/// table, and per-section CRCs — any failure is kSnapshotCorrupt, never a
/// crash, and callers degrade to re-ingesting the original XML.

inline constexpr char kSnapshotMagic[8] = {'X', 'Q', 'P', 'S',
                                           'N', 'A', 'P', '1'};
/// Version 2 dropped version 1's token-stream sections; the loader rejects
/// every other version as corrupt, so a version-1 file is re-ingested.
inline constexpr uint32_t kSnapshotVersion = 2;
/// Written as 0x01020304 by the native byte order; a swapped value on read
/// means the file came from an other-endian machine and is rejected
/// (snapshots are a same-architecture cache, not an interchange format).
inline constexpr uint32_t kEndianTag = 0x01020304;

enum SnapshotFlags : uint32_t {
  kFlagHasIndexes = 1u << 1,
};

/// Section identifiers. Required document sections are 1..6; index
/// sections exist iff kFlagHasIndexes (kValues additionally requires
/// value_kinds != 0). Ids 7..10 held version 1's token stream and are
/// unused.
enum class SectionId : uint32_t {
  kNodes = 1,           // NodeRecord[count], zero-copy
  kNames = 2,           // serialized QName table (count entries)
  kPoolIndex = 3,       // PoolEntry[count] into kPoolArena
  kPoolArena = 4,       // raw string bytes, zero-copy
  kNsDecls = 5,         // serialized per-element namespace declarations
  kBaseUri = 6,         // raw bytes
  kSynopsis = 11,       // SynopsisRec[count] (children rebuilt from parents)
  kPostingsOffsets = 12,  // uint64[count_synopsis + 1], CSR row starts
  kPostingsData = 13,   // NodeIndex[count], CSR payload
  kValues = 14,         // serialized ValuePostings per synopsis node
};

struct SnapshotHeader {
  char magic[8];
  uint32_t version;
  uint32_t endian;
  uint32_t arch_bits;         // 8 * sizeof(void*) of the writing process.
  uint32_t node_record_size;  // sizeof(NodeRecord) layout check.
  uint32_t reserved;          // Must be 0.
  uint32_t flags;             // SnapshotFlags.
  uint32_t value_kinds;       // IndexValueKinds the indexes were built with.
  uint32_t section_count;
  uint64_t file_size;     // Total bytes; a shorter mapping is a torn write.
  uint64_t content_hash;  // FNV-1a of the source XML (0 = unknown).
  uint64_t content_bytes; // Length of the source XML (0 = unknown).
  uint32_t table_crc;     // CRC-32C of the section table.
  uint32_t header_crc;    // CRC-32C of this struct with header_crc zeroed.
};
static_assert(std::is_trivially_copyable_v<SnapshotHeader>);
static_assert(sizeof(SnapshotHeader) == 72);

struct SectionEntry {
  uint32_t id;     // SectionId.
  uint32_t crc;    // CRC-32C of the payload bytes.
  uint64_t offset; // From file start; 8-byte aligned.
  uint64_t size;   // Payload bytes.
  uint64_t count;  // Element count (POD arrays) or entry count (streams).
};
static_assert(std::is_trivially_copyable_v<SectionEntry>);
static_assert(sizeof(SectionEntry) == 32);

/// One pooled string: `length` bytes at `offset` inside the arena section.
struct PoolEntry {
  uint64_t offset;
  uint32_t length;
  uint32_t reserved;
};
static_assert(std::is_trivially_copyable_v<PoolEntry>);
static_assert(sizeof(PoolEntry) == 16);

/// One path-synopsis node. Children lists are not stored: synopsis ids are
/// assigned in first-appearance preorder, so appending each id to its
/// parent's children in id order reproduces the built structure exactly.
struct SynopsisRec {
  uint32_t name_id;
  int32_t parent;  // -1 for the root synopsis node.
  uint32_t kind;   // NodeKind, widened for alignment.
};
static_assert(std::is_trivially_copyable_v<SynopsisRec>);
static_assert(sizeof(SynopsisRec) == 12);

// The zero-copy node section depends on this layout being stable within
// one build; the header records its size so a snapshot written by a binary
// with a different layout is rejected, not misread.
static_assert(std::is_trivially_copyable_v<NodeRecord>);

}  // namespace storage
}  // namespace xqp

#endif  // XQP_STORAGE_SNAPSHOT_FORMAT_H_
