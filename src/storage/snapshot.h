#ifndef XQP_STORAGE_SNAPSHOT_H_
#define XQP_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "base/status.h"
#include "index/document_indexes.h"
#include "xml/document.h"

namespace xqp {
namespace storage {

/// Persistent document snapshots — the DM3 storage milestone. A snapshot
/// freezes a loaded document (node table, string pool, optional path/value
/// indexes) into one offset-based binary file
/// (format: snapshot_format.h) that reopens via mmap with zero parse cost.
///
/// Writing is crash-atomic: serialize to a unique temp file, fsync, rename
/// over the target, fsync the directory — a reader either sees the old
/// file, the new file, or none, never a torn one. Reading is paranoid: the
/// loader validates magic/version/endianness/record layout, checksums the
/// header, section table, and every section (CRC-32C), bounds-checks every
/// offset and index, and structurally replays the node table before any
/// pointer into the mapping escapes. Validation failures are
/// kSnapshotCorrupt — callers (XQueryEngine::ParseAndRegister) degrade to
/// re-ingesting the original XML.
///
/// Fault sites: "storage.write" (each stage of the atomic write protocol),
/// "storage.map" (the mmap itself), "storage.crc" (each checksum pass).

/// What to freeze. `doc` is required; `indexes` ride along when present
/// (the engine snapshots indexes so cold start skips the rebuild). `content_hash`/`content_bytes` identify the source XML
/// (HashContent / length) for staleness detection; 0 = unknown.
struct SnapshotInput {
  const Document* doc = nullptr;
  const DocumentIndexes* indexes = nullptr;
  uint64_t content_hash = 0;
  uint64_t content_bytes = 0;
};

/// FNV-1a over `bytes`; the source-content fingerprint stored in the
/// header so a snapshot of superseded XML is detected as stale, not served.
uint64_t HashContent(std::string_view bytes);

/// Serializes `input` into the snapshot byte format (in memory).
Result<std::string> SerializeSnapshot(const SnapshotInput& input);

/// Serializes and writes `path` crash-atomically (temp + fsync + rename +
/// directory fsync). On any failure — including an injected
/// "storage.write" fault at any stage — no partial file is left visible
/// and any previous snapshot at `path` survives untouched.
Status WriteSnapshotFile(const std::string& path, const SnapshotInput& input);

/// A validated, opened snapshot. `document` views the mapping zero-copy
/// (node table + pooled strings) and keeps it alive; `indexes` is a
/// materialized copy, present when the snapshot carried them.
struct LoadedSnapshot {
  std::shared_ptr<const Document> document;
  std::shared_ptr<const DocumentIndexes> indexes;  // Null when absent.
  uint32_t value_kinds = 0;    // Families `indexes` was built with.
  uint64_t content_hash = 0;   // Source-XML fingerprint (0 = unknown).
  uint64_t content_bytes = 0;
  uint64_t mapped_bytes = 0;   // File size; charged to the governor.
};

/// mmaps `path` and validates + adopts it. kIoError when the file cannot
/// be opened or mapped; kSnapshotCorrupt when it fails any validation.
Result<LoadedSnapshot> OpenSnapshot(const std::string& path);

/// Same validation pipeline over an in-memory buffer (tests, fuzzing —
/// no filesystem involved). The buffer is the backing store: the returned
/// document holds `bytes` alive.
Result<LoadedSnapshot> OpenSnapshotBuffer(
    std::shared_ptr<const std::string> bytes);

}  // namespace storage
}  // namespace xqp

#endif  // XQP_STORAGE_SNAPSHOT_H_
