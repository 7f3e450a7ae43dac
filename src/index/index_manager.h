#ifndef XQP_INDEX_INDEX_MANAGER_H_
#define XQP_INDEX_INDEX_MANAGER_H_

#include <map>
#include <memory>
#include <shared_mutex>
#include <string>

#include "index/document_indexes.h"

namespace xqp {

/// Lazily built, engine-cached DocumentIndexes: the engine's only
/// per-document index cache. Shared-lock probe, build outside any lock,
/// exclusive-lock publish with a document-identity recheck — so a racing
/// re-registration can never leave a stale index serving a new document
/// snapshot. The builder's query pays for the index: its MemoryUsage() and
/// its tags' are charged to the thread's current ResourceGovernor in one
/// charge, and a tripped budget fails that query without poisoning the
/// cache.
class IndexManager {
 public:
  /// Returns the cached indexes for (uri, doc), building them on first use
  /// or after the document changed. `doc` is the caller's snapshot of the
  /// registered document — identity (pointer) mismatch with the cache entry
  /// forces a rebuild.
  Result<std::shared_ptr<const DocumentIndexes>> GetOrBuild(
      const std::string& uri, std::shared_ptr<const Document> doc,
      uint32_t value_kinds);

  /// Installs already-built indexes (a validated snapshot's) as the cache
  /// entry for `uri`, replacing whatever is there. GetOrBuild then serves
  /// them without a rebuild as long as the registered document and the
  /// engine's value-kind mask still match; a mismatch (document replaced,
  /// knobs changed) falls back to a normal build — adoption can never
  /// pin stale indexes.
  void Adopt(const std::string& uri,
             std::shared_ptr<const DocumentIndexes> indexes);

  /// Shared-lock probe of the cache: the entry for `uri` or null, never
  /// building. Compile-time access-path annotation peeks so that compiling
  /// a query can neither charge an index build to a governor nor trip
  /// injected build faults — those belong to the first executing query.
  std::shared_ptr<const DocumentIndexes> Peek(const std::string& uri) const;

  /// The cached entry built over `doc` itself (the same object, not merely
  /// the same URI), or null — never building.
  std::shared_ptr<const DocumentIndexes> Peek(const Document& doc) const;

  /// Drops every cached index (document re-registration, engine epoch bump).
  void Invalidate();

  size_t NumCached() const;

 private:
  mutable std::shared_mutex mu_;
  std::map<std::string, std::shared_ptr<const DocumentIndexes>> cache_;
};

}  // namespace xqp

#endif  // XQP_INDEX_INDEX_MANAGER_H_
