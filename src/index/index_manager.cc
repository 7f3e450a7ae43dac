#include "index/index_manager.h"

#include <mutex>

#include "base/limits.h"
#include "base/metrics.h"

namespace xqp {

Result<std::shared_ptr<const DocumentIndexes>> IndexManager::GetOrBuild(
    const std::string& uri, std::shared_ptr<const Document> doc,
    uint32_t value_kinds) {
  {
    std::shared_lock lock(mu_);
    auto it = cache_.find(uri);
    if (it != cache_.end() && it->second->doc_ptr() == doc &&
        it->second->value_kinds() == value_kinds) {
      return it->second;
    }
  }
  // Build outside the lock (three document passes); first finished builder
  // wins, racers adopt its result.
  static metrics::Counter* builds =
      metrics::MetricsRegistry::Global().counter("index.builds");
  static metrics::Counter* bytes =
      metrics::MetricsRegistry::Global().counter("index.bytes");
  static metrics::Counter* paths =
      metrics::MetricsRegistry::Global().counter("index.synopsis_paths");
  XQP_ASSIGN_OR_RETURN(std::shared_ptr<const DocumentIndexes> built,
                       DocumentIndexes::Build(doc, value_kinds));
  const size_t usage = built->MemoryUsage() + built->tags().MemoryUsage();
  if (metrics::Enabled()) {
    builds->Add(1);
    bytes->Add(usage);
    paths->Add(built->NumSynopsisNodes());
  }
  // The building query pays for the structure it materializes; a tripped
  // budget fails this query and nothing is cached.
  if (ResourceGovernor* gov = CurrentGovernor()) {
    XQP_RETURN_NOT_OK(gov->ChargeBytes(usage));
  }
  std::unique_lock lock(mu_);
  auto it = cache_.find(uri);
  if (it != cache_.end() && it->second->doc_ptr() == doc &&
      it->second->value_kinds() == value_kinds) {
    return it->second;  // Lost the race; adopt the winner.
  }
  cache_[uri] = built;
  return built;
}

void IndexManager::Adopt(const std::string& uri,
                         std::shared_ptr<const DocumentIndexes> indexes) {
  if (indexes == nullptr) return;
  std::unique_lock lock(mu_);
  cache_[uri] = std::move(indexes);
}

std::shared_ptr<const DocumentIndexes> IndexManager::Peek(
    const std::string& uri) const {
  std::shared_lock lock(mu_);
  auto it = cache_.find(uri);
  return it == cache_.end() ? nullptr : it->second;
}

std::shared_ptr<const DocumentIndexes> IndexManager::Peek(
    const Document& doc) const {
  std::shared_lock lock(mu_);
  for (const auto& [uri, indexes] : cache_) {
    if (&indexes->doc() == &doc) return indexes;
  }
  return nullptr;
}

void IndexManager::Invalidate() {
  std::unique_lock lock(mu_);
  cache_.clear();
}

size_t IndexManager::NumCached() const {
  std::shared_lock lock(mu_);
  return cache_.size();
}

}  // namespace xqp
