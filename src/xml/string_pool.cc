#include "xml/string_pool.h"

#include <algorithm>
#include <cstring>

namespace xqp {

std::string_view StringPool::Append(std::string_view s) {
  if (s.empty()) return std::string_view();
  if (s.size() > chunk_cap_ - chunk_used_) {
    // Strings wider than a chunk get a dedicated one; the abandoned tail of
    // the previous chunk is bounded by one chunk per oversized string.
    // Chunks are left uninitialized: nothing reads past chunk_used_, and the
    // snapshot writer copies strings by id, never whole chunks.
    size_t cap = std::max(s.size(), kChunkBytes);
    chunks_.push_back(std::make_unique_for_overwrite<char[]>(cap));
    retired_bytes_ += chunk_used_;
    chunk_cap_ = cap;
    chunk_used_ = 0;
  }
  char* dst = chunks_.back().get() + chunk_used_;
  std::memcpy(dst, s.data(), s.size());
  chunk_used_ += s.size();
  return std::string_view(dst, s.size());
}

StringPool::Id StringPool::Intern(std::string_view s) {
  Id id = static_cast<Id>(views_.size());
  if (!pooling_enabled_) {
    views_.push_back(Append(s));
    return id;
  }
  // Single-probe intern: append first so the index key points at stable
  // arena storage, then try_emplace; a duplicate undoes the tail append.
  std::string_view stored = Append(s);
  auto [it, inserted] = index_.try_emplace(stored, id);
  if (!inserted) {
    chunk_used_ -= s.size();
    return it->second;
  }
  views_.push_back(stored);
  return id;
}

StringPool::Id StringPool::Find(std::string_view s) const {
  auto it = index_.find(s);
  return it == index_.end() ? kInvalid : it->second;
}

void StringPool::Reserve(size_t expected_strings) {
  views_.reserve(expected_strings);
  if (pooling_enabled_) index_.reserve(expected_strings);
}

void StringPool::AdoptFrozen(std::vector<std::string_view> views) {
  chunks_.clear();
  chunk_cap_ = 0;
  chunk_used_ = 0;
  retired_bytes_ = 0;
  index_.clear();
  frozen_bytes_ = 0;
  for (std::string_view v : views) frozen_bytes_ += v.size();
  views_ = std::move(views);
}

size_t StringPool::MemoryUsage() const {
  size_t bytes = retired_bytes_ + chunk_used_ + frozen_bytes_;
  bytes += views_.capacity() * sizeof(std::string_view);
  // Rough estimate of the hash index overhead.
  bytes += index_.size() * (sizeof(void*) * 2 + sizeof(std::string_view) +
                            sizeof(Id));
  return bytes;
}

}  // namespace xqp
