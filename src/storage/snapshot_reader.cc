#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "base/fault.h"
#include "base/limits.h"
#include "storage/crc32c.h"
#include "storage/snapshot.h"
#include "storage/snapshot_format.h"

namespace xqp {
namespace storage {
namespace {

Status Corrupt(std::string what) {
  return Status::SnapshotCorrupt(std::move(what));
}

/// Bounds-checked reader over one serialized section. Every getter reports
/// failure instead of advancing past the end, so a forged length field can
/// never walk a pointer out of the mapping.
class Cursor {
 public:
  Cursor(const uint8_t* p, size_t n) : p_(p), n_(n) {}

  bool U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  bool Bytes(size_t len, std::string_view* out) {
    if (len > n_) return false;
    *out = std::string_view(reinterpret_cast<const char*>(p_), len);
    p_ += len;
    n_ -= len;
    return true;
  }
  bool done() const { return n_ == 0; }

 private:
  bool Raw(void* out, size_t len) {
    if (len > n_) return false;
    std::memcpy(out, p_, len);
    p_ += len;
    n_ -= len;
    return true;
  }

  const uint8_t* p_;
  size_t n_;
};

/// One mmap'd snapshot file; unmapped when the last document view dies.
struct Mapping {
  const uint8_t* data = nullptr;
  size_t size = 0;
  ~Mapping() {
    if (data != nullptr) {
      ::munmap(const_cast<uint8_t*>(data), size);
    }
  }
};

/// Per-section checksum gate; hosts the "storage.crc" fault site (nth
/// selects which of the checks — header, table, section 1, ... — fails).
Status CheckCrc(const char* what, uint32_t expected, const void* data,
                size_t n) {
  if (fault::Armed()) {
    Status injected = fault::MaybeInject("storage.crc");
    if (!injected.ok()) {
      return Corrupt(std::string(what) +
                     ": injected checksum failure: " + injected.message());
    }
  }
  if (Crc32c(data, n) != expected) {
    return Corrupt(std::string(what) + ": CRC-32C mismatch");
  }
  return Status::OK();
}

bool ValidNodeKind(uint8_t k) {
  return k <= static_cast<uint8_t>(NodeKind::kProcessingInstruction);
}

/// Mirror of document_indexes.cc NumericLess: value then node, NaNs last.
bool NumericLess(double a, NodeIndex an, double b, NodeIndex bn) {
  bool a_nan = std::isnan(a);
  bool b_nan = std::isnan(b);
  if (a_nan != b_nan) return b_nan;
  if (!a_nan && a != b) return a < b;
  return an < bn;
}

}  // namespace

/// The validating loader. Friend of Document, StringPool and
/// DocumentIndexes: after the hostile-input checks pass it installs views
/// into the mapping (node table, pooled strings) and materializes the
/// small variable-length structures, without re-running any builder logic.
class SnapshotLoader {
 public:
  static Result<LoadedSnapshot> Load(const uint8_t* base, size_t size,
                                     std::shared_ptr<const void> backing);

 private:
  struct Sec {
    const uint8_t* data = nullptr;
    uint64_t size = 0;
    uint64_t count = 0;
    bool present = false;
  };

  static Result<std::vector<QName>> ParseNames(const Sec& sec);
  static Status ValidateNodes(const Sec& nodes, size_t names_count,
                              size_t pool_count);
};

Result<std::vector<QName>> SnapshotLoader::ParseNames(const Sec& sec) {
  std::vector<QName> names;
  Cursor cur(sec.data, sec.size);
  for (uint64_t i = 0; i < sec.count; ++i) {
    uint32_t uri_len, prefix_len, local_len;
    std::string_view uri, prefix, local;
    if (!cur.U32(&uri_len) || !cur.U32(&prefix_len) || !cur.U32(&local_len) ||
        !cur.Bytes(uri_len, &uri) || !cur.Bytes(prefix_len, &prefix) ||
        !cur.Bytes(local_len, &local)) {
      return Corrupt("names: truncated name entry");
    }
    names.emplace_back(std::string(uri), std::string(prefix),
                       std::string(local));
  }
  if (!cur.done()) {
    return Corrupt("names: trailing bytes after name table");
  }
  return names;
}

Status SnapshotLoader::ValidateNodes(const Sec& nodes, size_t names_count,
                                     size_t pool_count) {
  const auto* recs = reinterpret_cast<const NodeRecord*>(nodes.data);
  const size_t n = nodes.count;

  const NodeRecord& root = recs[0];
  if (root.kind != NodeKind::kDocument || root.level != 0 ||
      root.name_id != kNoName || root.value_id != kNoValue ||
      root.parent != kNullNode || root.next_sibling != kNullNode ||
      root.end != n - 1) {
    return Corrupt("node 0 is not a well-formed document node");
  }

  // Preorder replay. The region-encoding stack recovers each node's
  // expected parent and depth from the `end` labels alone; shadow sibling
  // chains are rebuilt exactly the way DocumentBuilder links them. Any
  // stored link or label that disagrees with the replay — overlapping
  // regions, a forward parent pointer, an attribute after child content, a
  // cycle spliced into a sibling chain — is rejected before the table is
  // ever navigated, so traversal can neither crash nor hang.
  std::vector<NodeIndex> first_attr(n, kNullNode), first_child(n, kNullNode),
      next(n, kNullNode), last_attr(n, kNullNode), last_child(n, kNullNode);
  std::vector<NodeIndex> stack;
  stack.push_back(0);
  for (size_t i = 1; i < n; ++i) {
    while (!stack.empty() && recs[stack.back()].end < i) stack.pop_back();
    if (stack.empty()) return Corrupt("node outside every open region");
    const NodeIndex p = stack.back();
    const NodeRecord& r = recs[i];
    if (!ValidNodeKind(static_cast<uint8_t>(r.kind))) {
      return Corrupt("invalid node kind");
    }
    if (r.parent != p) return Corrupt("parent link disagrees with regions");
    if (r.level != stack.size()) return Corrupt("level disagrees with depth");
    if (r.end < i || r.end > recs[p].end) {
      return Corrupt("region end outside parent region");
    }
    const bool named = r.kind == NodeKind::kElement ||
                       r.kind == NodeKind::kAttribute ||
                       r.kind == NodeKind::kProcessingInstruction;
    if (named ? r.name_id >= names_count : r.name_id != kNoName) {
      return Corrupt("name id out of range");
    }
    if (r.value_id != kNoValue && r.value_id >= pool_count) {
      return Corrupt("value id out of range");
    }
    if (r.kind == NodeKind::kDocument) {
      return Corrupt("nested document node");
    }
    if (r.kind == NodeKind::kAttribute) {
      if (last_child[p] != kNullNode) {
        return Corrupt("attribute after child content");
      }
      if (r.end != i || r.first_attr != kNullNode ||
          r.first_child != kNullNode) {
        return Corrupt("attribute with a subtree");
      }
      if (last_attr[p] == kNullNode) {
        first_attr[p] = static_cast<NodeIndex>(i);
      } else {
        next[last_attr[p]] = static_cast<NodeIndex>(i);
      }
      last_attr[p] = static_cast<NodeIndex>(i);
      continue;
    }
    if (last_child[p] == kNullNode) {
      first_child[p] = static_cast<NodeIndex>(i);
    } else {
      next[last_child[p]] = static_cast<NodeIndex>(i);
    }
    last_child[p] = static_cast<NodeIndex>(i);
    if (r.kind == NodeKind::kElement) {
      stack.push_back(static_cast<NodeIndex>(i));
    } else if (r.end != i || r.first_attr != kNullNode ||
               r.first_child != kNullNode) {
      return Corrupt("leaf node with a subtree");
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (recs[i].first_attr != first_attr[i] ||
        recs[i].first_child != first_child[i] ||
        (i > 0 && recs[i].next_sibling != next[i])) {
      return Corrupt("sibling/child links disagree with preorder replay");
    }
  }
  return Status::OK();
}

Result<LoadedSnapshot> SnapshotLoader::Load(
    const uint8_t* base, size_t size, std::shared_ptr<const void> backing) {
  // --- Header. ----------------------------------------------------------
  if (size < sizeof(SnapshotHeader)) {
    return Corrupt("file shorter than snapshot header");
  }
  SnapshotHeader header;
  std::memcpy(&header, base, sizeof(header));
  if (std::memcmp(header.magic, kSnapshotMagic, sizeof(header.magic)) != 0) {
    return Corrupt("bad magic");
  }
  if (header.version != kSnapshotVersion) {
    return Corrupt("unsupported snapshot version " +
                   std::to_string(header.version));
  }
  if (header.endian != kEndianTag) {
    return Corrupt("snapshot written with different byte order");
  }
  if (header.arch_bits != 8 * sizeof(void*)) {
    return Corrupt("snapshot written with different pointer width");
  }
  if (header.node_record_size != sizeof(NodeRecord)) {
    return Corrupt("snapshot written with different record layout");
  }
  if (header.reserved != 0) return Corrupt("nonzero reserved header field");
  {
    SnapshotHeader crc_view = header;
    crc_view.header_crc = 0;
    XQP_RETURN_NOT_OK(CheckCrc("header", header.header_crc, &crc_view,
                               sizeof(crc_view)));
  }
  if ((header.flags & ~kFlagHasIndexes) != 0) {
    return Corrupt("unknown flag bits");
  }
  const bool has_indexes = (header.flags & kFlagHasIndexes) != 0;
  if ((header.value_kinds & ~kIndexValueAll) != 0 ||
      (!has_indexes && header.value_kinds != 0)) {
    return Corrupt("invalid value-kind mask");
  }
  if (header.file_size != size) {
    return Corrupt("file size disagrees with header (truncated?)");
  }

  // Exactly the sections the flags promise, nothing else.
  std::vector<SectionId> expected = {
      SectionId::kNodes,   SectionId::kNames,   SectionId::kPoolIndex,
      SectionId::kPoolArena, SectionId::kNsDecls, SectionId::kBaseUri};
  if (has_indexes) {
    expected.insert(expected.end(),
                    {SectionId::kSynopsis, SectionId::kPostingsOffsets,
                     SectionId::kPostingsData});
    if (header.value_kinds != 0) expected.push_back(SectionId::kValues);
  }
  if (header.section_count != expected.size()) {
    return Corrupt("unexpected section count");
  }

  // --- Section table. ---------------------------------------------------
  const uint64_t table_bytes =
      uint64_t{header.section_count} * sizeof(SectionEntry);
  if (table_bytes > size - sizeof(SnapshotHeader)) {
    return Corrupt("section table extends past end of file");
  }
  const uint8_t* table = base + sizeof(SnapshotHeader);
  XQP_RETURN_NOT_OK(
      CheckCrc("section table", header.table_crc, table, table_bytes));

  constexpr uint32_t kMaxSectionId = static_cast<uint32_t>(SectionId::kValues);
  Sec secs[kMaxSectionId + 1];
  for (uint32_t i = 0; i < header.section_count; ++i) {
    SectionEntry e;
    std::memcpy(&e, table + i * sizeof(SectionEntry), sizeof(e));
    if (e.id == 0 || e.id > kMaxSectionId) return Corrupt("unknown section id");
    Sec& s = secs[e.id];
    if (s.present) return Corrupt("duplicate section");
    if ((e.offset & 7) != 0) return Corrupt("misaligned section offset");
    if (e.offset > size || e.size > size - e.offset) {
      return Corrupt("section extends past end of file");
    }
    s.data = base + e.offset;
    s.size = e.size;
    s.count = e.count;
    s.present = true;
    XQP_RETURN_NOT_OK(CheckCrc("section", e.crc, s.data, s.size));
  }
  for (SectionId id : expected) {
    if (!secs[static_cast<uint32_t>(id)].present) {
      return Corrupt("missing required section");
    }
  }
  auto sec = [&secs](SectionId id) -> const Sec& {
    return secs[static_cast<uint32_t>(id)];
  };

  // --- Document: node table, names, pool, namespaces, base URI. ---------
  const Sec& nodes = sec(SectionId::kNodes);
  if (nodes.count == 0 || nodes.count >= kNullNode ||
      nodes.size != nodes.count * sizeof(NodeRecord)) {
    return Corrupt("node table size mismatch");
  }
  const size_t node_count = nodes.count;

  XQP_ASSIGN_OR_RETURN(std::vector<QName> names,
                       ParseNames(sec(SectionId::kNames)));
  if (names.size() != sec(SectionId::kNames).count) {
    return Corrupt("name count mismatch");
  }

  const Sec& pool_index = sec(SectionId::kPoolIndex);
  const Sec& pool_arena = sec(SectionId::kPoolArena);
  if (pool_index.size != pool_index.count * sizeof(PoolEntry) ||
      pool_index.count >= StringPool::kInvalid) {
    return Corrupt("pool index size mismatch");
  }
  std::vector<std::string_view> pool_views;
  pool_views.reserve(pool_index.count);
  {
    const auto* entries = reinterpret_cast<const PoolEntry*>(pool_index.data);
    const char* arena = reinterpret_cast<const char*>(pool_arena.data);
    for (uint64_t i = 0; i < pool_index.count; ++i) {
      if (entries[i].offset > pool_arena.size ||
          entries[i].length > pool_arena.size - entries[i].offset) {
        return Corrupt("pool entry outside arena");
      }
      pool_views.emplace_back(arena + entries[i].offset, entries[i].length);
    }
  }

  XQP_RETURN_NOT_OK(ValidateNodes(nodes, names.size(), pool_views.size()));

  std::unordered_map<NodeIndex, std::vector<Document::NsDecl>> ns_decls;
  {
    const Sec& ns = sec(SectionId::kNsDecls);
    Cursor cur(ns.data, ns.size);
    uint32_t prev_node = 0;
    for (uint64_t e = 0; e < ns.count; ++e) {
      uint32_t node, n_decls;
      if (!cur.U32(&node) || !cur.U32(&n_decls) || n_decls == 0) {
        return Corrupt("truncated namespace entry");
      }
      if (node >= node_count || (e > 0 && node <= prev_node)) {
        return Corrupt("namespace entry out of order or out of range");
      }
      prev_node = node;
      std::vector<Document::NsDecl>& decls = ns_decls[node];
      for (uint32_t d = 0; d < n_decls; ++d) {
        uint32_t plen, ulen;
        std::string_view prefix, uri;
        if (!cur.U32(&plen) || !cur.U32(&ulen) || !cur.Bytes(plen, &prefix) ||
            !cur.Bytes(ulen, &uri)) {
          return Corrupt("truncated namespace declaration");
        }
        decls.push_back(
            Document::NsDecl{std::string(prefix), std::string(uri)});
      }
    }
    if (!cur.done()) return Corrupt("trailing bytes after namespace section");
  }

  const Sec& base_uri = sec(SectionId::kBaseUri);
  if (base_uri.count != base_uri.size) {
    return Corrupt("base-uri size mismatch");
  }

  auto doc = std::shared_ptr<Document>(new Document());
  doc->backing_ = backing;
  doc->nodes_data_ = reinterpret_cast<const NodeRecord*>(nodes.data);
  doc->nodes_count_ = node_count;
  doc->names_.assign(std::make_move_iterator(names.begin()),
                     std::make_move_iterator(names.end()));
  for (uint32_t id = 0; id < doc->names_.size(); ++id) {
    if (!doc->name_index_.emplace(doc->names_[id], id).second) {
      return Corrupt("duplicate entry in name table");
    }
  }
  doc->pool_.AdoptFrozen(std::move(pool_views));
  doc->ns_decls_ = std::move(ns_decls);
  doc->base_uri_.assign(reinterpret_cast<const char*>(base_uri.data),
                        base_uri.size);

  LoadedSnapshot out;
  out.document = doc;
  out.value_kinds = header.value_kinds;
  out.content_hash = header.content_hash;
  out.content_bytes = header.content_bytes;
  out.mapped_bytes = size;

  // --- Path/value indexes (optional). -----------------------------------
  if (has_indexes) {
    const Sec& syn = sec(SectionId::kSynopsis);
    if (syn.count == 0 || syn.count > INT32_MAX ||
        syn.size != syn.count * sizeof(SynopsisRec)) {
      return Corrupt("synopsis size mismatch");
    }
    const auto* srecs = reinterpret_cast<const SynopsisRec*>(syn.data);
    if (srecs[0].parent != -1 || srecs[0].name_id != kNoName ||
        srecs[0].kind != static_cast<uint32_t>(NodeKind::kDocument)) {
      return Corrupt("synopsis node 0 is not the document root");
    }
    auto idx = std::shared_ptr<DocumentIndexes>(new DocumentIndexes());
    idx->doc_ = doc;
    idx->value_kinds_ = header.value_kinds;
    idx->nodes_.resize(syn.count);
    for (uint64_t s = 1; s < syn.count; ++s) {
      const SynopsisRec& r = srecs[s];
      const bool is_elem = r.kind == static_cast<uint32_t>(NodeKind::kElement);
      const bool is_attr =
          r.kind == static_cast<uint32_t>(NodeKind::kAttribute);
      if ((!is_elem && !is_attr) || r.parent < 0 ||
          static_cast<uint64_t>(r.parent) >= s ||
          r.name_id >= doc->names_.size()) {
        return Corrupt("invalid synopsis node");
      }
      DocumentIndexes::SynopsisNode& sn = idx->nodes_[s];
      sn.name_id = r.name_id;
      sn.kind = static_cast<NodeKind>(r.kind);
      sn.parent = r.parent;
      // Synopsis ids are assigned in first-appearance order, so id order
      // reproduces every children list exactly as Build() made it.
      idx->nodes_[r.parent].children.push_back(static_cast<int32_t>(s));
    }

    const Sec& offs = sec(SectionId::kPostingsOffsets);
    const Sec& data = sec(SectionId::kPostingsData);
    if (offs.count != syn.count + 1 ||
        offs.size != offs.count * sizeof(uint64_t) ||
        data.size != data.count * sizeof(NodeIndex) ||
        data.count > node_count) {
      return Corrupt("postings size mismatch");
    }
    const auto* row = reinterpret_cast<const uint64_t*>(offs.data);
    const auto* post = reinterpret_cast<const NodeIndex*>(data.data);
    if (row[0] != 0 || row[syn.count] != data.count) {
      return Corrupt("postings offsets do not span the data");
    }
    idx->postings_.resize(syn.count);
    for (uint64_t s = 0; s < syn.count; ++s) {
      if (row[s + 1] < row[s]) return Corrupt("postings offsets decrease");
      for (uint64_t j = row[s]; j < row[s + 1]; ++j) {
        if (post[j] >= node_count || (j > row[s] && post[j] <= post[j - 1])) {
          return Corrupt("posting list not in document order");
        }
      }
      idx->postings_[s].assign(post + row[s], post + row[s + 1]);
    }
    idx->ComputeTotals();

    if (header.value_kinds != 0) {
      const Sec& vals = sec(SectionId::kValues);
      if (vals.count != syn.count) {
        return Corrupt("value-postings count mismatch");
      }
      idx->values_.resize(syn.count);
      Cursor cur(vals.data, vals.size);
      for (uint64_t s = 0; s < syn.count; ++s) {
        uint32_t vflags, n_str, n_num;
        if (!cur.U32(&vflags) || !cur.U32(&n_str) || !cur.U32(&n_num) ||
            (vflags & ~3u) != 0) {
          return Corrupt("truncated value-postings entry");
        }
        DocumentIndexes::ValuePostings& vp = idx->values_[s];
        vp.indexable = (vflags & 1u) != 0;
        vp.all_numeric = (vflags & 2u) != 0;
        vp.by_string.reserve(std::min<uint64_t>(n_str, node_count));
        for (uint32_t i = 0; i < n_str; ++i) {
          uint32_t len, node;
          std::string_view str;
          if (!cur.U32(&len) || !cur.U32(&node) || !cur.Bytes(len, &str) ||
              node >= node_count) {
            return Corrupt("truncated string value entry");
          }
          if (!vp.by_string.empty()) {
            const auto& prev = vp.by_string.back();
            if (str < prev.first || (str == prev.first && node <= prev.second)) {
              return Corrupt("string value index not sorted");
            }
          }
          vp.by_string.emplace_back(std::string(str), node);
        }
        for (uint32_t i = 0; i < n_num; ++i) {
          uint64_t bits;
          uint32_t node;
          if (!cur.U64(&bits) || !cur.U32(&node) || node >= node_count) {
            return Corrupt("truncated numeric value entry");
          }
          double value;
          std::memcpy(&value, &bits, sizeof(value));
          if (!vp.by_number.empty()) {
            const auto& prev = vp.by_number.back();
            if (NumericLess(value, node, prev.first, prev.second)) {
              return Corrupt("numeric value index not sorted");
            }
          }
          vp.by_number.emplace_back(value, node);
        }
      }
      if (!cur.done()) {
        return Corrupt("trailing bytes after value sections");
      }
    }
    out.indexes = idx;
  }

  return out;
}

Result<LoadedSnapshot> OpenSnapshot(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("open " + path + ": " +
                           std::string(std::strerror(errno)));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status err = Status::IoError("stat " + path + ": " +
                                 std::string(std::strerror(errno)));
    ::close(fd);
    return err;
  }
  if (st.st_size <= 0) {
    ::close(fd);
    return Corrupt("empty snapshot file");
  }
  if (fault::Armed()) {
    Status injected = fault::MaybeInject("storage.map");
    if (!injected.ok()) {
      ::close(fd);
      return injected;
    }
  }
  const size_t size = static_cast<size_t>(st.st_size);
  void* m = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (m == MAP_FAILED) {
    return Status::IoError("mmap " + path + ": " +
                           std::string(std::strerror(errno)));
  }
  auto mapping = std::make_shared<Mapping>();
  mapping->data = static_cast<const uint8_t*>(m);
  mapping->size = size;
  const uint8_t* base = mapping->data;  // read before the move below
  XQP_ASSIGN_OR_RETURN(
      LoadedSnapshot loaded,
      SnapshotLoader::Load(base, size, std::move(mapping)));
  // The mapped extent is memory the caller's query now holds; charge it
  // like any other load-time allocation.
  if (ResourceGovernor* gov = CurrentGovernor()) {
    XQP_RETURN_NOT_OK(gov->ChargeBytes(loaded.mapped_bytes));
  }
  return loaded;
}

Result<LoadedSnapshot> OpenSnapshotBuffer(
    std::shared_ptr<const std::string> bytes) {
  if (bytes == nullptr) return Status::InvalidArgument("null buffer");
  if (fault::Armed()) {
    XQP_RETURN_NOT_OK(fault::MaybeInject("storage.map"));
  }
  const auto* p = reinterpret_cast<const uint8_t*>(bytes->data());
  // Zero-copy sections require the 8-byte alignment a mapping guarantees;
  // realign the rare unaligned buffer (e.g. a substring) by copying.
  if ((reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    auto aligned =
        std::make_shared<std::vector<uint64_t>>((bytes->size() + 7) / 8);
    std::memcpy(aligned->data(), bytes->data(), bytes->size());
    const auto* ap = reinterpret_cast<const uint8_t*>(aligned->data());
    return SnapshotLoader::Load(ap, bytes->size(), std::move(aligned));
  }
  size_t size = bytes->size();
  return SnapshotLoader::Load(p, size, std::move(bytes));
}

}  // namespace storage
}  // namespace xqp
