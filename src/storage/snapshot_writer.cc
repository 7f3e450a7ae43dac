#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "base/fault.h"
#include "storage/crc32c.h"
#include "storage/snapshot.h"
#include "storage/snapshot_format.h"

namespace xqp {
namespace storage {
namespace {

/// Little-endian-agnostic byte sink for the variable-length sections. All
/// multi-byte fields are written by memcpy in native order — the header's
/// endian tag rejects cross-endian files, so no swapping is ever needed.
class ByteSink {
 public:
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutBytes(std::string_view s) { PutRaw(s.data(), s.size()); }
  void PutRaw(const void* p, size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }

  std::string Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

void PutQName(ByteSink* out, const QName& q) {
  out->PutU32(static_cast<uint32_t>(q.uri.size()));
  out->PutU32(static_cast<uint32_t>(q.prefix.size()));
  out->PutU32(static_cast<uint32_t>(q.local.size()));
  out->PutBytes(q.uri);
  out->PutBytes(q.prefix);
  out->PutBytes(q.local);
}

struct Section {
  SectionId id;
  uint64_t count;
  std::string payload;
};

/// Serializes the string pool as its (index, arena) section pair. Ids are
/// positional, so the roundtrip preserves every StringPool::Id bit-exactly.
void AppendPoolSections(const StringPool& pool,
                        std::vector<Section>* sections) {
  ByteSink index;
  ByteSink arena;
  for (StringPool::Id id = 0; id < pool.size(); ++id) {
    std::string_view s = pool.Get(id);
    PoolEntry e{arena.size(), static_cast<uint32_t>(s.size()), 0};
    index.PutRaw(&e, sizeof(e));
    arena.PutBytes(s);
  }
  sections->push_back(Section{SectionId::kPoolIndex, pool.size(),
                              index.Take()});
  sections->push_back(Section{SectionId::kPoolArena, arena.size(),
                              arena.Take()});
}

Status WriteAll(int fd, const std::string& bytes, const std::string& name) {
  size_t done = 0;
  while (done < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("write " + name + ": " +
                             std::string(std::strerror(errno)));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

uint64_t HashContent(std::string_view bytes) {
  // FNV-1a, 64-bit.
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

Result<std::string> SerializeSnapshot(const SnapshotInput& input) {
  if (input.doc == nullptr) {
    return Status::InvalidArgument("SerializeSnapshot: null document");
  }
  const Document& doc = *input.doc;
  if (doc.NumNodes() == 0) {
    return Status::InvalidArgument("SerializeSnapshot: empty document");
  }

  std::vector<Section> sections;

  // --- Document sections (always present). ------------------------------
  {
    std::string nodes(reinterpret_cast<const char*>(&doc.node(0)),
                      doc.NumNodes() * sizeof(NodeRecord));
    sections.push_back(Section{SectionId::kNodes, doc.NumNodes(),
                               std::move(nodes)});
  }
  {
    ByteSink names;
    for (uint32_t id = 0; id < doc.NumNames(); ++id) {
      PutQName(&names, doc.name_at(id));
    }
    sections.push_back(Section{SectionId::kNames, doc.NumNames(),
                               names.Take()});
  }
  AppendPoolSections(doc.pool(), &sections);
  {
    // Namespace declarations in node order (deterministic bytes; the live
    // map is unordered).
    ByteSink ns;
    uint64_t entries = 0;
    for (NodeIndex i = 0; i < doc.NumNodes(); ++i) {
      const auto* decls = doc.NamespaceDecls(i);
      if (decls == nullptr || decls->empty()) continue;
      ns.PutU32(i);
      ns.PutU32(static_cast<uint32_t>(decls->size()));
      for (const Document::NsDecl& d : *decls) {
        ns.PutU32(static_cast<uint32_t>(d.prefix.size()));
        ns.PutU32(static_cast<uint32_t>(d.uri.size()));
        ns.PutBytes(d.prefix);
        ns.PutBytes(d.uri);
      }
      ++entries;
    }
    sections.push_back(Section{SectionId::kNsDecls, entries, ns.Take()});
  }
  sections.push_back(Section{SectionId::kBaseUri, doc.base_uri().size(),
                             std::string(doc.base_uri())});

  // --- Index sections (optional). ---------------------------------------
  uint32_t flags = 0;
  uint32_t value_kinds = 0;
  if (input.indexes != nullptr) {
    flags |= kFlagHasIndexes;
    const DocumentIndexes& idx = *input.indexes;
    value_kinds = idx.value_kinds();
    const size_t n_syn = idx.NumSynopsisNodes();
    ByteSink syn;
    for (size_t s = 0; s < n_syn; ++s) {
      const DocumentIndexes::SynopsisNode& sn =
          idx.synopsis_node(static_cast<int32_t>(s));
      SynopsisRec rec{sn.name_id, sn.parent, static_cast<uint32_t>(sn.kind)};
      syn.PutRaw(&rec, sizeof(rec));
    }
    sections.push_back(Section{SectionId::kSynopsis, n_syn, syn.Take()});

    // Postings as CSR: row starts, then the concatenated lists.
    ByteSink offsets;
    ByteSink data;
    uint64_t total = 0;
    for (size_t s = 0; s < n_syn; ++s) {
      offsets.PutU64(total);
      const std::vector<NodeIndex>& row =
          idx.postings(static_cast<int32_t>(s));
      data.PutRaw(row.data(), row.size() * sizeof(NodeIndex));
      total += row.size();
    }
    offsets.PutU64(total);
    sections.push_back(Section{SectionId::kPostingsOffsets, n_syn + 1,
                               offsets.Take()});
    sections.push_back(Section{SectionId::kPostingsData, total, data.Take()});

    if (value_kinds != 0) {
      ByteSink values;
      for (size_t s = 0; s < n_syn; ++s) {
        const DocumentIndexes::ValuePostings* vp =
            idx.values(static_cast<int32_t>(s));
        uint32_t vflags = (vp->indexable ? 1u : 0u) |
                          (vp->all_numeric ? 2u : 0u);
        values.PutU32(vflags);
        values.PutU32(static_cast<uint32_t>(vp->by_string.size()));
        values.PutU32(static_cast<uint32_t>(vp->by_number.size()));
        for (const auto& [str, node] : vp->by_string) {
          values.PutU32(static_cast<uint32_t>(str.size()));
          values.PutU32(node);
          values.PutBytes(str);
        }
        for (const auto& [num, node] : vp->by_number) {
          uint64_t bits;
          static_assert(sizeof(bits) == sizeof(num));
          std::memcpy(&bits, &num, sizeof(bits));
          values.PutU64(bits);
          values.PutU32(node);
        }
      }
      sections.push_back(Section{SectionId::kValues, n_syn, values.Take()});
    }
  }

  // --- Layout: header, table, 8-byte-aligned payloads. ------------------
  const size_t table_bytes = sections.size() * sizeof(SectionEntry);
  uint64_t cursor = sizeof(SnapshotHeader) + table_bytes;
  std::vector<SectionEntry> table;
  table.reserve(sections.size());
  for (const Section& s : sections) {
    cursor = (cursor + 7) & ~uint64_t{7};
    table.push_back(SectionEntry{static_cast<uint32_t>(s.id),
                                 Crc32c(s.payload.data(), s.payload.size()),
                                 cursor, s.payload.size(), s.count});
    cursor += s.payload.size();
  }

  SnapshotHeader header{};
  std::memcpy(header.magic, kSnapshotMagic, sizeof(header.magic));
  header.version = kSnapshotVersion;
  header.endian = kEndianTag;
  header.arch_bits = 8 * sizeof(void*);
  header.node_record_size = sizeof(NodeRecord);
  header.flags = flags;
  header.value_kinds = value_kinds;
  header.section_count = static_cast<uint32_t>(sections.size());
  header.file_size = cursor;
  header.content_hash = input.content_hash;
  header.content_bytes = input.content_bytes;
  header.table_crc = Crc32c(table.data(), table_bytes);
  header.header_crc = 0;
  header.header_crc = Crc32c(&header, sizeof(header));

  std::string out;
  out.reserve(cursor);
  out.append(reinterpret_cast<const char*>(&header), sizeof(header));
  out.append(reinterpret_cast<const char*>(table.data()), table_bytes);
  for (size_t i = 0; i < sections.size(); ++i) {
    out.resize(table[i].offset, '\0');  // Alignment padding.
    out.append(sections[i].payload);
  }
  return out;
}

Status WriteSnapshotFile(const std::string& path, const SnapshotInput& input) {
  XQP_ASSIGN_OR_RETURN(std::string bytes, SerializeSnapshot(input));

  // Stage 1 of the "storage.write" site: before the temp file exists.
  if (fault::Armed()) {
    XQP_RETURN_NOT_OK(fault::MaybeInject("storage.write"));
  }

  // Unique temp name in the target directory so the final rename is
  // same-filesystem atomic; O_EXCL refuses to clobber a concurrent writer.
  std::string tmp = path + ".tmp." + std::to_string(::getpid());
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IoError("create " + tmp + ": " +
                           std::string(std::strerror(errno)));
  }
  auto fail = [&](Status st) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return st;
  };

  Status written = WriteAll(fd, bytes, tmp);
  if (!written.ok()) return fail(std::move(written));
  // Stage 2: full payload written, not yet durable — a fault here models a
  // crash before fsync; the temp file must vanish, the target survive.
  if (fault::Armed()) {
    Status injected = fault::MaybeInject("storage.write");
    if (!injected.ok()) return fail(std::move(injected));
  }
  if (::fsync(fd) != 0) {
    return fail(Status::IoError("fsync " + tmp + ": " +
                                std::string(std::strerror(errno))));
  }
  if (::close(fd) != 0) {
    fd = -1;
    ::unlink(tmp.c_str());
    return Status::IoError("close " + tmp + ": " +
                           std::string(std::strerror(errno)));
  }
  fd = -1;

  // Stage 3: durable temp, not yet published.
  if (fault::Armed()) {
    Status injected = fault::MaybeInject("storage.write");
    if (!injected.ok()) {
      ::unlink(tmp.c_str());
      return injected;
    }
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    Status st = Status::IoError("rename " + tmp + " -> " + path + ": " +
                                std::string(std::strerror(errno)));
    ::unlink(tmp.c_str());
    return st;
  }

  // Persist the directory entry so the rename survives a crash. Failure
  // here is not fatal to correctness (the worst case is the old file after
  // a crash), but surface it: callers treat snapshot writes as best-effort.
  std::string dir = ".";
  if (size_t slash = path.find_last_of('/'); slash != std::string::npos) {
    dir = slash == 0 ? "/" : path.substr(0, slash);
  }
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

}  // namespace storage
}  // namespace xqp
