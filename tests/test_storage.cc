// Persistent snapshot subsystem (storage/): bit-identical save/load
// roundtrips, the crash-atomic write protocol under injected faults, and a
// corruption matrix — bit flips, truncations, zeroed sections, and forged
// offsets/links over every section must come back as kSnapshotCorrupt and
// degrade to a clean re-ingest, never a crash or a wrong answer. Run under
// ASan/UBSan by tools/run_ci.sh.

#include <sys/stat.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/fault.h"
#include "engine.h"
#include "index/document_indexes.h"
#include "storage/crc32c.h"
#include "storage/snapshot.h"
#include "storage/snapshot_format.h"
#include "tests/test_util.h"
#include "xml/document.h"

namespace xqp {
namespace {

using storage::LoadedSnapshot;
using storage::SectionEntry;
using storage::SectionId;
using storage::SnapshotHeader;
using storage::SnapshotInput;

// Namespaces, attributes, mixed content, comment, PI, CDATA, a pooled
// repeated string, an all-numeric path, and a mixed-type path — every
// snapshot section ends up non-trivial.
constexpr char kXml[] =
    "<bib xmlns:p='urn:pub'>"
    "<book year='1994'><p:title>TCP/IP</p:title><price>65.95</price>"
    "<note>dup</note></book>"
    "<book year='2000'><p:title>Data on the Web</p:title>"
    "<price>39.95</price><note>dup</note></book>"
    "<book year='1999'><p:title>no price</p:title><price>n/a</price>"
    "<!--c--><?pi data?><blob><![CDATA[<raw>]]></blob></book>"
    "</bib>";

std::shared_ptr<const Document> ParseDoc(std::string_view xml = kXml) {
  auto doc = Document::Parse(xml).value();
  doc->set_base_uri("bib.xml");
  return doc;
}

struct Frozen {
  std::shared_ptr<const Document> doc;
  std::shared_ptr<const DocumentIndexes> indexes;
  SnapshotInput input;
};

Frozen FreezeAll(std::string_view xml = kXml) {
  Frozen f;
  f.doc = ParseDoc(xml);
  f.indexes = DocumentIndexes::Build(f.doc, kIndexValueAll).value();
  f.input.doc = f.doc.get();
  f.input.indexes = f.indexes.get();
  f.input.content_hash = storage::HashContent(xml);
  f.input.content_bytes = xml.size();
  return f;
}

Result<LoadedSnapshot> OpenBytes(std::string bytes) {
  return storage::OpenSnapshotBuffer(
      std::make_shared<const std::string>(std::move(bytes)));
}

// --- corruption-matrix plumbing --------------------------------------------

SnapshotHeader ReadHeader(const std::string& bytes) {
  SnapshotHeader h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  return h;
}

std::vector<SectionEntry> ReadTable(const std::string& bytes) {
  SnapshotHeader h = ReadHeader(bytes);
  std::vector<SectionEntry> table(h.section_count);
  std::memcpy(table.data(), bytes.data() + sizeof(h),
              h.section_count * sizeof(SectionEntry));
  return table;
}

/// Recomputes table_crc and header_crc after a deliberate header/table
/// edit, so the forged value reaches the validation stage it targets
/// instead of tripping the checksum.
void ResealHeader(std::string* bytes) {
  SnapshotHeader h = ReadHeader(*bytes);
  h.table_crc = storage::Crc32c(bytes->data() + sizeof(h),
                                h.section_count * sizeof(SectionEntry));
  h.header_crc = 0;
  std::memcpy(bytes->data(), &h, sizeof(h));
  h.header_crc = storage::Crc32c(bytes->data(), sizeof(h));
  std::memcpy(bytes->data(), &h, sizeof(h));
}

void WriteTableEntry(std::string* bytes, size_t i, const SectionEntry& e) {
  std::memcpy(bytes->data() + sizeof(SnapshotHeader) + i * sizeof(e), &e,
              sizeof(e));
  ResealHeader(bytes);
}

/// Recomputes section i's payload CRC (and the dependent table/header
/// CRCs) after a deliberate payload edit — forged content that must be
/// caught by structural validation, not the checksum.
void ResealSection(std::string* bytes, size_t i) {
  std::vector<SectionEntry> table = ReadTable(*bytes);
  table[i].crc = storage::Crc32c(bytes->data() + table[i].offset,
                                 table[i].size);
  WriteTableEntry(bytes, i, table[i]);
}

size_t SectionIndex(const std::vector<SectionEntry>& table, SectionId id) {
  for (size_t i = 0; i < table.size(); ++i) {
    if (table[i].id == static_cast<uint32_t>(id)) return i;
  }
  ADD_FAILURE() << "section " << static_cast<uint32_t>(id) << " missing";
  return 0;
}

/// Every outcome the matrix accepts: a clean typed error. Anything else —
/// crash, hang, wrong answer — fails the suite (or ASan) instead.
void ExpectCorrupt(std::string bytes, const std::string& what) {
  Result<LoadedSnapshot> r = OpenBytes(std::move(bytes));
  ASSERT_FALSE(r.ok()) << what << ": corruption went undetected";
  EXPECT_EQ(r.status().code(), StatusCode::kSnapshotCorrupt)
      << what << ": " << r.status().ToString();
}

// --- roundtrip fidelity -----------------------------------------------------

TEST(SnapshotRoundtrip, DocumentIsBitIdentical) {
  Frozen f = FreezeAll();
  std::string bytes = storage::SerializeSnapshot(f.input).value();
  XQP_ASSERT_OK_AND_ASSIGN(LoadedSnapshot loaded, OpenBytes(bytes));
  const Document& a = *f.doc;
  const Document& b = *loaded.document;

  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  for (NodeIndex i = 0; i < a.NumNodes(); ++i) {
    // Whole-record equality: every link, the region labels, and — because
    // pool ids are written positionally — the pool/name ids themselves.
    EXPECT_EQ(0, std::memcmp(&a.node(i), &b.node(i), sizeof(NodeRecord)))
        << "node " << i;
    EXPECT_EQ(a.value(i), b.value(i)) << "node " << i;
  }
  ASSERT_EQ(a.NumNames(), b.NumNames());
  for (uint32_t n = 0; n < a.NumNames(); ++n) {
    EXPECT_EQ(a.name_at(n).uri, b.name_at(n).uri);
    EXPECT_EQ(a.name_at(n).prefix, b.name_at(n).prefix);
    EXPECT_EQ(a.name_at(n).local, b.name_at(n).local);
  }
  EXPECT_EQ(a.base_uri(), b.base_uri());
  for (NodeIndex i = 0; i < a.NumNodes(); ++i) {
    const auto* na = a.NamespaceDecls(i);
    const auto* nb = b.NamespaceDecls(i);
    ASSERT_EQ(na == nullptr, nb == nullptr) << "node " << i;
    if (na == nullptr) continue;
    ASSERT_EQ(na->size(), nb->size());
    for (size_t d = 0; d < na->size(); ++d) {
      EXPECT_EQ((*na)[d].prefix, (*nb)[d].prefix);
      EXPECT_EQ((*na)[d].uri, (*nb)[d].uri);
    }
  }
  EXPECT_EQ(a.StringValue(0), b.StringValue(0));
  EXPECT_EQ(loaded.content_hash, f.input.content_hash);
  EXPECT_EQ(loaded.content_bytes, f.input.content_bytes);
}

TEST(SnapshotRoundtrip, IndexesAreBitIdentical) {
  Frozen f = FreezeAll();
  std::string bytes = storage::SerializeSnapshot(f.input).value();
  XQP_ASSERT_OK_AND_ASSIGN(LoadedSnapshot loaded, OpenBytes(bytes));
  ASSERT_NE(loaded.indexes, nullptr);
  EXPECT_EQ(loaded.value_kinds, kIndexValueAll);
  const DocumentIndexes& a = *f.indexes;
  const DocumentIndexes& b = *loaded.indexes;
  ASSERT_EQ(a.NumSynopsisNodes(), b.NumSynopsisNodes());
  for (size_t s = 0; s < a.NumSynopsisNodes(); ++s) {
    const auto& sa = a.synopsis_node(static_cast<int32_t>(s));
    const auto& sb = b.synopsis_node(static_cast<int32_t>(s));
    EXPECT_EQ(sa.name_id, sb.name_id) << "synopsis " << s;
    EXPECT_EQ(sa.kind, sb.kind) << "synopsis " << s;
    EXPECT_EQ(sa.parent, sb.parent) << "synopsis " << s;
    EXPECT_EQ(sa.children, sb.children) << "synopsis " << s;
    EXPECT_EQ(a.postings(static_cast<int32_t>(s)),
              b.postings(static_cast<int32_t>(s)))
        << "postings " << s;
    const auto* va = a.values(static_cast<int32_t>(s));
    const auto* vb = b.values(static_cast<int32_t>(s));
    ASSERT_EQ(va == nullptr, vb == nullptr);
    if (va == nullptr) continue;
    EXPECT_EQ(va->indexable, vb->indexable) << "values " << s;
    EXPECT_EQ(va->all_numeric, vb->all_numeric) << "values " << s;
    EXPECT_EQ(va->by_string, vb->by_string) << "values " << s;
    ASSERT_EQ(va->by_number.size(), vb->by_number.size());
    for (size_t v = 0; v < va->by_number.size(); ++v) {
      // Bit equality, not ==: NaN payloads must survive too.
      uint64_t da, db;
      std::memcpy(&da, &va->by_number[v].first, 8);
      std::memcpy(&db, &vb->by_number[v].first, 8);
      EXPECT_EQ(da, db) << "by_number " << s << "/" << v;
      EXPECT_EQ(va->by_number[v].second, vb->by_number[v].second);
    }
  }
  // The adopted index must serve the loaded document, not the original.
  EXPECT_EQ(b.doc_ptr().get(), loaded.document.get());
}

TEST(SnapshotRoundtrip, ReserializingALoadedSnapshotIsByteIdentical) {
  Frozen f = FreezeAll();
  std::string bytes = storage::SerializeSnapshot(f.input).value();
  XQP_ASSERT_OK_AND_ASSIGN(LoadedSnapshot loaded, OpenBytes(bytes));
  SnapshotInput again;
  again.doc = loaded.document.get();
  again.indexes = loaded.indexes.get();
  again.content_hash = loaded.content_hash;
  again.content_bytes = loaded.content_bytes;
  EXPECT_EQ(storage::SerializeSnapshot(again).value(), bytes);
}

TEST(SnapshotRoundtrip, MinimalDocumentWithoutIndexes) {
  auto doc = ParseDoc("<only/>");
  SnapshotInput input;
  input.doc = doc.get();
  std::string bytes = storage::SerializeSnapshot(input).value();
  XQP_ASSERT_OK_AND_ASSIGN(LoadedSnapshot loaded, OpenBytes(bytes));
  EXPECT_EQ(loaded.indexes, nullptr);
  EXPECT_EQ(loaded.document->NumNodes(), doc->NumNodes());
  EXPECT_EQ(loaded.document->StringValue(0), doc->StringValue(0));
}

TEST(SnapshotRoundtrip, FileRoundtripServesQueries) {
  std::string dir = ::testing::TempDir() + "/xqp_snap_file_rt";
  ::mkdir(dir.c_str(), 0755);
  std::string path = dir + "/bib.xqps";
  Frozen f = FreezeAll();
  XQP_ASSERT_OK(storage::WriteSnapshotFile(path, f.input));
  XQP_ASSERT_OK_AND_ASSIGN(LoadedSnapshot loaded,
                           storage::OpenSnapshot(path));
  EXPECT_EQ(loaded.mapped_bytes, std::filesystem::file_size(path));
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.RegisterDocument("bib.xml", loaded.document));
  XQP_ASSERT_OK_AND_ASSIGN(
      Sequence result,
      engine.Execute("count(doc('bib.xml')//book[number(price) < 50])"));
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].AsAtomic().Lexical(), "1");
}

// --- corruption matrix ------------------------------------------------------

TEST(SnapshotCorruption, BitFlipInEverySectionDetected) {
  Frozen f = FreezeAll();
  const std::string good = storage::SerializeSnapshot(f.input).value();
  std::vector<SectionEntry> table = ReadTable(good);
  for (const SectionEntry& e : table) {
    ASSERT_GT(e.size, 0u) << "section " << e.id << " unexpectedly empty";
    for (uint64_t at : {uint64_t{0}, e.size / 2, e.size - 1}) {
      std::string bad = good;
      bad[e.offset + at] ^= 0x40;
      ExpectCorrupt(std::move(bad), "flip in section " +
                                        std::to_string(e.id) + " at +" +
                                        std::to_string(at));
    }
  }
}

TEST(SnapshotCorruption, BitFlipInHeaderAndTableDetected) {
  Frozen f = FreezeAll();
  const std::string good = storage::SerializeSnapshot(f.input).value();
  const size_t covered =
      sizeof(SnapshotHeader) + ReadTable(good).size() * sizeof(SectionEntry);
  for (size_t at = 0; at < covered; ++at) {
    std::string bad = good;
    bad[at] ^= 0x01;
    ExpectCorrupt(std::move(bad), "flip at header/table byte " +
                                      std::to_string(at));
  }
}

TEST(SnapshotCorruption, ZeroedSectionsDetected) {
  Frozen f = FreezeAll();
  const std::string good = storage::SerializeSnapshot(f.input).value();
  for (const SectionEntry& e : ReadTable(good)) {
    std::string bad = good;
    bool was_zero = true;
    for (uint64_t i = 0; i < e.size; ++i) {
      was_zero = was_zero && bad[e.offset + i] == 0;
      bad[e.offset + i] = 0;
    }
    ASSERT_FALSE(was_zero) << "section " << e.id << " carries no entropy";
    ExpectCorrupt(std::move(bad), "zeroed section " + std::to_string(e.id));
  }
}

TEST(SnapshotCorruption, TruncationsDetected) {
  Frozen f = FreezeAll();
  const std::string good = storage::SerializeSnapshot(f.input).value();
  const size_t table_end =
      sizeof(SnapshotHeader) + ReadTable(good).size() * sizeof(SectionEntry);
  for (size_t len : {size_t{0}, size_t{1}, size_t{7},
                     sizeof(SnapshotHeader) - 1, sizeof(SnapshotHeader),
                     table_end - 1, table_end, good.size() / 2,
                     good.size() - 1}) {
    ExpectCorrupt(good.substr(0, len),
                  "truncated to " + std::to_string(len));
  }
}

TEST(SnapshotCorruption, WrongMagicVersionEndianLayoutDetected) {
  Frozen f = FreezeAll();
  const std::string good = storage::SerializeSnapshot(f.input).value();
  auto mutate = [&](auto fn, const char* what) {
    std::string bad = good;
    SnapshotHeader h = ReadHeader(bad);
    fn(&h);
    std::memcpy(bad.data(), &h, sizeof(h));
    ResealHeader(&bad);  // Valid CRCs: the field check itself must fire.
    ExpectCorrupt(std::move(bad), what);
  };
  mutate([](SnapshotHeader* h) { h->magic[0] = 'Y'; }, "magic");
  mutate([](SnapshotHeader* h) { h->version = 99; }, "version");
  mutate([](SnapshotHeader* h) { h->endian = 0x04030201; }, "endianness");
  mutate([](SnapshotHeader* h) { h->arch_bits ^= 96; }, "arch width");
  mutate([](SnapshotHeader* h) { h->node_record_size += 4; },
         "node record layout");
  mutate([](SnapshotHeader* h) { h->reserved = 1; }, "reserved field");
  mutate([](SnapshotHeader* h) { h->file_size += 8; }, "file size");
  mutate([](SnapshotHeader* h) { h->section_count += 1; }, "section count");
  mutate([](SnapshotHeader* h) { h->flags = 0xff; }, "unknown flags");
}

/// `good` restamped as a version-1 file, with valid checksums.
std::string AsVersionOne(std::string good) {
  SnapshotHeader h = ReadHeader(good);
  h.version = 1;
  std::memcpy(good.data(), &h, sizeof(h));
  ResealHeader(&good);
  return good;
}

TEST(SnapshotCorruption, VersionOneFileRejected) {
  Frozen f = FreezeAll();
  Result<LoadedSnapshot> r =
      OpenBytes(AsVersionOne(storage::SerializeSnapshot(f.input).value()));
  ASSERT_FALSE(r.ok()) << "a version-1 snapshot was accepted";
  EXPECT_EQ(r.status().code(), StatusCode::kSnapshotCorrupt);
  EXPECT_NE(r.status().message().find("unsupported snapshot version 1"),
            std::string::npos)
      << r.status().ToString();
}

TEST(SnapshotCorruption, ForgedSectionTableRejected) {
  Frozen f = FreezeAll();
  const std::string good = storage::SerializeSnapshot(f.input).value();
  const std::vector<SectionEntry> table = ReadTable(good);
  auto forge = [&](size_t i, auto fn, const char* what) {
    std::string bad = good;
    SectionEntry e = table[i];
    fn(&e);
    WriteTableEntry(&bad, i, e);  // Reseals CRCs: bounds checks must fire.
    ExpectCorrupt(std::move(bad), what);
  };
  forge(0, [&](SectionEntry* e) { e->offset = good.size(); },
        "offset past the end");
  forge(0, [&](SectionEntry* e) { e->offset = UINT64_MAX - 4; e->size = 64; },
        "offset+size overflow");
  forge(0, [&](SectionEntry* e) { e->size = good.size(); },
        "size past the end");
  forge(0, [&](SectionEntry* e) { e->offset += 1; }, "misaligned offset");
  forge(1, [&](SectionEntry* e) { e->id = table[0].id; },
        "duplicate section id");
  forge(1, [&](SectionEntry* e) { e->id = 999; }, "unknown section id");
  forge(SectionIndex(table, SectionId::kNodes),
        [&](SectionEntry* e) { e->count += 1; },
        "node count disagreeing with section size");
}

TEST(SnapshotCorruption, ForgedNodeLinksRejected) {
  Frozen f = FreezeAll();
  const std::string good = storage::SerializeSnapshot(f.input).value();
  const std::vector<SectionEntry> table = ReadTable(good);
  const size_t nodes_i = SectionIndex(table, SectionId::kNodes);
  const SectionEntry nodes = table[nodes_i];
  ASSERT_GE(nodes.count, 3u);
  auto forge = [&](size_t rec, auto fn, const std::string& what) {
    std::string bad = good;
    NodeRecord n;
    std::memcpy(&n, bad.data() + nodes.offset + rec * sizeof(NodeRecord),
                sizeof(n));
    fn(&n);
    std::memcpy(bad.data() + nodes.offset + rec * sizeof(NodeRecord), &n,
                sizeof(n));
    ResealSection(&bad, nodes_i);  // CRC-clean: structural replay must fire.
    ExpectCorrupt(std::move(bad), what);
  };
  const auto count = static_cast<NodeIndex>(nodes.count);
  forge(1, [&](NodeRecord* n) { n->parent = count + 7; },
        "parent out of range");
  forge(1, [&](NodeRecord* n) { n->end = count + 7; }, "end out of range");
  forge(1, [&](NodeRecord* n) { n->first_child = 1; },
        "self-referential child link");
  forge(2, [&](NodeRecord* n) { n->level ^= 5; }, "wrong level");
  forge(1, [&](NodeRecord* n) { n->next_sibling = 2; },
        "sibling link into own subtree");
  forge(2, [&](NodeRecord* n) { n->kind = static_cast<NodeKind>(200); },
        "kind out of range");
  forge(2, [&](NodeRecord* n) { n->name_id = 0xffff0000; },
        "name id out of range");
  forge(2, [&](NodeRecord* n) { n->value_id = 0x7fff0000; },
        "value id out of range");
}

TEST(SnapshotCorruption, ForgedPostingsRejected) {
  Frozen f = FreezeAll();
  const std::string good = storage::SerializeSnapshot(f.input).value();
  const std::vector<SectionEntry> table = ReadTable(good);
  const size_t data_i = SectionIndex(table, SectionId::kPostingsData);
  const SectionEntry data = table[data_i];
  ASSERT_GE(data.count, 2u);
  {
    // Non-increasing postings within a synopsis row.
    std::string bad = good;
    uint32_t huge = 0xfffffff0;
    std::memcpy(bad.data() + data.offset, &huge, sizeof(huge));
    ResealSection(&bad, data_i);
    ExpectCorrupt(std::move(bad), "posting out of node range");
  }
  {
    const size_t off_i = SectionIndex(table, SectionId::kPostingsOffsets);
    std::string bad = good;
    uint64_t evil = data.count + 100;  // CSR row start past the payload.
    std::memcpy(bad.data() + table[off_i].offset + 8, &evil, sizeof(evil));
    ResealSection(&bad, off_i);
    ExpectCorrupt(std::move(bad), "CSR offset past postings payload");
  }
}

TEST(SnapshotCorruption, EveryStrideOfBitFlipsIsCrashFree) {
  Frozen f = FreezeAll();
  const std::string good = storage::SerializeSnapshot(f.input).value();
  const std::string expect = f.doc->StringValue(0);
  // A flip in inter-section alignment padding is legitimately undetectable
  // (padding carries no data); everything else must be caught. Either way
  // the invariant is: valid load with identical content, or a typed error.
  for (size_t at = 0; at < good.size(); at += 131) {
    for (uint8_t bit : {uint8_t{1}, uint8_t{0x80}}) {
      std::string bad = good;
      bad[at] ^= bit;
      Result<LoadedSnapshot> r = OpenBytes(std::move(bad));
      if (r.ok()) {
        EXPECT_EQ(r.value().document->StringValue(0), expect)
            << "silent corruption at byte " << at;
      } else {
        EXPECT_EQ(r.status().code(), StatusCode::kSnapshotCorrupt)
            << "byte " << at << ": " << r.status().ToString();
      }
    }
  }
}

TEST(SnapshotCorruption, GarbageBuffersAreCleanErrors) {
  ExpectCorrupt(std::string(), "empty buffer");
  ExpectCorrupt(std::string(3, 'x'), "tiny garbage");
  ExpectCorrupt(std::string(4096, '\0'), "zero page");
  ExpectCorrupt(std::string(4096, '\xff'), "ff page");
  std::string fake_magic = "XQPSNAP1";
  fake_magic.resize(256, '\x5a');
  ExpectCorrupt(std::move(fake_magic), "magic-only garbage");
}

// --- crash-atomic write protocol --------------------------------------------

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

size_t DirEntryCount(const std::string& dir) {
  size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(SnapshotWrite, FaultAtEveryStageLeavesNoPartialFile) {
  Frozen f = FreezeAll();
  for (uint64_t stage : {1, 2, 3}) {
    std::string dir = FreshDir("xqp_snap_write_fault");
    std::string path = dir + "/doc.xqps";
    fault::ScopedFault fault("storage.write", stage, StatusCode::kIoError);
    Status st = storage::WriteSnapshotFile(path, f.input);
    ASSERT_FALSE(st.ok()) << "stage " << stage;
    EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
    // No target, and no orphaned temp either — the failure path unlinks.
    EXPECT_EQ(DirEntryCount(dir), 0u) << "stage " << stage;
  }
}

TEST(SnapshotWrite, FaultedOverwriteKeepsThePreviousSnapshot) {
  std::string dir = FreshDir("xqp_snap_overwrite_fault");
  std::string path = dir + "/doc.xqps";
  Frozen v1 = FreezeAll();
  XQP_ASSERT_OK(storage::WriteSnapshotFile(path, v1.input));
  Frozen v2 = FreezeAll("<other><content/></other>");
  for (uint64_t stage : {1, 2, 3}) {
    fault::ScopedFault fault("storage.write", stage, StatusCode::kIoError);
    ASSERT_FALSE(storage::WriteSnapshotFile(path, v2.input).ok());
  }
  XQP_ASSERT_OK_AND_ASSIGN(LoadedSnapshot still,
                           storage::OpenSnapshot(path));
  EXPECT_EQ(still.content_hash, v1.input.content_hash);
  EXPECT_EQ(still.document->NumNodes(), v1.doc->NumNodes());
  EXPECT_EQ(DirEntryCount(dir), 1u);  // Just the intact snapshot.
}

TEST(SnapshotWrite, MapAndCrcFaultSitesFire) {
  std::string dir = FreshDir("xqp_snap_map_fault");
  std::string path = dir + "/doc.xqps";
  Frozen f = FreezeAll();
  XQP_ASSERT_OK(storage::WriteSnapshotFile(path, f.input));
  {
    fault::ScopedFault fault("storage.map", 1, StatusCode::kIoError);
    Result<LoadedSnapshot> r = storage::OpenSnapshot(path);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  }
  {
    // An injected checksum failure surfaces as corruption, like real rot.
    fault::ScopedFault fault("storage.crc", 1);
    Result<LoadedSnapshot> r = storage::OpenSnapshot(path);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kSnapshotCorrupt);
  }
  XQP_ASSERT_OK(storage::OpenSnapshot(path).status());  // Disarmed: fine.
}

// --- engine integration -----------------------------------------------------

TEST(EngineSnapshot, ParseAndRegisterPersistsThenReloads) {
  std::string dir = FreshDir("xqp_snap_engine_rt");
  EngineOptions opts;
  opts.snapshot_dir = dir;
  std::string expect;
  {
    XQueryEngine writer(opts);
    XQP_ASSERT_OK(writer.ParseAndRegister("bib.xml", kXml).status());
    EXPECT_TRUE(std::filesystem::exists(writer.SnapshotPathFor("bib.xml")));
    XQP_ASSERT_OK_AND_ASSIGN(
        Sequence r, writer.Execute("count(doc('bib.xml')//book)"));
    expect = r[0].AsAtomic().Lexical();
  }
  XQueryEngine reader(opts);
  XQP_ASSERT_OK(reader.ParseAndRegister("bib.xml", kXml).status());
  // The reload adopted the snapshot's indexes: they are cached before any
  // query ran.
  EXPECT_NE(reader.PeekDocumentIndexes("bib.xml"), nullptr);
  XQP_ASSERT_OK_AND_ASSIGN(Sequence r,
                           reader.Execute("count(doc('bib.xml')//book)"));
  EXPECT_EQ(r[0].AsAtomic().Lexical(), expect);
}

TEST(EngineSnapshot, StaleSnapshotIsReplacedNotServed) {
  std::string dir = FreshDir("xqp_snap_engine_stale");
  EngineOptions opts;
  opts.snapshot_dir = dir;
  {
    XQueryEngine writer(opts);
    XQP_ASSERT_OK(
        writer.ParseAndRegister("d.xml", "<r><a/><a/></r>").status());
  }
  XQueryEngine reader(opts);
  // Same URI, different content: the persisted snapshot must not win.
  XQP_ASSERT_OK(
      reader.ParseAndRegister("d.xml", "<r><a/><a/><a/></r>").status());
  XQP_ASSERT_OK_AND_ASSIGN(Sequence r,
                           reader.Execute("count(doc('d.xml')//a)"));
  EXPECT_EQ(r[0].AsAtomic().Lexical(), "3");
  // And the snapshot on disk now reflects the new content.
  XQP_ASSERT_OK_AND_ASSIGN(
      LoadedSnapshot snap,
      storage::OpenSnapshot(reader.SnapshotPathFor("d.xml")));
  EXPECT_EQ(snap.content_hash,
            storage::HashContent("<r><a/><a/><a/></r>"));
}

TEST(EngineSnapshot, CorruptSnapshotDegradesToReingest) {
  std::string dir = FreshDir("xqp_snap_engine_corrupt");
  EngineOptions opts;
  opts.snapshot_dir = dir;
  opts.collect_stats = true;
  {
    XQueryEngine writer(opts);
    XQP_ASSERT_OK(writer.ParseAndRegister("bib.xml", kXml).status());
  }
  XQueryEngine reader(opts);
  std::string path = reader.SnapshotPathFor("bib.xml");
  // Rot a byte in the middle of the file.
  {
    std::string bytes;
    bytes.resize(std::filesystem::file_size(path));
    FILE* in = std::fopen(path.c_str(), "rb");
    ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), in), bytes.size());
    std::fclose(in);
    bytes[bytes.size() / 2] ^= 0x10;
    FILE* out = std::fopen(path.c_str(), "wb");
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), out), bytes.size());
    std::fclose(out);
  }
  metrics::MetricsSnapshot before = metrics::MetricsRegistry::Global().Snapshot();
  XQP_ASSERT_OK(reader.ParseAndRegister("bib.xml", kXml).status());
  XQP_ASSERT_OK_AND_ASSIGN(Sequence r,
                           reader.Execute("count(doc('bib.xml')//book)"));
  EXPECT_EQ(r[0].AsAtomic().Lexical(), "3");
  metrics::MetricsSnapshot delta =
      metrics::MetricsRegistry::Global().Snapshot().Delta(before);
  EXPECT_EQ(delta.counters["storage.corrupt"], 1u);
  EXPECT_EQ(delta.counters["storage.saves"], 1u);  // Repaired on the way out.
  // The rewritten snapshot is valid again.
  XQP_ASSERT_OK(storage::OpenSnapshot(path).status());
}

TEST(EngineSnapshot, VersionOneSnapshotIsReparsedAndRewritten) {
  std::string dir = FreshDir("xqp_snap_engine_v1");
  EngineOptions opts;
  opts.snapshot_dir = dir;
  opts.collect_stats = true;
  XQueryEngine engine(opts);
  const std::string path = engine.SnapshotPathFor("bib.xml");
  {
    // A version-1 file of exactly kXml: only its version makes it unusable.
    Frozen f = FreezeAll();
    const std::string v1 =
        AsVersionOne(storage::SerializeSnapshot(f.input).value());
    FILE* out = std::fopen(path.c_str(), "wb");
    ASSERT_EQ(std::fwrite(v1.data(), 1, v1.size(), out), v1.size());
    std::fclose(out);
  }
  metrics::MetricsSnapshot before = metrics::MetricsRegistry::Global().Snapshot();
  XQP_ASSERT_OK(engine.ParseAndRegister("bib.xml", kXml).status());
  metrics::MetricsSnapshot delta =
      metrics::MetricsRegistry::Global().Snapshot().Delta(before);
  EXPECT_EQ(delta.counters["storage.corrupt"], 1u);
  EXPECT_EQ(delta.counters["storage.loads"], 0u);
  EXPECT_EQ(delta.counters["storage.saves"], 1u);
  XQP_ASSERT_OK_AND_ASSIGN(Sequence r,
                           engine.Execute("count(doc('bib.xml')//book)"));
  EXPECT_EQ(r[0].AsAtomic().Lexical(), "3");
  // The write-back replaced the file with one the loader accepts.
  XQP_ASSERT_OK(storage::OpenSnapshot(path).status());
  std::string header(sizeof(SnapshotHeader), '\0');
  FILE* in = std::fopen(path.c_str(), "rb");
  ASSERT_EQ(std::fread(header.data(), 1, header.size(), in), header.size());
  std::fclose(in);
  EXPECT_EQ(ReadHeader(header).version, 2u);
}

TEST(EngineSnapshot, LoadDocumentSnapshotFallsBackOnMissingFile) {
  XQueryEngine engine;
  std::string missing = ::testing::TempDir() + "/xqp_no_such.xqps";
  // Without a fallback the error propagates...
  EXPECT_FALSE(engine.LoadDocumentSnapshot("d.xml", missing).ok());
  // ...with one, ingestion succeeds and the document serves queries.
  XQP_ASSERT_OK(
      engine.LoadDocumentSnapshot("d.xml", missing, "<r><a/></r>").status());
  XQP_ASSERT_OK_AND_ASSIGN(Sequence r,
                           engine.Execute("count(doc('d.xml')//a)"));
  EXPECT_EQ(r[0].AsAtomic().Lexical(), "1");
}

TEST(EngineSnapshot, SaveSnapshotThenLoadDocumentSnapshot) {
  std::string dir = FreshDir("xqp_snap_save_load");
  std::string path = dir + "/explicit.xqps";
  XQueryEngine a;
  XQP_ASSERT_OK(a.ParseAndRegister("bib.xml", kXml).status());
  XQP_ASSERT_OK(a.SaveSnapshot("bib.xml", path));
  XQueryEngine b;
  XQP_ASSERT_OK_AND_ASSIGN(std::shared_ptr<const Document> doc,
                           b.LoadDocumentSnapshot("bib.xml", path));
  EXPECT_EQ(doc->base_uri(), "bib.xml");
  XQP_ASSERT_OK_AND_ASSIGN(Sequence r,
                           b.Execute("count(doc('bib.xml')//book)"));
  EXPECT_EQ(r[0].AsAtomic().Lexical(), "3");
}

TEST(EngineSnapshot, SnapshotPathsAreDistinctAndSafe) {
  EngineOptions opts;
  opts.snapshot_dir = "/tmp/snaps";
  XQueryEngine engine(opts);
  std::string a = engine.SnapshotPathFor("a/b.xml");
  std::string b = engine.SnapshotPathFor("a_b.xml");
  EXPECT_NE(a, b);  // Sanitization must not merge distinct URIs.
  EXPECT_EQ(a.find('/', strlen("/tmp/snaps/")), std::string::npos)
      << a << " escapes the snapshot directory";
  EXPECT_EQ(a.substr(0, 11), "/tmp/snaps/");
  EXPECT_EQ(a.substr(a.size() - 5), ".xqps");
}

// --- XQP_FAULT spec validation (the satellite bugfix) -----------------------

TEST(FaultSpec, ValidSpecsArmExactly) {
  XQP_ASSERT_OK(fault::ArmFromSpec("parse.next:2:io"));
  EXPECT_TRUE(fault::Armed());
  EXPECT_TRUE(fault::MaybeInject("parse.next").ok());  // Hit 1 of 2.
  Status st = fault::MaybeInject("parse.next");        // Hit 2 fires.
  EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
  EXPECT_FALSE(fault::Armed());
  fault::Disarm();

  XQP_ASSERT_OK(fault::ArmFromSpec("storage.write:1"));
  EXPECT_EQ(fault::MaybeInject("storage.write").code(),
            StatusCode::kInternal);
  fault::Disarm();
  XQP_ASSERT_OK(fault::ArmFromSpec("storage.crc:1:exhausted"));
  fault::Disarm();
  XQP_ASSERT_OK(fault::ArmFromSpec("vm.compile:10:cancelled"));
  fault::Disarm();
}

TEST(FaultSpec, MalformedSpecsRejectedWithoutArming) {
  const char* bad[] = {
      "",                      // Empty.
      "alloc",                 // No nth.
      ":3",                    // No site.
      "alloc:",                // Empty nth.
      "alloc:x",               // Non-numeric nth.
      "alloc:3x",              // Trailing garbage in nth.
      "alloc:0",               // Zero nth.
      "alloc:1:bogus",         // Unknown code.
      "no.such.site:1",        // Unknown site.
      "storage:1",             // Prefix of a site, not a site.
  };
  for (const char* spec : bad) {
    Status st = fault::ArmFromSpec(spec);
    EXPECT_FALSE(st.ok()) << "accepted: \"" << spec << "\"";
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.ToString().find("bad fault spec"), std::string::npos)
        << st.ToString();
    EXPECT_FALSE(fault::Armed()) << spec;
  }
  // The unknown-site message teaches the valid vocabulary.
  Status st = fault::ArmFromSpec("no.such.site:1");
  EXPECT_NE(st.ToString().find("storage.write"), std::string::npos)
      << st.ToString();
}

using FaultSpecDeathTest = ::testing::Test;

TEST(FaultSpecDeathTest, MalformedEnvIsAStartupError) {
  // A typo'd XQP_FAULT must kill the process (exit 2) with the reason —
  // the regression this guards: it used to be silently ignored, running
  // the whole "fault" test unfaulted.
  EXPECT_EXIT(
      {
        setenv("XQP_FAULT", "no.such.site:1", 1);
        fault::ArmFromEnv();
      },
      ::testing::ExitedWithCode(2), "unknown site");
  EXPECT_EXIT(
      {
        setenv("XQP_FAULT", "alloc:zero", 1);
        fault::ArmFromEnv();
      },
      ::testing::ExitedWithCode(2), "not a number");
}

using EngineEnvDeathTest = ::testing::Test;

TEST(EngineEnvDeathTest, UnrecognizedKnobValueIsAStartupError) {
  // The engine's XQP_* knobs follow the XQP_FAULT contract: a value the
  // knob does not recognize exits 2 naming the knob and the value. Both
  // of these used to be ignored (a lazy run, no deadline).
  EXPECT_EXIT(
      {
        setenv("XQP_BACKEND", "VM", 1);
        XQueryEngine engine;
      },
      ::testing::ExitedWithCode(2), "XQP_BACKEND: unrecognized value \"VM\"");
  EXPECT_EXIT(
      {
        setenv("XQP_DEADLINE_MS", "5s", 1);
        XQueryEngine engine;
      },
      ::testing::ExitedWithCode(2),
      "XQP_DEADLINE_MS: unrecognized value \"5s\"");
  // Past the cap, now() + timeout would overflow the governor's clock.
  EXPECT_EXIT(
      {
        setenv("XQP_DEADLINE_MS", "9223372036854775807", 1);
        XQueryEngine engine;
      },
      ::testing::ExitedWithCode(2), "XQP_DEADLINE_MS: unrecognized value");
  // XQP_THREADS sizes the worker pool, but the constructor checks it with
  // the other knobs, so a run that never reaches the pool rejects it too.
  EXPECT_EXIT(
      {
        setenv("XQP_THREADS", "4x", 1);
        XQueryEngine engine;
      },
      ::testing::ExitedWithCode(2),
      "XQP_THREADS: unrecognized value \"4x\" \\(expected an integer from 1 "
      "to 256\\)");
}

TEST(EngineEnv, EmptyKnobMeansUnsetAndGoodValuesApply) {
  setenv("XQP_BACKEND", "", 1);
  setenv("XQP_DEADLINE_MS", "250", 1);
  setenv("XQP_MEM_BUDGET", "64M", 1);
  XQueryEngine engine;
  unsetenv("XQP_BACKEND");
  unsetenv("XQP_DEADLINE_MS");
  unsetenv("XQP_MEM_BUDGET");
  EXPECT_EQ(engine.options().backend, ExecBackend::kLazy);
  EXPECT_EQ(engine.options().default_limits.timeout.count(), 250);
  EXPECT_EQ(engine.options().default_limits.memory_budget_bytes,
            64ull << 20);
}

}  // namespace
}  // namespace xqp
