// Fuzz target for the snapshot loader: arbitrary bytes fed through
// OpenSnapshotBuffer must produce either a fully validated snapshot or a
// clean kSnapshotCorrupt — never a crash, hang, out-of-bounds read, or
// sanitizer report. The seed corpus is built from real serialized
// snapshots (document only, and document + indexes), so mutants reach the
// deep validation stages — section table, node-table structural replay,
// postings/value sortedness — instead of dying at the magic check.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "index/document_indexes.h"
#include "storage/snapshot.h"
#include "tools/fuzz_common.h"
#include "xml/document.h"

namespace {

/// If the mutant validated, every pointer the loader handed out must be
/// usable: walk the document, pool, and index postings so ASan
/// proves the adopted views stay in bounds.
void TouchLoaded(const xqp::storage::LoadedSnapshot& s) {
  const xqp::Document& doc = *s.document;
  size_t sink = doc.StringValue(0).size();
  for (xqp::NodeIndex i = 0; i < doc.NumNodes(); ++i) {
    sink += doc.value(i).size();
    if (doc.node(i).name_id != xqp::kNoName) sink += doc.name(i).local.size();
  }
  if (s.indexes != nullptr) {
    for (size_t p = 0; p < s.indexes->NumSynopsisNodes(); ++p) {
      const auto n = static_cast<int32_t>(p);
      sink += s.indexes->postings(n).size();
      if (const auto* v = s.indexes->values(n)) sink += v->by_string.size();
    }
  }
  // Keep the walks observable.
  volatile size_t keep = sink;
  (void)keep;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  auto bytes = std::make_shared<const std::string>(
      reinterpret_cast<const char*>(data), size);
  auto r = xqp::storage::OpenSnapshotBuffer(bytes);
  if (r.ok()) TouchLoaded(r.value());
  return 0;
}

namespace {

std::string SerializeSeed(bool with_indexes) {
  auto doc = xqp::Document::Parse(
                 "<bib xmlns:p='u'><book year='1994'><p:t>a</p:t>"
                 "<price>65.95</price></book><book year='2000'>"
                 "<p:t>b</p:t><price>39.95</price><!--c--><?pi d?>"
                 "</book></bib>")
                 .value();
  doc->set_base_uri("seed.xml");
  xqp::storage::SnapshotInput input;
  input.doc = doc.get();
  std::shared_ptr<const xqp::DocumentIndexes> indexes;
  if (with_indexes) {
    indexes =
        xqp::DocumentIndexes::Build(doc, xqp::kIndexValueAll).value();
    input.indexes = indexes.get();
  }
  input.content_hash = 0x1234;
  input.content_bytes = 99;
  return xqp::storage::SerializeSnapshot(input).value();
}

std::vector<std::string> BuildCorpus() {
  std::vector<std::string> corpus;
  corpus.push_back(SerializeSeed(false));
  corpus.push_back(SerializeSeed(true));
  corpus.push_back(corpus.back().substr(0, 96));  // Header + partial table.
  corpus.push_back("XQPSNAP1garbage-after-the-magic");
  corpus.push_back(std::string(64, '\0'));
  return corpus;
}

const std::vector<std::string> kCorpus = BuildCorpus();

}  // namespace

XQP_FUZZ_STANDALONE_MAIN(kCorpus)
