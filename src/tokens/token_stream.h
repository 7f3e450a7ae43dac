#ifndef XQP_TOKENS_TOKEN_STREAM_H_
#define XQP_TOKENS_TOKEN_STREAM_H_

#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "tokens/token.h"
#include "xml/document.h"
#include "xml/qname.h"

namespace xqp {

/// Options for building token streams.
struct TokenStreamOptions {
  /// Stamp node identities on tokens. The paper generates node ids "only if
  /// really needed"; streams destined for serialization can omit them.
  bool with_node_ids = true;
  /// Dictionary-compress names and strings (paper's pooling optimization).
  bool pool_strings = true;
};

/// The array storage mode: an XML instance as a flat vector of tokens plus
/// string/name pools. "Linear representation of XML data: pre-order
/// traversal of the XML tree"; low overhead, streaming-friendly, and — via
/// skip links on begin-element tokens — cheap to skip through.
class TokenStream {
 public:
  TokenStream() = default;
  explicit TokenStream(const TokenStreamOptions& options);
  TokenStream(TokenStream&&) = default;
  TokenStream& operator=(TokenStream&&) = default;

  /// Renders `doc` into a token stream (pre-order; attributes between the
  /// begin-element token and child content, as in the paper's examples).
  static TokenStream FromDocument(const Document& doc,
                                  const TokenStreamOptions& options = {});

  /// Parses XML text straight into a token stream without building a node
  /// table (the parse -> tokens path of the DM life cycle).
  static Result<TokenStream> FromXml(std::string_view xml,
                                     const TokenStreamOptions& options = {});

  size_t size() const { return tokens_.size(); }
  const Token& token(size_t i) const { return tokens_[i]; }

  const QName& name(const Token& t) const { return names_[t.name_id]; }
  /// Name-table access by id (snapshot serialization; diagnostics).
  size_t NumNames() const { return names_.size(); }
  const QName& name_at(uint32_t name_id) const { return names_[name_id]; }
  const StringPool& pool() const { return pool_; }
  std::string_view value(const Token& t) const {
    return t.value_id == kNoValue ? std::string_view() : pool_.Get(t.value_id);
  }
  std::string_view aux(const Token& t) const {
    return t.aux_id == kNoValue ? std::string_view() : pool_.Get(t.aux_id);
  }

  /// Approximate heap footprint (tokens + pools); experiment E3.
  size_t MemoryUsage() const;

  /// Sizes the token array and pool for `input_bytes` of serialized XML
  /// (ingest fast path; purely an optimization).
  void ReserveForInput(size_t input_bytes);

  // --- Appending interface (used by builders/sinks) ---

  void AppendStartDocument();
  void AppendEndDocument();
  void AppendStartElement(const QName& name, NodeIndex node_id = kNullNode);
  /// Interns `name` into the stream's name table (the id AppendStartElement
  /// / AppendAttribute would assign); lets event sources memoize names and
  /// use the id overloads (see XmlEvent::name_token).
  uint32_t InternNameId(const QName& name) { return InternName(name); }
  void AppendStartElement(uint32_t name_id, NodeIndex node_id = kNullNode);
  void AppendAttribute(uint32_t name_id, std::string_view value,
                       NodeIndex node_id = kNullNode);
  void AppendEndElement();
  void AppendAttribute(const QName& name, std::string_view value,
                       NodeIndex node_id = kNullNode);
  void AppendNamespaceDecl(std::string_view prefix, std::string_view uri);
  void AppendText(std::string_view text, NodeIndex node_id = kNullNode);
  void AppendComment(std::string_view text, NodeIndex node_id = kNullNode);
  void AppendProcessingInstruction(std::string_view target,
                                   std::string_view data,
                                   NodeIndex node_id = kNullNode);

  /// Fills in skip_to links; called automatically by the factories. Appended
  /// streams must call it once complete for Skip() to be O(1).
  void SealSkipLinks();

 private:
  uint32_t InternName(const QName& name);

  std::vector<Token> tokens_;
  std::vector<QName> names_;
  std::unordered_map<QName, uint32_t, QNameHash> name_index_;
  StringPool pool_;
  std::vector<uint32_t> open_elements_;  // For skip-link sealing.
};

}  // namespace xqp

#endif  // XQP_TOKENS_TOKEN_STREAM_H_
