#ifndef XQP_TOKENS_TOKEN_ITERATOR_H_
#define XQP_TOKENS_TOKEN_ITERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "tokens/token_stream.h"
#include "xml/node.h"
#include "xml/pull_parser.h"

namespace xqp {

/// The paper's pull-based execution interface at token granularity:
///   open():  prepare execution, allocate resources
///   next():  return next token
///   skip():  skip all tokens until the first token of the next sibling
///   close(): release resources
/// Conceptually the relational iterator model, "but more fine-grained".
class TokenIterator {
 public:
  virtual ~TokenIterator() = default;

  virtual Status Open() = 0;
  /// Returns the next token or nullptr at end of stream. The pointer is
  /// valid until the next call.
  virtual Result<const Token*> Next() = 0;
  /// If the last returned token was a kStartElement, advances past its
  /// matching kEndElement (the whole subtree); otherwise a no-op. This is
  /// the granularity remedy used by positional access ($x[3], experiment
  /// E10).
  virtual Status Skip() = 0;
  virtual Status Close() = 0;

  /// Resolvers for the pooled payloads of tokens this iterator returned.
  virtual const QName& name(const Token& t) const = 0;
  virtual std::string_view value(const Token& t) const = 0;
  virtual std::string_view aux(const Token& t) const = 0;
};

/// Iterates a materialized TokenStream; Skip() is O(1) via skip links.
class StreamTokenIterator : public TokenIterator {
 public:
  explicit StreamTokenIterator(const TokenStream* stream) : stream_(stream) {}

  Status Open() override {
    pos_ = 0;
    last_ = SIZE_MAX;
    return Status::OK();
  }
  Result<const Token*> Next() override;
  Status Skip() override;
  Status Close() override { return Status::OK(); }

  const QName& name(const Token& t) const override { return stream_->name(t); }
  std::string_view value(const Token& t) const override {
    return stream_->value(t);
  }
  std::string_view aux(const Token& t) const override {
    return stream_->aux(t);
  }

 private:
  const TokenStream* stream_;
  size_t pos_ = 0;
  size_t last_ = SIZE_MAX;  // Index of last returned token.
};

/// Variant of StreamTokenIterator that ignores skip links and scans token by
/// token, used as the baseline in the skip() experiment (E10).
class ScanOnlyTokenIterator : public TokenIterator {
 public:
  explicit ScanOnlyTokenIterator(const TokenStream* stream)
      : stream_(stream) {}

  Status Open() override {
    pos_ = 0;
    last_ = SIZE_MAX;
    return Status::OK();
  }
  Result<const Token*> Next() override;
  Status Skip() override;
  Status Close() override { return Status::OK(); }

  const QName& name(const Token& t) const override { return stream_->name(t); }
  std::string_view value(const Token& t) const override {
    return stream_->value(t);
  }
  std::string_view aux(const Token& t) const override {
    return stream_->aux(t);
  }

 private:
  const TokenStream* stream_;
  size_t pos_ = 0;
  size_t last_ = SIZE_MAX;
};

/// Tokenizes a Document's node table on the fly (no token materialization);
/// Skip() jumps over subtrees using region end labels.
class DocumentTokenIterator : public TokenIterator {
 public:
  explicit DocumentTokenIterator(std::shared_ptr<const Document> doc)
      : doc_(std::move(doc)) {}

  Status Open() override;
  Result<const Token*> Next() override;
  Status Skip() override;
  Status Close() override { return Status::OK(); }

  const QName& name(const Token& t) const override {
    return doc_->name_at(t.name_id);
  }
  std::string_view value(const Token& t) const override;
  std::string_view aux(const Token& t) const override;

 private:
  std::shared_ptr<const Document> doc_;
  NodeIndex next_node_ = 0;
  std::vector<NodeIndex> open_;  // Elements with pending EE.
  Token token_;
  std::string aux_buf_;
  std::string value_buf_;
  size_t pending_ns_ = 0;          // Next ns-decl of current element.
  NodeIndex ns_element_ = kNullNode;
  bool start_document_emitted_ = false;
  bool end_document_emitted_ = false;
  bool last_was_start_element_ = false;
  NodeIndex last_element_ = kNullNode;
};

/// The "SAX Parser as TokenIterator" of the paper: tokens are produced by
/// parsing XML text on demand, so downstream operators can begin before the
/// input has been fully read. Skip() consumes (but does not resolve) the
/// subtree.
class ParserTokenIterator : public TokenIterator {
 public:
  ParserTokenIterator(std::string_view xml, const ParseOptions& options = {});

  Status Open() override;
  Result<const Token*> Next() override;
  Status Skip() override;
  Status Close() override { return Status::OK(); }

  const QName& name(const Token& t) const override { return names_[t.name_id]; }
  std::string_view value(const Token& t) const override {
    return t.value_id == kNoValue ? std::string_view() : pool_.Get(t.value_id);
  }
  std::string_view aux(const Token& t) const override {
    return t.aux_id == kNoValue ? std::string_view() : pool_.Get(t.aux_id);
  }

 private:
  uint32_t InternName(const QName& q);
  void Enqueue(Token t) { queue_.push_back(t); }

  std::string_view xml_;
  ParseOptions options_;
  std::unique_ptr<XmlPullParser> parser_;
  std::vector<QName> names_;
  std::unordered_map<QName, uint32_t, QNameHash> name_index_;
  StringPool pool_;
  std::vector<Token> queue_;  // Tokens pending delivery (FIFO).
  size_t queue_pos_ = 0;
  Token current_;
  bool last_was_start_element_ = false;
};

/// Push-side consumer of token events. Decouples node construction from
/// node-id generation (paper: "generate node ids only if really needed"):
/// the same producer can feed a DocumentSink (ids, node table) or an
/// XmlTextSink (no ids, direct serialization).
class TokenSink {
 public:
  virtual ~TokenSink() = default;
  virtual Status StartElement(const QName& name) = 0;
  virtual Status EndElement() = 0;
  virtual Status Attribute(const QName& name, std::string_view value) = 0;
  virtual Status NamespaceDecl(std::string_view prefix, std::string_view uri) {
    return Status::OK();
  }
  virtual Status Text(std::string_view text) = 0;
  virtual Status Comment(std::string_view text) = 0;
  virtual Status Pi(std::string_view target, std::string_view data) = 0;
  /// Deep-copies an existing subtree. Default implementation walks the tree
  /// and replays events.
  virtual Status CopySubtree(const Document& doc, NodeIndex root);
};

/// TokenSink building an immutable Document (with node identities).
class DocumentSink : public TokenSink {
 public:
  DocumentSink() = default;
  explicit DocumentSink(const ParseOptions& options) : builder_(options) {}

  Status StartElement(const QName& name) override {
    return builder_.BeginElement(name);
  }
  Status EndElement() override { return builder_.EndElement(); }
  Status Attribute(const QName& name, std::string_view value) override {
    return builder_.Attribute(name, value);
  }
  Status NamespaceDecl(std::string_view prefix,
                       std::string_view uri) override {
    return builder_.NamespaceDecl(prefix, uri);
  }
  Status Text(std::string_view text) override { return builder_.Text(text); }
  Status Comment(std::string_view text) override {
    return builder_.Comment(text);
  }
  Status Pi(std::string_view target, std::string_view data) override {
    return builder_.ProcessingInstruction(target, data);
  }
  Status CopySubtree(const Document& doc, NodeIndex root) override {
    return builder_.CopySubtree(doc, root);
  }

  Result<std::shared_ptr<Document>> Finish() { return builder_.Finish(); }

 private:
  DocumentBuilder builder_;
};

/// TokenSink serializing directly to XML text — no node table, no node ids,
/// no intermediate materialization. This is the paper's streaming-output
/// path (minimal time-to-first-byte; experiments E1/E9).
class XmlTextSink : public TokenSink {
 public:
  explicit XmlTextSink(std::string* out) : out_(out) {}

  Status StartElement(const QName& name) override;
  Status EndElement() override;
  Status Attribute(const QName& name, std::string_view value) override;
  Status NamespaceDecl(std::string_view prefix, std::string_view uri) override;
  Status Text(std::string_view text) override;
  Status Comment(std::string_view text) override;
  Status Pi(std::string_view target, std::string_view data) override;

 private:
  void CloseTagIfOpen();

  std::string* out_;
  std::vector<std::string> open_tags_;
  bool tag_open_ = false;
};

/// Drains `iterator` into `sink` (a push-pull adapter).
Status PumpTokens(TokenIterator* iterator, TokenSink* sink);

/// Serializes everything `iterator` yields as XML text.
Result<std::string> SerializeTokens(TokenIterator* iterator);

}  // namespace xqp

#endif  // XQP_TOKENS_TOKEN_ITERATOR_H_
