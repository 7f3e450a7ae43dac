#ifndef XQP_EXEC_DYNAMIC_CONTEXT_H_
#define XQP_EXEC_DYNAMIC_CONTEXT_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/limits.h"
#include "exec/constructor.h"
#include "exec/lazy_seq.h"
#include "query/expr.h"
#include "query/static_context.h"

namespace xqp {

class QueryProfile;
class DocumentIndexes;
class TagIndex;
namespace value_join {
struct Index;
}  // namespace value_join

/// Supplies documents and collections to fn:doc / fn:collection ("available
/// documents and collections" of the paper's dynamic context). The engine
/// provides an in-memory registry implementation.
class DocumentProvider {
 public:
  virtual ~DocumentProvider() = default;
  virtual Result<std::shared_ptr<const Document>> GetDocument(
      const std::string& uri) = 0;
  virtual Result<Sequence> GetCollection(const std::string& uri) = 0;
  /// Secondary index structures for `uri` (index/document_indexes.h), or
  /// nullptr when the provider does not maintain indexes — path evaluation
  /// then falls back to navigation. The engine overrides this with the
  /// lazily built, cached IndexManager entry.
  virtual Result<std::shared_ptr<const DocumentIndexes>> GetDocumentIndexes(
      const std::string& uri) {
    (void)uri;
    return std::shared_ptr<const DocumentIndexes>();
  }
  /// The already-built tag postings (join/tag_index.h) whose document is
  /// `doc` (the same object, not merely the same URI), or nullptr — never
  /// builds. Variable-anchored descendant steps slice them (exec/axes.h); a
  /// miss sends them to the row scan. The engine answers from the tag
  /// postings of its cached DocumentIndexes.
  virtual std::shared_ptr<const TagIndex> PeekTagIndex(const Document& doc) {
    (void)doc;
    return nullptr;
  }
};

/// The focus (XQuery 1.0 §2.1.2): the context item, its position and the
/// size of the sequence it came from. `size` is -1 while a streaming lazy
/// input has not been counted; fn:last() then fails (CallBuiltin).
struct FocusInfo {
  bool has_focus = false;
  Item item;
  int64_t position = 0;
  int64_t size = 0;
};

/// A user-function call's frame: the callee's slots and its focus, which
/// is empty, since a function body has no focus (XQuery 1.0 §3.1.5).
struct CallFrame {
  std::vector<LazySeqPtr> slots;
  FocusInfo focus;
};

/// The dynamic (evaluation-time) context: variable frames, external
/// variable bindings, the focus, and document access.
class DynamicContext {
 public:
  DynamicContext() = default;

  /// Values of global variables, indexed by GlobalVariable::slot.
  std::vector<LazySeqPtr> globals;

  /// Current frame (main body or active function call).
  std::vector<LazySeqPtr> slots;

  /// Externally bound variables by expanded name — consulted when a global
  /// is declared "external".
  std::map<std::string, LazySeqPtr> external_variables;

  /// The current focus: the initial context item at position 1 of 1 (or
  /// none) in the main body and global initializers, none in a function
  /// body. Eager and VM focus loops rebind it; lazy ones bind their own.
  FocusInfo focus;

  /// Document access; may be null (fn:doc then errors).
  DocumentProvider* provider = nullptr;

  /// The module being evaluated (for user function lookup).
  const ParsedModule* module = nullptr;

  /// Guard against runaway recursion in user functions.
  int call_depth = 0;
  static constexpr int kMaxCallDepth = 4096;

  /// This run's resource governor, or null (the default) for ungoverned
  /// execution: iterators and the interpreter then pay one pointer test
  /// per check site. The engine owns the governor (stack or ResultStream);
  /// it outlives the context and every iterator compiled against it.
  ResourceGovernor* governor = nullptr;

  /// Per-operator statistics sink for this run, or null (the default) for
  /// unprofiled execution. When set, the lazy compiler wraps every iterator
  /// in a profiling decorator and the eager interpreter times every Eval;
  /// when null, neither engine pays more than a pointer test.
  QueryProfile* profile = nullptr;

  /// Access-path override for doc()-anchored chains, copied from
  /// EngineOptions at context setup. kAuto lets the cost model choose; a
  /// forced strategy that cannot answer a given chain degrades to
  /// navigation (results stay bit-identical across all settings). kNav
  /// also keeps variable-anchored descendant steps on the row scan.
  AccessPath force_access_path = AccessPath::kAuto;

  /// The provider's PeekTagIndex answer for each document this run's
  /// descendant steps started from, a miss memoised as a null index, so a
  /// run asks the provider at most once per document. Holding the document
  /// keeps its address from being reused while the run lasts.
  struct PeekedTagIndex {
    std::shared_ptr<const Document> doc;
    std::shared_ptr<const TagIndex> index;
  };
  std::unordered_map<const Document*, PeekedTagIndex> peeked_tag_indexes;

  /// This run's value-join indexes by FlworExpr::Clause::join_id, built on
  /// first use (exec/value_join.h).
  std::vector<std::shared_ptr<value_join::Index>> value_joins;

  /// This run's construction arena: every element, attribute, text,
  /// comment and PI constructor appends its tree to it. Its document is
  /// created by the first constructor that runs, so a run that constructs
  /// nothing creates none.
  construct::Arena arena;

  /// Exchanges the current slots and focus with `frame`'s: once to enter a
  /// user-function body, once more to leave it.
  void SwapFrame(CallFrame* frame) {
    slots.swap(frame->slots);
    std::swap(focus, frame->focus);
  }
};

/// The context item of `focus`, or the dynamic error for an empty focus.
/// With `axis_step`, an atomic context item is CheckAxisOrigin's error.
Result<const Item*> FocusItem(const FocusInfo& focus, bool axis_step = false);

/// The type error an axis step raises when its origin is not a node.
Status CheckAxisOrigin(const Item& origin);

/// Binds a call of `fn` to its evaluated arguments. Every backend
/// evaluates all of them, in order, before calling this. Fails for an
/// external function, then at the recursion limit, then for the first
/// argument that does not match its declared type; otherwise moves the
/// arguments into the callee's frame.
Result<CallFrame> BindUserCall(const UserFunction& fn,
                               std::vector<Sequence>& args,
                               const DynamicContext& ctx);

}  // namespace xqp

#endif  // XQP_EXEC_DYNAMIC_CONTEXT_H_
