#ifndef XQP_QUERY_STATIC_CONTEXT_H_
#define XQP_QUERY_STATIC_CONTEXT_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "query/expr.h"
#include "query/sequence_type.h"

namespace xqp {

/// Well-known namespace URIs.
inline constexpr std::string_view kFnNamespace =
    "http://www.w3.org/2005/xpath-functions";
inline constexpr std::string_view kXsNamespace =
    "http://www.w3.org/2001/XMLSchema";
inline constexpr std::string_view kXdtNamespace =
    "http://www.w3.org/2005/xpath-datatypes";
inline constexpr std::string_view kLocalNamespace =
    "http://www.w3.org/2005/xquery-local-functions";

/// The static context of query compilation (paper slide "Static context"):
/// in-scope namespaces, default element/function namespaces, and the
/// boundary-space policy. Populated by the prolog and consulted during
/// parsing for QName resolution.
class StaticContext {
 public:
  StaticContext();

  Status DeclareNamespace(const std::string& prefix, const std::string& uri);

  /// Resolves a lexical prefix ("" = default element namespace when
  /// `use_default_element_ns`). Unknown prefixes are static errors.
  Result<std::string> ResolvePrefix(std::string_view prefix,
                                    bool use_default_element_ns) const;

  const std::string& default_element_ns() const { return default_element_ns_; }
  void set_default_element_ns(std::string uri) {
    default_element_ns_ = std::move(uri);
  }
  const std::string& default_function_ns() const {
    return default_function_ns_;
  }
  void set_default_function_ns(std::string uri) {
    default_function_ns_ = std::move(uri);
  }

  bool boundary_space_preserve() const { return boundary_space_preserve_; }
  void set_boundary_space_preserve(bool preserve) {
    boundary_space_preserve_ = preserve;
  }

 private:
  /// Prolog declarations; the predeclared prefixes (xml, xs, fn, ...) are
  /// consulted after these, so a declaration can shadow one of them.
  std::map<std::string, std::string, std::less<>> namespaces_;
  std::string default_element_ns_;
  std::string default_function_ns_;
  bool boundary_space_preserve_ = false;
};

/// A user-defined function from the prolog.
struct UserFunction {
  QName name;
  std::vector<QName> params;
  std::vector<SequenceType> param_types;
  SequenceType return_type = SequenceType::AnyItems();
  ExprPtr body;  // Null for "external" functions.
  /// Filled by normalization: slots of the parameters within the function's
  /// frame and the frame size.
  std::vector<int> param_slots;
  int num_slots = 0;
  /// Inlining metadata (set by analysis).
  bool recursive = false;
};

/// A global variable declaration ("declare variable $x ...").
struct GlobalVariable {
  QName name;
  SequenceType type = SequenceType::AnyItems();
  bool has_type = false;
  ExprPtr init;  // Null for "external" variables.
  int slot = -1;
  /// Frame size needed to evaluate `init` (locals bound inside it).
  int num_slots = 0;
};

/// Output of the parser: prolog declarations plus the main expression.
/// Normalization then resolves names and assigns variable slots in place.
struct ParsedModule {
  StaticContext sctx;
  std::vector<UserFunction> functions;
  std::vector<GlobalVariable> globals;
  ExprPtr body;
  /// Frame size of the main expression (assigned by normalization).
  int num_slots = 0;
};

}  // namespace xqp

#endif  // XQP_QUERY_STATIC_CONTEXT_H_
