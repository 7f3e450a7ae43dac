#include "query/static_context.h"

namespace xqp {

namespace {

/// Prefixes every query starts with.
constexpr std::pair<std::string_view, std::string_view> kPredeclared[] = {
    {"xml", "http://www.w3.org/XML/1998/namespace"},
    {"xs", kXsNamespace},
    {"xsi", "http://www.w3.org/2001/XMLSchema-instance"},
    {"xdt", kXdtNamespace},
    {"fn", kFnNamespace},
    // "xf" appears throughout the paper's examples as the F&O prefix.
    {"xf", kFnNamespace},
    {"local", kLocalNamespace},
};

}  // namespace

StaticContext::StaticContext() : default_function_ns_(kFnNamespace) {}

Status StaticContext::DeclareNamespace(const std::string& prefix,
                                       const std::string& uri) {
  if (prefix == "xml" || prefix == "xmlns") {
    return Status::StaticError("cannot redeclare the '" + prefix +
                               "' namespace prefix");
  }
  namespaces_[prefix] = uri;
  return Status::OK();
}

Result<std::string> StaticContext::ResolvePrefix(
    std::string_view prefix, bool use_default_element_ns) const {
  if (prefix.empty()) {
    return use_default_element_ns ? default_element_ns_ : std::string();
  }
  auto it = namespaces_.find(prefix);
  if (it != namespaces_.end()) return it->second;
  for (const auto& [name, uri] : kPredeclared) {
    if (name == prefix) return std::string(uri);
  }
  return Status::StaticError("undeclared namespace prefix: " +
                             std::string(prefix));
}

}  // namespace xqp
