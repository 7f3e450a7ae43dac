#include "engine.h"

#include <sys/stat.h>

#include <cctype>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string_view>

#include "base/fault.h"
#include "storage/snapshot.h"
#include "base/limits.h"
#include "base/parallel.h"
#include "exec/interpreter.h"
#include "exec/iterators.h"
#include "opt/access_path.h"
#include "opt/inline_functions.h"
#include "opt/properties.h"
#include "opt/static_types.h"
#include "query/normalize.h"
#include "query/parser.h"
#include "vm/compiler.h"
#include "vm/vm.h"

namespace xqp {

const char* ExecBackendName(ExecBackend backend) {
  switch (backend) {
    case ExecBackend::kLazy:
      return "lazy";
    case ExecBackend::kEager:
      return "eager";
    case ExecBackend::kVm:
      return "vm";
  }
  return "lazy";
}

std::optional<ExecBackend> ParseExecBackend(std::string_view name) {
  for (ExecBackend b :
       {ExecBackend::kLazy, ExecBackend::kEager, ExecBackend::kVm}) {
    if (name == ExecBackendName(b)) return b;
  }
  return std::nullopt;
}

namespace {

/// Plain unsigned decimal: digits only, no sign, no trailing text.
std::optional<uint64_t> ParseUnsigned(std::string_view s) {
  uint64_t v = 0;
  auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size()) return std::nullopt;
  return v;
}

/// "1048576", "64k", "64m", "2g" (suffix case-insensitive) in bytes.
std::optional<uint64_t> ParseByteSize(std::string_view s) {
  int shift = 0;
  if (!s.empty()) {
    switch (std::tolower(static_cast<unsigned char>(s.back()))) {
      case 'k': shift = 10; break;
      case 'm': shift = 20; break;
      case 'g': shift = 30; break;
    }
  }
  if (shift != 0) s.remove_suffix(1);
  std::optional<uint64_t> v = ParseUnsigned(s);
  if (!v.has_value() || *v > (UINT64_MAX >> shift)) return std::nullopt;
  return *v << shift;
}

/// One XQP_* environment knob the engine constructor applies over its
/// options. `apply` parses a non-empty value into `options`; false means
/// the value is unrecognized, which is a startup error (exit 2), the same
/// contract as XQP_FAULT.
struct EnvKnob {
  const char* name;
  const char* expected;
  bool (*apply)(std::string_view value, EngineOptions* options);
};

constexpr EnvKnob kEnvKnobs[] = {
    {"XQP_BACKEND", "lazy, eager or vm",
     [](std::string_view v, EngineOptions* o) {
       std::optional<ExecBackend> backend = ParseExecBackend(v);
       if (backend.has_value()) o->backend = *backend;
       return backend.has_value();
     }},
    {"XQP_ACCESS_PATH", "auto, nav, sjoin, twig or index",
     [](std::string_view v, EngineOptions* o) {
       std::optional<AccessPath> forced = ParseAccessPath(v);
       if (forced.has_value()) o->force_access_path = *forced;
       return forced.has_value();
     }},
    {"XQP_INDEXES", "off, 0, on, 1, all, path, string or numeric",
     [](std::string_view v, EngineOptions* o) {
       if (v == "0" || v == "off") {
         o->enable_indexes = false;
         return true;
       }
       if (v == "1" || v == "on" || v == "all") {
         o->index_value_kinds = kIndexValueAll;
       } else if (v == "path") {
         o->index_value_kinds = 0;
       } else if (v == "string") {
         o->index_value_kinds = kIndexValueString;
       } else if (v == "numeric") {
         o->index_value_kinds = kIndexValueNumeric;
       } else {
         return false;
       }
       o->enable_indexes = true;
       return true;
     }},
    // The limit knobs fill in default_limits fields the options leave at 0;
    // the deadline cap keeps the governor's now() + timeout from
    // overflowing the clock.
    {"XQP_DEADLINE_MS", "a whole number of milliseconds up to 2147483647",
     [](std::string_view v, EngineOptions* o) {
       std::optional<uint64_t> ms = ParseUnsigned(v);
       if (!ms.has_value() || *ms > INT32_MAX) return false;
       if (o->default_limits.timeout.count() == 0) {
         o->default_limits.timeout = std::chrono::milliseconds(*ms);
       }
       return true;
     }},
    {"XQP_MEM_BUDGET", "bytes with an optional k, m or g suffix",
     [](std::string_view v, EngineOptions* o) {
       std::optional<uint64_t> bytes = ParseByteSize(v);
       if (bytes.has_value() && o->default_limits.memory_budget_bytes == 0) {
         o->default_limits.memory_budget_bytes = *bytes;
       }
       return bytes.has_value();
     }},
    {"XQP_SNAPSHOT", "a directory",
     [](std::string_view v, EngineOptions* o) {
       o->snapshot_dir = std::string(v);
       return true;
     }},
    // Sizes the process-wide pool (DefaultParallelism), not this engine;
    // checked here too so a run that never reaches the pool rejects it.
    {"XQP_THREADS", "an integer from 1 to 256",
     [](std::string_view v, EngineOptions*) {
       static_assert(kMaxThreadCount == 256);
       return ParseThreadCount(v).has_value();
     }},
};

}  // namespace

XQueryEngine::XQueryEngine(const EngineOptions& options)
    : options_(options), cancel_token_(std::make_shared<CancelToken>()) {
  if (options_.collect_stats || metrics::TraceEnvRequested()) {
    metrics::MetricsRegistry::Global().set_enabled(true);
  }
  for (const EnvKnob& knob : kEnvKnobs) {
    const char* env = std::getenv(knob.name);
    if (env == nullptr || *env == '\0') continue;
    if (!knob.apply(env, &options_)) {
      std::fprintf(stderr, "%s: unrecognized value \"%s\" (expected %s)\n",
                   knob.name, env, knob.expected);
      std::exit(2);
    }
  }
  if (!options_.snapshot_dir.empty()) {
    // Best effort: a missing directory otherwise just makes every save
    // fail (loads already degrade to parse), but creating it here lets
    // XQP_SNAPSHOT=/tmp/fresh-dir work out of the box.
    ::mkdir(options_.snapshot_dir.c_str(), 0755);
  }
  fault::ArmFromEnv();
}

void XQueryEngine::CancelAll() {
  std::shared_ptr<CancelToken> doomed;
  {
    std::lock_guard<std::mutex> lock(cancel_mu_);
    doomed = std::move(cancel_token_);
    cancel_token_ = std::make_shared<CancelToken>();
  }
  doomed->Cancel();
}

std::shared_ptr<CancelToken> XQueryEngine::current_cancel_token() const {
  std::lock_guard<std::mutex> lock(cancel_mu_);
  return cancel_token_;
}

void XQueryEngine::InvalidateCachesLocked() {
  if (!result_cache_.empty()) {
    cache_stats_.invalidations.fetch_add(1, std::memory_order_relaxed);
  }
  result_cache_.clear();
  index_manager_.Invalidate();
  ++cache_epoch_;
}

Status XQueryEngine::RegisterDocument(const std::string& uri,
                                      std::shared_ptr<const Document> doc) {
  if (doc == nullptr) return Status::InvalidArgument("null document");
  std::unique_lock lock(mu_);
  documents_[uri] = std::move(doc);
  InvalidateCachesLocked();
  return Status::OK();
}

namespace {

/// Storage counters, bumped only when metrics are on (same gate as every
/// other instrumentation point).
void CountStorage(const char* which) {
  if (!metrics::Enabled()) return;
  metrics::MetricsRegistry::Global().counter(which)->Add(1);
}

/// Writes a snapshot crash-atomically and counts `storage.saves`.
Status WriteSnapshot(const std::string& path,
                     const storage::SnapshotInput& input) {
  XQP_RETURN_NOT_OK(storage::WriteSnapshotFile(path, input));
  CountStorage("storage.saves");
  return Status::OK();
}

/// `options` with an unset parse depth taken from the engine's limits.
ParseOptions WithDefaultDepth(ParseOptions options,
                              const EngineOptions& engine) {
  if (options.max_parse_depth == 0) {
    options.max_parse_depth = engine.default_limits.max_parse_depth;
  }
  return options;
}

}  // namespace

Result<std::shared_ptr<const Document>> XQueryEngine::AdoptSnapshot(
    const std::string& uri, const storage::LoadedSnapshot& loaded) {
  XQP_RETURN_NOT_OK(RegisterDocument(uri, loaded.document));
  if (options_.enable_indexes && loaded.indexes != nullptr &&
      loaded.value_kinds == options_.index_value_kinds) {
    index_manager_.Adopt(uri, loaded.indexes);
  }
  CountStorage("storage.loads");
  return loaded.document;
}

Result<std::shared_ptr<const Document>> XQueryEngine::ParseAndRegister(
    const std::string& uri, std::string_view xml, const ParseOptions& options) {
  // Snapshot fast path: a persisted snapshot whose recorded content hash
  // and length match `xml` is the frozen result of parsing exactly these
  // bytes — adopt it (O(1) mmap, zero parse, indexes included) instead of
  // re-parsing. Stale or corrupt snapshots degrade to the parse below; a
  // merely missing file stays silent (first ingest of this document).
  const bool persist = !options_.snapshot_dir.empty();
  const std::string snap_path = persist ? SnapshotPathFor(uri) : std::string();
  const uint64_t content_hash = persist ? storage::HashContent(xml) : 0;
  if (persist) {
    Result<storage::LoadedSnapshot> loaded = storage::OpenSnapshot(snap_path);
    if (loaded.ok()) {
      if (loaded.value().content_hash == content_hash &&
          loaded.value().content_bytes == xml.size()) {
        return AdoptSnapshot(uri, loaded.value());
      }
      CountStorage("storage.stale");
    } else if (loaded.status().code() == StatusCode::kSnapshotCorrupt) {
      CountStorage("storage.corrupt");
    }
  }
  XQP_ASSIGN_OR_RETURN(
      std::shared_ptr<Document> doc,
      Document::Parse(xml, WithDefaultDepth(options, options_)));
  doc->set_base_uri(uri);
  std::shared_ptr<const Document> registered(doc);
  XQP_RETURN_NOT_OK(RegisterDocument(uri, registered));
  if (persist) {
    // Write-back is best effort: ingestion already succeeded, and the
    // atomic write protocol guarantees a failed save leaves any previous
    // snapshot file untouched. Indexes ride along when enabled so the
    // next cold start skips their build too.
    std::shared_ptr<const DocumentIndexes> indexes;
    if (options_.enable_indexes) {
      Result<std::shared_ptr<const DocumentIndexes>> built =
          index_manager_.GetOrBuild(uri, registered,
                                    options_.index_value_kinds);
      if (built.ok()) indexes = std::move(built.value());
    }
    (void)WriteSnapshot(snap_path, {.doc = registered.get(),
                                    .indexes = indexes.get(),
                                    .content_hash = content_hash,
                                    .content_bytes = xml.size()});
  }
  return registered;
}

Status XQueryEngine::SaveSnapshot(const std::string& uri,
                                  const std::string& path) {
  XQP_ASSIGN_OR_RETURN(std::shared_ptr<const Document> doc, GetDocument(uri));
  std::shared_ptr<const DocumentIndexes> indexes;
  if (options_.enable_indexes) {
    XQP_ASSIGN_OR_RETURN(
        indexes,
        index_manager_.GetOrBuild(uri, doc, options_.index_value_kinds));
  }
  return WriteSnapshot(path, {.doc = doc.get(), .indexes = indexes.get()});
}

Result<std::shared_ptr<const Document>> XQueryEngine::LoadDocumentSnapshot(
    const std::string& uri, const std::string& path,
    std::string_view fallback_xml, const ParseOptions& options) {
  Result<storage::LoadedSnapshot> loaded = storage::OpenSnapshot(path);
  if (loaded.ok()) return AdoptSnapshot(uri, loaded.value());
  if (loaded.status().code() == StatusCode::kSnapshotCorrupt) {
    CountStorage("storage.corrupt");
  }
  if (fallback_xml.empty()) return loaded.status();
  // Graceful degradation: the snapshot is unusable but the original bytes
  // are at hand — re-ingest them so the document stays queryable.
  CountStorage("storage.fallbacks");
  return ParseAndRegister(uri, fallback_xml, options);
}

std::string XQueryEngine::SnapshotPathFor(const std::string& uri) const {
  // Filesystem-safe name: URI with everything outside [A-Za-z0-9._-]
  // replaced, capped, plus the full URI's hash so distinct URIs that
  // sanitize identically never collide.
  std::string name;
  name.reserve(uri.size());
  for (char c : uri) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                      c == '-';
    name.push_back(safe ? c : '_');
  }
  if (name.size() > 80) name.resize(80);
  char hash[17];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(storage::HashContent(uri)));
  return options_.snapshot_dir + "/" + name + "-" + hash + ".xqps";
}

std::vector<Result<std::shared_ptr<const Document>>>
XQueryEngine::LoadDocumentsParallel(std::span<const BulkDocument> docs,
                                    const ParseOptions& options) {
  std::vector<Result<std::shared_ptr<const Document>>> out(
      docs.size(), Result<std::shared_ptr<const Document>>(
                       Status::Internal("document did not load")));
  const ParseOptions effective = WithDefaultDepth(options, options_);
  int threads =
      options_.num_threads > 0 ? options_.num_threads : DefaultParallelism();
  // One token snapshot for the whole batch (same contract as
  // ExecuteBatchParallel): CancelAll() during the load also stops members
  // no worker has picked up yet.
  std::shared_ptr<CancelToken> batch_token = current_cancel_token();
  ParallelFor(docs.size(), threads, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      if (batch_token->cancelled()) {
        out[i] = Status::Cancelled("bulk load cancelled");
        continue;
      }
      Result<std::shared_ptr<Document>> parsed =
          Document::Parse(docs[i].xml, effective);
      if (!parsed.ok()) {
        out[i] = parsed.status();
        continue;
      }
      parsed.value()->set_base_uri(docs[i].uri);
      out[i] = std::shared_ptr<const Document>(std::move(parsed.value()));
    }
  });
  size_t loaded = 0;
  {
    std::unique_lock lock(mu_);
    for (size_t i = 0; i < docs.size(); ++i) {
      if (!out[i].ok()) continue;
      documents_[docs[i].uri] = out[i].value();
      ++loaded;
    }
    if (loaded > 0) InvalidateCachesLocked();
  }
  if (metrics::Enabled()) {
    static metrics::Counter* docs_loaded =
        metrics::MetricsRegistry::Global().counter("ingest.docs");
    static metrics::Counter* batches =
        metrics::MetricsRegistry::Global().counter("ingest.parallel_batches");
    docs_loaded->Add(loaded);
    batches->Add(1);
  }
  return out;
}

Status XQueryEngine::RegisterCollection(const std::string& uri,
                                        Sequence items) {
  std::unique_lock lock(mu_);
  collections_[uri] = std::move(items);
  InvalidateCachesLocked();
  return Status::OK();
}

XQueryEngine::CacheStats XQueryEngine::cache_stats() const {
  CacheStats snapshot;
  snapshot.hits = cache_stats_.hits.load(std::memory_order_relaxed);
  snapshot.misses = cache_stats_.misses.load(std::memory_order_relaxed);
  snapshot.uncacheable =
      cache_stats_.uncacheable.load(std::memory_order_relaxed);
  snapshot.invalidations =
      cache_stats_.invalidations.load(std::memory_order_relaxed);
  return snapshot;
}

Result<Sequence> XQueryEngine::ExecuteCached(std::string_view query) {
  return ExecuteCachedInternal(query, nullptr);
}

Result<Sequence> XQueryEngine::ExecuteCachedInternal(
    std::string_view query, std::shared_ptr<CancelToken> cancel) {
  uint64_t epoch;
  {
    std::shared_lock lock(mu_);
    auto hit = result_cache_.find(query);
    if (hit != result_cache_.end()) {
      cache_stats_.hits.fetch_add(1, std::memory_order_relaxed);
      return hit->second;
    }
    epoch = cache_epoch_;
  }
  // Compile and execute outside the lock so cache misses run concurrently.
  XQP_ASSIGN_OR_RETURN(std::unique_ptr<CompiledQuery> compiled, Compile(query));
  CompiledQuery::ExecOptions exec_options;
  exec_options.limits.cancel = std::move(cancel);
  XQP_ASSIGN_OR_RETURN(Sequence result, compiled->Execute(exec_options));
  // Node-constructing queries must produce fresh identities per run, so
  // their results are not shareable across calls.
  if (compiled->module().body->props.creates_nodes) {
    cache_stats_.uncacheable.fetch_add(1, std::memory_order_relaxed);
    return result;
  }
  cache_stats_.misses.fetch_add(1, std::memory_order_relaxed);
  {
    std::unique_lock lock(mu_);
    // Drop the result if a registration superseded the inputs meanwhile;
    // concurrent misses of the same query insert one winner, identical by
    // determinism.
    if (cache_epoch_ == epoch) {
      result_cache_.emplace(std::string(query), result);
    }
  }
  return result;
}

std::vector<Result<Sequence>> XQueryEngine::ExecuteBatchParallel(
    std::span<const std::string_view> queries) {
  std::vector<Result<Sequence>> out(
      queries.size(), Result<Sequence>(Status::Internal("query did not run")));
  int threads =
      options_.num_threads > 0 ? options_.num_threads : DefaultParallelism();
  // One token snapshot for the whole batch: CancelAll() during the batch
  // stops members that have not been picked up by a worker yet, not just
  // the in-flight ones.
  std::shared_ptr<CancelToken> batch_token = current_cancel_token();
  ParallelFor(queries.size(), threads, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      out[i] = batch_token->cancelled()
                   ? Result<Sequence>(Status::Cancelled("query cancelled"))
                   : ExecuteCachedInternal(queries[i], batch_token);
    }
  });
  return out;
}

Result<std::shared_ptr<const Document>> XQueryEngine::GetDocument(
    const std::string& uri) {
  std::shared_lock lock(mu_);
  auto it = documents_.find(uri);
  if (it == documents_.end()) {
    return Status::DynamicError("document not found: " + uri);
  }
  return it->second;
}

Result<Sequence> XQueryEngine::GetCollection(const std::string& uri) {
  std::shared_lock lock(mu_);
  auto it = collections_.find(uri);
  if (it == collections_.end()) {
    return Status::DynamicError("collection not found: " + uri);
  }
  return it->second;
}

namespace {

/// The tag postings inside `indexes` (null for null), sharing their
/// ownership.
std::shared_ptr<const TagIndex> TagsOf(
    const std::shared_ptr<const DocumentIndexes>& indexes) {
  if (indexes == nullptr) return nullptr;
  return std::shared_ptr<const TagIndex>(indexes, &indexes->tags());
}

}  // namespace

Result<std::shared_ptr<const TagIndex>> XQueryEngine::GetTagIndex(
    const std::string& uri) {
  XQP_ASSIGN_OR_RETURN(std::shared_ptr<const DocumentIndexes> indexes,
                       GetDocumentIndexes(uri));
  return TagsOf(indexes);
}

std::shared_ptr<const TagIndex> XQueryEngine::PeekTagIndex(
    const Document& doc) {
  return TagsOf(index_manager_.Peek(doc));
}

Result<std::shared_ptr<const DocumentIndexes>>
XQueryEngine::GetDocumentIndexes(const std::string& uri) {
  if (!options_.enable_indexes) {
    return std::shared_ptr<const DocumentIndexes>();  // Null: fall back.
  }
  XQP_ASSIGN_OR_RETURN(std::shared_ptr<const Document> doc, GetDocument(uri));
  return index_manager_.GetOrBuild(uri, std::move(doc),
                                   options_.index_value_kinds);
}

Result<std::unique_ptr<CompiledQuery>> XQueryEngine::Compile(
    std::string_view query, const CompileOptions& options) {
  auto compiled = std::unique_ptr<CompiledQuery>(new CompiledQuery());
  XQP_ASSIGN_OR_RETURN(
      compiled->module_,
      ParseQuery(query, options_.default_limits.max_expr_depth));
  XQP_RETURN_NOT_OK(NormalizeModule(compiled->module_.get()));
  if (options.static_typing) {
    XQP_RETURN_NOT_OK(StaticTypeCheck(compiled->module_.get()));
  }
  if (options.optimize) {
    // With indexes disabled, index marking is forced off too, so the
    // optimized tree (and its EXPLAIN rendering) is bit-identical to a
    // build without the index subsystem.
    RewriterOptions rewriter = options.rewriter;
    if (!options_.enable_indexes) rewriter.index_paths = false;
    XQP_ASSIGN_OR_RETURN(
        compiled->rewrite_stats_,
        OptimizeModule(compiled->module_.get(), rewriter));
    // Pre-lowering inline fixpoint: the rewriter inlines at most
    // max_passes layers of user-function calls; finishing the job here
    // means call chains of any depth reach the bytecode compiler as plain
    // FLWORs, so only a recursive call makes it decline the plan.
    if (rewriter.function_inlining) {
      XQP_RETURN_NOT_OK(InlineSmallFunctions(compiled->module_.get(),
                                             rewriter.inline_size_limit)
                            .status());
    }
  }
  // Final analysis pass: the lazy compiler consults properties (uses_last
  // and friends) even when optimization is disabled.
  ParsedModule* m = compiled->module_.get();
  for (UserFunction& fn : m->functions) {
    if (fn.body != nullptr) AnalyzeExpr(fn.body.get(), m);
  }
  for (GlobalVariable& g : m->globals) {
    if (g.init != nullptr) AnalyzeExpr(g.init.get(), m);
  }
  AnalyzeExpr(m->body.get(), m);
  compiled->engine_ = this;
  // Annotate the chosen access path on index-candidate chains for EXPLAIN.
  // Peek-only: compiling a query must neither build indexes (no governor
  // charge, no fault-site hits) nor block on a build; a cold cache leaves
  // the annotation at kAuto and ExplainTree refreshes it later.
  compiled->AnnotateForExplain();
  return compiled;
}

Result<Sequence> XQueryEngine::Execute(std::string_view query) {
  XQP_ASSIGN_OR_RETURN(std::unique_ptr<CompiledQuery> compiled, Compile(query));
  return compiled->Execute();
}

namespace {

/// Field-by-field limit merge: a set (non-zero / non-null) field in `over`
/// wins over `base`.
QueryLimits MergeLimits(const QueryLimits& base, const QueryLimits& over) {
  QueryLimits out = base;
  if (over.timeout.count() != 0) out.timeout = over.timeout;
  if (over.memory_budget_bytes != 0) {
    out.memory_budget_bytes = over.memory_budget_bytes;
  }
  if (over.max_parse_depth != 0) out.max_parse_depth = over.max_parse_depth;
  if (over.max_expr_depth != 0) out.max_expr_depth = over.max_expr_depth;
  if (over.max_result_items != 0) {
    out.max_result_items = over.max_result_items;
  }
  if (over.cancel != nullptr) out.cancel = over.cancel;
  return out;
}

/// Approximate per-item cost charged to the memory budget as the result
/// sequence materializes. Item payloads (strings, nodes) are dominated by
/// document storage, which is charged at construction.
constexpr uint64_t kResultItemCost = sizeof(Item) + 16;

/// One governed pull from the lazy plan root, shared by the materializing
/// drain and ResultStream: the "iterators.next" fault site, a governor
/// poll, the pull, and the result-item charge.
Result<bool> NextGoverned(ItemIterator* it, ResourceGovernor* gov, Item* out) {
  if (fault::Armed()) {
    XQP_RETURN_NOT_OK(fault::MaybeInject("iterators.next"));
  }
  XQP_RETURN_NOT_OK(gov->Poll());
  XQP_ASSIGN_OR_RETURN(bool got, it->Next(out));
  if (got) XQP_RETURN_NOT_OK(gov->ChargeResultItems(1));
  return got;
}

/// Runs the lazy plan `body` and drains it under governor control; on top
/// of each governed pull the drain charges the materialized item's bytes.
/// An unprofiled run leases a tree from `pool`. A profiled run builds its
/// own decorated tree, so pooled trees stay undecorated and profiling costs
/// nothing when off. Both trees are locals, so they are closed or destroyed
/// while `ctx` is still alive, on success, on error and on early stop.
Result<Sequence> DrainGoverned(const Expr* body, PlanPool* pool,
                               DynamicContext* ctx) {
  std::unique_ptr<ItemIterator> profiled;
  PlanPool::Lease lease(pool);
  ItemIterator* it;
  if (ctx->profile != nullptr) {
    XQP_ASSIGN_OR_RETURN(profiled, OpenLazy(body, ctx));
    it = profiled.get();
  } else {
    XQP_RETURN_NOT_OK(lease.Open(body, ctx));
    it = lease.get();
  }
  Sequence out;
  Item item;
  while (true) {
    XQP_ASSIGN_OR_RETURN(bool got, NextGoverned(it, ctx->governor, &item));
    if (!got) break;
    XQP_RETURN_NOT_OK(ctx->governor->ChargeBytes(kResultItemCost));
    out.push_back(std::move(item));
  }
  return out;
}

uint64_t NanosSince(std::chrono::steady_clock::time_point start) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  return ns < 0 ? 0 : uint64_t(ns);
}

}  // namespace

QueryLimits CompiledQuery::EffectiveLimits(const ExecOptions& options) const {
  if (engine_ == nullptr) return options.limits;
  return MergeLimits(engine_->options().default_limits, options.limits);
}

std::shared_ptr<CancelToken> CompiledQuery::EngineToken() const {
  return engine_ == nullptr ? nullptr : engine_->current_cancel_token();
}

ExecBackend CompiledQuery::ResolvedBackend(const ExecOptions& options) const {
  return options.backend.value_or(
      engine_ != nullptr ? engine_->options().backend : ExecBackend::kLazy);
}

Result<std::shared_ptr<const vm::Program>> CompiledQuery::VmProgram() const {
  std::call_once(vm_once_, [this] {
    Result<std::shared_ptr<const vm::Program>> compiled =
        vm::CompileProgram(*module_);
    if (compiled.ok()) {
      vm_program_ = std::move(compiled.value());
    } else {
      vm_status_ = compiled.status();
    }
  });
  if (!vm_status_.ok()) return vm_status_;
  return vm_program_;
}

void CompiledQuery::AnnotateForExplain() const {
  if (engine_ == nullptr) return;
  IndexPeek peek = [this](const std::string& uri) {
    return engine_->PeekDocumentIndexes(uri);
  };
  AccessPath force = engine_->options().force_access_path;
  ParsedModule* m = module_.get();
  for (UserFunction& fn : m->functions) {
    if (fn.body != nullptr) AnnotateAccessPaths(fn.body.get(), peek, force);
  }
  for (GlobalVariable& g : m->globals) {
    if (g.init != nullptr) AnnotateAccessPaths(g.init.get(), peek, force);
  }
  AnnotateAccessPaths(m->body.get(), peek, force);
}

std::string CompiledQuery::ExplainTree() const {
  AnnotateForExplain();
  return RenderExplainTree(*module_->body);
}

std::string CompiledQuery::ExplainTree(const ExecOptions& options) const {
  AnnotateForExplain();
  if (ResolvedBackend(options) != ExecBackend::kVm) {
    return RenderExplainTree(*module_->body);
  }
  Result<std::shared_ptr<const vm::Program>> prog = VmProgram();
  if (!prog.ok()) return RenderExplainTree(*module_->body);
  const vm::Program& p = *prog.value();
  // A compiled plan marks its root; a declined one marks the subtree that
  // stopped the compiler.
  const Expr* root = module_->body.get();
  ExplainAnnotator annotate = [&](const Expr& e) -> std::string {
    if (p.thunks.empty()) return &e == root ? " [vm]" : "";
    if (&e == p.thunks[0].expr) return " [bailout: " + p.thunks[0].reason + "]";
    return "";
  };
  return RenderExplainTree(*module_->body, annotate);
}

Status CompiledQuery::SetupContext(const ExecOptions& options,
                                   ResourceGovernor* governor,
                                   DynamicContext* ctx) const {
  ctx->governor = governor;
  ctx->module = module_.get();
  ctx->provider = engine_;
  if (engine_ != nullptr) {
    ctx->force_access_path = engine_->options().force_access_path;
  }
  if (options.has_context_item) {
    ctx->focus = FocusInfo{true, options.context_item, 1, 1};
  }
  for (const auto& [name, value] : options.variables) {
    ctx->external_variables[name] = LazySeq::FromVector(value);
  }
  // Globals, in declaration order.
  ctx->globals.resize(module_->globals.size());
  for (const GlobalVariable& g : module_->globals) {
    if (g.init != nullptr) {
      ctx->slots.assign(g.num_slots, nullptr);
      XQP_ASSIGN_OR_RETURN(Sequence value, EvalExpr(g.init.get(), ctx));
      ctx->globals[g.slot] = LazySeq::FromVector(std::move(value));
    } else {
      auto it = ctx->external_variables.find(g.name.local);
      if (it == ctx->external_variables.end()) {
        return Status::DynamicError("external variable not bound: $" +
                                    g.name.Lexical());
      }
      ctx->globals[g.slot] = it->second;
    }
  }
  ctx->slots.assign(module_->num_slots, nullptr);
  return Status::OK();
}

Result<Sequence> CompiledQuery::RunPlan(const ExecOptions& options,
                                        QueryProfile* profile) const {
  ResourceGovernor governor(EffectiveLimits(options), EngineToken());
  GovernorScope scope(&governor);
  DynamicContext ctx;
  ctx.profile = profile;
  XQP_RETURN_NOT_OK(SetupContext(options, &governor, &ctx));
  const Expr* body = module_->body.get();
  switch (ResolvedBackend(options)) {
    case ExecBackend::kLazy:
      return DrainGoverned(body, &lazy_plans_, &ctx);
    case ExecBackend::kEager: {
      XQP_ASSIGN_OR_RETURN(Sequence result, EvalExpr(body, &ctx));
      XQP_RETURN_NOT_OK(governor.ChargeResultItems(result.size()));
      return result;
    }
    case ExecBackend::kVm: {
      Result<std::shared_ptr<const vm::Program>> prog = VmProgram();
      if (prog.ok() && prog.value()->thunks.empty()) {
        XQP_RETURN_NOT_OK(
            governor.ChargeBytes(prog.value()->const_pool_bytes));
        std::chrono::steady_clock::time_point start;
        if (profile != nullptr) start = std::chrono::steady_clock::now();
        XQP_ASSIGN_OR_RETURN(Sequence result,
                             vm::RunProgram(*prog.value(), &ctx));
        XQP_RETURN_NOT_OK(governor.ChargeResultItems(result.size()));
        if (profile != nullptr) {
          // The VM does not profile per compiled operator (compiled
          // code has no operator boundaries). Account the run to the plan
          // root so root-based invariants (items == result cardinality)
          // hold.
          OpStats* root = profile->StatsFor(body);
          root->next_calls += 1;
          root->items += result.size();
          root->wall_ns += NanosSince(start);
        }
        return result;
      }
      // Whole-plan fallback: the compiler declined the plan (or failed
      // under fault injection) — run the lazy path, bit-identical to
      // backend=lazy including fault sites and drain accounting.
      if (metrics::Enabled()) {
        static metrics::Counter* fallbacks =
            metrics::MetricsRegistry::Global().counter("vm.fallbacks");
        fallbacks->Add(1);
      }
      return DrainGoverned(body, &lazy_plans_, &ctx);
    }
  }
  return Status::Internal("unknown execution backend");
}

Result<Sequence> CompiledQuery::Execute(const ExecOptions& options) const {
  return RunPlan(options, nullptr);
}

Result<ProfileReport> CompiledQuery::Profile(const ExecOptions& options) const {
  ProfileReport report;
  report.module = module_.get();
  report.rewrites = rewrite_stats_;
  report.backend = ResolvedBackend(options);

  // Force the global registry on for the run so kernel counters and
  // dispatch decisions are captured, restoring the caller's setting after.
  auto& registry = metrics::MetricsRegistry::Global();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  metrics::MetricsSnapshot before = registry.Snapshot();
  const auto start = std::chrono::steady_clock::now();
  Result<Sequence> result = RunPlan(options, &report.ops);
  report.total_wall_ns = NanosSince(start);
  report.engine_metrics = registry.Snapshot().Delta(before);
  registry.set_enabled(was_enabled);

  XQP_ASSIGN_OR_RETURN(report.result, std::move(result));
  if (engine_ != nullptr) report.cache = engine_->cache_stats();
  return report;
}

const OpStats* ProfileReport::RootStats() const {
  if (module == nullptr) return nullptr;
  return ops.Find(module->body.get());
}

std::string ProfileReport::ToText() const {
  std::string out = "engine: ";
  switch (backend) {
    case ExecBackend::kLazy:
      out += "lazy (streaming iterators)\n";
      break;
    case ExecBackend::kEager:
      out += "eager (reference interpreter)\n";
      break;
    case ExecBackend::kVm:
      out += "vm (bytecode)\n";
      break;
  }
  out += "result items: " + std::to_string(result.size()) + "\n";
  out += "total wall ns: " + std::to_string(total_wall_ns) + "\n\n";
  if (module != nullptr) {
    out += RenderProfileText(*module->body, ops);
  }
  if (!rewrites.empty()) {
    out += "\nrewrites fired:\n";
    for (const auto& [rule, count] : rewrites) {
      out += "  " + rule + ": " + std::to_string(count) + "\n";
    }
  }
  if (!engine_metrics.counters.empty()) {
    out += "\nengine counters (this run):\n";
    for (const auto& [name, value] : engine_metrics.counters) {
      if (value == 0) continue;
      out += "  " + name + ": " + std::to_string(value) + "\n";
    }
  }
  out += "\ncache: hits=" + std::to_string(cache.hits) +
         " misses=" + std::to_string(cache.misses) +
         " uncacheable=" + std::to_string(cache.uncacheable) +
         " invalidations=" + std::to_string(cache.invalidations) + "\n";
  return out;
}

std::string ProfileReport::ToJson() const {
  std::string out = "{\"engine\":\"";
  out += ExecBackendName(backend);
  out += "\",\"result_items\":" + std::to_string(result.size());
  out += ",\"total_wall_ns\":" + std::to_string(total_wall_ns);
  out += ",\"plan\":";
  if (module != nullptr) {
    out += RenderProfileJson(*module->body, ops);
  } else {
    out += "null";
  }
  out += ",\"rewrites\":{";
  bool first = true;
  for (const auto& [rule, count] : rewrites) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    AppendJsonEscaped(rule, &out);
    out += "\":" + std::to_string(count);
  }
  out += "},\"cache\":{\"hits\":" + std::to_string(cache.hits) +
         ",\"misses\":" + std::to_string(cache.misses) +
         ",\"uncacheable\":" + std::to_string(cache.uncacheable) +
         ",\"invalidations\":" + std::to_string(cache.invalidations) + "}";
  out += ",\"counters\":{";
  first = true;
  for (const auto& [name, value] : engine_metrics.counters) {
    if (value == 0) continue;
    if (!first) out += ",";
    first = false;
    out += "\"";
    AppendJsonEscaped(name, &out);
    out += "\":" + std::to_string(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : engine_metrics.histograms) {
    if (h.count == 0) continue;
    if (!first) out += ",";
    first = false;
    out += "\"";
    AppendJsonEscaped(name, &out);
    out += "\":{\"count\":" + std::to_string(h.count) +
           ",\"sum\":" + std::to_string(h.sum) +
           ",\"min\":" + std::to_string(h.min) +
           ",\"max\":" + std::to_string(h.max) +
           ",\"p50\":" + std::to_string(h.Percentile(50)) +
           ",\"p95\":" + std::to_string(h.Percentile(95)) +
           ",\"p99\":" + std::to_string(h.Percentile(99)) + "}";
  }
  out += "}}";
  return out;
}

Result<std::string> CompiledQuery::ExecuteToXml(
    const ExecOptions& options) const {
  XQP_ASSIGN_OR_RETURN(Sequence result, Execute(options));
  return SerializeSequence(result);
}

Result<std::unique_ptr<ResultStream>> CompiledQuery::Open(
    const ExecOptions& options) const {
  auto stream = std::unique_ptr<ResultStream>(new ResultStream());
  stream->governor_ =
      std::make_unique<ResourceGovernor>(EffectiveLimits(options),
                                         EngineToken());
  GovernorScope scope(stream->governor_.get());
  stream->ctx_ = std::make_unique<DynamicContext>();
  XQP_RETURN_NOT_OK(
      SetupContext(options, stream->governor_.get(), stream->ctx_.get()));
  XQP_ASSIGN_OR_RETURN(stream->iterator_,
                       OpenLazy(module_->body.get(), stream->ctx_.get()));
  return stream;
}

Result<bool> ResultStream::Next(Item* out) {
  GovernorScope scope(governor_.get());
  return NextGoverned(iterator_.get(), governor_.get(), out);
}

Result<std::string> SerializeSequence(const Sequence& seq,
                                      const SerializeOptions& options) {
  std::string out;
  bool prev_atomic = false;
  for (const Item& item : seq) {
    if (item.IsNode()) {
      XQP_RETURN_NOT_OK(SerializeNode(item.AsNode(), options, &out));
      prev_atomic = false;
    } else {
      if (prev_atomic) out.push_back(' ');
      out += item.AsAtomic().Lexical();
      prev_atomic = true;
    }
  }
  return out;
}

}  // namespace xqp
