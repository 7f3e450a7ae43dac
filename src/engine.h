#ifndef XQP_ENGINE_H_
#define XQP_ENGINE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/limits.h"
#include "base/metrics.h"
#include "base/status.h"
#include "exec/dynamic_context.h"
#include "exec/lazy_seq.h"
#include "exec/profile.h"
#include "index/index_manager.h"
#include "join/tag_index.h"
#include "opt/rewriter.h"
#include "query/static_context.h"
#include "xml/document.h"
#include "xml/serializer.h"

namespace xqp {

namespace storage {
struct LoadedSnapshot;
}  // namespace storage

class CompiledQuery;

namespace vm {
struct Program;
}  // namespace vm

/// Which execution backend runs a compiled query. kLazy is the streaming
/// iterator engine (default), kEager the materializing reference
/// interpreter, kVm the bytecode compiler + dispatch-loop VM (a plan runs
/// whole as flat bytecode, or, when it holds a construct outside the ISA,
/// whole on the lazy engine, so results are identical across backends).
enum class ExecBackend : uint8_t { kLazy, kEager, kVm };

/// "lazy" / "eager" / "vm".
const char* ExecBackendName(ExecBackend backend);
/// Inverse of ExecBackendName; nullopt for any other name.
std::optional<ExecBackend> ParseExecBackend(std::string_view name);

/// Engine-wide tuning knobs. The XQP_* environment knobs named below are
/// read once, by the XQueryEngine constructor: an empty value means unset,
/// an unrecognized one is a startup error (message on stderr, exit 2).
struct EngineOptions {
  /// How many chunks ExecuteBatchParallel and LoadDocumentsParallel cut a
  /// batch into for ParallelFor; 0 means DefaultParallelism() (the
  /// XQP_THREADS environment override, else
  /// std::thread::hardware_concurrency()). It does not size the worker
  /// pool: the process-wide ThreadPool::Global() is sized once by
  /// DefaultParallelism(), and the calling thread helps drain the chunks.
  int num_threads = 0;

  /// Turns on the process-wide metrics registry (kernel counters, rewrite
  /// fire counts, pool utilization) for engines constructed with this set.
  /// The XQP_TRACE environment variable forces it on regardless. Off by
  /// default: every instrumentation point then costs one relaxed atomic
  /// load and a predictable branch.
  bool collect_stats = false;

  /// Resource limits applied to every execution on this engine. Per-call
  /// ExecOptions::limits override field-by-field (non-zero wins); the
  /// XQP_DEADLINE_MS / XQP_MEM_BUDGET environment knobs fill in fields
  /// both leave unset. The `cancel` token here is ignored — the engine
  /// maintains its own token for CancelAll().
  QueryLimits default_limits;

  /// Maintain per-document path/value indexes and tag postings
  /// (index/document_indexes.h), built lazily on first use and cached. When
  /// false, compilation also skips index marking, reproducing non-indexed
  /// plans bit-identically, and no access path or descendant step reads
  /// tag postings. The XQP_INDEXES environment knob overrides:
  /// "0"/"off" disables, "1"/"on"/"all" enables both value families,
  /// "path" enables the synopsis only, "string"/"numeric" one family.
  bool enable_indexes = true;

  /// Which value-index families to build (IndexValueKinds bitmask). The
  /// path synopsis is always built when enable_indexes is set; value
  /// predicates whose family is off fall back to normal evaluation.
  uint32_t index_value_kinds = kIndexValueAll;

  /// Default execution backend for queries compiled by this engine.
  /// Per-call ExecOptions::backend overrides. The XQP_BACKEND environment
  /// knob ("lazy" / "eager" / "vm") overrides this default.
  ExecBackend backend = ExecBackend::kLazy;

  /// Directory for persistent document snapshots (storage/snapshot.h).
  /// When set, ParseAndRegister first tries to mmap a previously saved
  /// snapshot of the document (skipping parse and index build entirely)
  /// and writes one back after a fresh parse; a corrupt or stale snapshot
  /// silently degrades to the normal parse path. Empty (default) disables
  /// persistence. The XQP_SNAPSHOT environment knob overrides.
  std::string snapshot_dir;

  /// Access-path override for doc()-anchored chains: kAuto (default) lets
  /// the cost model (opt/cost.h) choose per chain; kNav / kSJoin / kTwig /
  /// kIndex force that strategy wherever it can answer (degrading to
  /// navigation elsewhere — results are bit-identical for every setting).
  /// The XQP_ACCESS_PATH environment knob ("auto" / "nav" / "sjoin" /
  /// "twig" / "index") overrides this default.
  AccessPath force_access_path = AccessPath::kAuto;
};

/// The public facade: an in-memory XML store plus the XQuery compiler and
/// its two execution engines (eager reference interpreter and lazy
/// streaming iterator engine). Typical use:
///
///   XQueryEngine engine;
///   engine.ParseAndRegister("bib.xml", xml_text);
///   auto query = engine.Compile(
///       "for $b in doc('bib.xml')//book where $b/@year = 1998 "
///       "return $b/title");
///   auto result = query.value()->Execute();
/// Thread-safety contract: registration (RegisterDocument /
/// ParseAndRegister / RegisterCollection) and execution (Execute /
/// ExecuteCached / ExecuteBatchParallel / GetTagIndex / PeekTagIndex) may
/// be called from any number of threads concurrently. The result cache sits
/// behind a shared_mutex and the index cache (IndexManager) behind its own;
/// statistics counters are atomics. Registration invalidates derived caches
/// under the exclusive lock, and an epoch counter keeps an in-flight
/// execution from caching a result computed against superseded documents.
class XQueryEngine : public DocumentProvider {
 public:
  XQueryEngine() : XQueryEngine(EngineOptions{}) {}
  explicit XQueryEngine(const EngineOptions& options);

  const EngineOptions& options() const { return options_; }

  /// Registers an already-built document under `uri` for fn:doc.
  Status RegisterDocument(const std::string& uri,
                          std::shared_ptr<const Document> doc);

  /// Parses `xml` and registers the document under `uri`.
  Result<std::shared_ptr<const Document>> ParseAndRegister(
      const std::string& uri, std::string_view xml,
      const ParseOptions& options = {});

  /// Registers a named collection for fn:collection.
  Status RegisterCollection(const std::string& uri, Sequence items);

  /// Freezes the registered document `uri` — node table, string pool and
  /// its path/value indexes (built now if enabled and not yet cached) —
  /// into a crash-atomically written snapshot file at `path`
  /// (storage/snapshot.h).
  Status SaveSnapshot(const std::string& uri, const std::string& path);

  /// Opens the snapshot at `path` (mmap + full validation) and registers
  /// its document under `uri`, adopting snapshot-resident indexes so the
  /// first query skips the build. On any validation failure the snapshot
  /// is abandoned — `storage.corrupt` is counted and, when `fallback_xml`
  /// is non-empty, the original XML is re-ingested via ParseAndRegister so
  /// queries keep working; without a fallback the error is returned.
  Result<std::shared_ptr<const Document>> LoadDocumentSnapshot(
      const std::string& uri, const std::string& path,
      std::string_view fallback_xml = {}, const ParseOptions& options = {});

  /// The snapshot file EngineOptions::snapshot_dir implies for `uri`
  /// (sanitized URI + hash, ".xqps"). Meaningless when snapshot_dir is
  /// empty.
  std::string SnapshotPathFor(const std::string& uri) const;

  /// One input of LoadDocumentsParallel. `xml` is borrowed for the duration
  /// of the call only.
  struct BulkDocument {
    std::string uri;
    std::string_view xml;
  };

  /// Bulk load: parses every input, fanning the parses across the thread
  /// pool (the multi-tenant serving shape — many fresh documents arriving
  /// at once). Parses run under the caller's ambient resource governor,
  /// honor CancelAll(), and the successful documents are registered
  /// atomically: one exclusive lock acquisition and a single cache
  /// invalidation for the whole batch instead of one per document.
  /// Results are positional: out[i] belongs to docs[i]; failed parses
  /// leave any previously registered document under that URI untouched.
  std::vector<Result<std::shared_ptr<const Document>>> LoadDocumentsParallel(
      std::span<const BulkDocument> docs, const ParseOptions& options = {});

  // DocumentProvider:
  Result<std::shared_ptr<const Document>> GetDocument(
      const std::string& uri) override;
  Result<Sequence> GetCollection(const std::string& uri) override;
  /// Path synopsis, value index and tag postings for a registered
  /// document, built on first use and cached (null, not an error, when
  /// enable_indexes is off).
  Result<std::shared_ptr<const DocumentIndexes>> GetDocumentIndexes(
      const std::string& uri) override;

  /// Already-built indexes for `uri`, or null — never builds. EXPLAIN's
  /// access-path annotation peeks so that rendering a plan can neither
  /// charge an index build nor trip injected build faults.
  std::shared_ptr<const DocumentIndexes> PeekDocumentIndexes(
      const std::string& uri) const {
    return options_.enable_indexes ? index_manager_.Peek(uri) : nullptr;
  }

  struct CompileOptions {
    /// Run the rewrite-rule optimizer (SQ5/optimization step).
    bool optimize = true;
    /// The optional XQuery *static typing feature* (strict: rejects e.g.
    /// untyped-vs-numeric value comparisons at compile time).
    bool static_typing = false;
    RewriterOptions rewriter;
  };

  /// Compiles a query: parse -> normalize -> optimize.
  Result<std::unique_ptr<CompiledQuery>> Compile(std::string_view query,
                                                 const CompileOptions& options);
  Result<std::unique_ptr<CompiledQuery>> Compile(std::string_view query) {
    return Compile(query, CompileOptions());
  }

  /// One-shot convenience: compile with defaults and execute.
  Result<Sequence> Execute(std::string_view query);

  /// Memoizing execution (paper: "Memoization — cache results of
  /// expressions: inter-query (multi-query optimization)"). Results are
  /// cached by query text and invalidated whenever a document or
  /// collection is (re)registered. Only queries that construct no new
  /// nodes are cached — constructor results must have fresh identities on
  /// every evaluation.
  Result<Sequence> ExecuteCached(std::string_view query);

  /// Executes a batch of queries (the many-concurrent-users serving
  /// shape), fanning them across the thread pool via ExecuteCached.
  /// Results are positional: out[i] belongs to queries[i]. Runs serially
  /// when the pool is serial or the batch is a singleton.
  std::vector<Result<Sequence>> ExecuteBatchParallel(
      std::span<const std::string_view> queries);

  /// Cancels every execution in flight on this engine (including queued
  /// ExecuteBatchParallel members that have not started): they fail with
  /// kCancelled at their next governor poll. A fresh token is installed
  /// atomically, so executions started after this call run normally.
  void CancelAll();

  /// The token executions started now would observe (tests; callers that
  /// want per-query cancellation pass their own via ExecOptions::limits).
  std::shared_ptr<CancelToken> current_cancel_token() const;

  /// Cache statistics for the memoization experiment/tests.
  struct CacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t uncacheable = 0;
    uint64_t invalidations = 0;
  };
  /// Returns a snapshot (counters advance concurrently with execution).
  CacheStats cache_stats() const;

  /// The tag postings of GetDocumentIndexes(uri), sharing that entry's
  /// ownership: built with it on first use, cached and invalidated with it,
  /// and null when enable_indexes is off.
  Result<std::shared_ptr<const TagIndex>> GetTagIndex(const std::string& uri);

  /// The cached tag postings built over `doc` itself, or null — never
  /// builds, so a document whose indexes are cold (or were dropped by a
  /// re-registration) keeps its steps on the row scan.
  std::shared_ptr<const TagIndex> PeekTagIndex(const Document& doc) override;

 private:
  /// Clears derived caches and bumps the epoch. Caller must hold mu_
  /// exclusively.
  void InvalidateCachesLocked();

  /// Registers a loaded snapshot's document under `uri`, adopts its
  /// indexes when they were built with this engine's value kinds, and
  /// counts `storage.loads`. The one way a snapshot enters the engine.
  Result<std::shared_ptr<const Document>> AdoptSnapshot(
      const std::string& uri, const storage::LoadedSnapshot& loaded);

  /// ExecuteCached with an optional extra cancel token — the batch-wide
  /// snapshot ExecuteBatchParallel takes so CancelAll() reaches batch
  /// members that have not started yet.
  Result<Sequence> ExecuteCachedInternal(std::string_view query,
                                         std::shared_ptr<CancelToken> cancel);

  EngineOptions options_;

  /// Guards the maps below. Executions take it shared; registration and
  /// cache fills take it exclusive.
  mutable std::shared_mutex mu_;
  std::map<std::string, std::shared_ptr<const Document>> documents_;
  std::map<std::string, Sequence> collections_;
  /// The per-document index cache; owns its own lock (never taken while
  /// holding mu_ exclusively except for invalidation, and it never calls
  /// back into the engine, so the mu_ -> index lock order is acyclic).
  IndexManager index_manager_;
  std::map<std::string, Sequence, std::less<>> result_cache_;
  /// Incremented on every invalidation; ExecuteCached only inserts a
  /// result computed in the current epoch.
  uint64_t cache_epoch_ = 0;

  struct AtomicCacheStats {
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> uncacheable{0};
    std::atomic<uint64_t> invalidations{0};
  };
  mutable AtomicCacheStats cache_stats_;

  /// The CancelAll() token. Executions snapshot it at start (under
  /// cancel_mu_); CancelAll cancels the current one and swaps in a fresh
  /// token so later executions are unaffected.
  mutable std::mutex cancel_mu_;
  std::shared_ptr<CancelToken> cancel_token_;
};

/// Everything one profiled execution produced: the result itself plus the
/// per-operator statistics, compile-time rewrite fire counts, engine cache
/// counters, and the delta of the global metrics registry over the run
/// (join kernel calls, index hits, sort sizes).
/// `module` is a non-owning view of the CompiledQuery's plan — keep the
/// query alive while rendering.
struct ProfileReport {
  Sequence result;
  QueryProfile ops;
  RewriteStats rewrites;
  XQueryEngine::CacheStats cache;
  metrics::MetricsSnapshot engine_metrics;
  uint64_t total_wall_ns = 0;
  /// Backend that produced the run.
  ExecBackend backend = ExecBackend::kLazy;
  const ParsedModule* module = nullptr;

  /// Stats of the plan root; its `items` equals the result cardinality.
  const OpStats* RootStats() const;

  /// Human-readable profile: annotated operator tree + engine counters.
  std::string ToText() const;

  /// Machine-readable profile as a single JSON object.
  std::string ToJson() const;
};

/// An open, incrementally consumable query result: the engine-level
/// embodiment of the paper's streaming requirement ("output parts of the
/// result BEFORE the entire data input is received"). Owns the dynamic
/// context; pull items with Next().
class ResultStream {
 public:
  /// Produces the next result item; false at end. Polls the stream's
  /// resource governor, so an open stream honors cancellation, deadlines,
  /// and the result-item cap between pulls. A constructed item points into
  /// the stream's construction arena, which later pulls may still append
  /// to: it may be read on another thread only once the stream is
  /// exhausted or destroyed. On the pulling thread it stays readable.
  Result<bool> Next(Item* out);

 private:
  friend class CompiledQuery;
  ResultStream() = default;

  // Declaration order is destruction-safety order: the iterator tree and
  // context hold raw pointers into the governor, so it must die last.
  std::unique_ptr<ResourceGovernor> governor_;
  std::unique_ptr<DynamicContext> ctx_;
  std::unique_ptr<ItemIterator> iterator_;
};

/// A compiled, optimized query ready for (repeated) execution.
class CompiledQuery {
 public:
  struct ExecOptions {
    /// Bindings for "declare variable ... external", keyed by local name.
    std::map<std::string, Sequence> variables;
    /// Initial context item (".").
    bool has_context_item = false;
    Item context_item;

    /// Execution backend for this call. Unset: the engine's
    /// EngineOptions::backend.
    std::optional<ExecBackend> backend;

    /// Per-call resource limits; non-zero fields override the engine's
    /// default_limits. A `cancel` token here is watched *in addition to*
    /// the engine's CancelAll() token.
    QueryLimits limits;
  };

  /// Runs the query and materializes the full result.
  Result<Sequence> Execute(const ExecOptions& options) const;
  Result<Sequence> Execute() const { return Execute(ExecOptions()); }
  /// Convenience: run with limits and otherwise-default options.
  Result<Sequence> Execute(const QueryLimits& limits) const {
    ExecOptions options;
    options.limits = limits;
    return Execute(options);
  }

  /// Runs the query and serializes the result sequence as XML text.
  Result<std::string> ExecuteToXml(const ExecOptions& options) const;
  Result<std::string> ExecuteToXml() const {
    return ExecuteToXml(ExecOptions());
  }

  /// Opens the query for streaming consumption on the lazy engine: items
  /// are computed as the caller pulls them (minimal time-to-first-answer).
  Result<std::unique_ptr<ResultStream>> Open(const ExecOptions& options) const;
  Result<std::unique_ptr<ResultStream>> Open() const {
    return Open(ExecOptions());
  }

  const ParsedModule& module() const { return *module_; }

  /// Deterministic indented operator tree for the optimized plan — the
  /// EXPLAIN rendering (no runtime numbers; stable across runs). The
  /// ExecOptions overload annotates for the backend the options select:
  /// under kVm, a compiled plan's root renders " [vm]"; a declined plan
  /// (run whole on the lazy engine) has no " [vm]" and marks the subtree
  /// that stopped the compiler " [bailout: <reason>]".
  std::string ExplainTree() const;
  std::string ExplainTree(const ExecOptions& options) const;

  /// The backend Execute(options) would use: options.backend if set, else
  /// the engine's default.
  ExecBackend ResolvedBackend(const ExecOptions& options) const;

  /// Executes the query with per-operator profiling: every iterator pull /
  /// interpreter evaluation is counted and timed, and the global metrics
  /// registry is force-enabled for the duration so kernel counters land in
  /// the report. Runs the same plan through the same governor as
  /// Execute(), so both agree on results, errors and engine counters; only
  /// the instrumentation differs.
  Result<ProfileReport> Profile(const ExecOptions& options) const;
  Result<ProfileReport> Profile() const { return Profile(ExecOptions()); }

  /// Rule-application counts from compilation.
  const RewriteStats& rewrite_stats() const { return rewrite_stats_; }

 private:
  friend class XQueryEngine;
  CompiledQuery() = default;

  /// The single execution path behind Execute() and Profile(): governor,
  /// context setup, the backend switch, and the governor charges. A
  /// non-null `profile` collects per-operator stats (with the VM's run
  /// accounted to the plan root); null adds no instrumentation at all.
  Result<Sequence> RunPlan(const ExecOptions& options,
                           QueryProfile* profile) const;

  /// Attaches `governor` and binds globals: prepares a dynamic context for
  /// one run (Execute, Profile, or an Open stream).
  Status SetupContext(const ExecOptions& options, ResourceGovernor* governor,
                      DynamicContext* ctx) const;

  /// Refreshes PathExpr access-path annotations against the engine's
  /// *currently cached* indexes (peek-only) before an EXPLAIN rendering —
  /// a plan explained after a warm-up run shows the decision execution
  /// would make. With indexes disabled the peek finds none, so a forced
  /// strategy still shows as declined.
  void AnnotateForExplain() const;

  /// Engine default_limits overridden by the per-call limits.
  QueryLimits EffectiveLimits(const ExecOptions& options) const;

  /// Snapshot of the engine's CancelAll() token (null without an engine).
  std::shared_ptr<CancelToken> EngineToken() const;

  /// Bytecode program for this query, compiled once on first use and
  /// cached (compilation failure — only possible via the "vm.compile"
  /// fault site — is cached too; the query then permanently falls back to
  /// the lazy engine). Returns the cached program or the cached error.
  Result<std::shared_ptr<const vm::Program>> VmProgram() const;

  std::unique_ptr<ParsedModule> module_;
  XQueryEngine* engine_ = nullptr;
  RewriteStats rewrite_stats_;

  /// Idle lazy iterator trees for module_->body, reused by every
  /// unprofiled lazy run. Declared after module_, so the trees, which
  /// point into the plan, die first.
  mutable PlanPool lazy_plans_;

  mutable std::once_flag vm_once_;
  mutable std::shared_ptr<const vm::Program> vm_program_;
  mutable Status vm_status_ = Status::OK();
};

/// Serializes a result sequence: nodes as XML, atomics as lexical values
/// separated by spaces (the DM4 serialization step).
Result<std::string> SerializeSequence(const Sequence& seq,
                                      const SerializeOptions& options = {});

}  // namespace xqp

#endif  // XQP_ENGINE_H_
