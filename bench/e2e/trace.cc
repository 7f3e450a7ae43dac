// Spans, per-request counter deltas and stage replays for the traced run,
// and the per-layer metrics computed from them.

#include <cstdio>
#include <fstream>

#include "e2e.h"
#include "exec/profile.h"
#include "index/document_indexes.h"
#include "opt/access_path.h"
#include "opt/inline_functions.h"
#include "opt/properties.h"
#include "opt/rewriter.h"
#include "query/normalize.h"
#include "query/parser.h"
#include "storage/snapshot.h"
#include "vm/bytecode.h"
#include "vm/compiler.h"

namespace xqp {
namespace e2e {

void Tracer::SetRecording(bool on) {
  recording_ = enabled_ && on;
  metrics::MetricsRegistry::Global().set_enabled(recording_);
}

int Tracer::Open(const char* name, int cls, int backend) {
  OpenSpan span;
  span.name = name;
  span.event = next_event_++;
  span.cls = cls;
  span.backend = backend;
  if (open_.empty()) ++request_;
  span.start = Clock::now();
  open_.push_back(span);
  return span.event;
}

int64_t Tracer::Close(int id, int64_t amount) {
  const Clock::time_point end = Clock::now();
  OpenSpan span = open_.back();
  open_.pop_back();
  if (span.event != id) {
    std::fprintf(stderr, "trace: span %s closed out of order\n", span.name);
  }
  const int64_t dur = NsBetween(span.start, end);
  const char* root = open_.empty() ? span.name : open_.front().name;
  Agg& agg = agg_[std::string(root) + "/" + span.name];
  agg.dur_ns.push_back(static_cast<double>(dur));
  agg.self_ns += static_cast<double>(dur - span.child_ns);
  agg.amount += static_cast<double>(amount);
  if (!open_.empty()) {
    OpenSpan& parent = open_.back();
    parent.child_ns += dur;
    if (open_.size() == 1) {
      const std::string_view n(span.name);
      if (n == "engine.compile") parent.compile_ns += dur;
      if (n.rfind("exec.", 0) == 0) parent.exec_ns += dur;
      if (n == "xml.serialize") parent.serialize_ns += dur;
      if (n == "xml.parse") parent.parse_ns += dur;
    }
  } else if (span.cls >= 0) {
    ClassAgg& c = per_class_[{span.cls, span.backend}];
    c.compile.push_back(span.compile_ns / 1e3);
    c.exec.push_back(span.exec_ns / 1e3);
    c.serialize.push_back(span.serialize_ns / 1e3);
    c.parse.push_back(span.parse_ns / 1e3);
    c.total.push_back(dur / 1e3);
  }
  if (events_.size() < kMaxEvents) {
    events_.push_back({span.name, request_,
                       open_.empty() ? -1 : open_.back().event, span.cls,
                       span.backend, NsBetween(epoch_, span.start), dur});
  }
  return dur;
}

void Tracer::CountersBefore() {
  counters_before_ = metrics::MetricsRegistry::Global().Snapshot().counters;
}

void Tracer::CountersAfter(int backend) {
  const metrics::MetricsSnapshot after =
      metrics::MetricsRegistry::Global().Snapshot();
  for (const auto& [name, value] : after.counters) {
    auto it = counters_before_.find(name);
    const uint64_t before = it == counters_before_.end() ? 0 : it->second;
    if (value > before) counter_sums_[backend][name] += value - before;
  }
  ++counted_requests_[backend];
}

void Tracer::DeferCompile(std::string text, const CompiledQuery* compiled,
                          std::unique_ptr<CompiledQuery> owned,
                          int64_t whole_ns) {
  Deferred d;
  d.kind = Deferred::kCompile;
  d.text = std::move(text);
  d.compiled = compiled;
  d.owned = std::move(owned);
  d.whole_ns = whole_ns;
  deferred_.push_back(std::move(d));
}

void Tracer::DeferRegister(const std::string* xml, bool persisted,
                           std::string probed_snapshot, int64_t whole_ns) {
  Deferred d;
  d.kind = Deferred::kRegister;
  d.xml = xml;
  d.persisted = persisted;
  d.text = std::move(probed_snapshot);
  d.whole_ns = whole_ns;
  deferred_.push_back(std::move(d));
}

void Tracer::DeferOpen(std::string snapshot_path) {
  Deferred d;
  d.kind = Deferred::kOpen;
  d.text = std::move(snapshot_path);
  deferred_.push_back(std::move(d));
}

void Tracer::RunDeferred(const XQueryEngine& engine,
                         const std::string& scratch_path) {
  std::vector<Deferred> work = std::move(deferred_);
  deferred_.clear();
  for (const Deferred& d : work) {
    switch (d.kind) {
      case Deferred::kCompile:
        ReplayCompile(engine, d);
        break;
      case Deferred::kRegister:
        ReplayRegister(engine, d, scratch_path);
        break;
      case Deferred::kOpen:
        ReplayOpen(d.text);
        break;
    }
  }
}

// XQueryEngine::Compile's stages, in engine.cc's order, through their public
// entry points. Compile() itself stops before the VM compiler (that runs on
// first kVm execution), so vm.compile is timed but left out of coverage.
void Tracer::ReplayCompile(const XQueryEngine& engine, const Deferred& d) {
  const EngineOptions& eo = engine.options();
  const XQueryEngine::CompileOptions co;
  Span root(this, "replay.compile");
  int64_t stages = 0;
  Span parse(this, "query.parse");
  Result<std::unique_ptr<ParsedModule>> parsed =
      ParseQuery(d.text, eo.default_limits.max_expr_depth);
  stages += parse.End();
  if (!parsed.ok()) return;
  ParsedModule* m = parsed.value().get();
  Span normalize(this, "query.normalize");
  Status normalized = NormalizeModule(m);
  stages += normalize.End();
  if (!normalized.ok()) return;
  RewriterOptions rewriter = co.rewriter;
  if (!eo.enable_indexes) rewriter.index_paths = false;
  Span rewrite(this, "opt.rewrite");
  Result<RewriteStats> fired = OptimizeModule(m, rewriter);
  stages += rewrite.End();
  if (!fired.ok()) return;
  for (const auto& [rule, count] : fired.value()) rewrites_fired_ += count;
  if (rewriter.function_inlining) {
    Span inl(this, "opt.inline");
    Status inlined =
        InlineSmallFunctions(m, rewriter.inline_size_limit).status();
    stages += inl.End();
    if (!inlined.ok()) return;
  }
  Span analyze(this, "opt.analyze");
  for (UserFunction& fn : m->functions) {
    if (fn.body != nullptr) AnalyzeExpr(fn.body.get(), m);
  }
  for (GlobalVariable& g : m->globals) {
    if (g.init != nullptr) AnalyzeExpr(g.init.get(), m);
  }
  AnalyzeExpr(m->body.get(), m);
  stages += analyze.End();
  if (eo.enable_indexes) {
    IndexPeek peek = [&engine](const std::string& uri) {
      return engine.PeekDocumentIndexes(uri);
    };
    Span access(this, "opt.access_path");
    for (UserFunction& fn : m->functions) {
      if (fn.body != nullptr) {
        AnnotateAccessPaths(fn.body.get(), peek, eo.force_access_path);
      }
    }
    for (GlobalVariable& g : m->globals) {
      if (g.init != nullptr) {
        AnnotateAccessPaths(g.init.get(), peek, eo.force_access_path);
      }
    }
    AnnotateAccessPaths(m->body.get(), peek, eo.force_access_path);
    stages += access.End();
  }
  {
    Span vm_compile(this, "vm.compile");
    Result<std::shared_ptr<const vm::Program>> program = vm::CompileProgram(*m);
    vm_compile.End();
    if (program.ok()) {
      vm_code_insns_ += static_cast<double>(program.value()->code.size());
      vm_thunks_ += static_cast<double>(program.value()->thunks.size());
      ++vm_programs_;
    }
  }
  root.End();
  ++replays_;
  if (RenderExplainTree(*m->body) == d.compiled->ExplainTree()) ++replays_ok_;
  stage_ns_[Deferred::kCompile] += static_cast<double>(stages);
  whole_ns_[Deferred::kCompile] += static_cast<double>(d.whole_ns);
}

// XQueryEngine::ParseAndRegister's stages. Without a snapshot directory it
// is a parse. With one, it first opens the snapshot already there (when
// there is one) and compares its content hash, and after the parse the
// write-back builds the indexes, hashes the content again and writes the
// snapshot (to `scratch_path`, never over the engine's own file).
void Tracer::ReplayRegister(const XQueryEngine& engine, const Deferred& d,
                            const std::string& scratch_path) {
  const EngineOptions& eo = engine.options();
  Span root(this, "replay.register");
  int64_t stages = 0;
  if (!d.text.empty()) {
    Span probe(this, "storage.probe");
    {
      Result<storage::LoadedSnapshot> stale = storage::OpenSnapshot(d.text);
      storage::HashContent(*d.xml);
    }
    stages += probe.End();
  }
  ParseOptions parse_options;
  parse_options.max_parse_depth = eo.default_limits.max_parse_depth;
  Span parse(this, "xml.parse");
  parse.set_amount(static_cast<int64_t>(d.xml->size()));
  Result<std::shared_ptr<Document>> doc =
      Document::Parse(*d.xml, parse_options);
  stages += parse.End();
  if (!doc.ok()) return;
  if (d.persisted) {
    std::shared_ptr<const DocumentIndexes> indexes;
    if (eo.enable_indexes) {
      Span build(this, "index.build");
      Result<std::shared_ptr<const DocumentIndexes>> built =
          DocumentIndexes::Build(doc.value(), eo.index_value_kinds);
      stages += build.End();
      if (built.ok()) indexes = built.value();
    }
    storage::SnapshotInput input;
    input.doc = doc.value().get();
    input.indexes = indexes.get();
    input.content_bytes = d.xml->size();
    Span write(this, "storage.write");
    input.content_hash = storage::HashContent(*d.xml);
    Status written = storage::WriteSnapshotFile(scratch_path, input);
    stages += write.End();
    if (!written.ok()) return;
  }
  root.End();
  stage_ns_[Deferred::kRegister] += static_cast<double>(stages);
  whole_ns_[Deferred::kRegister] += static_cast<double>(d.whole_ns);
}

void Tracer::ReplayOpen(const std::string& path) {
  Span root(this, "replay.open");
  Span open(this, "storage.open");
  Result<storage::LoadedSnapshot> loaded = storage::OpenSnapshot(path);
  open.End();
}

/// Replayed stage time over whole-call time; -1 selects both kinds.
double Tracer::Coverage(int kind) const {
  double stages = 0, whole = 0;
  for (int k : {0, 1}) {
    if (kind >= 0 && k != kind) continue;
    stages += stage_ns_[k];
    whole += whole_ns_[k];
  }
  return whole == 0 ? 0 : stages / whole;
}

const Tracer::Agg* Tracer::Find(const std::string& root,
                                const std::string& name) const {
  auto it = agg_.find(root + "/" + name);
  return it == agg_.end() ? nullptr : &it->second;
}

double Tracer::PerRequest(const char* counter, int backend) const {
  uint64_t sum = 0, requests = 0;
  for (int b = 0; b < kNumBackends; ++b) {
    if (backend >= 0 && b != backend) continue;
    auto it = counter_sums_[b].find(counter);
    if (it != counter_sums_[b].end()) sum += it->second;
    requests += counted_requests_[b];
  }
  return requests == 0 ? 0 : static_cast<double>(sum) / requests;
}

std::vector<Metric> Tracer::LayerMetrics(
    const HarnessFacts& facts, std::vector<Metric>* workload_specific) const {
  // Median duration of `name` spans under any of `roots`, in `unit_ns`.
  auto median = [&](std::initializer_list<const char*> roots, const char* name,
                    double unit_ns) {
    std::vector<double> all;
    for (const char* root : roots) {
      if (const Agg* a = Find(root, name)) {
        all.insert(all.end(), a->dur_ns.begin(), a->dur_ns.end());
      }
    }
    return all.empty() ? 0.0 : Median(std::move(all)) / unit_ns;
  };
  auto mean = [&](const char* root, const char* name, double unit_ns) {
    const Agg* a = Find(root, name);
    if (a == nullptr || a->dur_ns.empty()) return 0.0;
    double sum = 0;
    for (double v : a->dur_ns) sum += v;
    return sum / a->dur_ns.size() / unit_ns;
  };
  const Agg* request = Find("request", "request");
  const double requests = request == nullptr ? 0 : request->dur_ns.size();
  const Agg* serialize = Find("request", "xml.serialize");

  double parse_bytes = 0, parse_ns = 0;
  for (const char* root : {"request", "replay.register"}) {
    if (const Agg* a = Find(root, "xml.parse")) {
      parse_bytes += a->amount;
      for (double v : a->dur_ns) parse_ns += v;
    }
  }
  double exec_items = 0;
  for (const char* name : {"exec.lazy", "exec.eager", "exec.vm"}) {
    if (const Agg* a = Find("request", name)) exec_items += a->amount;
  }
  double compile_in_requests = 0, request_ns = 0;
  if (const Agg* a = Find("request", "engine.compile")) {
    for (double v : a->dur_ns) compile_in_requests += v;
  }
  if (request != nullptr) {
    for (double v : request->dur_ns) request_ns += v;
  }
  const int vm = static_cast<int>(ExecBackend::kVm);
  const int lazy = static_cast<int>(ExecBackend::kLazy);
  const auto all_roots = {"setup", "request", "restart", "replay.compile",
                          "replay.register"};

  // A stored document: ingest, index and tag-index build (not msg_stream).
  // Snapshots: writes and opens (xmark_update only).
  auto add_if = [&](bool measured, Metric m) {
    if (measured) workload_specific->push_back(std::move(m));
  };
  add_if(Find("setup", "engine.register") != nullptr,
         {"engine.register.ms", median({"setup"}, "engine.register", 1e6),
          "ms"});
  add_if(Find("setup", "index.build") != nullptr,
         {"index.build.ms",
          median({"setup", "replay.register"}, "index.build", 1e6), "ms"});
  add_if(facts.index_mb >= 0, {"index.mb", facts.index_mb, "MB"});
  add_if(Find("setup", "join.tag_index") != nullptr,
         {"join.tag_index.ms", median({"setup"}, "join.tag_index", 1e6),
          "ms"});
  add_if(Find("replay.register", "storage.write") != nullptr,
         {"storage.write.ms",
          median({"replay.register"}, "storage.write", 1e6), "ms"});
  add_if(Find("replay.open", "storage.open") != nullptr,
         {"storage.open.ms", median({"replay.open"}, "storage.open", 1e6),
          "ms"});
  add_if(facts.snapshot_bytes_ratio >= 0,
         {"storage.bytes_ratio", facts.snapshot_bytes_ratio, "ratio"});

  return {
      {"xml.parse.ms", median({"request", "replay.register"}, "xml.parse", 1e6),
       "ms"},
      {"xml.parse.mb_s",
       parse_ns == 0 ? 0 : parse_bytes / 1e6 / (parse_ns / 1e9), "MB/s"},
      {"xml.serialize.us", mean("request", "xml.serialize", 1e3), "us"},
      {"xml.serialize.kb",
       serialize == nullptr ? 0 : serialize->amount / requests / 1e3, "KB"},
      {"query.parse.us", median({"replay.compile"}, "query.parse", 1e3), "us"},
      {"query.normalize.us", median({"replay.compile"}, "query.normalize", 1e3),
       "us"},
      {"opt.rewrite.us", median({"replay.compile"}, "opt.rewrite", 1e3), "us"},
      {"opt.rewrites_fired", replays_ == 0 ? 0 : rewrites_fired_ / replays_,
       "count"},
      {"opt.inline.us", median({"replay.compile"}, "opt.inline", 1e3), "us"},
      {"opt.analyze.us", median({"replay.compile"}, "opt.analyze", 1e3), "us"},
      {"opt.access_path.us", median({"replay.compile"}, "opt.access_path", 1e3),
       "us"},
      {"opt.planner.nav", PerRequest("planner.nav", -1), "count"},
      {"opt.planner.sjoin", PerRequest("planner.sjoin", -1), "count"},
      {"opt.planner.twig", PerRequest("planner.twig", -1), "count"},
      {"opt.planner.index", PerRequest("planner.index", -1), "count"},
      {"vm.compile.us", median({"replay.compile"}, "vm.compile", 1e3), "us"},
      {"vm.code_insns", vm_programs_ == 0 ? 0 : vm_code_insns_ / vm_programs_,
       "count"},
      {"vm.thunks", vm_programs_ == 0 ? 0 : vm_thunks_ / vm_programs_, "count"},
      {"vm.instructions", PerRequest("vm.instructions", vm), "count"},
      {"vm.bailouts", PerRequest("vm.bailouts", vm), "count"},
      {"vm.fallbacks", PerRequest("vm.fallbacks", vm), "count"},
      {"exec.lazy.us", mean("request", "exec.lazy", 1e3), "us"},
      {"exec.eager.us", mean("request", "exec.eager", 1e3), "us"},
      {"exec.vm.us", mean("request", "exec.vm", 1e3), "us"},
      {"exec.items", requests == 0 ? 0 : exec_items / requests, "count"},
      {"lazy.path.blocking", PerRequest("lazy.path.blocking", lazy), "count"},
      {"sort.ddo.items", PerRequest("sort.ddo.items", -1), "count"},
      {"index.hits",
       PerRequest("index.synopsis_hits", -1) +
           PerRequest("index.value_hits", -1),
       "count"},
      {"index.fallbacks", PerRequest("index.fallbacks", -1), "count"},
      {"join.parallel.dispatched", PerRequest("join.parallel.dispatched", -1),
       "count"},
      {"twig.parallel.dispatched", PerRequest("twig.parallel.dispatched", -1),
       "count"},
      {"engine.compile.us", median(all_roots, "engine.compile", 1e3), "us"},
      {"engine.compile.share",
       request_ns == 0 ? 0 : compile_in_requests / request_ns, "ratio"},
      {"trace.coverage", Coverage(-1), "ratio"},
      {"trace.replay_ok",
       replays_ == 0 ? 0 : static_cast<double>(replays_ok_) / replays_,
       "ratio"},
      {"trace.overhead",
       facts.untraced_p50_ms == 0 ? 0
                                  : facts.traced_p50_ms / facts.untraced_p50_ms,
       "ratio"},
  };
}

Status Tracer::WriteChromeTrace(const std::string& path,
                                const std::vector<std::string>& classes,
                                const std::string& extra) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot write trace file " + path);
  out << "{\"traceEvents\":[";
  char buf[384];
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                  "\"id\":%zu,\"parent\":%d,\"class\":\"%s\","
                  "\"backend\":\"%s\"}}",
                  i == 0 ? "" : ",", e.name, e.start_ns / 1e3, e.dur_ns / 1e3,
                  static_cast<unsigned long long>(e.request), i, e.parent,
                  e.cls >= 0 ? classes[e.cls].c_str() : "",
                  e.backend >= 0 ? ExecBackendName(kBackends[e.backend]) : "");
    out << buf;
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"xqp\":{" << extra
      << ",\"events_dropped\":"
      << (next_event_ > static_cast<int>(events_.size())
              ? next_event_ - static_cast<int>(events_.size())
              : 0)
      << ",\"coverage\":{\"compile\":" << Coverage(Deferred::kCompile)
      << ",\"register\":" << Coverage(Deferred::kRegister) << "}"
      << ",\"per_class_us\":[";
  bool first = true;
  for (const auto& [key, c] : per_class_) {
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"class\":\"%s\",\"backend\":\"%s\",\"n\":%zu,"
                  "\"compile\":%.3f,\"parse\":%.3f,\"exec\":%.3f,"
                  "\"serialize\":%.3f,\"total\":%.3f}",
                  first ? "" : ",", classes[key.first].c_str(),
                  ExecBackendName(kBackends[key.second]), c.total.size(),
                  Median(c.compile), Median(c.parse), Median(c.exec),
                  Median(c.serialize), Median(c.total));
    out << buf;
    first = false;
  }
  // Where the time went: per (root span, span) the call count, the total
  // and the self time (duration minus the children's).
  out << "\n],\"spans_ms\":{";
  first = true;
  for (const auto& [key, a] : agg_) {
    double total = 0;
    for (double v : a.dur_ns) total += v;
    std::snprintf(buf, sizeof(buf),
                  "%s\n\"%s\":{\"n\":%zu,\"total\":%.3f,\"self\":%.3f}",
                  first ? "" : ",", key.c_str(), a.dur_ns.size(), total / 1e6,
                  a.self_ns / 1e6);
    out << buf;
    first = false;
  }
  out << "\n}}}\n";
  out.close();
  if (!out) return Status::IoError("short write to trace file " + path);
  return Status::OK();
}

}  // namespace e2e
}  // namespace xqp
