#ifndef XQP_BENCH_E2E_E2E_H_
#define XQP_BENCH_E2E_E2E_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine.h"

namespace xqp {
namespace e2e {

using Clock = std::chrono::steady_clock;

inline int64_t NsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

constexpr ExecBackend kBackends[] = {ExecBackend::kLazy, ExecBackend::kEager,
                                     ExecBackend::kVm};
constexpr int kNumBackends = 3;

// ---------------------------------------------------------------- stats

double Median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> v, double p);
double GeoMean(const std::vector<double>& v);

/// splitmix64: workload inputs depend only on the seed, on every platform
/// and standard library (std:: distributions are implementation-defined).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  uint64_t Below(uint64_t n) { return Next() % n; }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[Below(i)]);
    }
  }

 private:
  uint64_t state_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// ---------------------------------------------------------------- tracing

/// In-memory span recorder for the traced run. Spans are opened and closed
/// in LIFO order by the harness around its calls into each layer; a root
/// span starts a new request id that its descendants share. Durations are
/// aggregated online per (root, name) so long runs keep bounded memory; the
/// first kMaxEvents spans are also kept for the Chrome trace file.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  bool recording() const { return recording_; }
  /// Starts/stops recording spans and per-request counter deltas, and turns
  /// the process-wide metrics registry on/off with it (what
  /// EngineOptions::collect_stats does at engine construction).
  void SetRecording(bool on);

  int Open(const char* name, int cls, int backend);
  /// Closes the innermost open span; returns its duration in ns.
  int64_t Close(int id, int64_t amount);

  /// Registry snapshot around one request; the delta accrues per backend.
  void CountersBefore();
  void CountersAfter(int backend);

  /// Stage replays, queued while a request or set-up is being timed and run
  /// by RunDeferred() between requests, outside every request span.
  void DeferCompile(std::string text, const CompiledQuery* compiled,
                    std::unique_ptr<CompiledQuery> owned, int64_t whole_ns);
  /// `probed_snapshot`: the snapshot file the call found and opened first,
  /// empty when there was none.
  void DeferRegister(const std::string* xml, bool persisted,
                     std::string probed_snapshot, int64_t whole_ns);
  void DeferOpen(std::string snapshot_path);
  void RunDeferred(const XQueryEngine& engine, const std::string& scratch_path);

  /// Inputs to the per-layer metrics that the harness measures itself; a
  /// negative value was not measured on this workload.
  struct HarnessFacts {
    double untraced_p50_ms = 0;
    double traced_p50_ms = 0;
    double index_mb = -1;
    double snapshot_bytes_ratio = -1;
  };
  /// Returns the per-layer metrics every workload measures (the result
  /// line's); those of layers that work only on some workloads (stored
  /// document, index build, storage) are added to `workload_specific` when
  /// this run measured them.
  std::vector<Metric> LayerMetrics(const HarnessFacts& facts,
                                   std::vector<Metric>* workload_specific) const;

  /// Writes the kept spans as Chrome trace-event JSON, plus the per-class
  /// (class x backend x stage) median breakdown and `extra` (a JSON object
  /// body) under the "xqp" key.
  Status WriteChromeTrace(const std::string& path,
                          const std::vector<std::string>& classes,
                          const std::string& extra) const;

 private:
  struct OpenSpan {
    const char* name;
    int event;
    int cls;
    int backend;
    Clock::time_point start;
    int64_t child_ns = 0;
    // Request roots only: time in each direct child stage.
    int64_t compile_ns = 0, exec_ns = 0, serialize_ns = 0, parse_ns = 0;
  };
  struct Event {
    const char* name;
    uint64_t request;
    int parent;
    int cls, backend;
    int64_t start_ns, dur_ns;
  };
  struct Agg {
    std::vector<double> dur_ns;
    double self_ns = 0;
    double amount = 0;
  };
  struct ClassAgg {
    std::vector<double> compile, exec, serialize, parse, total;
  };
  struct Deferred {
    enum Kind { kCompile, kRegister, kOpen } kind = kCompile;
    std::string text;  // query text, or a snapshot path for kRegister/kOpen
    const CompiledQuery* compiled = nullptr;
    std::unique_ptr<CompiledQuery> owned;
    const std::string* xml = nullptr;
    bool persisted = false;
    int64_t whole_ns = 0;
  };

  void ReplayCompile(const XQueryEngine& engine, const Deferred& d);
  void ReplayRegister(const XQueryEngine& engine, const Deferred& d,
                      const std::string& scratch_path);
  void ReplayOpen(const std::string& path);
  const Agg* Find(const std::string& root, const std::string& name) const;
  double PerRequest(const char* counter, int backend) const;

  static constexpr size_t kMaxEvents = 200000;

  bool enabled_;
  bool recording_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::vector<OpenSpan> open_;
  std::vector<Event> events_;
  int next_event_ = 0;
  uint64_t request_ = 0;
  std::map<std::string, Agg> agg_;  // key: root + "/" + name
  std::map<std::pair<int, int>, ClassAgg> per_class_;

  std::map<std::string, uint64_t> counters_before_;
  std::map<std::string, uint64_t> counter_sums_[kNumBackends];
  uint64_t counted_requests_[kNumBackends] = {};

  std::vector<Deferred> deferred_;
  // Replayed stage time and whole-call time, per Deferred::Kind.
  double stage_ns_[2] = {}, whole_ns_[2] = {};
  double Coverage(int kind) const;
  int replays_ = 0, replays_ok_ = 0;
  double rewrites_fired_ = 0, vm_code_insns_ = 0, vm_thunks_ = 0;
  int vm_programs_ = 0;
};

/// RAII span; a no-op unless the tracer is recording.
class Span {
 public:
  Span(Tracer* tracer, const char* name, int cls = -1, int backend = -1)
      : tracer_(tracer != nullptr && tracer->recording() ? tracer : nullptr),
        id_(tracer_ != nullptr ? tracer_->Open(name, cls, backend) : -1) {}
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Items, bytes, ... attributed to the span (summed per span name).
  void set_amount(int64_t amount) { amount_ = amount; }
  /// Closes the span now; returns its duration in ns (0 when not recording).
  int64_t End() {
    if (tracer_ == nullptr) return 0;
    Tracer* t = tracer_;
    tracer_ = nullptr;
    return t->Close(id_, amount_);
  }

 private:
  Tracer* tracer_;
  int id_;
  int64_t amount_ = 0;
};

// ---------------------------------------------------------------- workloads

/// An engine plus the queries it prepared: what a set-up or a restart
/// produces and what requests run against.
struct Server {
  std::unique_ptr<XQueryEngine> engine;
  std::vector<std::unique_ptr<CompiledQuery>> prepared;
};

/// What the served inputs occupy (MemoryUsage()), in bytes.
struct Footprint {
  double total = 0;
  double indexes = 0;
};

/// One benchmark workload. Requests (items of `item_class_`) run on an
/// engine that prepared `prepared_texts_` and, unless `uri_` is empty,
/// holds a stored document (`uri_`, one of `versions_`). The harness drives
/// set-up, checking, the timed loop, writes and restarts through this
/// interface; subclasses generate inputs and say what a request does.
class Workload {
 public:
  virtual ~Workload() = default;

  /// The stored document's uri; empty when requests bring their own.
  const std::string& uri() const { return uri_; }
  const std::vector<std::string>& classes() const { return classes_; }
  size_t num_items() const { return item_class_.size(); }
  int class_of(size_t item) const { return item_class_[item]; }
  /// Reads between two writes of the next version in the timed loop; 0 when
  /// the loop only reads.
  int reads_per_write() const { return reads_per_write_; }
  /// Whether the served engine persists snapshots
  /// (EngineOptions::snapshot_dir): when the loop writes.
  bool persisted() const { return reads_per_write_ > 0; }
  size_t num_versions() const { return versions_.size(); }
  size_t version() const { return version_; }
  const std::string& document(size_t version) const {
    return versions_[version];
  }
  bool expected_from_agreement() const { return expected_from_agreement_; }

  /// Generates the inputs from `seed` and the reference outputs (unoptimized
  /// eager interpreter). Untimed. Failed reference checks land in
  /// `check_failures`.
  virtual Status Prepare(uint64_t seed,
                         std::vector<std::string>* check_failures) = 0;

  /// A fresh engine serving the current version: ingest, then (unless
  /// `restart`, which adopts the snapshot left in options.snapshot_dir)
  /// path/value indexes and the tag index, then the prepared compiles.
  /// Without a stored document only the compiles.
  Result<Server> Start(const EngineOptions& options, bool restart,
                       Tracer* tracer) const;

  /// The served inputs' memory: by default the stored Document,
  /// DocumentIndexes and TagIndex held by `server`.
  virtual Result<Footprint> Measure(const Server& server) const;

  /// ParseAndRegister of version `v` on `engine`.
  Status Write(XQueryEngine* engine, size_t v, Tracer* tracer);
  /// The version the served engine holds: what Start() ingests and what
  /// expected() checks against.
  void set_version(size_t v) { version_ = v; }

  /// Serves request `item` on `backend`; the serialized response (the
  /// thing checked) is written to `out`.
  virtual Status Serve(const Server& server, size_t item, ExecBackend backend,
                       Tracer* tracer, std::string* out) const = 0;

  uint64_t expected(size_t item) const {
    return expected_[version_ * num_items() + item];
  }
  void set_expected(size_t item, uint64_t hash) {
    expected_[version_ * num_items() + item] = hash;
  }

 protected:
  /// Execute + serialize of one compiled query, with their spans.
  static Status RunQuery(const CompiledQuery& query,
                         const CompiledQuery::ExecOptions& options,
                         Tracer* tracer, std::string* out);

  std::string uri_;
  std::vector<std::string> versions_;
  size_t version_ = 0;
  std::vector<std::string> prepared_texts_;
  std::vector<std::string> classes_;
  std::vector<int> item_class_;
  /// Per (version, item) output hashes.
  std::vector<uint64_t> expected_;
  int reads_per_write_ = 0;
  bool expected_from_agreement_ = false;
};

const std::vector<std::string>& WorkloadNames();
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

// ---------------------------------------------------------------- run

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  std::string trace_path;
  std::string workdir = ".";
  bool self_test = false;
};

/// Runs one workload end to end and prints the summary and the result
/// line; returns the process exit code.
int RunBenchmark(const RunOptions& options);

}  // namespace e2e
}  // namespace xqp

#endif  // XQP_BENCH_E2E_E2E_H_
