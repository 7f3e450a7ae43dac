// The closed-loop run: set-ups, the reference check, the timed loop,
// writes and restarts, and the metrics they yield.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory_resource>
#include <string>
#include <utility>

#include "base/parallel.h"
#include "e2e.h"
#include "storage/snapshot.h"

namespace xqp {
namespace e2e {

namespace fs = std::filesystem;

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double upper = v[mid];
  return (*std::max_element(v.begin(), v.begin() + mid) + upper) / 2;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p / 100 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / v.size());
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

/// Fresh-engine set-ups per run; setup_s is their median.
constexpr int kSetUps = 7;
/// Restarts per run of a workload that persists snapshots; restart_ms is
/// their median.
constexpr int kRestarts = 21;
/// The speed probe's median on the machine BENCHMARK.json's bounds were set
/// on; see README.md.
constexpr double kReferenceProbeMs = 0.31;
constexpr auto kProbeInterval = std::chrono::milliseconds(250);
constexpr size_t kMaxErrorsShown = 5;

/// Request order: blocks holding every (item, backend) pair once, each
/// shuffled from the seed, so every class runs equally often on each
/// backend.
class Schedule {
 public:
  explicit Schedule(uint64_t seed) : rng_(~seed) {}

  std::pair<size_t, int> Next(size_t items) {
    if (pos_ == block_.size()) {
      block_.clear();
      for (size_t i = 0; i < items; ++i) {
        for (int b = 0; b < kNumBackends; ++b) block_.emplace_back(i, b);
      }
      rng_.Shuffle(&block_);
      pos_ = 0;
    }
    return block_[pos_++];
  }

 private:
  Rng rng_;
  std::vector<std::pair<size_t, int>> block_;
  size_t pos_ = 0;
};

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  /// `describe` names the failure; it runs only for the first few.
  template <typename Describe>
  void Record(bool ok, Describe describe) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (errors.size() < kMaxErrorsShown) errors.push_back(describe());
  }
};

/// A timed sample: when it started (seconds into the run) and its value.
struct Timed {
  double at_s;
  double value;
};

std::vector<double> Values(const std::vector<Timed>& samples) {
  std::vector<double> out;
  for (const Timed& t : samples) out.push_back(t.value);
  return out;
}

/// The machine's current speed, from fixed reference work that shares no
/// code or memory with xqp: ordered-map inserts and lookups of short
/// strings in a private arena. A sample times the second of two passes, so
/// it runs on warm caches and does not pay for what the previous request
/// left in them.
class SpeedProbe {
 public:
  SpeedProbe() : start_(Clock::now()), arena_(1 << 20) { Sample(); }

  /// Seconds from the probe's creation (the start of the run) to `t`.
  double At(Clock::time_point t) const { return NsBetween(start_, t) / 1e9; }

  /// The factor that brings a time measured at `at_s` to the reference
  /// speed: kReferenceProbeMs over the median of the samples taken within
  /// a second of it (of all samples when there are none).
  double ScaleAt(double at_s) const {
    auto first = std::lower_bound(
        samples_.begin(), samples_.end(), at_s - 1,
        [](const Timed& t, double at) { return t.at_s < at; });
    std::vector<double> near;
    for (auto it = first; it != samples_.end() && it->at_s <= at_s + 1; ++it) {
      near.push_back(it->value);
    }
    return kReferenceProbeMs / Median(near.empty() ? Values(samples_) : near);
  }

  /// Scales each sample to the reference speed.
  std::vector<double> Scaled(const std::vector<Timed>& samples) const {
    std::vector<double> out;
    for (const Timed& t : samples) out.push_back(t.value * ScaleAt(t.at_s));
    return out;
  }

  /// Samples unless the last sample is recent. The loop calls this between
  /// requests, so the samples spread over the run's time.
  void MaybeSample() {
    if (Clock::now() - last_ >= kProbeInterval) Sample();
  }

  void Sample() {
    checksum_ += Pass();
    const Clock::time_point t0 = Clock::now();
    checksum_ += Pass();
    last_ = Clock::now();
    samples_.push_back({At(t0), NsBetween(t0, last_) / 1e6});
  }

  double median_ms() const { return Median(Values(samples_)); }
  size_t samples() const { return samples_.size(); }

 private:
  uint64_t Pass() {
    std::pmr::monotonic_buffer_resource arena(
        arena_.data(), arena_.size(), std::pmr::null_memory_resource());
    std::pmr::map<int, std::pmr::string> map(&arena);
    for (int i = 0; i < kKeys; ++i) map.emplace(i * 7919 % kKeys, kValue);
    uint64_t sum = 0;
    for (int i = 0; i < kKeys; ++i) sum += map.find(i)->second.size();
    return sum;
  }

  static constexpr int kKeys = 3001;  // prime: i * 7919 % kKeys permutes
  static constexpr const char* kValue =
      "probe-value-longer-than-the-small-string-buffer";

  Clock::time_point start_;
  std::vector<std::byte> arena_;
  std::vector<Timed> samples_;  // in time order
  Clock::time_point last_;
  uint64_t checksum_ = 0;
};

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

/// The run's working directory (snapshots, replay scratch), removed on exit.
class RunDir {
 public:
  explicit RunDir(std::string path) : path_(std::move(path)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~RunDir() {
    std::error_code ignored;
    fs::remove_all(path_, ignored);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

/// Each layer, the prefixes of its per-layer metric names, and the
/// end-to-end metrics its numbers should move.
struct LayerRow {
  const char* layer;
  std::array<const char*, 3> prefixes;
  const char* moves;
};
constexpr LayerRow kLayers[] = {
    {"xml", {"xml."},
     "setup_s (xmark_prepared); p50_ms/geomean_ms.* (msg_stream); "
     "qps and write_p50_ms (xmark_update)"},
    {"query", {"query."},
     "geomean_ms.*/qps (xmark_adhoc); nothing on xmark_prepared or msg_stream"},
    {"opt", {"opt."},
     "times: xmark_adhoc; planner counts: geomean_ms.* (xmark_prepared)"},
    {"vm", {"vm."},
     "geomean_ms.vm: run on xmark_prepared/msg_stream, compile on xmark_adhoc"},
    {"exec", {"exec.", "lazy.", "sort."},
     "geomean_ms.<backend>, qps, p99_ms (xmark_prepared)"},
    {"index", {"index."},
     "setup_s/mem_mb (xmark_prepared); qps and write_p50_ms (xmark_update)"},
    {"join", {"join.", "twig."},
     "setup_s (xmark_prepared); p99_ms (xmark_update)"},
    {"storage", {"storage."},
     "qps, write_p50_ms, restart_ms (xmark_update); nothing elsewhere"},
    {"engine", {"engine.", "trace."}, "attribution checks"},
};

const LayerRow* LayerFor(const std::string& metric) {
  for (const LayerRow& row : kLayers) {
    for (const char* prefix : row.prefixes) {
      if (prefix != nullptr && metric.rfind(prefix, 0) == 0) return &row;
    }
  }
  return nullptr;
}

void PrintLayerTable(const std::string& workload,
                     const std::vector<Metric>& layers) {
  std::printf("per-layer (%s):\n", workload.c_str());
  for (const LayerRow& row : kLayers) {
    bool header = false;
    for (const Metric& m : layers) {
      if (LayerFor(m.name) != &row) continue;
      if (!header) {
        std::printf("  [%s] should move: %s\n", row.layer, row.moves);
        header = true;
      }
      std::printf("    %-26s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
}

/// Runs one workload: set-ups, check, the timed loop, restarts, and the
/// results.
class Runner {
 public:
  Runner(const RunOptions& opt, std::unique_ptr<Workload> w)
      : opt_(opt),
        w_(std::move(w)),
        seconds_(opt.seconds),
        nproc_(Nproc()),
        dir_(opt.workdir + "/xqp_e2e-" + opt.workload + "-" +
             std::to_string(::getpid())),
        scratch_(dir_.path() + "/replay.xqps"),
        tracer_(!opt.trace_path.empty()),
        traced_(tracer_.enabled() ? &tracer_ : nullptr),
        schedule_(opt.seed) {
    // The pool keeps its default size; the engine's parallel regions are
    // split into at most as many chunks as this process has CPUs, so they
    // occupy at most nproc threads even when the pool is larger.
    if (DefaultParallelism() > nproc_) options_.num_threads = nproc_;
    if (w_->persisted()) options_.snapshot_dir = dir_.path() + "/snapshots";
  }

  int Run();

 private:
  struct Phase {
    std::vector<Timed> read_ms;
    std::vector<int> read_slot;  // class * 3 + backend, per request
    /// Each loop iteration's time (the request and any write before it);
    /// speed samples are left out.
    std::vector<Timed> iteration_s;
  };

  /// One timed fresh-engine set-up; the engine is served when `keep`.
  Status SetUp(bool keep);
  /// One timed write of version `v` on the served engine.
  Status Write(size_t v, Tracer* tracer);
  /// One timed restart: a fresh engine adopts the snapshot the served
  /// engine left behind, prepares its queries and answers the first read.
  void Restart();
  /// Every request on every backend once, untimed, against the reference.
  void Check();
  void Loop(double seconds, Tracer* tracer, Phase* phase);
  std::string Stamp() const;

  const RunOptions& opt_;
  std::unique_ptr<Workload> w_;
  const double seconds_;
  const int nproc_;
  RunDir dir_;
  const std::string scratch_;
  Tracer tracer_;
  Tracer* const traced_;  // null unless the run is traced
  SpeedProbe probe_;
  Schedule schedule_;
  EngineOptions options_;
  Server served_;
  uint64_t reads_ = 0;
  Tally tally_;
  std::vector<std::string> check_failures_;
  std::vector<Timed> setup_s_, write_ms_, restart_ms_;
};

Status Runner::SetUp(bool keep) {
  if (!options_.snapshot_dir.empty()) fs::remove_all(options_.snapshot_dir);
  probe_.Sample();
  Span root(traced_, "setup");
  const Clock::time_point t0 = Clock::now();
  Result<Server> server = w_->Start(options_, false, traced_);
  const Clock::time_point t1 = Clock::now();
  root.End();
  XQP_RETURN_NOT_OK(server.status());
  setup_s_.push_back({probe_.At(t0), NsBetween(t0, t1) / 1e9});
  if (traced_ != nullptr) tracer_.RunDeferred(*server.value().engine, scratch_);
  if (keep) served_ = std::move(server.value());
  return Status::OK();
}

Status Runner::Write(size_t v, Tracer* tracer) {
  const Clock::time_point t0 = Clock::now();
  Status status = w_->Write(served_.engine.get(), v, tracer);
  const Clock::time_point t1 = Clock::now();
  tally_.Record(status.ok(), [&] { return "write: " + status.ToString(); });
  if (status.ok()) {
    write_ms_.push_back({probe_.At(t0), NsBetween(t0, t1) / 1e6});
  }
  if (tracer != nullptr) tracer->RunDeferred(*served_.engine, scratch_);
  return status;
}

void Runner::Restart() {
  probe_.Sample();
  Span root(traced_, "restart");
  const Clock::time_point t0 = Clock::now();
  Result<Server> server = w_->Start(options_, true, traced_);
  std::string out;
  Status status = server.status();
  if (status.ok()) {
    status = w_->Serve(server.value(), 0, ExecBackend::kLazy, traced_, &out);
  }
  const Clock::time_point t1 = Clock::now();
  root.End();
  const bool ok = status.ok() && storage::HashContent(out) == w_->expected(0);
  tally_.Record(ok, [&] {
    return "restart: " +
           (status.ok() ? std::string("wrong output") : status.ToString());
  });
  restart_ms_.push_back({probe_.At(t0), NsBetween(t0, t1) / 1e6});
  if (traced_ != nullptr && server.ok()) {
    tracer_.DeferOpen(server.value().engine->SnapshotPathFor(w_->uri()));
    tracer_.RunDeferred(*server.value().engine, scratch_);
  }
}

void Runner::Check() {
  for (size_t item = 0; item < w_->num_items(); ++item) {
    for (int b = 0; b < kNumBackends; ++b) {
      std::string out;
      Status s = w_->Serve(served_, item, kBackends[b], nullptr, &out);
      const std::string what = w_->classes()[w_->class_of(item)] + " on " +
                               ExecBackendName(kBackends[b]);
      if (!s.ok()) {
        check_failures_.push_back(what + ": " + s.ToString());
      } else if (w_->expected_from_agreement() && b == 0) {
        w_->set_expected(item, storage::HashContent(out));
      } else if (storage::HashContent(out) != w_->expected(item)) {
        check_failures_.push_back(
            what + (w_->expected_from_agreement()
                        ? ": differs from lazy on the served document"
                        : ": differs from the reference"));
      }
    }
  }
}

/// One closed-loop client: the next request is sent when the previous one
/// has returned. xmark_update writes the next version every
/// reads_per_write() reads. Speed samples run between requests and are left
/// out of the loop's elapsed time.
void Runner::Loop(double seconds, Tracer* tracer, Phase* phase) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::string out;
  while (Clock::now() < deadline) {
    probe_.MaybeSample();
    const Clock::time_point iteration = Clock::now();
    if (w_->reads_per_write() > 0 && reads_ % w_->reads_per_write() == 0) {
      const size_t next = (w_->version() + 1) % w_->num_versions();
      if (Write(next, tracer).ok()) w_->set_version(next);
    }
    const auto [item, backend] = schedule_.Next(w_->num_items());
    const int cls = w_->class_of(item);
    out.clear();
    if (tracer != nullptr) tracer->CountersBefore();
    const Clock::time_point t0 = Clock::now();
    Status status;
    {
      Span request(tracer, "request", cls, backend);
      status = w_->Serve(served_, item, kBackends[backend], tracer, &out);
    }
    const Clock::time_point t1 = Clock::now();
    if (tracer != nullptr) tracer->CountersAfter(backend);
    ++reads_;
    const bool ok =
        status.ok() && storage::HashContent(out) == w_->expected(item);
    tally_.Record(ok, [&] {
      return w_->classes()[cls] + " on " + ExecBackendName(kBackends[backend]) +
             ": " + (status.ok() ? "wrong output" : status.ToString());
    });
    phase->read_ms.push_back({probe_.At(t0), NsBetween(t0, t1) / 1e6});
    phase->read_slot.push_back(cls * kNumBackends + backend);
    phase->iteration_s.push_back(
        {probe_.At(iteration), NsBetween(iteration, Clock::now()) / 1e9});
    if (tracer != nullptr) tracer->RunDeferred(*served_.engine, scratch_);
  }
}

std::string Runner::Stamp() const {
  // ThreadPool::Global() is sized by DefaultParallelism(), which ignores
  // CPU affinity, so pool_threads can exceed nproc; parallel_chunks cannot.
  const int chunks = options_.num_threads > 0 ? options_.num_threads
                                              : DefaultParallelism();
  return std::string("{\"workload\": \"") + opt_.workload +
         "\", \"git_sha\": \"" + XQP_E2E_GIT_SHA + "\", \"build_type\": \"" +
         XQP_E2E_BUILD_TYPE + "\", \"compiler\": \"" + XQP_E2E_COMPILER +
         "\", \"nproc\": " + std::to_string(nproc_) + ", \"pool_threads\": " +
         std::to_string(ThreadPool::Global().num_threads()) +
         ", \"parallel_chunks\": " + std::to_string(chunks) +
         ", \"seed\": " + std::to_string(opt_.seed) +
         ", \"seconds\": " + JsonNumber(seconds_) + ", \"traced\": " +
         (traced_ != nullptr ? "true" : "false") + "}";
}

int Runner::Run() {
  const std::string stamp = Stamp();
  std::printf("stamp: %s\n", stamp.c_str());
  if (ThreadPool::Global().num_threads() > nproc_) {
    std::printf("note: the worker pool has %d threads for %d CPUs; parallel "
                "regions use at most %d\n",
                ThreadPool::Global().num_threads(), nproc_, nproc_);
  }
  std::fflush(stdout);
  if (Status s = w_->Prepare(opt_.seed, &check_failures_); !s.ok()) {
    std::fprintf(stderr, "input generation failed: %s\n", s.ToString().c_str());
    return 1;
  }
  tracer_.SetRecording(true);
  for (int i = 0; i < kSetUps; ++i) {
    if (Status s = SetUp(i + 1 == kSetUps); !s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  tracer_.SetRecording(false);
  Result<Footprint> footprint = w_->Measure(served_);
  if (!footprint.ok()) {
    std::fprintf(stderr, "served inputs: %s\n",
                 footprint.status().ToString().c_str());
    return 1;
  }
  Check();
  if (opt_.self_test) w_->set_expected(0, w_->expected(0) ^ 1);

  // A traced run spends its second half traced.
  Phase plain, with_trace;
  Loop(traced_ != nullptr ? seconds_ / 2 : seconds_, nullptr, &plain);
  if (traced_ != nullptr) {
    tracer_.SetRecording(true);
    Loop(seconds_ / 2, traced_, &with_trace);
  }
  if (w_->persisted()) {
    for (int i = 0; i < kRestarts; ++i) Restart();
  }
  tracer_.SetRecording(false);

  const bool correct = check_failures_.empty() && tally_.failed == 0;
  const double fail_frac =
      tally_.attempted == 0
          ? 0
          : static_cast<double>(tally_.failed) / tally_.attempted;
  // Each timed sample is brought to the reference machine speed by the
  // speed probe's median within a second of it; the summary shows both.
  auto metrics = [&](bool scaled) {
    auto values = [&](const std::vector<Timed>& v) {
      return scaled ? probe_.Scaled(v) : Values(v);
    };
    const std::vector<double> reads = values(plain.read_ms);
    double loop_s = 0;
    for (double v : values(plain.iteration_s)) loop_s += v;
    std::vector<std::vector<double>> per_slot(w_->classes().size() *
                                              kNumBackends);
    for (size_t i = 0; i < reads.size(); ++i) {
      per_slot[plain.read_slot[i]].push_back(reads[i]);
    }
    std::vector<double> geomean(kNumBackends);
    for (int b = 0; b < kNumBackends; ++b) {
      std::vector<double> medians;
      for (size_t c = 0; c < w_->classes().size(); ++c) {
        const std::vector<double>& v = per_slot[c * kNumBackends + b];
        if (!v.empty()) medians.push_back(Median(v));
      }
      geomean[b] = GeoMean(medians);
    }
    std::vector<Metric> out = {
        {"setup_s", Median(values(setup_s_)), "s"},
        {"qps", reads.size() / loop_s, "1/s"},
        {"p50_ms", Median(reads), "ms"},
        {"p99_ms", Percentile(reads, 99), "ms"},
        {"geomean_ms.lazy", geomean[0], "ms"},
        {"geomean_ms.eager", geomean[1], "ms"},
        {"geomean_ms.vm", geomean[2], "ms"},
        {"mem_mb", footprint.value().total / 1e6, "MB"},
    };
    // Only xmark_update writes and restarts; the result line carries what
    // every workload measures (see README.md), so these two are printed.
    if (w_->persisted()) {
      out.push_back({"write_p50_ms", Median(values(write_ms_)), "ms"});
      out.push_back({"restart_ms", Median(values(restart_ms_)), "ms"});
    }
    return out;
  };
  const std::vector<Metric> measured = metrics(false);
  const std::vector<Metric> end_to_end = metrics(true);
  constexpr size_t kEveryWorkload = 8;  // metrics() up to mem_mb

  double loop_s = 0;
  for (double v : Values(plain.iteration_s)) loop_s += v;
  std::printf("%s: %zu requests in %.2f s (one closed-loop client); "
              "p50/p99 over %zu samples; %zu set-ups, %zu writes, %zu "
              "restarts\n",
              opt_.workload.c_str(), plain.read_ms.size(), loop_s,
              plain.read_ms.size(), setup_s_.size(), write_ms_.size(),
              restart_ms_.size());
  std::printf("speed probe: median %.4f ms over %zu samples, reference %.4f "
              "ms\n",
              probe_.median_ms(), probe_.samples(), kReferenceProbeMs);
  for (size_t i = 0; i < end_to_end.size(); ++i) {
    std::printf("  %-18s %14.6f %-4s (as measured: %.6f)\n",
                end_to_end[i].name.c_str(), end_to_end[i].value,
                end_to_end[i].unit.c_str(), measured[i].value);
  }
  std::printf("  %-18s %14.6f (%llu failed of %llu attempted)\n", "fail_frac",
              fail_frac, static_cast<unsigned long long>(tally_.failed),
              static_cast<unsigned long long>(tally_.attempted));
  for (const std::string& f : check_failures_) {
    std::printf("  check failed: %s\n", f.c_str());
  }
  for (const std::string& e : tally_.errors) {
    std::printf("  request failed: %s\n", e.c_str());
  }

  std::vector<Metric> reported(end_to_end.begin(),
                               end_to_end.begin() + kEveryWorkload);
  if (traced_ != nullptr) {
    Tracer::HarnessFacts facts;
    facts.untraced_p50_ms = Median(probe_.Scaled(plain.read_ms));
    facts.traced_p50_ms = Median(probe_.Scaled(with_trace.read_ms));
    if (!w_->uri().empty()) facts.index_mb = footprint.value().indexes / 1e6;
    if (w_->persisted()) {
      std::error_code size_error;
      const std::string snapshot = served_.engine->SnapshotPathFor(w_->uri());
      facts.snapshot_bytes_ratio =
          static_cast<double>(fs::file_size(snapshot, size_error)) /
          w_->document(w_->version()).size();
    }
    std::vector<Metric> workload_specific;
    reported = tracer_.LayerMetrics(facts, &workload_specific);
    std::vector<Metric> layers = reported;
    layers.insert(layers.end(), workload_specific.begin(),
                  workload_specific.end());
    PrintLayerTable(opt_.workload, layers);
    Status s = tracer_.WriteChromeTrace(
        opt_.trace_path, w_->classes(),
        "\"stamp\": " + stamp + ", \"end_to_end\": " + MetricsJson(end_to_end) +
            ", \"per_layer\": " + MetricsJson(layers));
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("trace written to %s\n", opt_.trace_path.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(tally_.attempted),
              static_cast<unsigned long long>(tally_.failed),
              MetricsJson(reported).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int RunBenchmark(const RunOptions& options) {
  Runner runner(options, MakeWorkload(options.workload));
  return runner.Run();
}

}  // namespace e2e
}  // namespace xqp
