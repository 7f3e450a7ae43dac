// The four workloads: inputs generated from the seed, reference outputs,
// and what one request does. See README.md for why each was chosen.

#include <cstdio>
#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include "e2e.h"
#include "storage/snapshot.h"
#include "xmark/generator.h"
#include "xmark/queries.h"

namespace xqp {
namespace e2e {

namespace {

const char* const kExecSpan[kNumBackends] = {"exec.lazy", "exec.eager",
                                             "exec.vm"};

uint64_t VersionSeed(uint64_t seed, size_t version) {
  return version == 0 ? seed : Rng(seed ^ (0x5eedull * version)).Next();
}

/// Output of the reference configuration: unoptimized plan, eager
/// interpreter.
Result<std::string> Reference(XQueryEngine* engine, const std::string& text,
                              CompiledQuery::ExecOptions options) {
  XQueryEngine::CompileOptions unoptimized;
  unoptimized.optimize = false;
  XQP_ASSIGN_OR_RETURN(std::unique_ptr<CompiledQuery> query,
                       engine->Compile(text, unoptimized));
  options.backend = ExecBackend::kEager;
  XQP_ASSIGN_OR_RETURN(Sequence result, query->Execute(options));
  return SerializeSequence(result);
}

// ------------------------------------------------------------------ XMark

struct XMarkConfig {
  double scale;
  std::vector<std::string> queries;  // XMark ids; all twenty when empty
  bool adhoc;                        // compile per request
  size_t versions;                   // the loop writes them in turn
  int reads_per_write;
  /// > 0: the reference runs on a document of this scale (the unoptimized
  /// Q9 is cubic), and on the served document the three backends must
  /// agree byte for byte instead.
  double check_scale;
};

class XMarkWorkload : public Workload {
 public:
  explicit XMarkWorkload(const XMarkConfig& config) : config_(config) {
    uri_ = "xmark.xml";
    reads_per_write_ = config.reads_per_write;
    expected_from_agreement_ = config.check_scale > 0;
    for (const XMarkQuery& q : XMarkQuerySet()) {
      bool wanted = config.queries.empty();
      for (const std::string& id : config.queries) wanted |= id == q.id;
      if (!wanted) continue;
      classes_.push_back(q.id);
      texts_.push_back(q.text);
      item_class_.push_back(static_cast<int>(item_class_.size()));
    }
    if (!config.adhoc) prepared_texts_ = texts_;
  }

  Status Prepare(uint64_t seed,
                 std::vector<std::string>* check_failures) override {
    for (size_t v = 0; v < config_.versions; ++v) {
      XMarkOptions options;
      options.scale = config_.scale;
      options.seed = VersionSeed(seed, v);
      versions_.push_back(GenerateXMarkXml(options));
    }
    expected_.assign(versions_.size() * num_items(), 0);
    if (expected_from_agreement_) {
      XMarkOptions options;
      options.scale = config_.check_scale;
      options.seed = seed;
      return CheckOnSmallDocument(GenerateXMarkXml(options), check_failures);
    }
    for (size_t v = 0; v < versions_.size(); ++v) {
      XQueryEngine engine;
      XQP_RETURN_NOT_OK(engine.ParseAndRegister(uri_, versions_[v]).status());
      for (size_t i = 0; i < num_items(); ++i) {
        XQP_ASSIGN_OR_RETURN(std::string out,
                             Reference(&engine, texts_[i], {}));
        expected_[v * num_items() + i] = storage::HashContent(out);
      }
    }
    return Status::OK();
  }

  Status Serve(const Server& server, size_t item, ExecBackend backend,
               Tracer* tracer, std::string* out) const override {
    CompiledQuery::ExecOptions options;
    options.backend = backend;
    if (!config_.adhoc) {
      return RunQuery(*server.prepared[item], options, tracer, out);
    }
    Span span(tracer, "engine.compile");
    Result<std::unique_ptr<CompiledQuery>> query =
        server.engine->Compile(texts_[item]);
    const int64_t compile_ns = span.End();
    XQP_RETURN_NOT_OK(query.status());
    Status status = RunQuery(*query.value(), options, tracer, out);
    if (tracer != nullptr && tracer->recording()) {
      const CompiledQuery* compiled = query.value().get();
      tracer->DeferCompile(texts_[item], compiled, std::move(query.value()),
                           compile_ns);
    }
    return status;
  }

 private:
  /// Reference outputs on the small check document must equal every
  /// optimized backend's output there.
  Status CheckOnSmallDocument(const std::string& xml,
                              std::vector<std::string>* failures) {
    XQueryEngine engine;
    XQP_RETURN_NOT_OK(engine.ParseAndRegister(uri_, xml).status());
    for (size_t i = 0; i < num_items(); ++i) {
      XQP_ASSIGN_OR_RETURN(std::string want, Reference(&engine, texts_[i], {}));
      XQP_ASSIGN_OR_RETURN(std::unique_ptr<CompiledQuery> query,
                           engine.Compile(texts_[i]));
      for (ExecBackend backend : kBackends) {
        CompiledQuery::ExecOptions options;
        options.backend = backend;
        std::string got;
        Status status = RunQuery(*query, options, nullptr, &got);
        if (!status.ok() || got != want) {
          failures->push_back(classes_[i] + " on the check document, " +
                              ExecBackendName(backend) + ": " +
                              (status.ok() ? "differs from the reference"
                                           : status.ToString()));
        }
      }
    }
    return Status::OK();
  }

  XMarkConfig config_;
  std::vector<std::string> texts_;
};

// --------------------------------------------------------------- messages

// The route predicates of examples/message_broker.cpp.
constexpr const char* kRoutes[] = {
    "exists(/order[customer/@region = 'EU'])",
    "boolean(/order/total > 1000)",
    "exists(//alert[@severity = ('high', 'critical')])",
    "true()",
    "exists(/*[namespace-uri(.) = 'urn:rosettanet'])",
};
constexpr size_t kNumRoutes = sizeof(kRoutes) / sizeof(kRoutes[0]);

constexpr const char* kOrderTransform = R"(
<routed at="broker-7">
  <summary customer="{string(/order/customer/@name)}"
           region="{string(/order/customer/@region)}"
           total="{string(/order/total)}"
           lines="{count(/order/lines/line)}"/>
  <lines>{
    for $l in /order/lines/line
    let $amount := $l/@qty * $l/@price
    order by $amount descending, string($l/@sku)
    return <line sku="{$l/@sku}" amount="{$amount}"/>
  }</lines>
  {/order}
</routed>)";

constexpr const char* kAlertTransform = R"(
<page to="oncall" severity="{string(/alert/@severity)}"
      source="{string(/alert/@source)}"
      escalate="{/alert/@severity = ('high', 'critical')}">{
  string(/alert/msg)
}</page>)";

constexpr const char* kHeartbeatTransform = R"(
<ack node="{string(/heartbeat/@node)}" at="{string(/heartbeat/@at)}"/>)";

constexpr const char* kPipTransform = R"(
<pip-ack action="{string(/*/*[local-name(.) = 'action'])}"
         from="{string(/*/*[local-name(.) = 'from'])}"
         lines="{count(/*/*[local-name(.) = 'line'])}"/>)";

// The trading-partner transformation of examples/web_service_transform.cpp,
// rooted at the message instead of doc('wlc.xml').
constexpr const char* kConfigTransform = R"(
let $wlc := /wlc
return
<trading-partner-list>{
  for $tp in $wlc/trading-partner
  return
    <trading-partner name="{$tp/@name}" type="{$tp/@type}"
                     email="{$tp/@email}">
    {
      for $dc in $tp/delivery-channel
      for $de in $tp/document-exchange
      for $t in $tp/transport
      where $dc/@document-exchange-name = $de/@name
        and $dc/@transport-name = $t/@name
        and $de/@business-protocol-name = 'ebXML'
      return
        <ebxml-binding name="{$dc/@name}"
            business-protocol-version="{$de/@protocol-version}"
            is-signature-required="{$dc/@nonrepudiation-of-origin}"
            delivery-semantics="{$de/EBXML-binding/@delivery-semantics}">
        { if (empty($de/EBXML-binding/@ttl)) then ()
          else attribute persist-duration {
            concat($de/EBXML-binding/@ttl div 1000, ' seconds') } }
        { if (empty($de/EBXML-binding/@retries)) then ()
          else $de/EBXML-binding/@retries }
        { if (empty($de/EBXML-binding/@retry-interval)) then ()
          else attribute retry-interval {
            concat($de/EBXML-binding/@retry-interval div 1000, ' seconds') } }
          <transport protocol="{$t/@protocol}"
                     protocol-version="{$t/@protocol-version}"
                     endpoint="{$t/endpoint[1]/@uri}">
            <authentication
                client-authentication="{
                  if (empty($tp/client-certificate)) then 'NONE'
                  else 'SSL_CERT_MUTUAL' }"
                server-authentication="{
                  if ($t/@protocol = 'http') then 'NONE' else 'SSL_CERT' }"
                server-certificate-name="{
                  if ($tp/@type = 'REMOTE')
                  then string($tp/server-certificate/@name) else '' }"/>
          </transport>
        </ebxml-binding>
    }
    {
      for $dc in $tp/delivery-channel
      for $de in $tp/document-exchange
      for $t in $tp/transport
      where $dc/@document-exchange-name = $de/@name
        and $dc/@transport-name = $t/@name
        and $de/@business-protocol-name = 'RosettaNet'
      return
        <rosettanet-binding name="{$dc/@name}"
            cipher-algorithm="{$de/RosettaNet-binding/@cipher-algorithm}"
            encryption-level="{
              if ($de/RosettaNet-binding/@encryption-level = 0) then 'NONE'
              else if ($de/RosettaNet-binding/@encryption-level = 1)
                   then 'PAYLOAD' else 'ENTIRE_PAYLOAD' }">
        { if (empty($de/RosettaNet-binding/@time-out)) then ()
          else attribute process-timeout {
            concat($de/RosettaNet-binding/@time-out div 1000, ' seconds') } }
          <transport protocol="{$t/@protocol}"
                     endpoint="{$t/endpoint[1]/@uri}"/>
        </rosettanet-binding>
    }
    </trading-partner>
}</trading-partner-list>)";

enum MessageClass {
  kOrderSmall,
  kOrder200,
  kAlert,
  kHeartbeat,
  kPip,
  kConfig,
  kNumMessageClasses
};

constexpr const char* kMessageClassNames[kNumMessageClasses] = {
    "order_small", "order_200", "alert", "heartbeat", "pip", "config"};

// Fixed class counts (sum 256) keep the pool's mix, and so every metric,
// the same across seeds; the seed varies content and arrival order.
constexpr int kMessageClassCounts[kNumMessageClasses] = {64, 32, 48,
                                                         48, 32, 32};

// Transform (index into the prepared transforms) per message class.
constexpr int kTransformOf[kNumMessageClasses] = {0, 0, 1, 2, 3, 4};

constexpr const char* kCustomers[] = {"ACME",  "Initech", "Umbrella", "Globex",
                                      "Hooli", "Soylent", "Stark",    "Wayne"};
constexpr const char* kMsgRegions[] = {"EU", "US", "APAC"};
constexpr const char* kSeverities[] = {"low", "medium", "high", "critical"};

template <size_t N>
const char* Pick(Rng* rng, const char* const (&options)[N]) {
  return options[rng->Below(N)];
}

std::string Num(uint64_t v) { return std::to_string(v); }

std::string OrderXml(Rng* rng, int id, int lines) {
  std::string xml = "<order id=\"" + Num(id) + "\"><customer name=\"" +
                    Pick(rng, kCustomers) + "\" region=\"" +
                    Pick(rng, kMsgRegions) + "\"/>";
  uint64_t total = 0;
  if (lines > 0) {
    xml += "<lines>";
    for (int i = 0; i < lines; ++i) {
      const uint64_t qty = 1 + rng->Below(20);
      const uint64_t price = 1 + rng->Below(500);
      total += qty * price;
      xml += "<line sku=\"SKU-" + Num(rng->Below(100000)) + "\" qty=\"" +
             Num(qty) + "\" price=\"" + Num(price) + "\"/>";
    }
    xml += "</lines>";
  } else {
    total = 10 + rng->Below(9990);
  }
  return xml + "<total>" + Num(total) + "</total></order>";
}

std::string AlertXml(Rng* rng) {
  return std::string("<alert severity=\"") + Pick(rng, kSeverities) +
         "\" source=\"node-" + Num(rng->Below(64)) + "\"><msg>queue depth " +
         Num(rng->Below(100000)) + " exceeded</msg></alert>";
}

std::string HeartbeatXml(Rng* rng) {
  char at[32];
  std::snprintf(at, sizeof(at), "2004-09-14T%02d:%02d:%02d",
                static_cast<int>(rng->Below(24)),
                static_cast<int>(rng->Below(60)),
                static_cast<int>(rng->Below(60)));
  return std::string("<heartbeat at=\"") + at + "\" node=\"node-" +
         Num(rng->Below(64)) + "\"/>";
}

std::string PipXml(Rng* rng) {
  std::string xml =
      "<rn:pip xmlns:rn=\"urn:rosettanet\"><rn:action>3A" +
      Num(1 + rng->Below(9)) + "</rn:action><rn:from>" + Pick(rng, kCustomers) +
      "</rn:from>";
  for (int i = 0; i < 4; ++i) {
    xml += "<rn:line sku=\"SKU-" + Num(rng->Below(100000)) + "\" qty=\"" +
           Num(1 + rng->Below(20)) + "\"/>";
  }
  return xml + "</rn:pip>";
}

/// A trading-partner configuration in the shape of
/// examples/web_service_transform.cpp, with `partners` partners.
std::string ConfigXml(Rng* rng, int partners) {
  std::string xml = "<wlc>";
  for (int p = 0; p < partners; ++p) {
    const std::string tp = "tp" + Num(p) + "-" + Num(rng->Below(1000));
    const bool remote = rng->Below(2) == 1;
    auto flag = [&] { return rng->Below(2) == 1 ? "true" : "false"; };
    xml += "<trading-partner name=\"" + tp + "\" type=\"" +
           (remote ? "REMOTE" : "LOCAL") + "\" email=\"" + tp +
           "@example.com\">";
    if (rng->Below(4) != 0) {
      xml += "<client-certificate name=\"" + tp + "-client\"/>";
    }
    xml += "<server-certificate name=\"" + tp + "-server\"/>";
    xml += "<delivery-channel name=\"" + tp + "-ebxml-dc\" " +
           "document-exchange-name=\"" + tp + "-ebxml-de\" transport-name=\"" +
           tp + "-https\" nonrepudiation-of-origin=\"" + flag() +
           "\" nonrepudiation-of-receipt=\"" + flag() + "\"/>";
    xml += "<delivery-channel name=\"" + tp + "-rn-dc\" " +
           "document-exchange-name=\"" + tp + "-rn-de\" transport-name=\"" +
           tp + "-http\" nonrepudiation-of-origin=\"" + flag() +
           "\" nonrepudiation-of-receipt=\"" + flag() + "\"/>";
    xml += "<document-exchange name=\"" + tp +
           "-ebxml-de\" business-protocol-name=\"ebXML\" "
           "protocol-version=\"2.0\"><EBXML-binding delivery-semantics=\"" +
           (rng->Below(2) == 1 ? "OnceAndOnlyOnce" : "BestEffort") +
           "\" retries=\"" + Num(1 + rng->Below(5)) + "\" retry-interval=\"" +
           Num(1000 * (1 + rng->Below(60))) + "\"" +
           (rng->Below(2) == 1 ? " ttl=\"60000\"" : "") +
           " signature-certificate-name=\"" + tp +
           "-sign\"/></document-exchange>";
    xml += "<document-exchange name=\"" + tp +
           "-rn-de\" business-protocol-name=\"RosettaNet\" "
           "protocol-version=\"1.1\"><RosettaNet-binding "
           "encryption-level=\"" +
           Num(rng->Below(3)) + "\" cipher-algorithm=\"" +
           (rng->Below(2) == 1 ? "RC5" : "3DES") + "\" retries=\"" +
           Num(1 + rng->Below(5)) + "\" retry-interval=\"" +
           Num(1000 * (1 + rng->Below(60))) + "\"" +
           (rng->Below(2) == 1 ? " time-out=\"120000\"" : "") +
           "/></document-exchange>";
    xml += "<transport name=\"" + tp +
           "-https\" protocol=\"https\" protocol-version=\"1.1\"><endpoint "
           "uri=\"https://" +
           tp + ".example.com/exchange\"/></transport>";
    xml += "<transport name=\"" + tp +
           "-http\" protocol=\"http\" protocol-version=\"1.1\"><endpoint "
           "uri=\"http://" +
           tp + ".example.com/rn\"/></transport>";
    xml += "</trading-partner>";
  }
  return xml + "</wlc>";
}

/// The paper's streaming scenario: each request parses one message, runs
/// the broker's route predicates and the class's transform with the
/// message as context item. Nothing is stored: set-up is the prepared
/// compiles.
class MessageWorkload : public Workload {
 public:
  MessageWorkload() {
    classes_.assign(std::begin(kMessageClassNames),
                    std::end(kMessageClassNames));
    for (const char* route : kRoutes) prepared_texts_.push_back(route);
    for (const char* t : {kOrderTransform, kAlertTransform, kHeartbeatTransform,
                          kPipTransform, kConfigTransform}) {
      prepared_texts_.push_back(t);
    }
  }

  Status Prepare(uint64_t seed,
                 std::vector<std::string>* check_failures) override {
    Rng rng(seed);
    for (int c = 0; c < kNumMessageClasses; ++c) {
      for (int i = 0; i < kMessageClassCounts[c]; ++i) item_class_.push_back(c);
    }
    rng.Shuffle(&item_class_);
    int config_no = 0;
    for (size_t i = 0; i < item_class_.size(); ++i) {
      switch (item_class_[i]) {
        case kOrderSmall: messages_.push_back(OrderXml(&rng, i, 0)); break;
        case kOrder200: messages_.push_back(OrderXml(&rng, i, 200)); break;
        case kAlert: messages_.push_back(AlertXml(&rng)); break;
        case kHeartbeat: messages_.push_back(HeartbeatXml(&rng)); break;
        case kPip: messages_.push_back(PipXml(&rng)); break;
        default: messages_.push_back(ConfigXml(&rng, 1 + config_no++ % 16));
      }
    }
    expected_.assign(num_items(), 0);
    XQueryEngine engine;
    for (size_t i = 0; i < num_items(); ++i) {
      XQP_ASSIGN_OR_RETURN(std::shared_ptr<Document> doc,
                           Document::Parse(messages_[i]));
      CompiledQuery::ExecOptions options;
      options.has_context_item = true;
      options.context_item = Item(Node(doc, 0));
      std::string out;
      for (size_t r = 0; r < kNumRoutes; ++r) {
        XQP_ASSIGN_OR_RETURN(std::string verdict,
                             Reference(&engine, kRoutes[r], options));
        out += verdict + "\n";
      }
      XQP_ASSIGN_OR_RETURN(
          std::string transformed,
          Reference(&engine, prepared_texts_[TransformSlot(i)], options));
      expected_[i] = storage::HashContent(out + transformed);
    }
    return Status::OK();
  }

  Status Serve(const Server& server, size_t item, ExecBackend backend,
               Tracer* tracer, std::string* out) const override {
    Span span(tracer, "xml.parse");
    span.set_amount(static_cast<int64_t>(messages_[item].size()));
    Result<std::shared_ptr<Document>> doc = Document::Parse(messages_[item]);
    span.End();
    XQP_RETURN_NOT_OK(doc.status());
    CompiledQuery::ExecOptions options;
    options.backend = backend;
    options.has_context_item = true;
    options.context_item = Item(Node(doc.value(), 0));
    for (size_t r = 0; r < kNumRoutes; ++r) {
      XQP_RETURN_NOT_OK(RunQuery(*server.prepared[r], options, tracer, out));
      out->push_back('\n');
    }
    return RunQuery(*server.prepared[TransformSlot(item)], options, tracer,
                    out);
  }

  /// The message pool, each message parsed once; no indexes are built.
  Result<Footprint> Measure(const Server&) const override {
    Footprint footprint;
    for (const std::string& message : messages_) {
      XQP_ASSIGN_OR_RETURN(std::shared_ptr<Document> doc,
                           Document::Parse(message));
      footprint.total += doc->MemoryUsage();
    }
    return footprint;
  }

 private:
  size_t TransformSlot(size_t item) const {
    return kNumRoutes + kTransformOf[item_class_[item]];
  }

  std::vector<std::string> messages_;
};

}  // namespace

namespace {

/// The snapshot a ParseAndRegister of `uri` on `engine` will open first, or
/// "" when the engine persists nothing or no snapshot exists yet.
std::string ProbedSnapshot(const XQueryEngine& engine, const std::string& uri) {
  if (engine.options().snapshot_dir.empty()) return "";
  std::string path = engine.SnapshotPathFor(uri);
  std::error_code error;
  return std::filesystem::exists(path, error) ? path : "";
}

}  // namespace

Result<Server> Workload::Start(const EngineOptions& options, bool restart,
                               Tracer* tracer) const {
  Server server;
  server.engine = std::make_unique<XQueryEngine>(options);
  const bool replay = tracer != nullptr && tracer->recording() && !restart;
  if (!uri_.empty()) {
    const std::string& xml = versions_[version_];
    const std::string probed =
        replay ? ProbedSnapshot(*server.engine, uri_) : "";
    Span ingest(tracer, "engine.register");
    ingest.set_amount(static_cast<int64_t>(xml.size()));
    Status status = server.engine->ParseAndRegister(uri_, xml).status();
    const int64_t ingest_ns = ingest.End();
    XQP_RETURN_NOT_OK(status);
    if (replay) {
      tracer->DeferRegister(&xml, !options.snapshot_dir.empty(), probed,
                            ingest_ns);
    }
  }
  if (!uri_.empty() && !restart) {
    Span indexes(tracer, "index.build");
    XQP_RETURN_NOT_OK(server.engine->GetDocumentIndexes(uri_).status());
    indexes.End();
    Span tags(tracer, "join.tag_index");
    XQP_RETURN_NOT_OK(server.engine->GetTagIndex(uri_).status());
  }
  for (const std::string& text : prepared_texts_) {
    Span span(tracer, "engine.compile");
    Result<std::unique_ptr<CompiledQuery>> query = server.engine->Compile(text);
    const int64_t compile_ns = span.End();
    XQP_RETURN_NOT_OK(query.status());
    if (replay) {
      tracer->DeferCompile(text, query.value().get(), nullptr, compile_ns);
    }
    server.prepared.push_back(std::move(query.value()));
  }
  return server;
}

Result<Footprint> Workload::Measure(const Server& server) const {
  XQP_ASSIGN_OR_RETURN(std::shared_ptr<const Document> doc,
                       server.engine->GetDocument(uri_));
  XQP_ASSIGN_OR_RETURN(std::shared_ptr<const DocumentIndexes> indexes,
                       server.engine->GetDocumentIndexes(uri_));
  XQP_ASSIGN_OR_RETURN(std::shared_ptr<const TagIndex> tags,
                       server.engine->GetTagIndex(uri_));
  if (indexes == nullptr) return Status::Internal("no indexes were built");
  Footprint footprint;
  footprint.indexes = indexes->MemoryUsage();
  footprint.total = doc->MemoryUsage() + footprint.indexes + tags->MemoryUsage();
  return footprint;
}

Status Workload::Write(XQueryEngine* engine, size_t v, Tracer* tracer) {
  const bool replay = tracer != nullptr && tracer->recording();
  const std::string probed = replay ? ProbedSnapshot(*engine, uri_) : "";
  Span span(tracer, "write");
  span.set_amount(static_cast<int64_t>(versions_[v].size()));
  Status status = engine->ParseAndRegister(uri_, versions_[v]).status();
  const int64_t ns = span.End();
  XQP_RETURN_NOT_OK(status);
  if (replay) {
    tracer->DeferRegister(&versions_[v],
                          !engine->options().snapshot_dir.empty(), probed, ns);
  }
  return Status::OK();
}

Status Workload::RunQuery(const CompiledQuery& query,
                          const CompiledQuery::ExecOptions& options,
                          Tracer* tracer, std::string* out) {
  const int backend = static_cast<int>(*options.backend);
  Span exec(tracer, kExecSpan[backend], -1, backend);
  Result<Sequence> result = query.Execute(options);
  if (result.ok()) exec.set_amount(static_cast<int64_t>(result.value().size()));
  exec.End();
  XQP_RETURN_NOT_OK(result.status());
  Span serialize(tracer, "xml.serialize");
  XQP_ASSIGN_OR_RETURN(std::string text, SerializeSequence(result.value()));
  serialize.set_amount(static_cast<int64_t>(text.size()));
  *out += text;
  return Status::OK();
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "xmark_prepared", "xmark_adhoc", "msg_stream", "xmark_update"};
  return kNames;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "xmark_prepared") {
    return std::make_unique<XMarkWorkload>(
        XMarkConfig{0.1, {}, false, 1, 0, 0.02});
  }
  if (name == "xmark_adhoc") {
    return std::make_unique<XMarkWorkload>(
        XMarkConfig{0.02, {}, true, 1, 0, 0});
  }
  if (name == "xmark_update") {
    return std::make_unique<XMarkWorkload>(XMarkConfig{
        0.1, {"Q1", "Q2", "Q5", "Q6", "Q13", "Q15", "Q16", "Q17", "Q20"}, false,
        4, 8, 0});
  }
  if (name == "msg_stream") return std::make_unique<MessageWorkload>();
  return nullptr;
}

}  // namespace e2e
}  // namespace xqp
