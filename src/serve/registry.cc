#include "serve/registry.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <utility>

#include "obs/metrics.h"
#include "serve/protocol.h"

namespace msd {
namespace serve {

namespace {

// Names feed the serve/<name>/... metric taxonomy, so they stay inside the
// [a-z0-9_]+ segment grammar the metric-name-taxonomy lint enforces.
bool ValidModelName(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
    if (!ok) return false;
  }
  return true;
}

Status ManifestError(int line_no, const std::string& message) {
  return Status::InvalidArgument("manifest line " + std::to_string(line_no) +
                                 ": " + message);
}

StatusOr<int64_t> ParseIntValue(int line_no, const std::string& key,
                                const std::string& value, int64_t min) {
  char* end = nullptr;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || end != value.c_str() + value.size()) {
    return ManifestError(line_no, key + "=" + value + " is not an integer");
  }
  if (parsed < min) {
    return ManifestError(line_no, key + "=" + value + " must be >= " +
                                      std::to_string(min));
  }
  return static_cast<int64_t>(parsed);
}

StatusOr<bool> ParseBoolValue(int line_no, const std::string& key,
                              const std::string& value) {
  if (value == "0") return false;
  if (value == "1") return true;
  return ManifestError(line_no, key + "=" + value + " must be 0 or 1");
}

std::vector<std::string> SplitTokens(const std::string& line) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i])) != 0) {
      ++i;
    }
    size_t start = i;
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i])) == 0) {
      ++i;
    }
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

// Per-model instrument names are dynamic ("serve/<model>/<leaf>"); the
// manifest parser constrains <model> to [a-z0-9_]+ so the result always
// lands inside the metric-name-taxonomy grammar the lint enforces on
// literals.
obs::Counter& ModelCounter(const std::string& model, const char* leaf) {
  const std::string name = "serve/" + model + "/" + leaf;
  return obs::MetricsRegistry::Global().GetCounter(name);
}

obs::Gauge& ModelGauge(const std::string& model, const char* leaf) {
  const std::string name = "serve/" + model + "/" + leaf;
  return obs::MetricsRegistry::Global().GetGauge(name);
}

}  // namespace

StatusOr<Manifest> ParseManifest(const std::string& text) {
  Manifest manifest;
  // name -> (version, declaring line) for duplicate/regression diagnostics.
  std::map<std::string, std::pair<int64_t, int>> seen;
  int default_line = 0;
  int line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t nl = text.find('\n', pos);
    std::string line = nl == std::string::npos
                           ? text.substr(pos)
                           : text.substr(pos, nl - pos);
    pos = nl == std::string::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::vector<std::string> tokens = SplitTokens(line);
    if (tokens.empty()) continue;
    if (tokens[0] != "model") {
      return ManifestError(line_no, "expected 'model', got '" + tokens[0] +
                                        "'");
    }
    ManifestEntry entry;
    bool has_name = false;
    bool has_version = false;
    bool has_checkpoint = false;
    for (size_t i = 1; i < tokens.size(); ++i) {
      const size_t eq = tokens[i].find('=');
      if (eq == std::string::npos || eq == 0) {
        return ManifestError(line_no, "expected key=value, got '" + tokens[i] +
                                          "'");
      }
      const std::string key = tokens[i].substr(0, eq);
      const std::string value = tokens[i].substr(eq + 1);
      if (key == "name") {
        if (!ValidModelName(value)) {
          return ManifestError(
              line_no, "name '" + value + "' must match [a-z0-9_]+");
        }
        entry.name = value;
        has_name = true;
      } else if (key == "checkpoint") {
        if (value.empty()) {
          return ManifestError(line_no, "checkpoint path is empty");
        }
        entry.checkpoint = value;
        has_checkpoint = true;
      } else if (key == "version") {
        StatusOr<int64_t> v = ParseIntValue(line_no, key, value, 1);
        if (!v.ok()) return v.status();
        entry.version = v.value();
        has_version = true;
      } else if (key == "lookback" || key == "horizon" || key == "model_dim" ||
                 key == "hidden_dim" || key == "max_batch") {
        StatusOr<int64_t> v = ParseIntValue(line_no, key, value, 1);
        if (!v.ok()) return v.status();
        if (key == "lookback") entry.lookback = v.value();
        if (key == "horizon") entry.horizon = v.value();
        if (key == "model_dim") entry.model_dim = v.value();
        if (key == "hidden_dim") entry.hidden_dim = v.value();
        if (key == "max_batch") entry.max_batch = v.value();
      } else if (key == "max_inflight") {
        StatusOr<int64_t> v = ParseIntValue(line_no, key, value, 0);
        if (!v.ok()) return v.status();
        entry.max_inflight = v.value();
      } else if (key == "instance_norm" || key == "quantize" ||
                 key == "default") {
        StatusOr<bool> b = ParseBoolValue(line_no, key, value);
        if (!b.ok()) return b.status();
        if (key == "instance_norm") entry.use_instance_norm = b.value();
        if (key == "quantize") entry.quantize = b.value();
        if (key == "default") entry.is_default = b.value();
      } else {
        return ManifestError(line_no, "unknown key '" + key + "'");
      }
    }
    if (!has_name) return ManifestError(line_no, "missing name=<id>");
    if (!has_version) return ManifestError(line_no, "missing version=<n>");
    if (!has_checkpoint) {
      return ManifestError(line_no, "missing checkpoint=<path>");
    }
    const auto it = seen.find(entry.name);
    if (it != seen.end()) {
      if (entry.version <= it->second.first) {
        return ManifestError(
            line_no, "version regression for model '" + entry.name + "': v" +
                         std::to_string(entry.version) + " but line " +
                         std::to_string(it->second.second) + " already "
                         "declared v" + std::to_string(it->second.first) +
                         "; versions must strictly increase");
      }
      return ManifestError(
          line_no, "duplicate model '" + entry.name + "' (first declared on "
                       "line " + std::to_string(it->second.second) +
                       "); list each model once and use RELOAD to publish a "
                       "new version");
    }
    seen.emplace(entry.name, std::make_pair(entry.version, line_no));
    if (entry.is_default) {
      if (default_line != 0) {
        return ManifestError(
            line_no, "default=1 already set on line " +
                         std::to_string(default_line) +
                         "; only one model can be the default");
      }
      default_line = line_no;
      manifest.default_model = entry.name;
    }
    manifest.entries.push_back(std::move(entry));
  }
  if (manifest.entries.empty()) {
    return Status::InvalidArgument("manifest declares no models");
  }
  if (manifest.default_model.empty()) {
    manifest.default_model = manifest.entries.front().name;
  }
  return manifest;
}

ServedModel::ServedModel(const ManifestEntry& entry,
                         std::unique_ptr<InferenceSession> session,
                         const MicroBatcherConfig& batcher_config)
    : entry_(entry),
      session_(std::move(session)),
      requests_(ModelCounter(entry.name, "requests_total")),
      rejected_(ModelCounter(entry.name, "rejected_total")),
      inflight_gauge_(ModelGauge(entry.name, "inflight")),
      version_gauge_(ModelGauge(entry.name, "version")),
      batcher_(session_.get(), batcher_config) {
  version_gauge_.Set(static_cast<double>(entry_.version));
  batcher_.Start();
}

ServedModel::~ServedModel() { batcher_.Stop(); }

Status ServedModel::AdmitQuota() {
  const int64_t now = inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (entry_.max_inflight > 0 && now > entry_.max_inflight) {
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    rejected_.Add(1);
    return Status::ResourceExhausted(
        "model '" + entry_.name + "' is at its admission quota (" +
        std::to_string(entry_.max_inflight) + " in flight); retry with "
        "backoff");
  }
  inflight_gauge_.Set(static_cast<double>(now));
  requests_.Add(1);
  return Status::OK();
}

void ServedModel::ReleaseQuota() {
  inflight_gauge_.Set(static_cast<double>(
      inflight_.fetch_sub(1, std::memory_order_relaxed) - 1));
}

StatusOr<Tensor> ServedModel::Handle(const Tensor& window, int64_t timeout_us) {
  ResultFuture future;
  Status admitted =
      SubmitAsync(Tensor(window), FutureCallback(&future), timeout_us);
  if (!admitted.ok()) return admitted;
  return future.get();
}

Status ServedModel::SubmitAsync(Tensor window, ResultCallback done,
                                int64_t timeout_us) {
  Status admitted = AdmitQuota();
  if (!admitted.ok()) return admitted;
  Status submitted = batcher_.SubmitAsync(
      std::move(window),
      // `this` stays valid: the caller's `done` closes over the ServedModel
      // snapshot, and the batcher holds this callback until it resolves.
      [this, done = std::move(done)](StatusOr<Tensor> result) {
        ReleaseQuota();
        done(std::move(result));
      },
      timeout_us);
  if (!submitted.ok()) ReleaseQuota();
  return submitted;
}

// msd-hot-path-safe: session construction is a swap-time chokepoint —
// checkpoint restore and plan freezing allocate by design and never run
// per-request; audited here so the hot-path scan does not descend.
StatusOr<std::shared_ptr<ServedModel>> CreateServedModel(
    const ManifestEntry& entry, const MicroBatcherConfig& batcher_config) {
  ForecastSessionOptions options;
  options.lookback = entry.lookback;
  options.horizon = entry.horizon;
  options.model_dim = entry.model_dim;
  options.hidden_dim = entry.hidden_dim;
  options.use_instance_norm = entry.use_instance_norm;
  options.max_batch = entry.max_batch;
  options.quantize = entry.quantize;
  StatusOr<std::unique_ptr<InferenceSession>> session =
      CreateForecastSession(entry.checkpoint, options);
  if (!session.ok()) {
    return Status(session.status().code(),
                  "model '" + entry.name + "': " + session.status().message());
  }
  return std::make_shared<ServedModel>(entry, std::move(session).value(),
                                       batcher_config);
}

ModelRegistry::ModelRegistry(const MicroBatcherConfig& batcher_config)
    : batcher_config_(batcher_config) {}

ModelRegistry::~ModelRegistry() {
  // Stop every batcher from this (owner) thread BEFORE dropping references:
  // a worker thread may still be tearing down a resolved request whose
  // completion holds the last model snapshot, and letting it run
  // ~ServedModel would make the batcher join its own worker. After Stop()
  // the workers are joined and no completion holds a reference, so the
  // plain destruction below is safe on any thread.
  std::vector<std::shared_ptr<ServedModel>> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& pair : models_) all.push_back(pair.second);
    for (const auto& model : retired_) all.push_back(model);
  }
  for (const std::shared_ptr<ServedModel>& model : all) {
    model->batcher().Stop();
  }
  all.clear();
  ReapRetired();
  std::map<std::string, std::shared_ptr<ServedModel>> models;
  {
    std::lock_guard<std::mutex> lock(mu_);
    models.swap(models_);
  }
  models.clear();
}

Status ModelRegistry::Load(const Manifest& manifest) {
  for (const ManifestEntry& entry : manifest.entries) {
    StatusOr<std::shared_ptr<ServedModel>> model =
        CreateServedModel(entry, batcher_config_);
    if (!model.ok()) return model.status();
    Status added = Add(std::move(model).value());
    if (!added.ok()) return added;
  }
  default_model_ = manifest.default_model;
  return Status::OK();
}

Status ModelRegistry::Add(std::shared_ptr<ServedModel> model) {
  if (model == nullptr) return Status::InvalidArgument("null model");
  std::lock_guard<std::mutex> lock(mu_);
  const std::string& name = model->name();
  if (models_.count(name) != 0) {
    return Status::InvalidArgument("model '" + name +
                                   "' already registered; use RELOAD to "
                                   "publish a new version");
  }
  models_.emplace(name, std::move(model));
  return Status::OK();
}

// msd-hot-path-safe: one mutex-guarded map lookup and a shared_ptr copy —
// the per-request routing cost, audited; no allocation past the lock.
StatusOr<std::shared_ptr<ServedModel>> ModelRegistry::Get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string& key = name.empty() ? default_model_ : name;
  const auto it = models_.find(key);
  if (it == models_.end()) {
    return Status::NotFound("unknown model '" + key +
                            "'; LIST shows the registered models");
  }
  return it->second;
}

Status ModelRegistry::Swap(std::shared_ptr<ServedModel> replacement) {
  if (replacement == nullptr) return Status::InvalidArgument("null model");
  std::vector<std::shared_ptr<ServedModel>> reap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = models_.find(replacement->name());
    if (it == models_.end()) {
      return Status::NotFound("model '" + replacement->name() +
                              "' is not registered; swaps replace existing "
                              "models");
    }
    if (replacement->version() <= it->second->version()) {
      return Status::InvalidArgument(
          "version regression for model '" + replacement->name() + "': v" +
          std::to_string(replacement->version()) + " does not supersede the "
          "live v" + std::to_string(it->second->version()));
    }
    // The outgoing model is retired, not destroyed: in-flight completions
    // still hold snapshots, and the last one may run on its own batcher
    // worker thread, where ~ServedModel would self-join.
    retired_.push_back(std::move(it->second));
    it->second = std::move(replacement);
    static obs::Counter& swaps =
        obs::MetricsRegistry::Global().GetCounter("serve/registry_swaps");
    swaps.Add(1);
    for (size_t i = 0; i < retired_.size();) {
      if (retired_[i].use_count() == 1) {
        reap.push_back(std::move(retired_[i]));
        retired_[i] = std::move(retired_.back());
        retired_.pop_back();
      } else {
        ++i;
      }
    }
  }
  // Stop()/join of drained batchers happens outside the registry lock so
  // Get() never blocks behind a teardown.
  reap.clear();
  return Status::OK();
}

Status ModelRegistry::Reload(const std::string& name,
                             const std::string& checkpoint) {
  StatusOr<std::shared_ptr<ServedModel>> current = Get(name);
  if (!current.ok()) return current.status();
  // Same architecture keys as the live entry; only the checkpoint and the
  // version move. Concurrent Reloads race benignly: both build the same
  // next version and the loser's Swap is rejected as a regression.
  ManifestEntry entry = current.value()->entry();
  entry.checkpoint = checkpoint;
  entry.version += 1;
  StatusOr<std::shared_ptr<ServedModel>> replacement =
      CreateServedModel(entry, batcher_config_);
  if (!replacement.ok()) return replacement.status();
  return Swap(std::move(replacement).value());
}

std::vector<std::shared_ptr<ServedModel>> ModelRegistry::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<ServedModel>> models;
  models.reserve(models_.size());
  for (const auto& pair : models_) models.push_back(pair.second);
  return models;
}

void ModelRegistry::ReapRetired() {
  std::vector<std::shared_ptr<ServedModel>> reap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    reap.swap(retired_);
  }
  // Models that still have in-flight holders go back on the list; the rest
  // are destroyed here, on a thread that is not one of their workers.
  std::vector<std::shared_ptr<ServedModel>> still_live;
  for (std::shared_ptr<ServedModel>& model : reap) {
    if (model.use_count() > 1) still_live.push_back(std::move(model));
  }
  reap.clear();
  if (!still_live.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::shared_ptr<ServedModel>& model : still_live) {
      retired_.push_back(std::move(model));
    }
  }
}

std::string ModelService::ListLine() const {
  std::string out = "{\"default\":\"" + registry_->default_model() +
                    "\",\"models\":[";
  bool first = true;
  char buf[160];
  for (const std::shared_ptr<ServedModel>& model : registry_->List()) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":\"" + model->name() + "\",";
    std::snprintf(buf, sizeof(buf),
                  "\"version\":%lld,\"inflight\":%lld,\"max_inflight\":%lld,"
                  "\"quantized\":%s}",
                  static_cast<long long>(model->version()),
                  static_cast<long long>(model->inflight()),
                  static_cast<long long>(model->entry().max_inflight),
                  model->session()->quantized() ? "true" : "false");
    out += buf;
  }
  out += "]}";
  return out;
}

std::string ModelService::StatsLine() const {
  // The global serve/* snapshot, extended with one object per model.
  std::string out = ServeStatsJson();
  MSD_CHECK(!out.empty() && out.back() == '}');
  out.pop_back();
  out += ",\"models\":{";
  bool first = true;
  char buf[160];
  for (const std::shared_ptr<ServedModel>& model : registry_->List()) {
    if (!first) out.push_back(',');
    first = false;
    out += "\"" + model->name() + "\":";
    std::snprintf(buf, sizeof(buf),
                  "{\"version\":%lld,\"requests_total\":%lld,"
                  "\"rejected_total\":%lld,\"inflight\":%lld}",
                  static_cast<long long>(model->version()),
                  static_cast<long long>(model->requests_total()),
                  static_cast<long long>(model->rejected_total()),
                  static_cast<long long>(model->inflight()));
    out += buf;
  }
  out += "}}";
  return out;
}

bool ModelService::MaybeAdmin(const std::string& trimmed, std::string* reply) {
  if (trimmed == "STATS") {
    *reply = StatsLine();
    return true;
  }
  if (trimmed == "LIST") {
    *reply = ListLine();
    return true;
  }
  if (trimmed.rfind("TRACE", 0) == 0 &&
      (trimmed.size() == 5 || trimmed[5] == ' ' || trimmed[5] == '\t')) {
    const std::string path =
        trimmed.size() > 5 ? TrimmedLine(trimmed.substr(5)) : std::string();
    *reply = HandleTraceDump(path, exporter_);
    return true;
  }
  if (trimmed.rfind("RELOAD", 0) == 0 &&
      (trimmed.size() == 6 || trimmed[6] == ' ' || trimmed[6] == '\t')) {
    const std::vector<std::string> tokens = SplitTokens(trimmed);
    if (tokens.size() != 3) {
      *reply = "ERROR " + Status::InvalidArgument(
                              "RELOAD needs <model> <checkpoint>")
                              .ToString();
      return true;
    }
    Status reloaded = registry_->Reload(tokens[1], tokens[2]);
    if (!reloaded.ok()) {
      *reply = "ERROR " + reloaded.ToString();
      return true;
    }
    StatusOr<std::shared_ptr<ServedModel>> swapped = registry_->Get(tokens[1]);
    *reply = "OK " + tokens[1] + " v" +
             (swapped.ok() ? std::to_string(swapped.value()->version())
                           : std::string("?"));
    return true;
  }
  return false;
}

StatusOr<std::shared_ptr<ServedModel>> ModelService::Route(
    const std::string& line, std::string* payload) const {
  if (line.rfind("MODEL", 0) == 0 &&
      (line.size() == 5 || line[5] == ' ' || line[5] == '\t')) {
    size_t i = 5;
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    const std::string name = line.substr(start, i - start);
    if (name.empty()) {
      return Status::InvalidArgument("MODEL needs a model name");
    }
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    *payload = line.substr(i);
    return registry_->Get(name);
  }
  *payload = line;
  return registry_->Get(std::string());
}

std::string ModelService::HandleLine(const std::string& line) {
  // Shared: the completion may outlive this frame on a batcher worker.
  auto reply = std::make_shared<std::promise<std::string>>();
  std::future<std::string> answered = reply->get_future();
  HandleLineAsync(line, [reply](std::string text) {
    reply->set_value(std::move(text));
  });
  return answered.get();
}

// msd-hot-path: the multi-tenant request path every socket line runs
// through — routing, parse, async admission.
void ModelService::HandleLineAsync(const std::string& line,
                                   std::function<void(std::string)> done) {
  const std::string trimmed = TrimmedLine(line);
  std::string reply;
  if (MaybeAdmin(trimmed, &reply)) {
    done(std::move(reply));
    return;
  }
  std::string payload;
  StatusOr<std::shared_ptr<ServedModel>> routed = Route(trimmed, &payload);
  if (!routed.ok()) {
    done("ERROR " + routed.status().ToString());
    return;
  }
  std::shared_ptr<ServedModel> model = std::move(routed).value();
  const MsdMixerConfig& mc = model->session()->model_config();
  StatusOr<Tensor> window =
      ParseWindowLine(payload, mc.channels, mc.input_length);
  if (!window.ok()) {
    done("ERROR " + window.status().ToString());
    return;
  }
  // `done` is copied into the completion (not moved): on a non-OK admission
  // the callback is discarded unfired and the reject still needs answering.
  // The captured snapshot keeps the admitted-to model alive across swaps.
  Status submitted = model->SubmitAsync(
      std::move(window).value(), [model, done](StatusOr<Tensor> result) {
        if (result.ok()) {
          done(FormatTensorLine(result.value()));
        } else {
          done("ERROR " + result.status().ToString());
        }
      });
  if (!submitted.ok()) done("ERROR " + submitted.ToString());
}

}  // namespace serve
}  // namespace msd
