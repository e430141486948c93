#include "ires/snapshot.h"

#include <cinttypes>
#include <cstdio>
#include <utility>

namespace midas {

namespace {

/// Memo key for a DreamOptions configuration: every field that can change
/// the fitted models takes part, doubles printed with full precision so
/// distinct configurations never collide.
std::string DreamOptionsKey(const DreamOptions& options) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "r2=%.17g;mmax=%zu;adj=%d;eng=%d;ridge=%.17g",
                options.r2_require, options.m_max,
                options.use_adjusted_r2 ? 1 : 0,
                options.engine == DreamEngine::kBatch ? 1 : 0,
                options.ols.ridge_fallback);
  return buf;
}

}  // namespace

StatusOr<const EstimatorSnapshot::ScopeState*> EstimatorSnapshot::Find(
    const std::string& scope) const {
  auto it = scopes_.find(scope);
  if (it == scopes_.end()) {
    return Status::NotFound("no history for scope: " + scope);
  }
  return it->second.get();
}

StatusOr<const TrainingSet*> EstimatorSnapshot::Window(
    const std::string& scope) const {
  MIDAS_ASSIGN_OR_RETURN(const ScopeState* state, Find(scope));
  return &state->frozen;
}

size_t EstimatorSnapshot::SizeOf(const std::string& scope) const {
  auto it = scopes_.find(scope);
  return it == scopes_.end() ? 0 : it->second->frozen.size();
}

std::vector<std::string> EstimatorSnapshot::Scopes() const {
  std::vector<std::string> out;
  out.reserve(scopes_.size());
  for (const auto& [name, unused] : scopes_) out.push_back(name);
  return out;
}

StatusOr<std::shared_ptr<const DreamEstimate>> EstimatorSnapshot::DreamFit(
    const std::string& scope, const DreamOptions& options) const {
  MIDAS_ASSIGN_OR_RETURN(const ScopeState* state, Find(scope));
  const std::string key = DreamOptionsKey(options);
  std::lock_guard<std::mutex> lock(state->fit_mutex);
  auto it = state->dream_fits.find(key);
  if (it != state->dream_fits.end()) return it->second;
  Dream dream(options);
  MIDAS_ASSIGN_OR_RETURN(DreamEstimate estimate,
                         dream.EstimateCostValue(state->frozen));
  auto shared = std::make_shared<const DreamEstimate>(std::move(estimate));
  state->dream_fits.emplace(key, shared);
  return shared;
}

StatusOr<std::shared_ptr<const BmlScopeFit>> EstimatorSnapshot::BmlFit(
    const std::string& scope, const std::string& key,
    const BmlFitter& fitter) const {
  MIDAS_ASSIGN_OR_RETURN(const ScopeState* state, Find(scope));
  std::lock_guard<std::mutex> lock(state->fit_mutex);
  auto it = state->bml_fits.find(key);
  if (it != state->bml_fits.end()) return it->second;
  MIDAS_ASSIGN_OR_RETURN(BmlScopeFit fit, fitter(state->frozen));
  auto shared = std::make_shared<const BmlScopeFit>(std::move(fit));
  state->bml_fits.emplace(key, shared);
  return shared;
}

SnapshotPublisher::SnapshotPublisher(std::vector<std::string> feature_names,
                                     std::vector<std::string> metric_names)
    : live_(feature_names, metric_names),
      feature_names_(std::make_shared<const std::vector<std::string>>(
          std::move(feature_names))),
      metric_names_(std::make_shared<const std::vector<std::string>>(
          std::move(metric_names))) {
  auto initial = std::make_shared<EstimatorSnapshot>();
  initial->epoch_ = 0;
  initial->feature_names_ = feature_names_;
  initial->metric_names_ = metric_names_;
  published_ = std::move(initial);
}

std::shared_ptr<const EstimatorSnapshot> SnapshotPublisher::Acquire() const {
  // Acquire is const so any reader can pin; the dirty republish mutates
  // only publisher-internal state (conceptually a cache refresh).
  auto* self = const_cast<SnapshotPublisher*>(this);
  std::lock_guard<std::mutex> lock(mutex_);
  if (dirty_) self->RepublishAllLocked();
  return published_;
}

uint64_t SnapshotPublisher::epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return published_->epoch();
}

Status SnapshotPublisher::Record(const std::string& scope,
                                 Observation observation) {
  std::vector<ScopedObservation> batch;
  batch.push_back({scope, std::move(observation)});
  return RecordBatch(std::move(batch));
}

Status SnapshotPublisher::RecordBatch(std::vector<ScopedObservation> batch,
                                      uint64_t* published_epoch) {
  std::lock_guard<std::mutex> lock(mutex_);
  Status first_error = Status::OK();
  std::vector<std::string> touched;
  for (ScopedObservation& entry : batch) {
    std::string scope = std::move(entry.scope);
    Status st = live_.Record(scope, std::move(entry.observation));
    // A failed Add still creates the scope in the live History; the
    // snapshot mirrors that so both paths answer identically afterwards.
    touched.push_back(std::move(scope));
    if (!st.ok()) {
      first_error = std::move(st);
      break;
    }
  }
  if (!touched.empty() || dirty_) PublishLocked(touched);
  if (published_epoch != nullptr) *published_epoch = published_->epoch();
  return first_error;
}

void SnapshotPublisher::PublishLocked(
    const std::vector<std::string>& touched) {
  if (dirty_) {
    RepublishAllLocked();
    return;
  }
  auto successor = std::make_shared<EstimatorSnapshot>();
  successor->epoch_ = published_->epoch_ + 1;
  successor->feature_names_ = feature_names_;
  successor->metric_names_ = metric_names_;
  // Structural sharing: untouched scopes keep their predecessor state —
  // frozen window AND fit memos — so only the delta is replayed.
  successor->scopes_ = published_->scopes_;
  for (const std::string& scope : touched) {
    auto live_set = live_.Get(scope);
    if (!live_set.ok()) continue;  // validation failure created no set
    successor->scopes_[scope] =
        std::make_shared<const EstimatorSnapshot::ScopeState>(
            **live_set);  // O(1) frozen copy: shares the observation buffer
  }
  published_ = std::move(successor);
}

void SnapshotPublisher::RepublishAllLocked() {
  auto successor = std::make_shared<EstimatorSnapshot>();
  successor->epoch_ = published_->epoch_ + 1;
  successor->feature_names_ = feature_names_;
  successor->metric_names_ = metric_names_;
  for (const std::string& scope : live_.Scopes()) {
    auto live_set = live_.Get(scope);
    if (!live_set.ok()) continue;
    successor->scopes_[scope] =
        std::make_shared<const EstimatorSnapshot::ScopeState>(**live_set);
  }
  published_ = std::move(successor);
  dirty_ = false;
}

History& SnapshotPublisher::MutableHistory() {
  std::lock_guard<std::mutex> lock(mutex_);
  dirty_ = true;
  return live_;
}

}  // namespace midas
