#include "engine/feature_pipeline.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/serialize.h"
#include "core/level_state.h"
#include "core/summarizer.h"
#include "transform/aggregate.h"
#include "transform/feature.h"

namespace stardust {

namespace {

// One stream's raw tail: the ring capacity (so a restore can reject a
// tail taken under another history), the append count, and the retained
// values oldest first.
void SaveTail(const RingBuffer<double>& tail, Writer* writer) {
  writer->U64(tail.capacity());
  writer->U64(tail.size());
  std::vector<double> values;
  tail.CopyWindow(tail.first_position(),
                  static_cast<std::size_t>(tail.size() - tail.first_position()),
                  &values);
  writer->DoubleVector(values);
}

Status RestoreTail(Reader* reader, RingBuffer<double>* tail) {
  std::uint64_t capacity = 0;
  std::uint64_t total = 0;
  SD_RETURN_NOT_OK(reader->U64(&capacity));
  if (capacity != tail->capacity()) {
    return Status::InvalidArgument(
        "raw tail capacity " + std::to_string(capacity) +
        " differs from the requested history " +
        std::to_string(tail->capacity()));
  }
  SD_RETURN_NOT_OK(reader->U64(&total));
  std::vector<double> values;
  SD_RETURN_NOT_OK(reader->DoubleVector(&values, tail->capacity()));
  if (values.size() != std::min<std::uint64_t>(total, capacity)) {
    return Status::InvalidArgument("raw tail size mismatch");
  }
  tail->RestoreTail(total, values);
  return Status::OK();
}

}  // namespace

FeaturePipeline::FeaturePipeline(const StardustConfig& aggregate,
                                 std::unique_ptr<Stardust> pattern_core,
                                 std::unique_ptr<Stardust> corr_core,
                                 std::size_t num_streams,
                                 std::size_t store_capacity)
    : num_streams_(num_streams),
      aggregate_(aggregate),
      tails_(num_streams, RingBuffer<double>(aggregate.history)),
      pattern_core_(std::move(pattern_core)),
      corr_core_(std::move(corr_core)),
      store_(num_streams, store_capacity) {
  SD_CHECK(num_streams_ > 0);
  SD_CHECK(pattern_core_ == nullptr ||
           pattern_core_->num_streams() == num_streams_);
  SD_CHECK(corr_core_ == nullptr ||
           corr_core_->num_streams() == num_streams_);
}

void FeaturePipeline::AdoptPlan(const EvalPlan& plan) {
  if (plan.aggregate_windows != tracker_windows_) {
    tracker_windows_ = plan.aggregate_windows;
    trackers_.clear();
    trackers_.resize(num_streams_);
    if (!tracker_windows_.empty()) {
      ++tracker_rebuilds_;
      for (StreamId s = 0; s < num_streams_; ++s) {
        trackers_[s] = BackfillTracker(s);
      }
    }
  }
  if (plan.sketch_slots != sketch_configs_) {
    // Sketch state cannot be rebuilt from raw history (a sketch *is* its
    // summary of the stream), so slots surviving a plan swap keep their
    // per-stream measures: claim by config equality, drop the rest, and
    // let genuinely new slots warm up lazily.
    std::vector<std::vector<std::unique_ptr<SketchMeasure>>> slots(
        plan.sketch_slots.size());
    for (std::size_t i = 0; i < plan.sketch_slots.size(); ++i) {
      for (std::size_t j = 0; j < sketch_configs_.size(); ++j) {
        if (sketch_configs_[j] == plan.sketch_slots[i] &&
            !sketch_slots_[j].empty()) {
          slots[i] = std::move(sketch_slots_[j]);
          sketch_slots_[j].clear();
          break;
        }
      }
      if (slots[i].empty()) slots[i].resize(num_streams_);
    }
    sketch_configs_ = plan.sketch_slots;
    sketch_slots_ = std::move(slots);
  }
  if (corr_core_ != nullptr) {
    const StardustConfig& cfg = corr_core_->config();
    std::vector<FeatureStore::LevelSpec> specs;
    specs.reserve(plan.correlation.size());
    for (const EvalPlan::CorrelationGroup& group : plan.correlation) {
      specs.push_back({group.level, cfg.LevelWindow(group.level),
                       cfg.coefficients});
    }
    store_.SetLevels(specs);
  }
  if (pattern_core_ != nullptr && pattern_core_->config().index_features) {
    // Standing pattern queries evaluate incrementally against the box
    // threads (QueryCompiledIncremental) and never range-search the level
    // indexes, so no per-tuple index maintenance is needed at all. The
    // mask stays all-false rather than dropping index_features so ad-hoc
    // probes (TopKOnline, full QueryCompiled) can be re-enabled per level
    // via SetIndexedLevels, which rebuilds from the live threads.
    const std::vector<bool> mask(pattern_core_->config().num_levels, false);
    (void)pattern_core_->SetIndexedLevels(mask);
  }
}

Status FeaturePipeline::Append(StreamId stream, double value) {
  return AppendRun(stream, &value, 1);
}

Status FeaturePipeline::AppendValue(StreamId stream, double value) {
  tails_[stream].Push(value);
  if (!trackers_.empty() && trackers_[stream] != nullptr) {
    trackers_[stream]->Push(value);
  }
  for (std::size_t slot = 0; slot < sketch_slots_.size(); ++slot) {
    std::unique_ptr<SketchMeasure>& measure = sketch_slots_[slot][stream];
    if (measure == nullptr) {
      measure = CreateSketchMeasure(sketch_configs_[slot]);
    }
    measure->Append(value);
  }
  if (pattern_core_ != nullptr) {
    SD_RETURN_NOT_OK(pattern_core_->Append(stream, value));
  }
  if (corr_core_ != nullptr) {
    SD_RETURN_NOT_OK(corr_core_->Append(stream, value));
  }
  return Status::OK();
}

Status FeaturePipeline::AppendRun(StreamId stream, const double* values,
                                  std::size_t n) {
  if (stream >= num_streams_) {
    return Status::InvalidArgument("unknown stream");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(values[i])) {
      // A NaN/Inf would silently poison every structure it reaches.
      return Status::InvalidArgument("stream values must be finite");
    }
  }
  appends_ += n;
  if (n <= Stardust::ScalarRunCutoff()) {
    // Cost-based dispatch, as inside Stardust::AppendRun: a short run
    // gains nothing from the span kernels' per-run setup.
    for (std::size_t i = 0; i < n; ++i) {
      SD_RETURN_NOT_OK(AppendValue(stream, values[i]));
    }
    return Status::OK();
  }
  tails_[stream].PushSpan(values, n);
  if (!trackers_.empty() && trackers_[stream] != nullptr) {
    trackers_[stream]->PushSpan(values, n);
  }
  for (std::size_t slot = 0; slot < sketch_slots_.size(); ++slot) {
    std::unique_ptr<SketchMeasure>& measure = sketch_slots_[slot][stream];
    if (measure == nullptr) {
      measure = CreateSketchMeasure(sketch_configs_[slot]);
    }
    measure->AppendRun(values, n);
  }
  if (pattern_core_ != nullptr) {
    SD_RETURN_NOT_OK(pattern_core_->AppendRun(stream, values, n));
  }
  if (corr_core_ != nullptr) {
    SD_RETURN_NOT_OK(corr_core_->AppendRun(stream, values, n));
  }
  return Status::OK();
}

void FeaturePipeline::FinishBatch(const std::vector<StreamId>& touched) {
  ++batches_;
  store_.BumpEpoch();
  if (corr_core_ == nullptr) return;
  for (const FeatureStore::LevelSpec& spec : store_.levels()) {
    for (StreamId stream : touched) {
      SD_DCHECK(stream < num_streams_);
      CacheStreamFeatures(spec, stream);
    }
  }
}

void FeaturePipeline::CacheStreamFeatures(const FeatureStore::LevelSpec& spec,
                                          StreamId stream) {
  const StreamSummarizer& summarizer = corr_core_->summarizer(stream);
  const LevelThread& thread = summarizer.thread(spec.level);
  if (thread.empty()) return;
  const std::uint64_t stride = thread.stride();
  std::uint64_t latest_cached = 0;
  const bool has_cached = store_.Latest(spec.level, stream, &latest_cached);

  // Walk aligned feature times newest-first until the already-cached
  // frontier (or the ring capacity), then insert oldest-first to respect
  // the store's strictly-increasing time order.
  times_scratch_.clear();
  std::uint64_t t = thread.last_time();
  while ((!has_cached || t > latest_cached) &&
         times_scratch_.size() < store_.capacity()) {
    times_scratch_.push_back(t);
    if (t < stride) break;
    t -= stride;
  }
  for (auto it = times_scratch_.rbegin(); it != times_scratch_.rend(); ++it) {
    const std::uint64_t feature_time = *it;
    const FeatureBox* box = thread.Find(feature_time);
    if (box == nullptr) continue;  // expired from the thread
    if (!summarizer.GetWindow(feature_time, spec.window, &window_scratch_)
             .ok()) {
      continue;  // raw window slid out of history
    }
    znorm_scratch_.resize(spec.window);
    double mean = 0.0;
    double norm2 = 0.0;
    ZNormalizeTo(window_scratch_.data(), spec.window, znorm_scratch_.data(),
                 &mean, &norm2);
    ++znorm_computes_;
    const Point& feature = box->extent.lo();
    SD_DCHECK(feature.size() == spec.dims);
    store_.Put(spec.level, stream, feature_time, feature.data(),
               znorm_scratch_.data(), mean, norm2);
  }
}

bool FeaturePipeline::SketchReady(StreamId stream, std::size_t slot) const {
  SD_DCHECK(stream < num_streams_);
  SD_DCHECK(slot < sketch_slots_.size());
  const std::unique_ptr<SketchMeasure>& measure = sketch_slots_[slot][stream];
  return measure != nullptr && measure->Ready();
}

double FeaturePipeline::SketchEstimate(StreamId stream,
                                       std::size_t slot) const {
  SD_DCHECK(SketchReady(stream, slot));
  const SketchMeasure& measure = *sketch_slots_[slot][stream];
  ++sketch_estimates_;
  sketch_merges_ += measure.MergesPerEstimate();
  return measure.Estimate();
}

bool FeaturePipeline::TrackerReady(StreamId stream,
                                   std::size_t tracker_index) const {
  SD_DCHECK(stream < num_streams_);
  SD_DCHECK(tracker_index < tracker_windows_.size());
  return trackers_[stream] != nullptr &&
         trackers_[stream]->Ready(tracker_index);
}

double FeaturePipeline::TrackerValue(StreamId stream,
                                     std::size_t tracker_index) const {
  SD_DCHECK(TrackerReady(stream, tracker_index));
  return trackers_[stream]->Current(tracker_index);
}

bool FeaturePipeline::CorrelationFeature(std::size_t level, StreamId stream,
                                         std::uint64_t t,
                                         FeatureStore::View* out) {
  if (store_.Find(level, stream, t, out)) return true;
  if (corr_core_ == nullptr) return false;
  const StardustConfig& cfg = corr_core_->config();
  if (level >= cfg.num_levels || stream >= num_streams_) return false;
  const StreamSummarizer& summarizer = corr_core_->summarizer(stream);
  const FeatureBox* box = summarizer.thread(level).Find(t);
  if (box == nullptr) return false;
  const std::size_t window = cfg.LevelWindow(level);
  if (!summarizer.GetWindow(t, window, &window_scratch_).ok()) return false;
  // Fallback compute into scratch only: the store requires strictly
  // increasing put times, and a lagging correlator round may ask for a
  // time older than the cached frontier.
  znorm_scratch_.resize(window);
  double mean = 0.0;
  double norm2 = 0.0;
  ZNormalizeTo(window_scratch_.data(), window, znorm_scratch_.data(), &mean,
               &norm2);
  ++znorm_computes_;
  const Point& feature = box->extent.lo();
  feature_scratch_.assign(feature.begin(), feature.end());
  out->time = t;
  out->feature = feature_scratch_.data();
  out->znormed = znorm_scratch_.data();
  out->dims = feature_scratch_.size();
  out->window = window;
  out->mean = mean;
  out->norm2 = norm2;
  return true;
}

std::unique_ptr<SlidingAggregateTracker> FeaturePipeline::BackfillTracker(
    StreamId stream) {
  auto tracker = std::make_unique<SlidingAggregateTracker>(
      aggregate_.aggregate, tracker_windows_);
  // Backfill from the retained raw tail so a query registered mid-stream
  // is answerable as soon as its window lies inside the retained history
  // (the condition Algorithm 2's exact post-check needs).
  const RingBuffer<double>& raw = tails_[stream];
  const std::uint64_t first = raw.first_position();
  const std::size_t count = static_cast<std::size_t>(raw.size() - first);
  raw.CopyWindow(first, count, &window_scratch_);
  tracker->PushSpan(window_scratch_.data(), count);
  return tracker;
}

bool FeaturePipeline::AnyLevelIndexed(const Stardust& core) {
  for (std::size_t level = 0; level < core.config().num_levels; ++level) {
    if (core.level_indexed(level)) return true;
  }
  return false;
}

StreamId FeaturePipeline::GrowStream() {
  const StreamId local = static_cast<StreamId>(num_streams_);
  ++num_streams_;
  tails_.emplace_back(aggregate_.history);
  if (pattern_core_ != nullptr) {
    const StreamId id = pattern_core_->AddStream();
    SD_CHECK(id == local);
  }
  if (corr_core_ != nullptr) {
    const StreamId id = corr_core_->AddStream();
    SD_CHECK(id == local);
  }
  store_.Grow(num_streams_);
  if (!trackers_.empty() || !tracker_windows_.empty()) {
    trackers_.resize(num_streams_);
    if (!tracker_windows_.empty()) {
      trackers_[local] = std::make_unique<SlidingAggregateTracker>(
          aggregate_.aggregate, tracker_windows_);
    }
  }
  for (auto& per_stream : sketch_slots_) per_stream.resize(num_streams_);
  return local;
}

Status FeaturePipeline::ResetStream(StreamId stream) {
  if (stream >= num_streams_) {
    return Status::InvalidArgument("unknown stream");
  }
  tails_[stream] = RingBuffer<double>(aggregate_.history);
  if (pattern_core_ != nullptr) {
    SD_RETURN_NOT_OK(pattern_core_->ResetStream(stream));
  }
  if (corr_core_ != nullptr) {
    SD_RETURN_NOT_OK(corr_core_->ResetStream(stream));
  }
  if (!trackers_.empty()) {
    trackers_[stream] =
        tracker_windows_.empty()
            ? nullptr
            : std::make_unique<SlidingAggregateTracker>(
                  aggregate_.aggregate, tracker_windows_);
  }
  for (auto& per_stream : sketch_slots_) per_stream[stream] = nullptr;
  store_.ClearStream(stream);
  store_.TouchStream(stream);
  return Status::OK();
}

Status FeaturePipeline::SaveStreamTo(StreamId stream, Writer* writer) const {
  if (stream >= num_streams_) {
    return Status::InvalidArgument("unknown stream");
  }
  SaveTail(tails_[stream], writer);
  writer->U8(pattern_core_ != nullptr ? 1 : 0);
  if (pattern_core_ != nullptr) {
    pattern_core_->summarizer(stream).SaveTo(writer);
  }
  writer->U8(corr_core_ != nullptr ? 1 : 0);
  if (corr_core_ != nullptr) {
    corr_core_->summarizer(stream).SaveTo(writer);
  }
  const SlidingAggregateTracker* tracker =
      trackers_.empty() ? nullptr : trackers_[stream].get();
  writer->U8(tracker != nullptr ? 1 : 0);
  if (tracker != nullptr) {
    writer->U64(tracker->num_windows());
    for (std::size_t i = 0; i < tracker->num_windows(); ++i) {
      writer->U64(tracker->window(i));
    }
    tracker->SaveTo(writer);
  }
  const std::size_t before_sketch = writer->buffer().size();
  writer->U64(sketch_configs_.size());
  for (std::size_t slot = 0; slot < sketch_configs_.size(); ++slot) {
    sketch_configs_[slot].SaveTo(writer);
    const SketchMeasure* measure = sketch_slots_[slot][stream].get();
    writer->U8(measure != nullptr ? 1 : 0);
    if (measure != nullptr) measure->SaveTo(writer);
  }
  sketch_serialized_bytes_ += writer->buffer().size() - before_sketch;
  store_.SaveStreamTo(stream, writer);
  return Status::OK();
}

Status FeaturePipeline::RestoreStreamFrom(StreamId stream, Reader* reader) {
  if (stream >= num_streams_) {
    return Status::InvalidArgument("unknown stream");
  }
  // The tail goes in first: a tracker whose window set differs from this
  // shard's plan is rebuilt from it below.
  SD_RETURN_NOT_OK(RestoreTail(reader, &tails_[stream]));
  std::uint8_t has_pattern = 0;
  SD_RETURN_NOT_OK(reader->U8(&has_pattern));
  if (has_pattern != 0) {
    if (pattern_core_ == nullptr) {
      return Status::InvalidArgument(
          "stream slice carries a pattern core this shard does not run");
    }
    SD_RETURN_NOT_OK(
        pattern_core_->mutable_summarizer(stream)->RestoreFrom(reader));
  }
  std::uint8_t has_corr = 0;
  SD_RETURN_NOT_OK(reader->U8(&has_corr));
  if (has_corr != 0) {
    if (corr_core_ == nullptr) {
      return Status::InvalidArgument(
          "stream slice carries a correlation core this shard does not run");
    }
    SD_RETURN_NOT_OK(
        corr_core_->mutable_summarizer(stream)->RestoreFrom(reader));
  }
  std::uint8_t has_tracker = 0;
  SD_RETURN_NOT_OK(reader->U8(&has_tracker));
  if (has_tracker != 0) {
    std::uint64_t num_windows = 0;
    SD_RETURN_NOT_OK(reader->U64(&num_windows));
    if (num_windows == 0 || num_windows > reader->remaining() / 8) {
      return Status::InvalidArgument("stream slice tracker count corrupt");
    }
    std::vector<std::size_t> windows(num_windows);
    for (std::uint64_t i = 0; i < num_windows; ++i) {
      std::uint64_t w = 0;
      SD_RETURN_NOT_OK(reader->U64(&w));
      // The tracker's ring holds its widest window; no plan window
      // exceeds the retained history.
      if (w == 0 || w > aggregate_.history) {
        return Status::InvalidArgument(
            "stream slice tracker window " + std::to_string(w) +
            " outside [1, history " + std::to_string(aggregate_.history) +
            "]");
      }
      windows[i] = static_cast<std::size_t>(w);
    }
    // Consume the tracker bytes with a tracker of the serialized shape;
    // keep it only when it matches this shard's plan window set (then
    // the restore is bit-exact). A mismatch (plan skew between shards)
    // falls through to the tail backfill below.
    auto restored = std::make_unique<SlidingAggregateTracker>(
        aggregate_.aggregate, windows);
    SD_RETURN_NOT_OK(restored->RestoreFrom(reader));
    if (!tracker_windows_.empty()) {
      if (trackers_.size() < num_streams_) trackers_.resize(num_streams_);
      trackers_[stream] = windows == tracker_windows_
                              ? std::move(restored)
                              : BackfillTracker(stream);
    }
  } else if (!tracker_windows_.empty()) {
    if (trackers_.size() < num_streams_) trackers_.resize(num_streams_);
    trackers_[stream] = BackfillTracker(stream);
  }
  std::uint64_t num_slots = 0;
  SD_RETURN_NOT_OK(reader->U64(&num_slots));
  if (num_slots > reader->remaining() / 66) {
    return Status::InvalidArgument("stream slice sketch count corrupt");
  }
  for (std::uint64_t i = 0; i < num_slots; ++i) {
    SketchConfig config;
    SD_RETURN_NOT_OK(config.RestoreFrom(reader));
    SD_RETURN_NOT_OK(config.Validate());
    std::uint8_t present = 0;
    SD_RETURN_NOT_OK(reader->U8(&present));
    if (present == 0) continue;
    auto measure = CreateSketchMeasure(config);
    SD_RETURN_NOT_OK(measure->RestoreFrom(reader));
    // Claim by config: a slot this shard's plan no longer carries is
    // consumed and dropped (the measure warms up if re-registered).
    for (std::size_t slot = 0; slot < sketch_configs_.size(); ++slot) {
      if (sketch_configs_[slot] == config) {
        sketch_slots_[slot][stream] = std::move(measure);
        break;
      }
    }
  }
  SD_RETURN_NOT_OK(store_.RestoreStreamFrom(stream, reader));
  store_.TouchStream(stream);
  return Status::OK();
}

Status FeaturePipeline::RebuildIndexes() {
  for (Stardust* core : {pattern_core_.get(), corr_core_.get()}) {
    if (core != nullptr && AnyLevelIndexed(*core)) {
      SD_RETURN_NOT_OK(core->RebuildIndexes());
    }
  }
  return Status::OK();
}

FeaturePipeline::Counters FeaturePipeline::counters() const {
  Counters c;
  c.batches = batches_;
  c.appends = appends_;
  c.znorm_computes = znorm_computes_;
  c.tracker_rebuilds = tracker_rebuilds_;
  c.store_puts = store_.puts();
  c.store_hits = store_.hits();
  c.store_misses = store_.misses();
  c.store_epoch = store_.epoch();
  for (const auto& per_stream : sketch_slots_) {
    for (const auto& measure : per_stream) {
      if (measure == nullptr) continue;
      c.sketch_appends += measure->appends();
    }
  }
  c.sketch_merges = sketch_merges_;
  c.sketch_estimates = sketch_estimates_;
  c.sketch_serialized_bytes = sketch_serialized_bytes_;
  return c;
}

}  // namespace stardust
