#include "sketch/measure.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/check.h"

namespace stardust {

namespace {

/// Values per ring bucket: ceil(window / buckets), at least 1, so the
/// `buckets` full buckets always cover >= window values.
std::uint64_t BucketWidth(const SketchConfig& config) {
  const std::uint64_t w =
      (config.window + config.buckets - 1) / config.buckets;
  return w == 0 ? 1 : w;
}

/// Windowed distinct count: ring of buckets+1 HLLs; the newest bucket
/// absorbs arrivals, a full bucket rotates the ring onto the oldest, and
/// the estimate is the union (register max) of every live bucket, so
/// coverage stays in [window, window + bucket_width). The union is built
/// in scratch_ and estimated in the same pass (HyperLogLog::UnionEstimate).
class DistinctMeasure final : public SketchMeasure {
 public:
  explicit DistinctMeasure(const SketchConfig& config)
      : config_(config),
        width_(BucketWidth(config)),
        scratch_(config.hll_precision) {
    ring_.reserve(config.buckets + 1);
    for (std::uint64_t i = 0; i <= config.buckets; ++i) {
      ring_.emplace_back(config.hll_precision);
    }
  }

  void Append(double value) override { AppendRun(&value, 1); }

  void AppendRun(const double* values, std::size_t n) override {
    total_ += n;
    while (n > 0) {
      const std::size_t take = static_cast<std::size_t>(
          std::min<std::uint64_t>(n, width_ - fill_));
      ring_[head_].AddSpan(values, take);
      values += take;
      n -= take;
      fill_ += take;
      if (fill_ == width_) {
        head_ = (head_ + 1) % ring_.size();
        ring_[head_].Clear();
        fill_ = 0;
      }
    }
  }

  bool Ready() const override { return total_ >= config_.window; }

  double Estimate() const override { return scratch_.UnionEstimate(ring_); }

  std::size_t MergesPerEstimate() const override { return ring_.size(); }

  std::size_t MemoryBytes() const override {
    return (ring_.size() + 1) * scratch_.MemoryBytes();
  }

  void SaveTo(Writer* writer) const override {
    writer->U64(total_);
    writer->U64(head_);
    writer->U64(fill_);
    for (const HyperLogLog& bucket : ring_) bucket.SaveTo(writer);
  }

  Status RestoreFrom(Reader* reader) override {
    std::uint64_t head = 0;
    SD_RETURN_NOT_OK(reader->U64(&total_));
    SD_RETURN_NOT_OK(reader->U64(&head));
    SD_RETURN_NOT_OK(reader->U64(&fill_));
    if (head >= ring_.size() || fill_ >= width_) {
      return Status::InvalidArgument("distinct sketch snapshot ring state");
    }
    head_ = static_cast<std::size_t>(head);
    for (HyperLogLog& bucket : ring_) {
      SD_RETURN_NOT_OK(bucket.RestoreFrom(reader));
    }
    return Status::OK();
  }

 private:
  SketchConfig config_;
  std::uint64_t width_;
  std::vector<HyperLogLog> ring_;
  std::size_t head_ = 0;
  std::uint64_t fill_ = 0;
  mutable HyperLogLog scratch_;
};

/// Windowed heavy-hitter count: same ring as DistinctMeasure but over
/// CountMin (counters merge by addition), estimating how many values
/// exceed frequency phi within the covered window.
class HeavyHittersMeasure final : public SketchMeasure {
 public:
  explicit HeavyHittersMeasure(const SketchConfig& config)
      : config_(config),
        width_(BucketWidth(config)),
        scratch_(config.epsilon, config.depth, config.candidates) {
    ring_.reserve(config.buckets + 1);
    for (std::uint64_t i = 0; i <= config.buckets; ++i) {
      ring_.emplace_back(config.epsilon, config.depth, config.candidates);
    }
  }

  void Append(double value) override { AppendRun(&value, 1); }

  void AppendRun(const double* values, std::size_t n) override {
    total_ += n;
    while (n > 0) {
      const std::size_t take = static_cast<std::size_t>(
          std::min<std::uint64_t>(n, width_ - fill_));
      ring_[head_].AddSpan(values, take);
      values += take;
      n -= take;
      fill_ += take;
      if (fill_ == width_) {
        head_ = (head_ + 1) % ring_.size();
        ring_[head_].Clear();
        fill_ = 0;
      }
    }
  }

  bool Ready() const override { return total_ >= config_.window; }

  double Estimate() const override {
    scratch_.Clear();
    for (const CountMin& bucket : ring_) {
      SD_CHECK(scratch_.Merge(bucket).ok());
    }
    return static_cast<double>(scratch_.HeavyHitterCount(config_.phi));
  }

  std::size_t MergesPerEstimate() const override { return ring_.size(); }

  std::size_t MemoryBytes() const override {
    return (ring_.size() + 1) * scratch_.MemoryBytes();
  }

  void SaveTo(Writer* writer) const override {
    writer->U64(total_);
    writer->U64(head_);
    writer->U64(fill_);
    for (const CountMin& bucket : ring_) bucket.SaveTo(writer);
  }

  Status RestoreFrom(Reader* reader) override {
    std::uint64_t head = 0;
    SD_RETURN_NOT_OK(reader->U64(&total_));
    SD_RETURN_NOT_OK(reader->U64(&head));
    SD_RETURN_NOT_OK(reader->U64(&fill_));
    if (head >= ring_.size() || fill_ >= width_) {
      return Status::InvalidArgument(
          "heavy-hitter sketch snapshot ring state");
    }
    head_ = static_cast<std::size_t>(head);
    for (CountMin& bucket : ring_) {
      SD_RETURN_NOT_OK(bucket.RestoreFrom(reader));
    }
    return Status::OK();
  }

 private:
  SketchConfig config_;
  std::uint64_t width_;
  std::vector<CountMin> ring_;
  std::size_t head_ = 0;
  std::uint64_t fill_ = 0;
  mutable CountMin scratch_;
};

/// Windowed quantile. P² markers are not mergeable, so instead of a
/// bucket union this keeps buckets+1 staggered estimators that each see
/// every arrival: on each bucket boundary the longest-lived estimator is
/// reset and reborn as the youngest, so the current oldest always covers
/// between window and window + bucket_width trailing values.
class QuantileMeasure final : public SketchMeasure {
 public:
  explicit QuantileMeasure(const SketchConfig& config)
      : config_(config), width_(BucketWidth(config)) {
    ring_.reserve(config.buckets + 1);
    for (std::uint64_t i = 0; i <= config.buckets; ++i) {
      ring_.emplace_back(config.q);
    }
  }

  void Append(double value) override { AppendRun(&value, 1); }

  void AppendRun(const double* values, std::size_t n) override {
    total_ += n;
    while (n > 0) {
      const std::size_t take = static_cast<std::size_t>(
          std::min<std::uint64_t>(n, width_ - fill_));
      // Every staggered estimator sees every value. Single values take
      // the in-place scalar update; real spans keep each estimator's
      // marker state in locals for the whole chunk — both inline the same
      // per-observation update, so the two are state-identical.
      if (take == 1) {
        for (P2Quantile& est : ring_) est.Add(values[0]);
      } else {
        for (P2Quantile& est : ring_) est.AddSpan(values, take);
      }
      values += take;
      n -= take;
      fill_ += take;
      if (fill_ == width_) {
        ring_[oldest_] = P2Quantile(config_.q);
        oldest_ = (oldest_ + 1) % ring_.size();
        fill_ = 0;
      }
    }
  }

  bool Ready() const override { return total_ >= config_.window; }

  double Estimate() const override { return ring_[oldest_].Value(); }

  std::size_t MergesPerEstimate() const override { return 0; }

  std::size_t MemoryBytes() const override {
    return ring_.size() * sizeof(P2Quantile);
  }

  void SaveTo(Writer* writer) const override {
    writer->U64(total_);
    writer->U64(oldest_);
    writer->U64(fill_);
    for (const P2Quantile& est : ring_) est.SaveTo(writer);
  }

  Status RestoreFrom(Reader* reader) override {
    std::uint64_t oldest = 0;
    SD_RETURN_NOT_OK(reader->U64(&total_));
    SD_RETURN_NOT_OK(reader->U64(&oldest));
    SD_RETURN_NOT_OK(reader->U64(&fill_));
    if (oldest >= ring_.size() || fill_ >= width_) {
      return Status::InvalidArgument("quantile sketch snapshot ring state");
    }
    oldest_ = static_cast<std::size_t>(oldest);
    for (P2Quantile& est : ring_) {
      SD_RETURN_NOT_OK(est.RestoreFrom(reader));
    }
    return Status::OK();
  }

 private:
  SketchConfig config_;
  std::uint64_t width_;
  std::vector<P2Quantile> ring_;
  std::size_t oldest_ = 0;
  std::uint64_t fill_ = 0;
};

}  // namespace

const char* SketchKindName(SketchKind kind) {
  switch (kind) {
    case SketchKind::kDistinct: return "distinct";
    case SketchKind::kHeavyHitters: return "heavy_hitters";
    case SketchKind::kQuantile: return "quantile";
  }
  return "unknown";
}

Status SketchConfig::Validate() const {
  if (kind != SketchKind::kDistinct && kind != SketchKind::kHeavyHitters &&
      kind != SketchKind::kQuantile) {
    return Status::InvalidArgument("unknown sketch kind");
  }
  if (window < 1) {
    return Status::InvalidArgument("sketch window must be >= 1");
  }
  if (buckets < 1 || buckets > 64) {
    return Status::InvalidArgument("sketch buckets must be in [1, 64]");
  }
  if (hll_precision < 4 || hll_precision > 18) {
    return Status::InvalidArgument("hll_precision must be in [4, 18]");
  }
  if (!(epsilon > 0.0) || epsilon >= 1.0) {
    return Status::InvalidArgument("sketch epsilon must be in (0, 1)");
  }
  if (depth < 1 || depth > 16) {
    return Status::InvalidArgument("sketch depth must be in [1, 16]");
  }
  if (!(phi > 0.0) || phi > 1.0) {
    return Status::InvalidArgument("sketch phi must be in (0, 1]");
  }
  if (candidates < 1 || candidates > 4096) {
    return Status::InvalidArgument(
        "sketch candidates must be in [1, 4096]");
  }
  if (!(q > 0.0) || q >= 1.0) {
    return Status::InvalidArgument("sketch quantile q must be in (0, 1)");
  }
  const double bytes = MeasureBytes();
  if (!(bytes <= kMaxSketchMeasureBytes)) {
    char msg[96];
    std::snprintf(msg, sizeof(msg),
                  "sketch measure needs %.3g bytes (cap %.0f)", bytes,
                  kMaxSketchMeasureBytes);
    return Status::InvalidArgument(msg);
  }
  return Status::OK();
}

double SketchConfig::MeasureBytes() const {
  // The ring holds buckets + 1 sketches; the bucket-union kinds keep one
  // more as merge scratch (see each measure's MemoryBytes).
  const double ring = static_cast<double>(buckets) + 1.0;
  switch (kind) {
    case SketchKind::kDistinct:
      return (ring + 1.0) *
             std::ldexp(1.0, static_cast<int>(hll_precision));
    case SketchKind::kHeavyHitters:
      return (ring + 1.0) *
             CountMin::MemoryBytesFor(epsilon, static_cast<std::size_t>(depth),
                                      static_cast<std::size_t>(candidates));
    case SketchKind::kQuantile:
      return ring * static_cast<double>(sizeof(P2Quantile));
  }
  return 0.0;
}

void SketchConfig::SaveTo(Writer* writer) const {
  writer->U8(static_cast<std::uint8_t>(kind));
  writer->U64(window);
  writer->U64(buckets);
  writer->U64(hll_precision);
  writer->F64(epsilon);
  writer->U64(depth);
  writer->F64(phi);
  writer->U64(candidates);
  writer->F64(q);
}

Status SketchConfig::RestoreFrom(Reader* reader) {
  std::uint8_t kind_byte = 0;
  SD_RETURN_NOT_OK(reader->U8(&kind_byte));
  if (kind_byte > static_cast<std::uint8_t>(SketchKind::kQuantile)) {
    return Status::InvalidArgument("unknown sketch kind byte");
  }
  kind = static_cast<SketchKind>(kind_byte);
  SD_RETURN_NOT_OK(reader->U64(&window));
  SD_RETURN_NOT_OK(reader->U64(&buckets));
  SD_RETURN_NOT_OK(reader->U64(&hll_precision));
  SD_RETURN_NOT_OK(reader->F64(&epsilon));
  SD_RETURN_NOT_OK(reader->U64(&depth));
  SD_RETURN_NOT_OK(reader->F64(&phi));
  SD_RETURN_NOT_OK(reader->U64(&candidates));
  SD_RETURN_NOT_OK(reader->F64(&q));
  return Status::OK();
}

std::unique_ptr<SketchMeasure> CreateSketchMeasure(
    const SketchConfig& config) {
  SD_CHECK(config.Validate().ok());
  switch (config.kind) {
    case SketchKind::kDistinct:
      return std::make_unique<DistinctMeasure>(config);
    case SketchKind::kHeavyHitters:
      return std::make_unique<HeavyHittersMeasure>(config);
    case SketchKind::kQuantile:
      return std::make_unique<QuantileMeasure>(config);
  }
  return nullptr;
}

}  // namespace stardust
