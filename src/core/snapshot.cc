#include "core/snapshot.h"

#include <utility>

#include "common/atomic_file.h"
#include "common/serialize.h"

namespace stardust {

namespace {

constexpr char kMagic[4] = {'S', 'D', 'S', 'N'};
constexpr std::uint32_t kVersionStardust = 1;
constexpr std::uint32_t kVersionFleet = 2;
/// Lower bound on the serialized size of one stream's summarizer (append
/// count + tail length + level count). Declared stream counts are bounded
/// by remaining-bytes / this, so a corrupt header cannot drive a
/// multi-gigabyte restore loop.
constexpr std::uint64_t kMinStreamBytes = 24;

void SaveConfig(const StardustConfig& config, Writer* writer) {
  writer->U8(static_cast<std::uint8_t>(config.transform));
  writer->U8(static_cast<std::uint8_t>(config.aggregate));
  writer->U8(static_cast<std::uint8_t>(config.normalization));
  writer->U64(config.coefficients);
  writer->F64(config.r_max);
  writer->U64(config.base_window);
  writer->U64(config.num_levels);
  writer->U64(config.history);
  writer->U64(config.box_capacity);
  writer->U64(config.update_period);
  writer->U8(static_cast<std::uint8_t>(config.update_schedule));
  writer->U8(config.exact_levels ? 1 : 0);
  writer->U8(config.index_features ? 1 : 0);
}

Status LoadConfig(Reader* reader, StardustConfig* config) {
  std::uint8_t transform = 0, aggregate = 0, normalization = 0;
  std::uint8_t schedule = 0, exact = 0, indexed = 0;
  SD_RETURN_NOT_OK(reader->U8(&transform));
  SD_RETURN_NOT_OK(reader->U8(&aggregate));
  SD_RETURN_NOT_OK(reader->U8(&normalization));
  if (transform > 1 || aggregate > 3 || normalization > 2) {
    return Status::InvalidArgument("snapshot config enum out of range");
  }
  config->transform = static_cast<TransformKind>(transform);
  config->aggregate = static_cast<AggregateKind>(aggregate);
  config->normalization = static_cast<Normalization>(normalization);
  std::uint64_t value = 0;
  SD_RETURN_NOT_OK(reader->U64(&value));
  config->coefficients = value;
  SD_RETURN_NOT_OK(reader->F64(&config->r_max));
  SD_RETURN_NOT_OK(reader->U64(&value));
  config->base_window = value;
  SD_RETURN_NOT_OK(reader->U64(&value));
  config->num_levels = value;
  SD_RETURN_NOT_OK(reader->U64(&value));
  config->history = value;
  SD_RETURN_NOT_OK(reader->U64(&value));
  config->box_capacity = value;
  SD_RETURN_NOT_OK(reader->U64(&value));
  config->update_period = value;
  SD_RETURN_NOT_OK(reader->U8(&schedule));
  if (schedule > 1) {
    return Status::InvalidArgument("snapshot schedule out of range");
  }
  config->update_schedule = static_cast<UpdateSchedule>(schedule);
  SD_RETURN_NOT_OK(reader->U8(&exact));
  SD_RETURN_NOT_OK(reader->U8(&indexed));
  config->exact_levels = exact != 0;
  config->index_features = indexed != 0;
  return Status::OK();
}

}  // namespace

std::string SerializeSnapshot(const Stardust& stardust) {
  Writer payload;
  SaveConfig(stardust.config(), &payload);
  payload.U64(stardust.num_streams());
  for (StreamId s = 0; s < stardust.num_streams(); ++s) {
    stardust.summarizer(s).SaveTo(&payload);
  }
  return WrapEnvelope(kMagic, kVersionStardust, payload.buffer());
}

Result<std::unique_ptr<Stardust>> DeserializeSnapshot(
    const std::string& bytes) {
  std::uint32_t version = 0;
  std::string payload;
  SD_RETURN_NOT_OK(
      UnwrapEnvelope(bytes, kMagic, "Stardust snapshot", &version, &payload));
  if (version == kVersionFleet) {
    return Status::InvalidArgument(
        "snapshot holds a fleet monitor (v2); load it with "
        "LoadFleetSnapshot");
  }
  if (version != kVersionStardust) {
    return Status::InvalidArgument("unsupported snapshot version " +
                                   std::to_string(version));
  }

  Reader reader(payload);
  StardustConfig config;
  SD_RETURN_NOT_OK(LoadConfig(&reader, &config));
  Result<std::unique_ptr<Stardust>> created = Stardust::Create(config);
  if (!created.ok()) return created.status();
  std::unique_ptr<Stardust> stardust = std::move(created).value();
  std::uint64_t num_streams = 0;
  SD_RETURN_NOT_OK(reader.U64(&num_streams));
  if (num_streams > (std::uint64_t{1} << 32) ||
      num_streams > reader.remaining() / kMinStreamBytes) {
    return Status::InvalidArgument("snapshot stream count out of range");
  }
  for (std::uint64_t s = 0; s < num_streams; ++s) {
    const StreamId id = stardust->AddStream();
    SD_RETURN_NOT_OK(stardust->mutable_summarizer(id)->RestoreFrom(&reader));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("snapshot has trailing bytes");
  }
  SD_RETURN_NOT_OK(stardust->RebuildIndexes());
  return stardust;
}

std::string SerializeFleetSnapshot(const FleetAggregateMonitor& fleet) {
  Writer payload;
  SaveConfig(fleet.config(), &payload);
  payload.U64(fleet.num_windows());
  for (std::size_t i = 0; i < fleet.num_windows(); ++i) {
    payload.U64(fleet.threshold(i).window);
    payload.F64(fleet.threshold(i).threshold);
  }
  payload.U64(fleet.num_streams());
  fleet.SaveTo(&payload);
  return WrapEnvelope(kMagic, kVersionFleet, payload.buffer());
}

Result<std::unique_ptr<FleetAggregateMonitor>> DeserializeFleetSnapshot(
    const std::string& bytes) {
  std::uint32_t version = 0;
  std::string payload;
  SD_RETURN_NOT_OK(
      UnwrapEnvelope(bytes, kMagic, "Stardust snapshot", &version, &payload));
  if (version == kVersionStardust) {
    return Status::InvalidArgument(
        "snapshot holds a bare Stardust instance (v1); load it with "
        "LoadSnapshot");
  }
  if (version != kVersionFleet) {
    return Status::InvalidArgument("unsupported snapshot version " +
                                   std::to_string(version));
  }

  Reader reader(payload);
  StardustConfig config;
  SD_RETURN_NOT_OK(LoadConfig(&reader, &config));
  std::uint64_t num_windows = 0;
  SD_RETURN_NOT_OK(reader.U64(&num_windows));
  if (num_windows > reader.remaining() / 16) {
    return Status::InvalidArgument("snapshot window count out of range");
  }
  std::vector<WindowThreshold> thresholds(num_windows);
  for (WindowThreshold& wt : thresholds) {
    std::uint64_t window = 0;
    SD_RETURN_NOT_OK(reader.U64(&window));
    wt.window = window;
    SD_RETURN_NOT_OK(reader.F64(&wt.threshold));
  }
  std::uint64_t num_streams = 0;
  SD_RETURN_NOT_OK(reader.U64(&num_streams));
  if (num_streams > (std::uint64_t{1} << 32) ||
      num_streams > reader.remaining() / kMinStreamBytes) {
    return Status::InvalidArgument("snapshot stream count out of range");
  }
  Result<std::unique_ptr<FleetAggregateMonitor>> created =
      FleetAggregateMonitor::Create(config, std::move(thresholds),
                                    num_streams);
  if (!created.ok()) return created.status();
  std::unique_ptr<FleetAggregateMonitor> fleet = std::move(created).value();
  SD_RETURN_NOT_OK(fleet->RestoreFrom(&reader));
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("snapshot has trailing bytes");
  }
  return fleet;
}

Status SaveSnapshot(const Stardust& stardust, const std::string& path) {
  return AtomicWriteFile(path, SerializeSnapshot(stardust));
}

Result<std::unique_ptr<Stardust>> LoadSnapshot(const std::string& path) {
  Result<std::string> bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  return DeserializeSnapshot(bytes.value());
}

Status SaveFleetSnapshot(const FleetAggregateMonitor& fleet,
                         const std::string& path) {
  return AtomicWriteFile(path, SerializeFleetSnapshot(fleet));
}

Result<std::unique_ptr<FleetAggregateMonitor>> LoadFleetSnapshot(
    const std::string& path) {
  Result<std::string> bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  return DeserializeFleetSnapshot(bytes.value());
}

}  // namespace stardust
