#include "engine/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "common/atomic_file.h"
#include "common/serialize.h"

namespace stardust {

namespace {

constexpr char kManifestMagic[4] = {'S', 'D', 'M', 'F'};
/// The only manifest version this build reads: the layout
/// IngestEngine::Checkpoint writes. Older versions only ever existed
/// inside this repository and are rejected with a diagnostic.
constexpr std::uint32_t kManifestVersion = 7;
/// Size of one serialized shard entry (epoch + appended); bounds the
/// declared shard count against the remaining payload so corrupt
/// manifests cannot drive huge allocations.
constexpr std::uint64_t kShardEntryBytes = 16;
constexpr std::uint64_t kMaxFileNameBytes = 4096;

/// Extracts the sequence number from `manifest-<seq>.ck`,
/// `features-<i>-ck<seq>.feat`,
/// `edges-<i>-ck<seq>.edge`, `queries-ck<seq>.qry`, `net-ck<seq>.net`,
/// or `placement-ck<seq>.plc`; false otherwise.
bool ParseSeqFromName(const std::string& name, std::uint64_t* seq) {
  std::string digits;
  if (name.rfind("manifest-", 0) == 0 && name.size() > 12 &&
      name.compare(name.size() - 3, 3, ".ck") == 0) {
    digits = name.substr(9, name.size() - 12);
  } else if (name.rfind("features-", 0) == 0 && name.size() > 5 &&
             name.compare(name.size() - 5, 5, ".feat") == 0) {
    const std::size_t ck = name.rfind("-ck");
    if (ck == std::string::npos) return false;
    digits = name.substr(ck + 3, name.size() - ck - 8);
  } else if (name.rfind("edges-", 0) == 0 && name.size() > 5 &&
             name.compare(name.size() - 5, 5, ".edge") == 0) {
    const std::size_t ck = name.rfind("-ck");
    if (ck == std::string::npos) return false;
    digits = name.substr(ck + 3, name.size() - ck - 8);
  } else if (name.rfind("queries-ck", 0) == 0 && name.size() > 14 &&
             name.compare(name.size() - 4, 4, ".qry") == 0) {
    digits = name.substr(10, name.size() - 14);
  } else if (name.rfind("net-ck", 0) == 0 && name.size() > 10 &&
             name.compare(name.size() - 4, 4, ".net") == 0) {
    digits = name.substr(6, name.size() - 10);
  } else if (name.rfind("placement-ck", 0) == 0 && name.size() > 16 &&
             name.compare(name.size() - 4, 4, ".plc") == 0) {
    digits = name.substr(12, name.size() - 16);
  } else {
    return false;
  }
  if (digits.empty() || digits.size() > 19) return false;
  std::uint64_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *seq = value;
  return true;
}

/// Reads a length-prefixed file name and rejects anything that could
/// escape the checkpoint directory.
Status ReadFileName(Reader* reader, std::string* name) {
  std::uint64_t name_size = 0;
  SD_RETURN_NOT_OK(reader->U64(&name_size));
  if (name_size > kMaxFileNameBytes || name_size > reader->remaining()) {
    return Status::InvalidArgument("manifest file name out of range");
  }
  name->resize(name_size);
  for (std::uint64_t i = 0; i < name_size; ++i) {
    std::uint8_t c = 0;
    SD_RETURN_NOT_OK(reader->U8(&c));
    (*name)[i] = static_cast<char>(c);
  }
  if (name->find('/') != std::string::npos ||
      name->find("..") != std::string::npos) {
    return Status::InvalidArgument(
        "manifest file name escapes checkpoint directory");
  }
  return Status::OK();
}

/// Reads a per-shard file list (feature or edge snapshots), which a
/// manifest carries exactly once per shard.
Status ReadPerShardEntries(Reader* reader, std::uint64_t num_shards,
                           const char* what,
                           std::vector<CheckpointFeatureEntry>* entries) {
  std::uint64_t count = 0;
  SD_RETURN_NOT_OK(reader->U64(&count));
  // Each entry is at least a name length plus a checksum.
  if (count > reader->remaining() / 16) {
    return Status::InvalidArgument(std::string("manifest ") + what +
                                   " entry count out of range");
  }
  if (count != num_shards) {
    return Status::InvalidArgument(std::string("manifest ") + what +
                                   " entry count disagrees with shard count");
  }
  entries->resize(count);
  for (CheckpointFeatureEntry& entry : *entries) {
    SD_RETURN_NOT_OK(ReadFileName(reader, &entry.file));
    SD_RETURN_NOT_OK(reader->U64(&entry.checksum));
  }
  return Status::OK();
}

}  // namespace

std::string CheckpointFeaturesFileName(std::size_t shard,
                                       std::uint64_t seq) {
  return "features-" + std::to_string(shard) + "-ck" + std::to_string(seq) +
         ".feat";
}

std::string CheckpointEdgesFileName(std::size_t shard, std::uint64_t seq) {
  return "edges-" + std::to_string(shard) + "-ck" + std::to_string(seq) +
         ".edge";
}

std::string CheckpointQueriesFileName(std::uint64_t seq) {
  return "queries-ck" + std::to_string(seq) + ".qry";
}

std::string CheckpointNetFileName(std::uint64_t seq) {
  return "net-ck" + std::to_string(seq) + ".net";
}

std::string CheckpointPlacementFileName(std::uint64_t seq) {
  return "placement-ck" + std::to_string(seq) + ".plc";
}

std::string CheckpointManifestFileName(std::uint64_t seq) {
  return "manifest-" + std::to_string(seq) + ".ck";
}

std::string SerializeManifest(const CheckpointManifest& manifest) {
  Writer payload;
  payload.U64(manifest.seq);
  payload.U64(manifest.num_streams);
  payload.U64(manifest.num_shards);
  payload.U64(manifest.queue_capacity);
  payload.U64(manifest.max_producers);
  payload.U64(manifest.max_batch);
  payload.U8(manifest.overload);
  payload.U64(manifest.shards.size());
  for (const CheckpointShardEntry& entry : manifest.shards) {
    payload.U64(entry.epoch);
    payload.U64(entry.appended);
  }
  payload.U64(manifest.queries_file.size());
  payload.Bytes(manifest.queries_file.data(), manifest.queries_file.size());
  payload.U64(manifest.queries_checksum);
  payload.U64(manifest.features.size());
  for (const CheckpointFeatureEntry& entry : manifest.features) {
    payload.U64(entry.file.size());
    payload.Bytes(entry.file.data(), entry.file.size());
    payload.U64(entry.checksum);
  }
  payload.U64(manifest.net_file.size());
  payload.Bytes(manifest.net_file.data(), manifest.net_file.size());
  payload.U64(manifest.net_checksum);
  payload.U64(manifest.placement_file.size());
  payload.Bytes(manifest.placement_file.data(),
                manifest.placement_file.size());
  payload.U64(manifest.placement_checksum);
  payload.U64(manifest.edges.size());
  for (const CheckpointFeatureEntry& entry : manifest.edges) {
    payload.U64(entry.file.size());
    payload.Bytes(entry.file.data(), entry.file.size());
    payload.U64(entry.checksum);
  }

  Writer envelope;
  envelope.Bytes(kManifestMagic, sizeof(kManifestMagic));
  envelope.U32(kManifestVersion);
  envelope.U64(Fnv1a(payload.buffer()));
  envelope.Bytes(payload.buffer().data(), payload.buffer().size());
  return std::move(envelope.TakeBuffer());
}

Result<CheckpointManifest> ParseManifest(const std::string& bytes) {
  if (bytes.size() < sizeof(kManifestMagic) + 4 + 8) {
    return Status::InvalidArgument("checkpoint manifest too small");
  }
  if (std::memcmp(bytes.data(), kManifestMagic, sizeof(kManifestMagic)) !=
      0) {
    return Status::InvalidArgument(
        "not a checkpoint manifest (bad magic)");
  }
  Reader header(bytes);
  {
    // Skip the magic by re-reading it; Reader has no Seek.
    std::uint8_t b = 0;
    for (std::size_t i = 0; i < sizeof(kManifestMagic); ++i) {
      SD_RETURN_NOT_OK(header.U8(&b));
    }
  }
  std::uint32_t version = 0;
  std::uint64_t checksum = 0;
  SD_RETURN_NOT_OK(header.U32(&version));
  SD_RETURN_NOT_OK(header.U64(&checksum));
  if (version != kManifestVersion) {
    return Status::InvalidArgument(
        "unsupported manifest version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kManifestVersion) +
        " only)");
  }
  const std::string payload = bytes.substr(sizeof(kManifestMagic) + 12);
  if (Fnv1a(payload) != checksum) {
    return Status::InvalidArgument("checkpoint manifest checksum mismatch");
  }

  Reader reader(payload);
  CheckpointManifest manifest;
  SD_RETURN_NOT_OK(reader.U64(&manifest.seq));
  SD_RETURN_NOT_OK(reader.U64(&manifest.num_streams));
  SD_RETURN_NOT_OK(reader.U64(&manifest.num_shards));
  SD_RETURN_NOT_OK(reader.U64(&manifest.queue_capacity));
  SD_RETURN_NOT_OK(reader.U64(&manifest.max_producers));
  SD_RETURN_NOT_OK(reader.U64(&manifest.max_batch));
  SD_RETURN_NOT_OK(reader.U8(&manifest.overload));
  std::uint64_t num_entries = 0;
  SD_RETURN_NOT_OK(reader.U64(&num_entries));
  if (num_entries > reader.remaining() / kShardEntryBytes) {
    return Status::InvalidArgument("manifest shard count out of range");
  }
  if (num_entries != manifest.num_shards) {
    return Status::InvalidArgument(
        "manifest shard entry count disagrees with shard count");
  }
  manifest.shards.resize(num_entries);
  for (CheckpointShardEntry& entry : manifest.shards) {
    SD_RETURN_NOT_OK(reader.U64(&entry.epoch));
    SD_RETURN_NOT_OK(reader.U64(&entry.appended));
  }
  SD_RETURN_NOT_OK(ReadFileName(&reader, &manifest.queries_file));
  SD_RETURN_NOT_OK(reader.U64(&manifest.queries_checksum));
  SD_RETURN_NOT_OK(ReadPerShardEntries(&reader, manifest.num_shards,
                                       "feature", &manifest.features));
  SD_RETURN_NOT_OK(ReadFileName(&reader, &manifest.net_file));
  SD_RETURN_NOT_OK(reader.U64(&manifest.net_checksum));
  SD_RETURN_NOT_OK(ReadFileName(&reader, &manifest.placement_file));
  SD_RETURN_NOT_OK(reader.U64(&manifest.placement_checksum));
  SD_RETURN_NOT_OK(ReadPerShardEntries(&reader, manifest.num_shards, "edge",
                                       &manifest.edges));
  if (manifest.queries_file.empty()) {
    return Status::InvalidArgument("manifest names no query registry file");
  }
  if (manifest.placement_file.empty()) {
    return Status::InvalidArgument("manifest names no placement file");
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("manifest has trailing bytes");
  }
  return manifest;
}

Result<CheckpointManifest> FindLatestValidCheckpoint(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::NotFound("checkpoint directory not found: " + dir);
  }

  // Candidate manifests, newest first.
  std::vector<std::pair<std::uint64_t, std::string>> manifests;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (ec) break;
    const std::string name = entry.path().filename().string();
    std::uint64_t seq = 0;
    if (name.rfind("manifest-", 0) == 0 && ParseSeqFromName(name, &seq)) {
      manifests.emplace_back(seq, entry.path().string());
    }
  }
  std::sort(manifests.begin(), manifests.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  Status last_error =
      Status::NotFound("no checkpoint manifest in " + dir);
  for (const auto& [seq, path] : manifests) {
    Result<std::string> bytes = ReadFileToString(path);
    if (!bytes.ok()) {
      last_error = bytes.status();
      continue;
    }
    Result<CheckpointManifest> parsed = ParseManifest(bytes.value());
    if (!parsed.ok()) {
      last_error = parsed.status();
      continue;
    }
    CheckpointManifest manifest = std::move(parsed).value();
    // A manifest commits a checkpoint only if every file it names is
    // present and whole. Verify content checksums before accepting.
    const auto verify = [&](const std::string& file, std::uint64_t sum,
                            const char* what) {
      Result<std::string> file_bytes =
          ReadFileToString((fs::path(dir) / file).string());
      if (file_bytes.ok() && Fnv1a(file_bytes.value()) == sum) return true;
      last_error = Status::InvalidArgument("checkpoint " +
                                           std::to_string(seq) + " " + what +
                                           " " + file + " missing or corrupt");
      return false;
    };
    bool complete = true;
    for (const CheckpointFeatureEntry& entry : manifest.features) {
      complete =
          complete && verify(entry.file, entry.checksum, "feature file");
    }
    for (const CheckpointFeatureEntry& entry : manifest.edges) {
      complete = complete && verify(entry.file, entry.checksum, "edge file");
    }
    complete = complete &&
               verify(manifest.queries_file, manifest.queries_checksum,
                      "query registry file") &&
               verify(manifest.placement_file, manifest.placement_checksum,
                      "placement file") &&
               (manifest.net_file.empty() ||
                verify(manifest.net_file, manifest.net_checksum,
                       "net state file"));
    if (complete) return manifest;
  }
  return last_error;
}

void GarbageCollectCheckpoints(const std::string& dir,
                               std::uint64_t keep_min_seq) {
  namespace fs = std::filesystem;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (ec) break;
    const std::string name = entry.path().filename().string();
    std::error_code remove_ec;
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      fs::remove(entry.path(), remove_ec);
      continue;
    }
    std::uint64_t seq = 0;
    if (ParseSeqFromName(name, &seq) && seq < keep_min_seq) {
      fs::remove(entry.path(), remove_ec);
    }
  }
}

}  // namespace stardust
