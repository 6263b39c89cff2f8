#include "engine/checkpoint.h"

#include <algorithm>
#include <filesystem>
#include <system_error>
#include <utility>

#include "common/atomic_file.h"
#include "common/check.h"
#include "common/serialize.h"
#include "engine/placement.h"

namespace stardust {

namespace {

constexpr char kManifestMagic[4] = {'S', 'D', 'M', 'F'};
/// The only manifest version this build reads: the layout
/// IngestEngine::Checkpoint writes. Older versions only ever existed
/// inside this repository and are rejected with a diagnostic.
constexpr std::uint32_t kManifestVersion = 8;
/// Smallest serialized shard entry (epoch, appended, file name length,
/// checksum); bounds the declared shard count against the remaining
/// payload so corrupt manifests cannot drive huge allocations.
constexpr std::uint64_t kShardEntryBytes = 32;
constexpr std::uint64_t kMaxFileNameBytes = 4096;

constexpr char kShardFileMagic[4] = {'S', 'D', 'F', 'P'};
/// The only shard file version this build reads or writes.
constexpr std::uint32_t kShardFileVersion = 5;

/// Extracts the sequence number from `manifest-<seq>.ck`,
/// `features-<i>-ck<seq>.feat`, `queries-ck<seq>.qry` or
/// `net-ck<seq>.net`; false otherwise.
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
  } else if (name.rfind("queries-ck", 0) == 0 && name.size() > 14 &&
             name.compare(name.size() - 4, 4, ".qry") == 0) {
    digits = name.substr(10, name.size() - 14);
  } else if (name.rfind("net-ck", 0) == 0 && name.size() > 10 &&
             name.compare(name.size() - 4, 4, ".net") == 0) {
    digits = name.substr(6, name.size() - 10);
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
  SD_RETURN_NOT_OK(reader->Bytes(name_size, name));
  if (name->find('/') != std::string::npos ||
      name->find("..") != std::string::npos) {
    return Status::InvalidArgument(
        "manifest file name escapes checkpoint directory");
  }
  return Status::OK();
}

}  // namespace

std::string CheckpointFeaturesFileName(std::size_t shard,
                                       std::uint64_t seq) {
  return "features-" + std::to_string(shard) + "-ck" + std::to_string(seq) +
         ".feat";
}

std::string CheckpointQueriesFileName(std::uint64_t seq) {
  return "queries-ck" + std::to_string(seq) + ".qry";
}

std::string CheckpointNetFileName(std::uint64_t seq) {
  return "net-ck" + std::to_string(seq) + ".net";
}

std::string CheckpointManifestFileName(std::uint64_t seq) {
  return "manifest-" + std::to_string(seq) + ".ck";
}

std::string SerializeManifest(const CheckpointManifest& manifest) {
  const auto file_name = [](const std::string& name, Writer* writer) {
    writer->U64(name.size());
    writer->Bytes(name.data(), name.size());
  };
  Writer payload;
  payload.U64(manifest.seq);
  payload.U64(manifest.num_streams);
  payload.U64(manifest.num_shards);
  payload.U64(manifest.shards.size());
  for (const CheckpointShardEntry& entry : manifest.shards) {
    payload.U64(entry.epoch);
    payload.U64(entry.appended);
    file_name(entry.file, &payload);
    payload.U64(entry.checksum);
  }
  payload.U64(manifest.placement_epoch);
  file_name(manifest.queries_file, &payload);
  payload.U64(manifest.queries_checksum);
  file_name(manifest.net_file, &payload);
  payload.U64(manifest.net_checksum);
  return WrapEnvelope(kManifestMagic, kManifestVersion, payload.buffer());
}

Result<CheckpointManifest> ParseManifest(const std::string& bytes) {
  std::uint32_t version = 0;
  std::string payload;
  SD_RETURN_NOT_OK(UnwrapEnvelope(bytes, kManifestMagic,
                                  "checkpoint manifest", &version, &payload));
  if (version != kManifestVersion) {
    return Status::InvalidArgument(
        "unsupported manifest version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kManifestVersion) +
        " only)");
  }

  Reader reader(payload);
  CheckpointManifest manifest;
  SD_RETURN_NOT_OK(reader.U64(&manifest.seq));
  SD_RETURN_NOT_OK(reader.U64(&manifest.num_streams));
  SD_RETURN_NOT_OK(reader.U64(&manifest.num_shards));
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
    SD_RETURN_NOT_OK(ReadFileName(&reader, &entry.file));
    SD_RETURN_NOT_OK(reader.U64(&entry.checksum));
    if (entry.file.empty()) {
      return Status::InvalidArgument("manifest names no file for a shard");
    }
  }
  SD_RETURN_NOT_OK(reader.U64(&manifest.placement_epoch));
  SD_RETURN_NOT_OK(ReadFileName(&reader, &manifest.queries_file));
  SD_RETURN_NOT_OK(reader.U64(&manifest.queries_checksum));
  SD_RETURN_NOT_OK(ReadFileName(&reader, &manifest.net_file));
  SD_RETURN_NOT_OK(reader.U64(&manifest.net_checksum));
  if (manifest.queries_file.empty()) {
    return Status::InvalidArgument("manifest names no query registry file");
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("manifest has trailing bytes");
  }
  return manifest;
}

std::string SerializeShardFile(const CheckpointShardFile& file) {
  SD_CHECK(file.slices.size() == file.globals.size());
  Writer payload;
  payload.U8(static_cast<std::uint8_t>(file.aggregate));
  payload.U64(file.history);
  payload.U64(file.globals.size());
  for (std::size_t local = 0; local < file.globals.size(); ++local) {
    payload.U32(file.globals[local]);
    if (file.globals[local] == kNoStream) continue;
    const std::string& slice = file.slices[local];
    payload.U64(slice.size());
    payload.Bytes(slice.data(), slice.size());
  }
  return WrapEnvelope(kShardFileMagic, kShardFileVersion, payload.buffer());
}

Result<CheckpointShardFile> ParseShardFile(const std::string& bytes) {
  std::uint32_t version = 0;
  std::string payload;
  SD_RETURN_NOT_OK(UnwrapEnvelope(bytes, kShardFileMagic,
                                  "checkpoint shard file", &version,
                                  &payload));
  if (version != kShardFileVersion) {
    return Status::InvalidArgument(
        "unsupported checkpoint shard file version " +
        std::to_string(version) + " (this build reads version " +
        std::to_string(kShardFileVersion) + " only)");
  }
  Reader reader(payload);
  CheckpointShardFile file;
  std::uint8_t kind = 0;
  SD_RETURN_NOT_OK(reader.U8(&kind));
  if (kind > static_cast<std::uint8_t>(AggregateKind::kSpread)) {
    return Status::InvalidArgument("shard file aggregate kind out of range");
  }
  file.aggregate = static_cast<AggregateKind>(kind);
  SD_RETURN_NOT_OK(reader.U64(&file.history));
  std::uint64_t slots = 0;
  SD_RETURN_NOT_OK(reader.U64(&slots));
  // Every slot holds at least its 4-byte stream id.
  if (slots == 0 || slots > reader.remaining() / 4) {
    return Status::InvalidArgument("shard file slot count out of range");
  }
  file.globals.resize(slots);
  file.slices.resize(slots);
  for (std::uint64_t local = 0; local < slots; ++local) {
    SD_RETURN_NOT_OK(reader.U32(&file.globals[local]));
    if (file.globals[local] == kNoStream) continue;
    std::uint64_t size = 0;
    SD_RETURN_NOT_OK(reader.U64(&size));
    SD_RETURN_NOT_OK(reader.Bytes(size, &file.slices[local]));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("shard file has trailing bytes");
  }
  return file;
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
    for (const CheckpointShardEntry& entry : manifest.shards) {
      complete = complete && verify(entry.file, entry.checksum, "shard file");
    }
    complete = complete &&
               verify(manifest.queries_file, manifest.queries_checksum,
                      "query registry file") &&
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
