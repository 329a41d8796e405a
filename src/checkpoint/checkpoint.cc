#include "checkpoint/checkpoint.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/byte_serde.h"
#include "common/framed_file.h"

namespace coldstart::checkpoint {

namespace {

// "cckpt_v5" / "cmnft_v3", little-endian. Checkpoint v5 saves the platform's
// pending events as they stand in the queue — kind, key and payload, superseded
// keep-alives included — in place of v4's per-pod seq bookkeeping and
// in-flight registries, and bounds every container count. (v4 framed the
// cold-start model layer and the cost ledger into the platform payload; v3
// switched the LogHistogram latency sum to 128-bit fixed point; manifest v3
// added shards_per_region and is layout-unchanged since.) Older files encode
// different layouts and are rejected here as "bad magic" rather than
// half-restored.
constexpr uint64_t kCheckpointMagic = 0x35765F74706B6363ull;
constexpr uint64_t kManifestMagic = 0x33765F74666E6D63ull;

[[noreturn]] void Corrupt(const std::string& path, const char* what) {
  std::fprintf(stderr, "checkpoint: %s: corrupt (%s)\n", path.c_str(), what);
  std::abort();
}

// Returns false when `path` does not open (treated as "no checkpoint");
// aborts when the frame does not validate.
bool ReadFrameOrDie(const std::string& path, uint64_t magic,
                    std::string* payload) {
  FrameRead frame = ReadFramedFile(path, magic);
  if (frame.status == FrameStatus::kCorrupt) {
    Corrupt(path, frame.reason);
  }
  *payload = std::move(frame.payload);
  return frame.status == FrameStatus::kOk;
}

}  // namespace

bool WriteCheckpointFile(const std::string& path, const CheckpointMeta& meta,
                         const std::string& payload) {
  ByteWriter w;
  w.U64(meta.fingerprint);
  w.U8(meta.trace_mode);
  w.U32(meta.shard);
  w.I64(meta.day);
  w.U32(meta.num_regions);
  // The payload's length prefix; the payload itself is the frame's second
  // part, so it is never copied into the meta buffer.
  w.U64(payload.size());
  return WriteFramedFile(path, kCheckpointMagic, {w.data(), payload});
}

bool ReadCheckpointFile(const std::string& path, CheckpointMeta* meta,
                        std::string* payload) {
  std::string framed;
  if (!ReadFrameOrDie(path, kCheckpointMagic, &framed)) {
    return false;
  }
  // The frame CRC already validated every byte; ByteReader underflow here
  // would be a writer/reader bug and CHECK-fails accordingly.
  ByteReader r(framed);
  meta->fingerprint = r.U64();
  meta->trace_mode = r.U8();
  meta->shard = r.U32();
  meta->day = r.I64();
  meta->num_regions = r.U32();
  if (r.U64() != r.Remaining()) {
    Corrupt(path, "payload length mismatch");
  }
  // Drop the meta prefix in place rather than copying the payload out.
  framed.erase(0, framed.size() - r.Remaining());
  *payload = std::move(framed);
  return true;
}

bool WriteManifest(const std::string& dir, const Manifest& manifest) {
  ByteWriter w;
  w.U64(manifest.fingerprint);
  w.U8(manifest.trace_mode);
  w.U32(manifest.num_regions);
  w.U8(manifest.sharded ? 1 : 0);
  w.U32(manifest.shards_per_region);
  w.Count(manifest.entries.size());
  for (const ManifestEntry& e : manifest.entries) {
    w.U32(e.shard);
    w.I64(e.day);
    w.Str(e.file);
  }
  return WriteFramedFile(ManifestPath(dir), kManifestMagic, {w.data()});
}

bool ReadManifest(const std::string& dir, Manifest* manifest) {
  const std::string path = ManifestPath(dir);
  std::string payload;
  if (!ReadFrameOrDie(path, kManifestMagic, &payload)) {
    return false;
  }
  ByteReader r(payload);
  manifest->fingerprint = r.U64();
  manifest->trace_mode = r.U8();
  manifest->num_regions = r.U32();
  manifest->sharded = r.U8() != 0;
  manifest->shards_per_region = r.U32();
  // An entry takes at least its shard (u32), day (i64) and name length (u64).
  manifest->entries.resize(r.Count(4 + 8 + 8));
  for (ManifestEntry& e : manifest->entries) {
    e.shard = r.U32();
    e.day = r.I64();
    e.file = r.Str();
  }
  if (!r.AtEnd()) {
    Corrupt(path, "trailing bytes");
  }
  return true;
}

std::string CheckpointFileName(int64_t day, uint32_t shard) {
  char name[64];
  if (shard == kSerialShard) {
    std::snprintf(name, sizeof(name), "ckpt_day%" PRId64 ".bin", day);
  } else {
    std::snprintf(name, sizeof(name), "ckpt_day%" PRId64 "_r%u.bin", day, shard);
  }
  return name;
}

std::string ManifestPath(const std::string& dir) {
  return dir + "/MANIFEST.bin";
}

}  // namespace coldstart::checkpoint
