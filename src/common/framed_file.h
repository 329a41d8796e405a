// One file frame for every binary state file the lab keeps on disk.
//
// Checkpoints and their manifest (checkpoint/checkpoint.h), the scenario trace
// cache (trace/binary_io.h) and the frontier point cache (core/frontier.h) each
// store one payload in the same frame, little-endian:
//
//   u64 magic | u64 payload size | u32 CRC32(payload) | payload
//
// The magic names the format and its version, so a file of another format or
// version is rejected whole instead of half-read. Writes are atomic
// (common/atomic_file.h): a crash leaves the previous file or the new one,
// never a torn one. A read returns the exact payload written, or says that
// the file is missing or why it is corrupt. What a corrupt file means is the
// caller's policy: a checkpoint aborts, naming the file (resuming from bad
// state would diverge silently), a cache logs the reason and recomputes.
#ifndef COLDSTART_COMMON_FRAMED_FILE_H_
#define COLDSTART_COMMON_FRAMED_FILE_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

namespace coldstart {

// Bytes before the payload: magic, payload size, CRC32.
inline constexpr size_t kFrameHeaderBytes = 8 + 8 + 4;

// Atomically writes one frame whose payload is the concatenation of `parts`.
// The CRC chains over the parts, so none is copied into one buffer. Returns
// false on I/O failure; a previous file at `path` is then left intact.
bool WriteFramedFile(const std::string& path, uint64_t magic,
                     std::initializer_list<std::string_view> parts);

enum class FrameStatus { kMissing, kOk, kCorrupt };

struct FrameRead {
  FrameStatus status = FrameStatus::kMissing;
  const char* reason = "";  // Why a kCorrupt file was rejected.
  std::string payload;      // The whole payload when kOk, else empty.
};

// Reads the frame at `path`. kMissing: the file does not open. kCorrupt: a
// short header, a wrong magic, a size field that disagrees with the file size,
// a read error, or a CRC mismatch. The size field is checked against the file
// size before any allocation is made from it, and the payload is read with one
// sized read.
FrameRead ReadFramedFile(const std::string& path, uint64_t magic);

}  // namespace coldstart

#endif  // COLDSTART_COMMON_FRAMED_FILE_H_
