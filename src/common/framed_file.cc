#include "common/framed_file.h"

#include <sys/stat.h>

#include <cstdio>
#include <cstring>

#include "common/atomic_file.h"
#include "common/crc32.h"

namespace coldstart {
namespace {

// Validates the frame in `f` and reads its payload. Returns the reason the
// frame is corrupt, or nullptr when `payload` holds it.
const char* ReadFrame(std::FILE* f, uint64_t magic, std::string* payload) {
  struct stat st;
  if (::fstat(::fileno(f), &st) != 0) {
    return "read error";
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  char header[kFrameHeaderBytes];
  if (file_size < sizeof(header) ||
      std::fread(header, 1, sizeof(header), f) != sizeof(header)) {
    return "truncated header";
  }
  uint64_t file_magic;
  uint64_t size;
  uint32_t crc;
  std::memcpy(&file_magic, header, 8);
  std::memcpy(&size, header + 8, 8);
  std::memcpy(&crc, header + 16, 4);
  if (file_magic != magic) {
    return "bad magic or version";
  }
  if (size != file_size - sizeof(header)) {
    return "payload size mismatch";
  }
  payload->resize(size);
  if (std::fread(payload->data(), 1, size, f) != size) {
    return "read error";
  }
  if (Crc32(payload->data(), size) != crc) {
    return "payload CRC mismatch";
  }
  return nullptr;
}

}  // namespace

bool WriteFramedFile(const std::string& path, uint64_t magic,
                     std::initializer_list<std::string_view> parts) {
  uint64_t size = 0;
  uint32_t crc = 0;
  for (const std::string_view part : parts) {
    size += part.size();
    crc = Crc32(part.data(), part.size(), crc);
  }
  char header[kFrameHeaderBytes];
  std::memcpy(header, &magic, 8);
  std::memcpy(header + 8, &size, 8);
  std::memcpy(header + 16, &crc, 4);
  AtomicFile file(path);
  if (!file.Write(header, sizeof(header))) {
    return false;
  }
  for (const std::string_view part : parts) {
    if (!file.Write(part.data(), part.size())) {
      return false;
    }
  }
  return file.Commit();
}

FrameRead ReadFramedFile(const std::string& path, uint64_t magic) {
  FrameRead read;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return read;
  }
  const char* reason = ReadFrame(f, magic, &read.payload);
  std::fclose(f);
  if (reason != nullptr) {
    read.status = FrameStatus::kCorrupt;
    read.reason = reason;
    std::string().swap(read.payload);
  } else {
    read.status = FrameStatus::kOk;
  }
  return read;
}

}  // namespace coldstart
