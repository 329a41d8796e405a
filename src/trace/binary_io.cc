#include "trace/binary_io.h"

#include <cstdio>
#include <cstring>
#include <vector>

#include "common/byte_serde.h"
#include "common/framed_file.h"

namespace coldstart::trace {

namespace {

// "CSLB" + format version. v7 moved the file into the common frame (magic,
// size and CRC32 ahead of the payload) and made the per-region counters part
// of the caller's blob.
constexpr uint64_t kMagic = 0x434C5342'00000007ull;

// Payload header: horizon, the four table counts, the four record sizes and
// the blob size. The record arrays and then the blob follow it.
constexpr uint64_t kHeaderBytes = 6 * sizeof(uint64_t) + 4 * sizeof(uint32_t);

// total += count * size, rejecting any intermediate uint64 overflow (a corrupt
// count must fail the size check, not wrap around it).
bool AccumulateArrayBytes(uint64_t* total, uint64_t count, uint64_t size) {
  if (count != 0 && size > UINT64_MAX / count) {
    return false;
  }
  const uint64_t part = count * size;
  if (part > UINT64_MAX - *total) {
    return false;
  }
  *total += part;
  return true;
}

template <typename T>
std::string_view Bytes(const std::vector<T>& v) {
  return {reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T)};
}

// Copies `count` records starting at `p` and advances `p` past them.
template <typename T>
std::vector<T> TakeArray(const char** p, uint64_t count) {
  std::vector<T> v(count);
  if (count > 0) {
    std::memcpy(v.data(), *p, count * sizeof(T));
    *p += count * sizeof(T);
  }
  return v;
}

bool Reject(const std::string& path, const char* reason) {
  std::fprintf(stderr, "binary trace %s: %s, ignoring cached trace\n", path.c_str(),
               reason);
  return false;
}

}  // namespace

bool WriteBinaryTrace(const TraceStore& store, const std::string& path,
                      std::string_view blob) {
  ByteWriter w;
  w.I64(store.horizon());
  w.U64(store.requests().size());
  w.U64(store.cold_starts().size());
  w.U64(store.functions().size());
  w.U64(store.pods().size());
  w.U32(sizeof(RequestRecord));
  w.U32(sizeof(ColdStartRecord));
  w.U32(sizeof(FunctionRecord));
  w.U32(sizeof(PodLifetimeRecord));
  w.U64(blob.size());
  return WriteFramedFile(path, kMagic,
                         {w.data(), Bytes(store.requests()), Bytes(store.cold_starts()),
                          Bytes(store.functions()), Bytes(store.pods()), blob});
}

bool ReadBinaryTrace(const std::string& path, TraceStore& store, std::string* blob) {
  const FrameRead frame = ReadFramedFile(path, kMagic);
  if (frame.status == FrameStatus::kMissing) {
    return false;
  }
  if (frame.status == FrameStatus::kCorrupt) {
    return Reject(path, frame.reason);
  }
  if (frame.payload.size() < kHeaderBytes) {
    return Reject(path, "truncated trace header");
  }
  ByteReader r(frame.payload);
  const SimTime horizon = r.I64();
  const uint64_t request_count = r.U64();
  const uint64_t cold_start_count = r.U64();
  const uint64_t function_count = r.U64();
  const uint64_t pod_count = r.U64();
  const uint32_t request_size = r.U32();
  const uint32_t cold_start_size = r.U32();
  const uint32_t function_size = r.U32();
  const uint32_t pod_size = r.U32();
  const uint64_t blob_size = r.U64();
  if (request_size != sizeof(RequestRecord) ||
      cold_start_size != sizeof(ColdStartRecord) ||
      function_size != sizeof(FunctionRecord) || pod_size != sizeof(PodLifetimeRecord)) {
    return Reject(path, "record layout of another build");
  }
  // The counts must add up to exactly the payload size before any table is
  // sized from them: a bad count would otherwise demand a multi-gigabyte
  // allocation, or wrap around the check.
  uint64_t expected = kHeaderBytes;
  if (!AccumulateArrayBytes(&expected, request_count, sizeof(RequestRecord)) ||
      !AccumulateArrayBytes(&expected, cold_start_count, sizeof(ColdStartRecord)) ||
      !AccumulateArrayBytes(&expected, function_count, sizeof(FunctionRecord)) ||
      !AccumulateArrayBytes(&expected, pod_count, sizeof(PodLifetimeRecord)) ||
      !AccumulateArrayBytes(&expected, blob_size, 1) ||
      expected != frame.payload.size()) {
    return Reject(path, "table counts do not match the payload size");
  }
  const char* p = frame.payload.data() + kHeaderBytes;
  std::vector<RequestRecord> requests = TakeArray<RequestRecord>(&p, request_count);
  std::vector<ColdStartRecord> cold_starts =
      TakeArray<ColdStartRecord>(&p, cold_start_count);
  std::vector<FunctionRecord> functions = TakeArray<FunctionRecord>(&p, function_count);
  std::vector<PodLifetimeRecord> pods = TakeArray<PodLifetimeRecord>(&p, pod_count);
  if (blob != nullptr) {
    blob->assign(p, blob_size);
  }
  store.RestoreTables(std::move(requests), std::move(cold_starts), std::move(functions),
                      std::move(pods), horizon);
  return true;
}

}  // namespace coldstart::trace
