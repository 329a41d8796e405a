// Binary trace serialization: the fast path for the scenario cache.
//
// One framed file (common/framed_file.h) holds all four tables as packed record
// arrays, plus one opaque blob that the caller owns. Experiment::RunCached keeps
// its per-region platform counters and cost ledger there, so a cache hit
// restores exactly what a fresh run would have produced. The format is local to
// a build: records are copied with memcpy semantics and guarded by size fields
// in the payload header. Cross-toolchain interchange should use csv.h.
#ifndef COLDSTART_TRACE_BINARY_IO_H_
#define COLDSTART_TRACE_BINARY_IO_H_

#include <string>
#include <string_view>

#include "trace/trace_store.h"

namespace coldstart::trace {

// Writes the whole store and `blob`; returns false on I/O failure. The write is
// atomic: a crash mid-write leaves the previous file, never a truncated one, at
// `path`.
bool WriteBinaryTrace(const TraceStore& store, const std::string& path,
                      std::string_view blob = {});

// Reads into an empty store. Returns false when the file is missing or is
// rejected; every rejection is reported on stderr naming the file. A file is
// rejected for a corrupt frame (bad magic, wrong size, CRC mismatch), a record
// layout from a different build, or table counts that do not add up to the
// payload size. The counts are checked, with overflow guards, before any
// allocation is sized from them. When `blob` is non-null it receives the blob.
bool ReadBinaryTrace(const std::string& path, TraceStore& store,
                     std::string* blob = nullptr);

}  // namespace coldstart::trace

#endif  // COLDSTART_TRACE_BINARY_IO_H_
