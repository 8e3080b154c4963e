#ifndef PERFBENCH_TIMING_FS_H_
#define PERFBENCH_TIMING_FS_H_

#include <string>
#include <string_view>
#include <vector>

#include "awr/storage/fs.h"
#include "trace.h"

namespace perfbench {

/// Which durable file a path names, from its name alone: the request
/// journal (.req), a checkpoint (.snap), a result (.res), a write's temp
/// file, or anything else (directories, quarantine).
enum class FileKind { kReq, kSnap, kRes, kTemp, kOther };
const char* FileKindName(FileKind kind);
FileKind KindOfPath(std::string_view path);
/// The request id a store path belongs to ("" for other paths).
std::string RequestIdOfPath(std::string_view path);

/// A timing decorator over another Fs, used only in the traced run: every
/// call becomes a span named "fs.<op>.<kind>" (op: write, read, rename,
/// remove, list, syncdir, mkdir, exists) under the submit span of the
/// request the path belongs to.  Written bytes are counted per span name.
class TimingFs : public awr::storage::Fs {
 public:
  TimingFs(awr::storage::Fs* base, Tracer* tracer)
      : base_(base), tracer_(tracer) {}

  awr::Status WriteFileAtomic(const std::string& path,
                              const std::vector<uint8_t>& bytes) override;
  awr::Result<std::vector<uint8_t>> ReadFile(const std::string& path) override;
  awr::Status Rename(const std::string& from, const std::string& to) override;
  awr::Status Remove(const std::string& path) override;
  awr::Result<std::vector<std::string>> List(const std::string& dir) override;
  awr::Status SyncDir(const std::string& dir) override;
  awr::Status MkDir(const std::string& dir) override;
  bool FileExists(const std::string& path) override;

  /// Bytes handed to WriteFileAtomic, per file kind.
  uint64_t written_bytes(FileKind kind) const;
  void ResetCounters();

 private:
  /// Runs `call` inside a span for (op, path) and returns its result.
  template <typename Call>
  auto Timed(const char* op, const std::string& path, Call call);

  awr::storage::Fs* base_;  // borrowed
  Tracer* tracer_;          // borrowed
  mutable std::mutex mu_;
  uint64_t written_[5] = {0, 0, 0, 0, 0};
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_FS_H_
