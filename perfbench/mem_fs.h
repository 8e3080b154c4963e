#ifndef PERFBENCH_MEM_FS_H_
#define PERFBENCH_MEM_FS_H_

#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "awr/storage/fs.h"

namespace perfbench {

/// An in-memory Fs for awrd's state directory.  The benchmark may write
/// only inside its checkout, whose disk (ext4 here) makes awrd's latency
/// drift from run to run with the disk's own state; held in memory, the
/// store still encodes and hands over every journal entry, checkpoint and
/// result through the same Fs calls, in the same order, but no file
/// reaches the kernel.  Crash durability is tested by powercut_test, not
/// here.  Thread-safe.
class MemFs : public awr::storage::Fs {
 public:
  awr::Status WriteFileAtomic(const std::string& path,
                              const std::vector<uint8_t>& bytes) override;
  awr::Result<std::vector<uint8_t>> ReadFile(const std::string& path) override;
  awr::Status Rename(const std::string& from, const std::string& to) override;
  awr::Status Remove(const std::string& path) override;
  awr::Result<std::vector<std::string>> List(const std::string& dir) override;
  awr::Status SyncDir(const std::string& dir) override;
  awr::Status MkDir(const std::string& dir) override;
  bool FileExists(const std::string& path) override;

 private:
  std::mutex mu_;
  std::map<std::string, std::vector<uint8_t>> files_;
  std::set<std::string> dirs_;
};

}  // namespace perfbench

#endif  // PERFBENCH_MEM_FS_H_
