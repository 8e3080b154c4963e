#include "mem_fs.h"

#include <cerrno>

namespace perfbench {

namespace {

std::string ParentOf(const std::string& path) {
  const size_t slash = path.rfind('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

}  // namespace

awr::Status MemFs::WriteFileAtomic(const std::string& path,
                                   const std::vector<uint8_t>& bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dirs_.count(ParentOf(path)) == 0) {
    return awr::storage::ErrnoStatus("open " + path, ENOENT);
  }
  files_[path] = bytes;
  return awr::Status::OK();
}

awr::Result<std::vector<uint8_t>> MemFs::ReadFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) {
    return awr::storage::ErrnoStatus("open " + path, ENOENT);
  }
  return it->second;
}

awr::Status MemFs::Rename(const std::string& from, const std::string& to) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(from);
  if (it == files_.end()) {
    return awr::storage::ErrnoStatus("rename " + from, ENOENT);
  }
  std::vector<uint8_t> bytes = std::move(it->second);
  files_.erase(it);
  files_[to] = std::move(bytes);
  return awr::Status::OK();
}

awr::Status MemFs::Remove(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (files_.erase(path) == 0) {
    return awr::storage::ErrnoStatus("unlink " + path, ENOENT);
  }
  return awr::Status::OK();
}

awr::Result<std::vector<std::string>> MemFs::List(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dirs_.count(dir) == 0) {
    return awr::storage::ErrnoStatus("opendir " + dir, ENOENT);
  }
  std::set<std::string> names;
  const std::string prefix = dir + "/";
  for (const auto& [path, bytes] : files_) {
    if (path.compare(0, prefix.size(), prefix) == 0 &&
        path.find('/', prefix.size()) == std::string::npos) {
      names.insert(path.substr(prefix.size()));
    }
  }
  for (const std::string& d : dirs_) {
    if (d.compare(0, prefix.size(), prefix) == 0 &&
        d.find('/', prefix.size()) == std::string::npos) {
      names.insert(d.substr(prefix.size()));
    }
  }
  return std::vector<std::string>(names.begin(), names.end());
}

awr::Status MemFs::SyncDir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dirs_.count(dir) == 0) {
    return awr::storage::ErrnoStatus("open " + dir, ENOENT);
  }
  return awr::Status::OK();
}

awr::Status MemFs::MkDir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  dirs_.insert(dir);
  return awr::Status::OK();
}

bool MemFs::FileExists(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(path) > 0;
}

}  // namespace perfbench
