// The repo benchmark binary: runs one workload and prints its metrics as
// the last line of stdout.  Normally started through run.py, which builds
// it; see README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// It works in the current directory: awrd's socket is created there, and
// a traced run writes its spans to trace-<workload>-<seed>.jsonl there.
#include <sys/vfs.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "runner.h"
#include "workloads.h"

extern char** environ;

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

/// The filesystem type of the current directory, by statfs magic.
std::string CwdFilesystem() {
  struct statfs fs {};
  if (statfs(".", &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x794C7630:
      return "overlayfs";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Production defaults only: every AWR_* variable switches some engine
  // or service path away from what users run, so none may be set.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "AWR_", 4) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *e);
      return 2;
    }
  }

  std::string workload_name;
  perfbench::RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      have_seconds = *value != '\0' && *end == '\0' && options.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      options.trace = std::strcmp(value, "1") == 0;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("every flag takes a value");
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  auto workload = perfbench::MakeWorkload(workload_name, /*smoke=*/false);
  if (workload == nullptr) {
    return Usage(("unknown workload '" + workload_name + "'").c_str());
  }
  if (options.trace) {
    options.trace_path = "trace-" + workload_name + "-" +
                         std::to_string(options.seed) + ".jsonl";
  }

  std::printf(
      "# perfbench workload=%s seed=%llu seconds=%g trace=%d build_type=%s "
      "hardware_concurrency=%u awrd_state_dir_fs=memory work_dir_fs=%s\n",
      workload_name.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, PERFBENCH_BUILD_TYPE,
      std::thread::hardware_concurrency(), CwdFilesystem().c_str());
  std::fflush(stdout);

  const perfbench::RunResult result =
      perfbench::RunWorkload(workload.get(), options);
  for (const std::string& note : result.notes) {
    std::fprintf(stderr, "%s\n", note.c_str());
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "perfbench: no op ran\n");
    return 1;
  }
  std::printf("%s\n", perfbench::ResultJson(result).c_str());
  return 0;
}
