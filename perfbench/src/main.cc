// logres_perfbench: runs one workload of the end-to-end benchmark and
// prints its result as the last line of standard output.
//
//   logres_perfbench --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --work-dir <dir> [--trace-out <file>]
//                    [--git-sha <sha>] [--src-digest <hex>]
//
// perfbench/run.py builds this program and supplies the last four flags.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"
#include "report.h"

namespace {

using perfbench::Args;

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr, "logres_perfbench: %s\n", why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else if (flag == "--trace-out") {
        args.trace_path = value;
      } else if (flag == "--git-sha") {
        git_sha = value;
      } else if (flag == "--src-digest") {
        src_digest = value;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (args.work_dir.empty()) Usage("--work-dir is required");
  if (!(args.seconds > 0)) Usage("--seconds must be positive");

  std::error_code ec;
  std::filesystem::remove_all(args.work_dir, ec);
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) Usage("cannot create " + args.work_dir + ": " + ec.message());
  args.stamp_json = perfbench::StampJson(args, git_sha, src_digest);

  perfbench::RunResult result;
  try {
    if (args.workload == "campus_updates") {
      result = perfbench::RunCampusUpdates(args);
    } else if (args.workload == "lineage_queries") {
      result = perfbench::RunLineageQueries(args);
    } else {
      Usage("unknown workload " + args.workload);
    }
  } catch (const perfbench::SetupError& e) {
    std::fprintf(stderr, "logres_perfbench: set-up failed: %s\n",
                 e.what.c_str());
    std::filesystem::remove_all(args.work_dir, ec);
    return 1;
  }
  std::filesystem::remove_all(args.work_dir, ec);

  const std::string line = perfbench::ResultJson(result, args.trace);
  for (const std::string& note : result.notes) {
    std::fprintf(stderr, "[%s seed %llu] %s\n", args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed), note.c_str());
  }
  std::printf("{\"stamp\": %s}\n%s\n", args.stamp_json.c_str(), line.c_str());
  return 0;
}
