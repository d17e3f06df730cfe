// perfbench_runner: runs one benchmark workload and prints its result as
// the last line of stdout (see perfbench/README.md for the metrics).
//
//   perfbench_runner --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Exit code 0 when every output check passed, 1 when one failed, 2 on a
// usage error or an exception (no result line then).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"
#include "simd/dispatch.hpp"
#include "util/thread_pool.hpp"

namespace {

using perfbench::Args;

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

void provenance() {
  auto env = [](const char* name) {
    const char* v = std::getenv(name);
    return v ? v : "";
  };
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"simd_backend\": \"%s\", \"pool_threads\": %zu, "
      "\"odq_threads_env\": \"%s\", \"nproc\": %u, \"git_sha\": \"%s\", "
      "\"src_digest\": \"%s\", \"build_type\": \"%s\"}",
      odq::simd::backend_name(odq::simd::active_backend()),
      odq::util::ThreadPool::global().size(), env("ODQ_THREADS"),
      std::thread::hardware_concurrency(), env("PERFBENCH_GIT_SHA"),
      env("PERFBENCH_SRC_DIGEST"), PERFBENCH_BUILD_TYPE);
  perfbench::info_line("provenance", buf);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  provenance();
  perfbench::Report r;
  try {
    if (a.workload == "resnet20-b1") {
      perfbench::run_resnet20_b1(a, r);
    } else if (a.workload == "vgg16-b8-schemes") {
      perfbench::run_vgg16_b8_schemes(a, r);
    } else if (a.workload == "serve-open") {
      perfbench::run_serve_open(a, r);
    } else if (a.workload == "finetune-odq") {
      perfbench::run_finetune_odq(a, r);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   a.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  std::printf("%s\n", r.json().c_str());
  return r.correct ? 0 : 1;
}
