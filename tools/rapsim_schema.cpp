// rapsim-schema — run a producer and check its JSON contract.
//
//   rapsim-schema metrics     <table2_congestion_sim>
//   rapsim-schema certificate <prove_pattern>
//   rapsim-schema lint        <rapsim-lint> --examples=DIR
//   rapsim-schema replay      <rapsim-replay> TRACE...
//   rapsim-schema bench       <a --bench-json bench: theorem2_bound_sweep>
//   rapsim-schema vm          <ext_vm_workloads>
//   rapsim-schema hier        <rapsim-hier> <ext_hier_scaling>
//   rapsim-schema serve       <rapsim-served> <rapsim-client> --examples=DIR
//
// The producers run with a small fixed configuration in a fresh
// directory under $TMPDIR, which is removed, pass or fail. `serve` starts
// a real daemon there, drives every method family through rapsim-client
// and drains it with the shutdown method. DIR (default: examples) holds
// the kernels and the trace that lint and serve send. Exit status: 0
// when the contract holds; 1 on a violation, reported with the JSON path
// of the first broken check, or on a failed producer; 2 on usage errors.

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "schema.hpp"
#include "telemetry/json.hpp"
#include "util/cli.hpp"
#include "util/file.hpp"

extern char** environ;

namespace {

using namespace rapsim;
using Args = std::vector<std::string>;

/// Contract -> its checker and how many producer paths it takes.
const std::map<std::string,
               std::pair<void (*)(const schema::Documents&), std::size_t>>
    kContracts = {{"metrics", {schema::check_metrics, 1}},
                  {"certificate", {schema::check_certificates, 1}},
                  {"lint", {schema::check_lint, 1}},
                  {"replay", {schema::check_replay, 2}},
                  {"bench", {schema::check_bench, 1}},
                  {"vm", {schema::check_vm, 1}},
                  {"hier", {schema::check_hier, 2}},
                  {"serve", {schema::check_serve, 2}}};

/// Start `argv` with its stdout appended to the file `out`.
pid_t spawn(const Args& argv, const std::string& out) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, out.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::vector<char*> cargv;
  for (const std::string& arg : argv) {
    cargv.push_back(const_cast<char*>(arg.c_str()));
  }
  cargv.push_back(nullptr);
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, cargv[0], &actions, nullptr, cargv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) throw std::runtime_error("cannot run " + argv[0]);
  return pid;
}

void wait_ok(pid_t pid, const std::string& what) {
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (WIFSIGNALED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error(what + " failed (wait status " +
                             std::to_string(status) + ")");
  }
}

/// The producers' directory, removed with all it holds. run() appends a
/// producer's stdout to a document; read() loads a file a producer wrote.
class Workdir {
 public:
  Workdir() {
    const char* tmp = std::getenv("TMPDIR");
    path_ = std::string(tmp && *tmp ? tmp : "/tmp") + "/rapsim-schema.XXXXXX";
    if (!mkdtemp(path_.data())) throw std::runtime_error("mkdtemp failed");
  }
  ~Workdir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  Workdir(const Workdir&) = delete;
  Workdir& operator=(const Workdir&) = delete;

  [[nodiscard]] std::string operator/(const std::string& name) const {
    return path_ + "/" + name;
  }
  void run(const std::string& doc, const Args& argv) {
    wait_ok(spawn(argv, *this / (doc.empty() ? "stdout.log" : doc)),
            argv[0]);
    if (!doc.empty()) read(doc);
  }
  void read(const std::string& doc, const std::string& file = "") {
    docs[doc] = util::read_file(*this / (file.empty() ? doc : file));
  }

  schema::Documents docs;

 private:
  std::string path_;
};

/// A lint request for the kernel at `path`, at width 16.
std::string lint_request(const std::string& path, bool races) {
  telemetry::JsonWriter json;
  json.begin_object().kv("method", "lint").key("params").begin_object();
  json.kv("kernel", std::string_view(util::read_file(path))).kv("width", 16);
  if (!races) json.kv("races", false);
  return json.end_object().end_object().str();
}

void serve(Workdir& dir, const Args& bin, const std::string& examples) {
  const std::string socket = dir / "served.sock";
  // Killed on the way out unless it drained.
  struct Daemon {
    pid_t pid;
    ~Daemon() {
      if (pid > 0 && kill(pid, SIGKILL) == 0) waitpid(pid, nullptr, 0);
    }
  } daemon{spawn({bin[0], "--socket=" + socket,
                  "--metrics-out=" + (dir / "metrics.json"),
                  "--trace-out=" + (dir / "spans.trace.json")},
                 dir / "served.log")};
  for (int i = 0; i < 100 && !std::filesystem::is_socket(socket); ++i) {
    if (waitpid(daemon.pid, nullptr, WNOHANG) == daemon.pid) {
      daemon.pid = -1;
      throw std::runtime_error("the daemon died on startup");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  const auto rpc = [&](const std::string& doc, Args args) {
    args.insert(args.begin(), bin[1]);
    args.insert(args.end(), {"--socket=" + socket, "--verbose"});
    dir.run(doc, args);
  };
  const std::string kernel = "--file=" + examples + "/naive_transpose.kernel";
  for (const std::string id : {"cold", "warm"}) {
    rpc("certify_" + id, {"certify", "--addresses=0,32,64,96", "--width=32",
                          "--scheme=rap", "--seed=9", "--id=" + id});
  }
  rpc("lint", {"lint", kernel});
  // A tile transpose whose barrier is deleted: its two phases race.
  const std::string racy = examples + "/missing_barrier.kernel";
  rpc("lint_racy", {"raw", lint_request(racy, true)});
  rpc("lint_noraces", {"raw", lint_request(racy, false)});
  rpc("replay", {"replay", "--trace=" + examples + "/contiguous_stride.trace",
                 "--scheme=raw"});
  rpc("advise", {"advise", "--addresses=0,16,32", "--rows=4", "--width=16",
                 "--draws=4"});
  for (const std::string id : {"cold", "warm"}) {
    rpc("synth_" + id,
        {"synthesize", kernel, "--draws=8", "--id=synth-" + id});
  }
  rpc("stats", {"stats"});
  dir.run("error", {bin[1], "raw", R"({"id":1,"method":"no-such-method"})",
                    "--socket=" + socket});
  dir.run("", {bin[1], "shutdown", "--socket=" + socket});
  const pid_t pid = std::exchange(daemon.pid, -1);
  wait_ok(pid, "the daemon's drain");
  dir.read("metrics.json");
  dir.read("spans.trace.json");
}

/// Run the producers of `contract`, collecting their documents in `dir`.
void produce(const std::string& contract, const Args& bin,
             const std::string& examples, Workdir& dir) {
  const auto with = [](Args argv, const Args& flags) {
    argv.insert(argv.end(), flags.begin(), flags.end());
    return argv;
  };
  if (contract == "metrics") {
    dir.run("metrics",
            {bin[0], "--format=json", "--trials=200", "--widths=16,32"});
  } else if (contract == "certificate") {
    for (const Args& flags : {Args{"--pattern=column"},
                              Args{"--pattern=flat", "--stride=6"},
                              Args{"--addrs=0,3,1,4,1,5"}}) {
      dir.run("certificates",
              with({bin[0], "--width=16", "--format=json"}, flags));
    }
  } else if (contract == "lint") {
    for (const auto& [doc, flags] : std::map<std::string, Args>{
             {"catalog", {}},
             {"synthesis", {"--kernel=transpose-CRSW", "--synthesize"}},
             {"racy", {"--file=" + examples + "/missing_barrier.kernel"}}}) {
      dir.run(doc, with({bin[0], "--width=16", "--scheme=raw",
                         "--format=json", "--fail-on=never"},
                        flags));
    }
  } else if (contract == "replay") {
    dir.run("", with(with({bin[0], "campaign"}, Args(bin.begin() + 1,
                                                     bin.end())),
                     {"--schemes=raw,ras,rap", "--trials=2",
                      "--results=" + (dir / "results")}));
    dir.read("manifest.json", "results/manifest.json");
    dir.read("summary.json", "results/summary.json");
  } else if (contract == "bench" || contract == "vm") {
    dir.run("", with({bin[0], "--bench-json=" + (dir / "bench"), "--quick"},
                     contract == "vm" ? Args{"--width=16"}
                                      : Args{"--widths=8,16", "--trials=100"}));
    dir.read("bench");
  } else if (contract == "hier") {
    dir.run("run", {bin[0], "--workload=bitonic", "--width=16", "--sms=2",
                    "--scheduler=gto", "--scheme=rap", "--format=json"});
    dir.run("", {bin[1], "--bench-json=" + (dir / "bench"), "--quick"});
    dir.read("bench");
  } else {
    serve(dir, bin, examples);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const Args& positional = args.positional();
  const auto contract =
      positional.empty() ? kContracts.end() : kContracts.find(positional[0]);
  if (contract == kContracts.end() ||
      positional.size() < 1 + contract->second.second) {
    std::cerr << "usage: rapsim-schema CONTRACT PRODUCER... [--examples=DIR]\n"
                 "  contracts: metrics certificate lint replay bench vm "
                 "hier serve\n";
    return 2;
  }
  try {
    Workdir dir;
    produce(contract->first, Args(positional.begin() + 1, positional.end()),
            args.get_string("examples", "examples"), dir);
    contract->second.first(dir.docs);
    std::cout << "rapsim-schema: " << contract->first << " OK (documents: "
              << dir.docs.size() << ")\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "rapsim-schema: " << contract->first << ": " << e.what()
              << "\n";
    return 1;
  }
}
