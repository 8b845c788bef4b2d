// svs_deploy — multi-process deployment harness with crash injection.
//
// Forks N svs_proc processes on localhost (process 0 is the introducer on a
// well-known port; everyone else joins through it), lets the group flood
// multicasts, kill -9's --kill of them mid-flood, and SIGTERMs the
// survivors after --duration-ms so they flush their metrics JSON.  Then it
// *verifies* the run from those reports:
//
//   * every survivor exited cleanly with a parseable report;
//   * the survivors' view sequences are identical, and the final view
//     contains exactly the survivors — the kill -9 victims were excluded
//     by the heartbeat + membership machinery, via real consensus over
//     real UDP;
//   * per-sender delivery sequences are identical across survivors (the
//     processes run the empty relation, i.e. plain view synchrony, so
//     agreement must be exact — any datagram loss the kernel or the
//     --loss model inflicted was repaired below the protocol);
//   * under forced loss, the repair provably happened (retransmissions >
//     0) and no datagram was ever delivered corrupt (malformed == 0).
//
// It also prints each survivor's peak RSS (`maxrss_mb` in its report), so
// memory that grows with the run shows up without a debugger.
//
//   svs_deploy --n=5 --kill=2                      # crash survival
//   svs_deploy --n=5 --kill=1 --loss=200           # + 20% datagram loss
//   svs_deploy --n=3 --kill=0 --duration-ms=4000   # quick smoke
//
// Exit code 0 iff every check passed.  Per-process logs and reports stay in
// --outdir (CI uploads them on failure).
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct CliOptions {
  std::uint32_t n = 5;
  std::uint32_t kill = 1;
  std::int64_t kill_at_ms = 3'000;
  std::int64_t duration_ms = 10'000;
  std::int64_t produce_ms = 5'000;
  std::uint32_t loss_permille = 0;
  std::uint16_t port = 0;  // 0 = derive from pid
  std::string outdir = "svs_deploy_out";
  std::string proc_path;  // default: svs_proc next to this binary
};

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

bool parse_flag(const char* arg, const char* name, const char** value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--n=N] [--kill=K] [--kill-at-ms=MS] "
               "[--duration-ms=MS] [--produce-ms=MS] [--loss=PERMILLE] "
               "[--port=P] [--outdir=DIR] [--proc=PATH]\n",
               argv0);
  return 2;
}

bool parse(int argc, char** argv, CliOptions& options) {
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    std::uint64_t u = 0;
    if (parse_flag(argv[i], "--n", &value)) {
      if (!parse_u64(value, u) || u < 2 || u > 32) return false;
      options.n = static_cast<std::uint32_t>(u);
    } else if (parse_flag(argv[i], "--kill", &value)) {
      if (!parse_u64(value, u)) return false;
      options.kill = static_cast<std::uint32_t>(u);
    } else if (parse_flag(argv[i], "--kill-at-ms", &value)) {
      if (!parse_u64(value, u)) return false;
      options.kill_at_ms = static_cast<std::int64_t>(u);
    } else if (parse_flag(argv[i], "--duration-ms", &value)) {
      if (!parse_u64(value, u)) return false;
      options.duration_ms = static_cast<std::int64_t>(u);
    } else if (parse_flag(argv[i], "--produce-ms", &value)) {
      if (!parse_u64(value, u)) return false;
      options.produce_ms = static_cast<std::int64_t>(u);
    } else if (parse_flag(argv[i], "--loss", &value)) {
      if (!parse_u64(value, u) || u > 999) return false;
      options.loss_permille = static_cast<std::uint32_t>(u);
    } else if (parse_flag(argv[i], "--port", &value)) {
      if (!parse_u64(value, u) || u == 0 || u > 65'535) return false;
      options.port = static_cast<std::uint16_t>(u);
    } else if (parse_flag(argv[i], "--outdir", &value)) {
      options.outdir = value;
    } else if (parse_flag(argv[i], "--proc", &value)) {
      options.proc_path = value;
    } else {
      return false;
    }
  }
  // The introducer (0) must survive to re-send rosters; victims are the
  // highest ids.
  return options.kill < options.n;
}

std::string sibling_binary(const char* argv0, const char* name) {
  char buffer[4096];
  const ssize_t len =
      ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  std::string self = len > 0 ? std::string(buffer, static_cast<size_t>(len))
                             : std::string(argv0);
  const auto slash = self.find_last_of('/');
  return (slash == std::string::npos ? std::string(".")
                                     : self.substr(0, slash)) +
         "/" + name;
}

// --- minimal JSON field extraction (matches svs_proc's writer) -------------

struct Report {
  bool present = false;
  std::string raw;
  std::vector<std::string> views;
  std::vector<std::string> history;

  /// Where the value of `key` starts in `raw`, or nullptr without one.
  [[nodiscard]] const char* value_of(const std::string& key) const {
    const std::string needle = "\"" + key + "\": ";
    const auto at = raw.find(needle);
    return at == std::string::npos ? nullptr : raw.c_str() + at + needle.size();
  }
  [[nodiscard]] std::uint64_t number(const std::string& key) const {
    const char* value = value_of(key);
    return value == nullptr ? 0 : std::strtoull(value, nullptr, 10);
  }
  [[nodiscard]] double real(const std::string& key) const {
    const char* value = value_of(key);
    return value == nullptr ? 0.0 : std::strtod(value, nullptr);
  }
  [[nodiscard]] std::string text(const std::string& key) const {
    const std::string needle = "\"" + key + "\": \"";
    const auto at = raw.find(needle);
    if (at == std::string::npos) return "";
    const auto start = at + needle.size();
    return raw.substr(start, raw.find('"', start) - start);
  }
};

std::vector<std::string> string_array(const std::string& raw,
                                      const std::string& key) {
  std::vector<std::string> out;
  const std::string needle = "\"" + key + "\": [";
  auto at = raw.find(needle);
  if (at == std::string::npos) return out;
  at += needle.size();
  while (at < raw.size() && raw[at] != ']') {
    if (raw[at] == '"') {
      std::string item;
      for (++at; at < raw.size() && raw[at] != '"'; ++at) {
        if (raw[at] == '\\' && at + 1 < raw.size()) ++at;
        item.push_back(raw[at]);
      }
      out.push_back(std::move(item));
    }
    ++at;
  }
  return out;
}

Report read_report(const std::string& path) {
  Report r;
  std::ifstream is(path);
  if (!is) return r;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  r.raw = buffer.str();
  r.present = !r.raw.empty();
  r.views = string_array(r.raw, "views");
  r.history = string_array(r.raw, "history");
  return r;
}

/// The "D <sender>#..." subsequence of a history, for one sender.
std::vector<std::string> sender_sequence(const std::vector<std::string>& h,
                                         std::uint32_t sender) {
  const std::string prefix = "D " + std::to_string(sender) + "#";
  std::vector<std::string> out;
  for (const auto& line : h) {
    if (line.rfind(prefix, 0) == 0) out.push_back(line);
  }
  return out;
}

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (ok) {
    std::printf("  ok: %s\n", what.c_str());
  } else {
    std::printf("  FAIL: %s\n", what.c_str());
    ++g_failures;
  }
}

void sleep_ms(std::int64_t ms) {
  ::usleep(static_cast<useconds_t>(ms * 1'000));
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!parse(argc, argv, options)) return usage(argv[0]);
  if (options.proc_path.empty()) {
    options.proc_path = sibling_binary(argv[0], "svs_proc");
  }
  if (options.port == 0) {
    options.port = static_cast<std::uint16_t>(
        20'000 + (static_cast<std::uint32_t>(::getpid()) * 7919u) % 40'000);
  }
  ::mkdir(options.outdir.c_str(), 0755);

  const std::uint32_t first_victim = options.n - options.kill;
  std::printf("svs_deploy: n=%u kill=%u (ids %u..%u) port=%u loss=%u‰ "
              "duration=%" PRId64 "ms\n",
              options.n, options.kill, first_victim, options.n - 1,
              options.port, options.loss_permille, options.duration_ms);

  // --- launch ---------------------------------------------------------
  std::vector<pid_t> pids(options.n, -1);
  std::vector<std::string> metrics(options.n);
  for (std::uint32_t id = 0; id < options.n; ++id) {
    metrics[id] = options.outdir + "/proc_" + std::to_string(id) + ".json";
    std::remove(metrics[id].c_str());
    const std::string log =
        options.outdir + "/proc_" + std::to_string(id) + ".log";
    const pid_t pid = ::fork();
    if (pid == 0) {
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
      }
      std::vector<std::string> args = {
          options.proc_path,
          "--id=" + std::to_string(id),
          "--n=" + std::to_string(options.n),
          "--introducer-port=" + std::to_string(options.port),
          "--duration-ms=" + std::to_string(options.duration_ms),
          "--produce-ms=" + std::to_string(options.produce_ms),
          "--loss=" + std::to_string(options.loss_permille),
          "--metrics=" + metrics[id],
      };
      std::vector<char*> argv_exec;
      for (auto& a : args) argv_exec.push_back(a.data());
      argv_exec.push_back(nullptr);
      ::execv(options.proc_path.c_str(), argv_exec.data());
      std::perror("execv svs_proc");
      ::_exit(127);
    }
    pids[id] = pid;
  }

  // --- crash injection: kill -9, the only crash model ------------------
  sleep_ms(options.kill_at_ms);
  for (std::uint32_t id = first_victim; id < options.n; ++id) {
    std::printf("kill -9 process %u (pid %d) at t=%" PRId64 "ms\n", id,
                pids[id], options.kill_at_ms);
    ::kill(pids[id], SIGKILL);
  }

  // --- let the survivors run out their duration, then stop them --------
  sleep_ms(options.duration_ms - options.kill_at_ms + 500);
  for (std::uint32_t id = 0; id < first_victim; ++id) {
    ::kill(pids[id], SIGTERM);
  }
  std::vector<int> exit_codes(options.n, -1);
  const std::int64_t reap_deadline_rounds = 100;  // 10s
  for (std::int64_t round = 0; round < reap_deadline_rounds; ++round) {
    bool all = true;
    for (std::uint32_t id = 0; id < options.n; ++id) {
      if (exit_codes[id] != -1) continue;
      int status = 0;
      const pid_t r = ::waitpid(pids[id], &status, WNOHANG);
      if (r == pids[id]) {
        exit_codes[id] = WIFEXITED(status) ? WEXITSTATUS(status)
                                           : 128 + WTERMSIG(status);
      } else {
        all = false;
      }
    }
    if (all) break;
    sleep_ms(100);
  }
  for (std::uint32_t id = 0; id < options.n; ++id) {
    if (exit_codes[id] == -1) {
      std::printf("  FAIL: process %u (pid %d) did not exit; kill -9\n", id,
                  pids[id]);
      ++g_failures;
      ::kill(pids[id], SIGKILL);
      (void)::waitpid(pids[id], nullptr, 0);
    }
  }

  // --- verify ----------------------------------------------------------
  std::printf("verifying %u survivor report(s) in %s\n", first_victim,
              options.outdir.c_str());
  std::vector<Report> reports(options.n);
  for (std::uint32_t id = 0; id < first_victim; ++id) {
    reports[id] = read_report(metrics[id]);
    check(exit_codes[id] == 0, "survivor " + std::to_string(id) +
                                   " exited 0 (got " +
                                   std::to_string(exit_codes[id]) + ")");
    check(reports[id].present,
          "survivor " + std::to_string(id) + " wrote its report");
    if (!reports[id].present) continue;
    const std::string reason = reports[id].text("exit_reason");
    check(reason == "signal" || reason == "duration",
          "survivor " + std::to_string(id) + " finished the run (" + reason +
              ")");
    check(reports[id].number("produced") > 0,
          "survivor " + std::to_string(id) + " produced messages");
    check(reports[id].number("malformed_datagrams") == 0,
          "survivor " + std::to_string(id) + " saw no malformed datagrams");
    std::printf("  survivor %u: peak RSS %.1f MB\n", id,
                reports[id].real("maxrss_mb"));
  }
  for (std::uint32_t id = first_victim; id < options.n; ++id) {
    check(!read_report(metrics[id]).present,
          "victim " + std::to_string(id) +
              " left no report (kill -9 is a crash, not a shutdown)");
  }

  const Report& ref = reports[0];
  if (ref.present) {
    // View synchrony across real processes: identical view sequences, and
    // the final view is exactly the survivor set.
    std::string expected_final = "{";
    for (std::uint32_t id = 0; id < first_victim; ++id) {
      expected_final += (id == 0 ? "p" : ",p") + std::to_string(id);
    }
    expected_final += "}";
    check(!ref.views.empty(), "survivor 0 delivered views");
    if (options.kill > 0) {
      check(ref.views.size() >= 2,
            "the exclusion view installed (got " +
                std::to_string(ref.views.size()) + " view(s))");
    }
    if (!ref.views.empty()) {
      const std::string& final_view = ref.views.back();
      check(final_view.find(expected_final) != std::string::npos,
            "final view " + final_view + " is exactly the survivor set " +
                expected_final);
    }
    for (std::uint32_t id = 1; id < first_victim; ++id) {
      if (!reports[id].present) continue;
      check(reports[id].views == ref.views,
            "survivor " + std::to_string(id) +
                " agrees on the view sequence");
      for (std::uint32_t sender = 0; sender < options.n; ++sender) {
        check(sender_sequence(reports[id].history, sender) ==
                  sender_sequence(ref.history, sender),
              "survivor " + std::to_string(id) +
                  " agrees on sender " + std::to_string(sender) +
                  "'s delivery sequence");
      }
    }
    std::uint64_t delivered = 0;
    for (std::uint32_t id = 0; id < first_victim; ++id) {
      delivered += reports[id].number("delivered_data");
    }
    check(delivered > 0, "survivors delivered data (" +
                             std::to_string(delivered) + " total)");
    if (options.loss_permille > 0) {
      std::uint64_t retransmissions = 0, injected = 0;
      for (std::uint32_t id = 0; id < first_victim; ++id) {
        retransmissions += reports[id].number("retransmissions");
        injected += reports[id].number("injected_losses");
      }
      check(injected > 0, "the loss model dropped datagrams (" +
                              std::to_string(injected) + ")");
      check(retransmissions > 0,
            "losses were repaired by retransmission (" +
                std::to_string(retransmissions) + ")");
    }
  }

  if (g_failures == 0) {
    std::printf("svs_deploy: all checks passed\n");
    return 0;
  }
  std::printf("svs_deploy: %d check(s) FAILED (logs in %s)\n", g_failures,
              options.outdir.c_str());
  return 1;
}
