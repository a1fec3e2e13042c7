#pragma once

#include <string>
#include <vector>

namespace ssresf::util {

/// Minimal POSIX subprocess wrapper: spawn an argv vector, wait for exit.
/// This is the process-level analogue of ThreadPool — `ssresf --workers N`
/// uses it to spawn N local `ssresf worker` processes against its loopback
/// coordinator and reap them once the campaign completes.
class Subprocess {
 public:
  Subprocess() = default;

  /// Spawns `argv` (argv[0] is the executable, resolved via PATH). Throws
  /// util Error when the process cannot be created.
  explicit Subprocess(std::vector<std::string> argv);

  Subprocess(Subprocess&& other) noexcept;
  Subprocess& operator=(Subprocess&& other) noexcept;
  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;

  /// Waits (if still running) — a spawned child is never left unreaped.
  ~Subprocess();

  [[nodiscard]] bool running() const { return pid_ > 0; }
  [[nodiscard]] long pid() const { return pid_; }

  /// Blocks until the child exits. Returns its exit code, or 128 + signal
  /// number when the child died on a signal (shell convention). Idempotent:
  /// later calls return the first result.
  int wait();

  /// Kills the child (SIGKILL) if it is still running; wait() then reports
  /// 128 + SIGKILL. The campaign chaos tests use this to fell a worker
  /// mid-run. No-op after the child has been waited for.
  void terminate();

  /// Convenience: spawn + wait.
  static int run(std::vector<std::string> argv);

 private:
  long pid_ = -1;  // pid_t, kept long to keep <sys/types.h> out of the header
  int exit_code_ = -1;
};

}  // namespace ssresf::util
