#include "src/engine/shutdown.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <mutex>
#include <thread>

namespace treewalk {

namespace {

// Everything the handlers touch is a lock-free atomic; fetch_add and
// store on std::atomic<int> are async-signal-safe when lock-free
// (guaranteed for int on the supported platforms).
std::atomic<int> g_signal_count{0};
std::atomic<int> g_first_signal{0};
std::atomic<int> g_reload_count{0};
// Self-pipe: handlers write the write end, WaitForSignal() polls the
// read end.  Made by the first Install() and kept for the process's
// lifetime, so a handler never sees a closed descriptor.
std::atomic<int> g_wake_read{-1};
std::atomic<int> g_wake_write{-1};

// Install bookkeeping (never touched from a handler): the install
// count plus the sigactions displaced by the first Install(), restored
// by the last Uninstall().
std::mutex g_install_mu;
int g_install_count = 0;
struct sigaction g_saved_int;
struct sigaction g_saved_term;
struct sigaction g_saved_hup;

/// Wakes WaitForSignal().  write() is async-signal-safe; a full pipe
/// (EAGAIN) already holds a wake-up.
void Wake() {
  const int saved_errno = errno;
  const int fd = g_wake_write.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 0;
    (void)!write(fd, &byte, 1);
  }
  errno = saved_errno;
}

void Handler(int signo) {
  int count = g_signal_count.fetch_add(1, std::memory_order_relaxed) + 1;
  if (count == 1) {
    g_first_signal.store(signo, std::memory_order_relaxed);
    Wake();  // the driver drains cooperatively
    return;
  }
  // Second signal: the operator wants out *now*.  _exit is
  // async-signal-safe; the journal's CRC framing makes whatever was
  // mid-write a cleanly truncatable torn tail.
  _exit(128 + signo);
}

void HupHandler(int) {
  // Reload is driver-polled: the handler only counts.  Critically, the
  // process neither exits (SIGHUP's default) nor drains — a supervisor
  // HUP-ing its children on config rollout must not kill in-flight
  // work.
  g_reload_count.fetch_add(1, std::memory_order_relaxed);
  Wake();
}

}  // namespace

void GracefulShutdown::Install() {
  std::lock_guard<std::mutex> lock(g_install_mu);
  if (g_install_count++ > 0) return;
  if (g_wake_read.load(std::memory_order_relaxed) < 0) {
    int fds[2];
    if (pipe2(fds, O_CLOEXEC | O_NONBLOCK) == 0) {
      g_wake_read.store(fds[0], std::memory_order_relaxed);
      g_wake_write.store(fds[1], std::memory_order_relaxed);
    }
  }
  struct sigaction action = {};
  action.sa_handler = Handler;
  sigemptyset(&action.sa_mask);
  // No SA_RESTART: a driver blocked in a slow syscall should see EINTR
  // and reach its cancellation poll promptly.
  action.sa_flags = 0;
  sigaction(SIGINT, &action, &g_saved_int);
  sigaction(SIGTERM, &action, &g_saved_term);
  struct sigaction hup = {};
  hup.sa_handler = HupHandler;
  sigemptyset(&hup.sa_mask);
  // SA_RESTART here: a reload poll is not urgent, and an interrupted
  // read in a connection thread must not surface as a client error.
  hup.sa_flags = SA_RESTART;
  sigaction(SIGHUP, &hup, &g_saved_hup);
}

void GracefulShutdown::Uninstall() {
  std::lock_guard<std::mutex> lock(g_install_mu);
  if (g_install_count == 0) return;
  if (--g_install_count > 0) return;
  sigaction(SIGINT, &g_saved_int, nullptr);
  sigaction(SIGTERM, &g_saved_term, nullptr);
  sigaction(SIGHUP, &g_saved_hup, nullptr);
}

bool GracefulShutdown::requested() {
  return g_signal_count.load(std::memory_order_relaxed) > 0;
}

int GracefulShutdown::signal_number() {
  return g_first_signal.load(std::memory_order_relaxed);
}

int GracefulShutdown::reload_requests() {
  return g_reload_count.load(std::memory_order_relaxed);
}

void GracefulShutdown::WaitForSignal() {
  const int fd = g_wake_read.load(std::memory_order_relaxed);
  if (fd < 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return;
  }
  struct pollfd pfd = {fd, POLLIN, 0};
  (void)poll(&pfd, 1, -1);
  char drain[64];
  while (read(fd, drain, sizeof(drain)) > 0) {
  }
}

void GracefulShutdown::ResetForTest() {
  g_signal_count.store(0, std::memory_order_relaxed);
  g_first_signal.store(0, std::memory_order_relaxed);
  g_reload_count.store(0, std::memory_order_relaxed);
}

}  // namespace treewalk
