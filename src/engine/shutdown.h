#ifndef TREEWALK_ENGINE_SHUTDOWN_H_
#define TREEWALK_ENGINE_SHUTDOWN_H_

namespace treewalk {

/// Cooperative SIGINT/SIGTERM handling for batch front ends and the
/// resident daemon (docs/ROBUSTNESS.md, "Graceful shutdown").  The
/// handlers only update lock-free atomics and write one byte to a
/// self-pipe — nothing allocated, no locks — so they are
/// async-signal-safe by construction:
///
///   first signal    latches `requested()`; the driver polls the flag,
///                   cancels the batch cooperatively (or drains the
///                   server's in-flight requests), flushes the journal,
///                   and exits with kExitInterrupted (75, sysexits'
///                   EX_TEMPFAIL: a batch run is resumable with
///                   --resume; a drained daemon is restartable).
///   second signal   the handler itself calls _exit(128 + signo) —
///                   immediate abort, no draining, no flush beyond what
///                   already reached the kernel (the journal's framing
///                   makes the torn tail recoverable).
///   SIGHUP          latched in `reload_requests()`; never fatal.  The
///                   resident daemon's driver polls the counter and
///                   performs a live corpus reload for each request:
///                   build a fresh ResidentTreeCache generation from
///                   the (possibly changed) corpus directory off the
///                   signal path, then atomically swap it into the
///                   server while in-flight queries finish on the old
///                   generation (docs/SERVER.md, "Live corpus
///                   reload").  The handler itself only counts — the
///                   signal context does no I/O and kills no in-flight
///                   work.
///
/// Install()/Uninstall() are re-entrant (install-counted): a resident
/// server and a library caller hosted in one process can each install
/// and uninstall independently, and the original handlers are restored
/// only when the last user uninstalls.  One-shot batch drivers may
/// still call Install() alone, exactly as before.
class GracefulShutdown {
 public:
  /// Documented exit code of a drained, journal-flushed, resumable run.
  static constexpr int kExitInterrupted = 75;

  /// Installs the SIGINT, SIGTERM, and SIGHUP handlers (saving the
  /// previously installed actions on the first call) and increments the
  /// install count.  Safe to call repeatedly.
  static void Install();

  /// Decrements the install count; at zero, restores the handlers saved
  /// by the first Install().  Extra calls (below zero) are no-ops, so a
  /// driver pairing every Install() with an Uninstall() is always safe.
  static void Uninstall();

  /// A SIGINT/SIGTERM arrived since Install() (or the last
  /// ResetForTest()).
  static bool requested();

  /// The first signal's number, or 0.
  static int signal_number();

  /// SIGHUPs received since Install() (or the last ResetForTest()).
  /// The handler only counts (async-signal-safe); the driver loop that
  /// polls this is what actually rebuilds and swaps the corpus
  /// generation.  A supervisor's HUP never terminates in-flight work.
  static int reload_requests();

  /// Blocks until one of the three signals arrives, or returns at once
  /// if one arrived since the previous call: every handler writes a
  /// byte to a self-pipe after updating the state above, and this
  /// drains it.  A driver loop that re-checks requested() and
  /// reload_requests() after each return sees every signal without
  /// sleeping between polls.  Returns early on EINTR; sleeps 20 ms if
  /// Install() was never called.
  static void WaitForSignal();

  /// Clears the latched state so one process can host several tests.
  /// Not for production use: a concurrently arriving signal may still
  /// count against the pre-reset total.
  static void ResetForTest();
};

}  // namespace treewalk

#endif  // TREEWALK_ENGINE_SHUTDOWN_H_
