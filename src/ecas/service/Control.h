//===-- ecas/service/Control.h - UNIX-socket introspection -----*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Live introspection endpoint for a serving process (DESIGN.md §16).
/// ControlServer listens on a UNIX-domain stream socket and speaks a
/// one-line protocol: the client sends a command name terminated by a
/// newline, the server writes the handler's text response and closes.
/// Commands are registered before start() and immutable afterwards, so
/// the serve thread reads the handler table without a lock.
///
/// The server knows nothing about ServiceFrontEnd or the scheduler —
/// handlers are plain closures — which keeps the dependency arrow
/// pointing the right way (service wires its statusz/metricz/dump
/// renderers in; this file stays at the socket layer).
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_SERVICE_CONTROL_H
#define ECAS_SERVICE_CONTROL_H

#include "ecas/support/Error.h"

#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <vector>

namespace ecas::service {

/// Line-protocol server over an AF_UNIX stream socket. One connection
/// is served at a time (introspection traffic, not a data plane);
/// unknown commands get an "err unknown command" line.
class ControlServer {
public:
  ControlServer() = default;
  ~ControlServer();

  ControlServer(const ControlServer &) = delete;
  ControlServer &operator=(const ControlServer &) = delete;

  /// Registers \p Fn as the responder for \p Command. Must be called
  /// before start(); later registrations are rejected (the serve thread
  /// reads the table lock-free).
  void setHandler(std::string Command, std::function<std::string()> Fn);

  /// Binds \p SocketPath (unlinking any stale socket first) and starts
  /// the serve thread. Fails InvalidArgument when the path does not fit
  /// sockaddr_un, IoError on socket/bind/listen failure.
  Status start(const std::string &SocketPath);

  /// Stops the serve thread, closes the listener, and unlinks the
  /// socket path. Safe to call twice or without start().
  void stop();

  bool running() const { return Running.load(std::memory_order_acquire); }

private:
  void serveLoop();
  void serveConnection(int ClientFd);

  struct Handler {
    std::string Command;
    std::function<std::string()> Fn;
  };

  std::vector<Handler> Handlers;
  std::string SocketPath;
  int ListenFd = -1;
  std::thread ServeThread;
  std::atomic<bool> Running{false};
  std::atomic<bool> StopRequested{false};
};

} // namespace ecas::service

#endif // ECAS_SERVICE_CONTROL_H
