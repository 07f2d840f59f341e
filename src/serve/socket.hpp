// Socket helpers shared by the server's transport (server.cpp) and the
// client (client.cpp): blocking sockets with bounded waits, written whole.
#pragma once

#include <sys/socket.h>
#include <sys/time.h>

#include <cerrno>
#include <chrono>
#include <cstddef>
#include <string_view>

namespace jem::serve {

/// Applies SO_RCVTIMEO/SO_SNDTIMEO so a stalled peer cannot pin a thread.
inline void set_socket_timeouts(int fd, std::chrono::milliseconds timeout) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  (void)setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  (void)setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// send() the whole buffer (MSG_NOSIGNAL: a vanished peer must not raise
/// SIGPIPE). Retries EINTR and short writes; returns false on real failure,
/// with errno still describing it.
inline bool send_all(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace jem::serve
