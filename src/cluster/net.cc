#include "cluster/net.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>

namespace ta {

int
connectLoopback(uint16_t port, int timeout_ms, bool keep_io_timeouts)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    const int nodelay = 1; // see the file comment in net.h
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    // The send timeout also bounds connect() itself on Linux.
    timeval tv{timeout_ms / 1000, (timeout_ms % 1000) * 1000};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    if (!keep_io_timeouts) {
        timeval forever{0, 0}; // 0 = block without a deadline
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &forever,
                     sizeof(forever));
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &forever,
                     sizeof(forever));
    }
    return fd;
}

bool
writeAll(int fd, const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        const ssize_t n =
            ::write(fd, data.data() + off, data.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        off += static_cast<size_t>(n);
    }
    return true;
}

bool
readLineTimeout(int fd, int timeout_ms, std::string &line)
{
    line.clear();
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    char c = 0;
    for (;;) {
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now())
                .count();
        if (left <= 0)
            return false;
        pollfd pfd{fd, POLLIN, 0};
        const int pr = ::poll(&pfd, 1, static_cast<int>(left));
        if (pr < 0 && errno == EINTR)
            continue;
        if (pr <= 0)
            return false;
        const ssize_t n = ::read(fd, &c, 1);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        if (c == '\n')
            return true;
        line.push_back(c);
    }
}

} // namespace ta
