#include "listener.hh"

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/failpoint.hh"
#include "driver/driver.hh"

namespace graphr::net
{

void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

Listener::Listener(int port, std::ostream &log)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw driver::DriverError("cannot create socket: " +
                                  std::string(std::strerror(errno)));
    // An immediately restarted daemon must be able to rebind its port
    // while the predecessor's sockets linger in TIME_WAIT.
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 64) != 0) {
        const std::string what = std::strerror(errno);
        ::close(fd);
        throw driver::DriverError("cannot listen on 127.0.0.1:" +
                                  std::to_string(port) + ": " + what);
    }
    setNonBlocking(fd);

    sockaddr_in bound = {};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound),
                      &len) == 0)
        port = ntohs(bound.sin_port);
    fd_ = fd;
    port_ = port;
    log << "graphr_serve listening on 127.0.0.1:" << port << "\n"
        << std::flush;
}

Listener::~Listener() { close(); }

void
Listener::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

int
Listener::acceptClient(std::ostream &log)
{
    if (fd_ < 0)
        return -1;
    // The failpoint fires before the syscall: the pending connection
    // stays in the kernel backlog and is accepted on the next poll
    // pass, so an injected accept fault is transparently transient —
    // exactly what the chaos suite asserts.
    if (GRAPHR_FAILPOINT("net.accept.fail")) {
        log << "accept failed (injected fault), retrying\n"
            << std::flush;
        return -1;
    }
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd < 0) {
        // EAGAIN: poll readiness was spurious or another pass already
        // took the connection. ECONNABORTED: the client gave up while
        // queued. Both simply mean "nothing to accept right now".
        if (errno != EAGAIN && errno != EWOULDBLOCK &&
            errno != EINTR && errno != ECONNABORTED) {
            log << "accept failed: " << std::strerror(errno) << "\n"
                << std::flush;
        }
        return -1;
    }
    setNonBlocking(fd);
    return fd;
}

} // namespace graphr::net
