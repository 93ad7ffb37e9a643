/**
 * @file
 * The daemon's loopback listening socket.
 *
 * Owns the listen fd for graphr_serve's TCP mode: binds 127.0.0.1
 * with SO_REUSEADDR (an immediate daemon restart must not fail on a
 * TIME_WAIT remnant of its predecessor), listens non-blocking so the
 * event loop's poll() readiness is authoritative, and supports being
 * closed early — the SIGTERM contract is "stop accepting at receipt,
 * finish what is in flight", which is exactly close() followed by the
 * event loop draining its connections.
 */

#ifndef GRAPHR_NET_LISTENER_HH
#define GRAPHR_NET_LISTENER_HH

#include <ostream>

namespace graphr::net
{

/** Set O_NONBLOCK on @p fd (a no-op if its flags cannot be read). */
void setNonBlocking(int fd);

/** A non-blocking loopback listening socket (RAII over the fd). */
class Listener
{
  public:
    /**
     * Bind and listen on 127.0.0.1:@p port (0 = pick a free port).
     * Logs the bound address to @p log — with port 0 that line is how
     * callers learn the actual port. Throws driver::DriverError when
     * the address is unusable: fail at startup, not on first accept.
     */
    Listener(int port, std::ostream &log);

    ~Listener();

    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;

    int fd() const { return fd_; }

    /** The bound port (resolved when constructed with port 0). */
    int port() const { return port_; }

    bool closed() const { return fd_ < 0; }

    /** Stop accepting: close the listen fd. Idempotent; established
     *  connections are unaffected (the event loop drains them). */
    void close();

    /**
     * Accept one pending connection without blocking; the returned fd
     * is non-blocking and owned by the caller. Returns -1 when
     * nothing is pending or on a transient error (EINTR, the
     * net.accept.fail failpoint, a connection that died in the
     * backlog) — the caller just polls again; pending connections are
     * never lost, only deferred.
     */
    int acceptClient(std::ostream &log);

  private:
    int fd_ = -1;
    int port_ = 0;
};

} // namespace graphr::net

#endif // GRAPHR_NET_LISTENER_HH
