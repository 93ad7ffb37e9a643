/**
 * @file
 * graphr_serve's one line framer: the poll(2) loop behind every
 * client stream, TCP and --stdin alike.
 *
 * One EventLoop thread multiplexes an optional listening socket and
 * the established connections with poll(2). A connection is a read
 * fd and a write fd: the same socket for a TCP client, fds 0 and 1
 * for --stdin. Each connection owns a LineBuffer (bounded-memory JSONL
 * framing) and one service::Server Session; the loop frames lines,
 * dispatches them round-robin — one line per connection per pass, so
 * a connection that arrived with a hundred buffered requests cannot
 * get them all admitted before its siblings get one — and ships the
 * Session's admission-ordered responses back out through a
 * per-connection outbound buffer. run() returns once no listener and
 * no connection remain.
 *
 * Threading: run() owns all connection state and is the only caller
 * of fd syscalls. Worker threads deliver responses through each
 * session's sink, which appends to the connection's inbox under the
 * loop mutex and wakes the loop via a self-pipe — the loop thread
 * never blocks on a client fd and workers never touch one.
 *
 * Memory is bounded per connection. The loop stops reading a
 * connection, and the client's further bytes wait in the kernel, while
 * any of these holds:
 *  - kMaxPendingLines framed lines wait for dispatch;
 *  - kMaxOutboundBytes response bytes wait for the client to read
 *    them;
 *  - the session's reorder buffer holds more than queueDepth
 *    responses (Server::sessionFull) — a slow request holds back every
 *    later answer in admission order, and a flood of lines behind it
 *    must not grow the daemon.
 * Admission-level overload (queue depths) is the Server's job and
 * arrives as structured rejections, not as blocking.
 *
 * Shutdown (SIGTERM/SIGINT -> Server::requestStop): the listener
 * closes at receipt — stop accepting — and no connection is read
 * again. Each dispatches the complete lines it has already framed (an
 * unterminated trailing fragment is dropped), in-flight requests
 * finish, and responses flush while the fd takes them. A connection
 * whose pending output the fd does not accept at once is torn down,
 * so a client that stopped reading cannot hold the daemon up.
 *
 * Fault injection: net.accept.fail (transient, listener);
 * serve.read.eintr and serve.write.short (transient: an interrupted
 * read and a one-byte write, both counted in serve.retries); and
 * net.conn.read.fail / net.conn.write.fail (fatal for that one
 * connection: it is closed cleanly, its in-flight work completes and
 * is discarded, and sibling connections are untouched — the chaos
 * suite asserts their streams stay byte-identical).
 */

#ifndef GRAPHR_NET_EVENT_LOOP_HH
#define GRAPHR_NET_EVENT_LOOP_HH

#include <cstddef>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

#include "net/line_buffer.hh"
#include "net/listener.hh"
#include "service/server.hh"

namespace graphr::net
{

/** One poll(2) loop serving many connections over one Server. */
class EventLoop
{
  public:
    /**
     * @p listener, when given, is polled for new clients while fewer
     * than @p maxConnections are established (extra clients wait in
     * the kernel backlog instead of being turned away); without one
     * the loop serves only the connections added by addConnection().
     * @p log receives accept/teardown diagnostics (stderr in the
     * daemon). Throws driver::DriverError if the self-pipe cannot be
     * created.
     */
    EventLoop(service::Server &server, Listener *listener,
              std::size_t maxConnections, std::ostream &log);

    ~EventLoop();

    EventLoop(const EventLoop &) = delete;
    EventLoop &operator=(const EventLoop &) = delete;

    /**
     * Serve one client that writes requests to @p readFd and reads
     * responses from @p writeFd (fds 0 and 1 for --stdin). Both fds
     * are made non-blocking, like accepted sockets; the caller keeps
     * them, and their original flags are restored when the connection
     * ends. Call before run().
     */
    void addConnection(int readFd, int writeFd);

    /**
     * Serve until no listener and no connection remain: every client
     * has finished, or the server's stop flag is set and every
     * connection has drained. Call from exactly one thread; wake() is
     * the only other entry point that is safe concurrently.
     */
    void run();

    /** Nudge a run() blocked in poll() (self-pipe write; safe from
     *  any thread, including under the server mutex). */
    void wake();

  private:
    struct Connection;

    /** Open a session for a new connection over the given fds. */
    Connection &openConnection(int readFd, int writeFd, bool ownsFds);
    void acceptPending();
    /** Read one buffer from a readable connection (one read per
     *  connection per pass — fairness starts at the fd). */
    void readConnection(Connection &conn);
    /** Round-robin dispatch: one framed line per live connection per
     *  pass until every backlog is empty or paused. */
    void dispatchLines();
    /** Move sink-delivered bytes into the send buffer and write what
     *  the fd accepts. */
    void flushConnection(Connection &conn);
    /** End a connection early (fault, or output stuck at stop). */
    void teardown(Connection &conn, const char *why);
    /** Close the session and hand the fds back: close an accepted
     *  socket, restore a caller's fd flags. */
    void release(Connection &conn);
    void reapFinished();

    service::Server &server_;
    Listener *listener_;
    std::size_t maxConnections_;
    std::ostream &log_;

    int wakeRead_ = -1;  ///< self-pipe read end (polled)
    int wakeWrite_ = -1; ///< self-pipe write end (wake() target)

    std::vector<std::unique_ptr<Connection>> conns_;
    std::size_t cursor_ = 0; ///< round-robin dispatch start
    bool stopping_ = false;

    std::mutex mutex_; ///< guards every connection's inbox
};

} // namespace graphr::net

#endif // GRAPHR_NET_EVENT_LOOP_HH
