#include "event_loop.hh"

#include <cerrno>
#include <cstring>
#include <string>

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include "common/failpoint.hh"
#include "driver/driver.hh"
#include "perf/counters.hh"

namespace graphr::net
{

namespace
{

/** Stop reading a connection whose un-sent response bytes exceed
 *  this — the client is not draining. */
constexpr std::size_t kMaxOutboundBytes = 1 << 20;

/** Stop reading a connection holding this many framed,
 *  not-yet-dispatched lines. */
constexpr std::size_t kMaxPendingLines = 256;

/** Strip surrounding whitespace (JSONL lines may end in \r). */
std::string
trimmed(const std::string &line)
{
    std::size_t first = 0;
    std::size_t last = line.size();
    while (first < last &&
           (line[first] == ' ' || line[first] == '\t'))
        ++first;
    while (last > first &&
           (line[last - 1] == ' ' || line[last - 1] == '\t' ||
            line[last - 1] == '\r' || line[last - 1] == '\n'))
        --last;
    return line.substr(first, last - first);
}

/** One transparently retried transient fault (EINTR or a short
 *  write) on a connection's fds. */
void
noteServeRetry()
{
    static perf::Counter &retries =
        perf::Registry::instance().counter("serve.retries");
    retries.add();
}

} // namespace

/**
 * One client connection. The loop thread owns everything except
 * `inbox`, which worker threads append responses to under the loop
 * mutex (the session sink); flushConnection() splices it into the
 * loop-owned send buffer before writing.
 */
struct EventLoop::Connection
{
    int readFd = -1;
    int writeFd = -1;
    /** Accepted sockets are closed on release; a caller's fds get
     *  their original flags back instead. */
    bool ownsFds = false;
    int readFlags = -1;
    int writeFlags = -1;
    service::Server::SessionPtr session;
    LineBuffer lines;
    /** Sink-delivered response bytes (guarded by EventLoop::mutex_). */
    std::string inbox;
    /** Bytes being written to the fd (loop thread only). */
    std::string sendBuf;
    std::size_t sendOff = 0;
    /** No more reads (EOF, stop, or fault); close once drained. */
    bool closing = false;
    /** Released (fault or fully drained); reap will erase it. */
    bool dead = false;

    explicit Connection(std::size_t maxLineBytes)
        : lines(maxLineBytes)
    {
    }
};

EventLoop::EventLoop(service::Server &server, Listener *listener,
                     std::size_t maxConnections, std::ostream &log)
    : server_(server), listener_(listener),
      maxConnections_(maxConnections), log_(log)
{
    int fds[2] = {-1, -1};
    if (::pipe(fds) != 0) {
        throw driver::DriverError(
            "cannot create event-loop wake pipe: " +
            std::string(std::strerror(errno)));
    }
    setNonBlocking(fds[0]);
    setNonBlocking(fds[1]);
    wakeRead_ = fds[0];
    wakeWrite_ = fds[1];
}

EventLoop::~EventLoop()
{
    // Normally empty; after a poll failure this drops the sinks that
    // still point at live connections before the connections go.
    for (const std::unique_ptr<Connection> &conn : conns_) {
        if (!conn->dead)
            release(*conn);
    }
    ::close(wakeRead_);
    ::close(wakeWrite_);
}

void
EventLoop::wake()
{
    const char byte = 'w';
    // A full pipe already guarantees a pending wake-up; EAGAIN (and
    // any other failure) is therefore ignorable.
    [[maybe_unused]] const ssize_t n =
        ::write(wakeWrite_, &byte, 1);
}

EventLoop::Connection &
EventLoop::openConnection(int readFd, int writeFd, bool ownsFds)
{
    auto conn = std::make_unique<Connection>(server_.maxLineBytes());
    conn->readFd = readFd;
    conn->writeFd = writeFd;
    conn->ownsFds = ownsFds;
    Connection *raw = conn.get();
    // The sink runs on worker threads under the server mutex: append
    // the response bytes under the loop mutex and nudge poll().
    // release() closes the session (dropping the sink) before the
    // Connection is ever destroyed, so `raw` cannot dangle.
    conn->session =
        server_.openSession([this, raw](std::string &&line) {
            {
                const std::lock_guard<std::mutex> lock(mutex_);
                raw->inbox.append(line);
                raw->inbox.push_back('\n');
            }
            wake();
        });
    conns_.push_back(std::move(conn));
    return *raw;
}

void
EventLoop::addConnection(int readFd, int writeFd)
{
    Connection &conn = openConnection(readFd, writeFd, /*ownsFds=*/false);
    // Read both before changing either: on a terminal, fds 0 and 1
    // usually share one open file description, and with it the flags.
    conn.readFlags = ::fcntl(readFd, F_GETFL, 0);
    conn.writeFlags = ::fcntl(writeFd, F_GETFL, 0);
    setNonBlocking(readFd);
    setNonBlocking(writeFd);
}

void
EventLoop::run()
{
    std::vector<pollfd> fds;
    std::vector<Connection *> owner; // fds[i] -> its connection
    while (true) {
        if (!stopping_ && server_.stopRequested()) {
            stopping_ = true;
            // The SIGTERM contract: stop accepting the moment the
            // signal lands, finish what is in flight. Closing the
            // listen fd here is the "stop accepting" half; connected
            // clients keep their already-framed lines.
            if (listener_ != nullptr)
                listener_->close();
            for (const std::unique_ptr<Connection> &conn : conns_)
                conn->closing = true;
        }

        reapFinished();
        const bool listening =
            listener_ != nullptr && !listener_->closed();
        if (!listening && conns_.empty())
            return;

        fds.clear();
        owner.clear();
        fds.push_back(pollfd{wakeRead_, POLLIN, 0});
        owner.push_back(nullptr);
        const bool acceptable =
            listening && conns_.size() < maxConnections_;
        if (acceptable) {
            fds.push_back(pollfd{listener_->fd(), POLLIN, 0});
            owner.push_back(nullptr);
        }
        for (const std::unique_ptr<Connection> &conn : conns_) {
            std::size_t queued = 0;
            {
                const std::lock_guard<std::mutex> lock(mutex_);
                queued = conn->inbox.size();
            }
            queued += conn->sendBuf.size() - conn->sendOff;
            // Backpressure: a client that floods requests, stops
            // draining responses or queues answers behind a slow
            // request accumulates bytes in the kernel, not in the
            // daemon.
            const bool wantRead =
                !conn->closing &&
                conn->lines.pendingLines() < kMaxPendingLines &&
                queued < kMaxOutboundBytes &&
                !server_.sessionFull(*conn->session);
            const short readEvents = wantRead ? POLLIN : 0;
            const short writeEvents = queued > 0 ? POLLOUT : 0;
            if (conn->readFd == conn->writeFd) {
                // events == 0 still reports POLLERR/POLLHUP, which is
                // what a fully-backpressured socket is waiting on.
                fds.push_back(pollfd{conn->readFd,
                                     static_cast<short>(readEvents |
                                                        writeEvents),
                                     0});
                owner.push_back(conn.get());
                continue;
            }
            // A pipe's read end reports POLLHUP for good after EOF, so
            // a split pair is polled only for what the loop wants.
            if (wantRead) {
                fds.push_back(pollfd{conn->readFd, readEvents, 0});
                owner.push_back(conn.get());
            }
            if (writeEvents != 0) {
                fds.push_back(pollfd{conn->writeFd, writeEvents, 0});
                owner.push_back(conn.get());
            }
        }

        // The 500 ms tick bounds how late a stop is seen: a signal
        // that lands outside poll() still stops the loop within half
        // a second.
        const int ready =
            ::poll(fds.data(),
                   static_cast<nfds_t>(fds.size()), 500);
        if (ready < 0 && errno != EINTR) {
            log_ << "event loop poll failed: "
                 << std::strerror(errno) << "\n"
                 << std::flush;
            return;
        }

        if (ready > 0 && (fds[0].revents & POLLIN) != 0) {
            char buf[256];
            while (::read(wakeRead_, buf, sizeof(buf)) > 0) {
            }
        }
        if (acceptable && (fds[1].revents & POLLIN) != 0)
            acceptPending();

        for (std::size_t i = 0; i < fds.size(); ++i) {
            Connection *conn = owner[i];
            if (conn == nullptr || conn->dead)
                continue;
            if ((fds[i].revents & (POLLERR | POLLNVAL)) != 0) {
                teardown(*conn, "fd error");
                continue;
            }
            if ((fds[i].revents & (POLLIN | POLLHUP)) != 0 &&
                fds[i].fd == conn->readFd && !conn->closing)
                readConnection(*conn);
        }

        dispatchLines();

        for (const std::unique_ptr<Connection> &conn : conns_) {
            if (!conn->dead)
                flushConnection(*conn);
        }
    }
}

void
EventLoop::acceptPending()
{
    while (conns_.size() < maxConnections_) {
        const int fd = listener_->acceptClient(log_);
        if (fd < 0)
            return;
        openConnection(fd, fd, /*ownsFds=*/true);
    }
}

void
EventLoop::readConnection(Connection &conn)
{
    // One read per connection per poll pass: fairness starts at the
    // fd — a fast talker cannot monopolise the loop, it gets one
    // buffer's worth per pass like everyone else.
    char buf[64 * 1024];
    if (GRAPHR_FAILPOINT("net.conn.read.fail")) {
        teardown(conn, "read failed (injected fault)");
        return;
    }
    if (GRAPHR_FAILPOINT("serve.read.eintr")) {
        noteServeRetry(); // as if a signal interrupted the read
        return;
    }
    const ssize_t n = ::read(conn.readFd, buf, sizeof(buf));
    if (n > 0) {
        conn.lines.append(buf, static_cast<std::size_t>(n));
        return;
    }
    if (n == 0) {
        // Clean EOF: a trailing newline-less request still gets an
        // answer; the connection closes once everything drains.
        conn.lines.finish();
        conn.closing = true;
        return;
    }
    if (errno == EINTR) {
        noteServeRetry();
        return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK)
        return;
    teardown(conn, std::strerror(errno));
}

void
EventLoop::dispatchLines()
{
    if (conns_.empty())
        return;
    // Round-robin, one line per connection per pass: admission order
    // interleaves across connections no matter how many requests one
    // of them has buffered up. The cursor rotates the starting
    // connection between cycles so ties do not always break the same
    // way.
    cursor_ = (cursor_ + 1) % conns_.size();
    bool dispatched = true;
    while (dispatched) {
        dispatched = false;
        const std::size_t count = conns_.size();
        for (std::size_t k = 0; k < count; ++k) {
            Connection &conn = *conns_[(cursor_ + k) % count];
            // A full reorder buffer pauses dispatch too, so one read's
            // worth of framed lines cannot overshoot the bound.
            if (conn.dead || conn.lines.pendingLines() == 0 ||
                server_.sessionFull(*conn.session))
                continue;
            std::string line;
            if (conn.lines.pop(line) == LineBuffer::Next::kOversized) {
                server_.handleOversizedLine(conn.session);
            } else {
                const std::string request = trimmed(line);
                if (!request.empty())
                    server_.handleLine(conn.session, request);
            }
            // Ship what is ready before the next line: the client sees
            // each answer as soon as it is in order, and a status line
            // after it reports the write it took.
            flushConnection(conn);
            dispatched = true;
        }
    }
}

void
EventLoop::flushConnection(Connection &conn)
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (!conn.inbox.empty()) {
            conn.sendBuf.append(conn.inbox);
            conn.inbox.clear();
        }
    }
    while (conn.sendOff < conn.sendBuf.size()) {
        if (GRAPHR_FAILPOINT("net.conn.write.fail")) {
            teardown(conn, "write failed (injected fault)");
            return;
        }
        std::size_t len = conn.sendBuf.size() - conn.sendOff;
        if (len > 1 && GRAPHR_FAILPOINT("serve.write.short")) {
            len = 1; // deterministic short write; the loop resumes
            noteServeRetry();
        }
        const ssize_t n =
            ::write(conn.writeFd, conn.sendBuf.data() + conn.sendOff,
                    len);
        if (n > 0) {
            conn.sendOff += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            // Kernel buffer full: POLLOUT resumes us — unless the
            // daemon is stopping, when only what the fd takes now is
            // flushed and a client that stopped reading is dropped.
            if (stopping_)
                teardown(conn, "output not drained at shutdown");
            return;
        }
        if (n < 0 && errno == EINTR) {
            noteServeRetry();
            continue;
        }
        teardown(conn, std::strerror(errno));
        return;
    }
    conn.sendBuf.clear();
    conn.sendOff = 0;
}

void
EventLoop::teardown(Connection &conn, const char *why)
{
    log_ << "connection " << conn.session->id() << " closed: " << why
         << "\n"
         << std::flush;
    // In-flight requests still finish — their responses are counted
    // and discarded.
    release(conn);
}

void
EventLoop::release(Connection &conn)
{
    // closeSession drops the sink under the server mutex: after it
    // returns no worker can touch this connection's inbox again, so
    // marking it dead (reaped next cycle) is safe.
    server_.closeSession(conn.session);
    if (conn.ownsFds) {
        ::close(conn.readFd);
    } else {
        // fds 0/1 may share their open file description with the
        // invoking shell: hand them back as they came.
        if (conn.readFlags >= 0)
            ::fcntl(conn.readFd, F_SETFL, conn.readFlags);
        if (conn.writeFlags >= 0)
            ::fcntl(conn.writeFd, F_SETFL, conn.writeFlags);
    }
    conn.readFd = -1;
    conn.writeFd = -1;
    conn.closing = true;
    conn.dead = true;
}

void
EventLoop::reapFinished()
{
    for (std::size_t i = 0; i < conns_.size();) {
        Connection &conn = *conns_[i];
        if (!conn.dead && conn.closing &&
            conn.lines.pendingLines() == 0 &&
            server_.sessionBacklog(*conn.session) == 0) {
            bool drained = false;
            {
                const std::lock_guard<std::mutex> lock(mutex_);
                drained = conn.inbox.empty();
            }
            if (drained && conn.sendOff == conn.sendBuf.size())
                release(conn);
        }
        if (conn.dead) {
            conns_.erase(conns_.begin() +
                         static_cast<std::ptrdiff_t>(i));
        } else {
            ++i;
        }
    }
    if (cursor_ >= conns_.size())
        cursor_ = 0;
}

} // namespace graphr::net
