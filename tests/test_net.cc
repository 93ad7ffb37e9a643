/**
 * @file
 * Tests for the connection layer (src/net/) and the blocking client
 * library (src/client/): LineBuffer's bounded-memory JSONL framing,
 * the listener's port handling and SO_REUSEADDR rebinding, and the
 * event loop end to end — TCP response streams byte-identical to a
 * stdin session at any worker count, the per-connection admission
 * quota keeping a greedy client from starving its siblings, the
 * reorder-buffer cap on a flood behind a stalled request, and a stop
 * that does not wait on a client that stopped reading (the last two
 * over TCP and over a stdin-style fd pair).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "client/client.hh"
#include "common/failpoint.hh"
#include "common/json_reader.hh"
#include "driver/dataset.hh"
#include "graphr/engine/golden_cache.hh"
#include "graphr/engine/plan_cache.hh"
#include "net/event_loop.hh"
#include "net/line_buffer.hh"
#include "net/listener.hh"
#include "perf/counters.hh"
#include "service/server.hh"

#include "serve_text.hh"

namespace graphr
{
namespace
{

using net::LineBuffer;

// ------------------------------------------------------- LineBuffer

TEST(LineBufferTest, FramesLinesAcrossArbitraryChunkBoundaries)
{
    LineBuffer buf(1024);
    const std::string text = "alpha\nbeta\ngamma\n";
    for (const char c : text)
        buf.append(&c, 1); // worst-case fragmentation
    EXPECT_EQ(buf.pendingLines(), 3u);

    std::string line;
    ASSERT_EQ(buf.pop(line), LineBuffer::Next::kLine);
    EXPECT_EQ(line, "alpha");
    ASSERT_EQ(buf.pop(line), LineBuffer::Next::kLine);
    EXPECT_EQ(line, "beta");
    ASSERT_EQ(buf.pop(line), LineBuffer::Next::kLine);
    EXPECT_EQ(line, "gamma");
    EXPECT_EQ(buf.pop(line), LineBuffer::Next::kNone);
}

TEST(LineBufferTest, OversizedLineIsDiscardedAndReportedOnce)
{
    // Exactly cap bytes is still a line, one byte more is
    // consumed-and-discarded and surfaces as a single kOversized
    // event.
    LineBuffer buf(4);
    const std::string text = "abcd\nabcde\nok\n";
    buf.append(text.data(), text.size());

    std::string line;
    ASSERT_EQ(buf.pop(line), LineBuffer::Next::kLine);
    EXPECT_EQ(line, "abcd");
    EXPECT_EQ(buf.pop(line), LineBuffer::Next::kOversized);
    ASSERT_EQ(buf.pop(line), LineBuffer::Next::kLine);
    EXPECT_EQ(line, "ok");
    EXPECT_EQ(buf.pop(line), LineBuffer::Next::kNone);
}

TEST(LineBufferTest, ZeroCapMeansUnlimited)
{
    LineBuffer buf(0);
    const std::string big(64 * 1024, 'x');
    buf.append(big.data(), big.size());
    buf.append("\n", 1);
    std::string line;
    ASSERT_EQ(buf.pop(line), LineBuffer::Next::kLine);
    EXPECT_EQ(line, big);
}

TEST(LineBufferTest, FinishPromotesTheTrailingFragment)
{
    LineBuffer buf(1024);
    buf.append("tail", 4);
    std::string line;
    EXPECT_EQ(buf.pop(line), LineBuffer::Next::kNone);
    buf.finish();
    ASSERT_EQ(buf.pop(line), LineBuffer::Next::kLine);
    EXPECT_EQ(line, "tail");
    // A clean EOF with nothing pending promotes nothing.
    buf.finish();
    EXPECT_EQ(buf.pop(line), LineBuffer::Next::kNone);
}

// --------------------------------------------------------- Listener

TEST(ListenerTest, PicksAndLogsAFreePortForPortZero)
{
    std::ostringstream log;
    net::Listener listener(0, log);
    EXPECT_GT(listener.port(), 0);
    EXPECT_NE(log.str().find("listening on 127.0.0.1:" +
                             std::to_string(listener.port())),
              std::string::npos)
        << log.str();
    EXPECT_FALSE(listener.closed());
    listener.close();
    EXPECT_TRUE(listener.closed());
    listener.close(); // idempotent (the SIGTERM path may race EOF)
}

TEST(ListenerTest, RebindsAPortWithAConnectionInTimeWait)
{
    // Accept a connection and close it server-side first: that parks
    // the server's end in TIME_WAIT on this port. Without
    // SO_REUSEADDR the rebind below fails with EADDRINUSE.
    std::ostringstream log;
    int port = 0;
    {
        net::Listener first(0, log);
        port = first.port();
        client::Client client(port);
        int conn_fd = -1;
        for (int i = 0; i < 500 && conn_fd < 0; ++i) {
            conn_fd = first.acceptClient(log);
            if (conn_fd < 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
        }
        ASSERT_GE(conn_fd, 0) << "accept never completed";
        ::close(conn_fd);
    }
    net::Listener second(port, log);
    EXPECT_EQ(second.port(), port);
}

// -------------------------------------------------------- EventLoop

/** Isolates the process-wide caches around every test. */
class NetServeTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        resetCaches();
    }

    void
    TearDown() override
    {
        failpoint::disarmAll();
        resetCaches();
    }

    static void
    resetCaches()
    {
        PlanCache::instance().setStore(nullptr);
        PlanCache::instance().clear();
        clearGoldenCache();
        driver::clearDatasetCache();
        perf::Registry::instance().resetAll();
    }
};

/**
 * One in-process daemon: Server + EventLoop thread, either listening
 * on a loopback port or serving one fd pair the way --stdin serves
 * fds 0 and 1.
 */
struct LoopHarness
{
    std::ostringstream log; // declared first: listener/loop borrow it
    service::Server server;
    std::optional<net::Listener> listener;
    net::EventLoop loop;
    std::atomic<bool> finished{false};
    std::thread thread;

    explicit LoopHarness(const service::ServeOptions &options)
        : server(options), listener(std::in_place, 0, log),
          loop(server, &*listener, 64, log)
    {
        start();
    }

    LoopHarness(const service::ServeOptions &options, int readFd,
                int writeFd)
        : server(options), loop(server, nullptr, 1, log)
    {
        loop.addConnection(readFd, writeFd);
        start();
    }

    int port() const { return listener->port(); }

    /** True once run() has returned, waiting at most @p limit. */
    bool
    finishedWithin(std::chrono::milliseconds limit)
    {
        const auto deadline = std::chrono::steady_clock::now() + limit;
        while (!finished.load() &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        return finished.load();
    }

    /** Request a stop; true once run() returned within @p limit. */
    bool
    stopWithin(std::chrono::milliseconds limit)
    {
        server.requestStop();
        loop.wake();
        return finishedWithin(limit);
    }

    ~LoopHarness()
    {
        server.requestStop();
        loop.wake();
        thread.join();
    }

  private:
    void
    start()
    {
        thread = std::thread([this] {
            loop.run();
            finished.store(true);
        });
    }
};

const std::vector<std::string> kStreamRequests = {
    R"({"id":"r1","type":"run","dataset":"chain:n=64"})",
    R"({"id":"s1","type":"sweep","workloads":["pagerank","wcc"],)"
    R"("datasets":["star:n=64"]})",
    R"({"id":"r2","type":"run","dataset":"grid:width=8,height=8"})",
};

/** The same requests through a stdin-style session. */
std::string
stdinStream()
{
    std::string input;
    for (const std::string &line : kStreamRequests)
        input += line + "\n";
    service::ServeOptions options;
    options.jobs = 1;
    service::Server server(options);
    return serveText(server, input);
}

void
expectConnectionsMatchStdin(std::uint32_t jobs)
{
    const std::string expected = stdinStream();
    ASSERT_FALSE(expected.empty());

    PlanCache::instance().clear();
    clearGoldenCache();
    driver::clearDatasetCache();
    perf::Registry::instance().resetAll();

    service::ServeOptions options;
    options.jobs = jobs;
    LoopHarness harness(options);

    // Every connection pipelines the whole request stream at once,
    // concurrently with its siblings; each must read back exactly
    // the stdin session's bytes, in admission order.
    constexpr int kConnections = 3;
    std::vector<std::string> streams(kConnections);
    std::vector<std::string> errors(kConnections);
    std::vector<std::thread> clients;
    clients.reserve(kConnections);
    for (int c = 0; c < kConnections; ++c) {
        clients.emplace_back([&, c] {
            try {
                client::Client client(harness.port());
                client.setRecvTimeoutMs(120000);
                for (const std::string &line : kStreamRequests)
                    client.sendLine(line);
                for (std::size_t i = 0; i < kStreamRequests.size();
                     ++i)
                    streams[c] += client.recvLine() + "\n";
            } catch (const client::ClientError &err) {
                errors[c] = err.what();
            }
        });
    }
    for (std::thread &t : clients)
        t.join();

    for (int c = 0; c < kConnections; ++c) {
        EXPECT_EQ(errors[c], "") << "connection " << c;
        EXPECT_EQ(streams[c], expected) << "connection " << c;
    }
}

TEST_F(NetServeTest, ConnectionStreamsMatchTheStdinSessionSerial)
{
    expectConnectionsMatchStdin(1);
}

TEST_F(NetServeTest, ConnectionStreamsMatchTheStdinSessionJobs4)
{
    expectConnectionsMatchStdin(4);
}

TEST_F(NetServeTest, GreedyClientIsBoundedAndCannotStarveASibling)
{
    // Stall every worker task: the greedy burst's head occupies the
    // lone worker while the rest of the burst is dispatched, so the
    // per-connection quota (2) must reject the excess — and the
    // polite sibling's request must still be admitted and served.
    failpoint::configure("pool.task.slow@*=300");
    service::ServeOptions options;
    options.jobs = 1;
    options.connQueueDepth = 2;
    LoopHarness harness(options);

    client::Client greedy(harness.port());
    greedy.setRecvTimeoutMs(120000);
    constexpr int kBurst = 8;
    for (int i = 0; i < kBurst; ++i)
        greedy.sendLine(R"({"id":"g)" + std::to_string(i) +
                        R"(","type":"run","dataset":"chain:n=64"})");

    client::Client polite(harness.port());
    polite.setRecvTimeoutMs(120000);
    const std::string answer = polite.request(
        R"({"id":"p","type":"run","dataset":"star:n=64"})");
    EXPECT_NE(answer.find("\"ok\":true"), std::string::npos)
        << answer;

    int ok = 0;
    int rejected = 0;
    for (int i = 0; i < kBurst; ++i) {
        const std::string response = greedy.recvLine();
        if (response.find("queue full") != std::string::npos)
            ++rejected;
        else if (response.find("\"ok\":true") != std::string::npos)
            ++ok;
    }
    EXPECT_EQ(ok, static_cast<int>(options.connQueueDepth));
    EXPECT_EQ(ok + rejected, kBurst);
    failpoint::disarmAll();
}

TEST_F(NetServeTest, StatusReportsTheConnectionLayer)
{
    LoopHarness harness({});

    client::Client first(harness.port());
    first.setRecvTimeoutMs(120000);
    client::Client second(harness.port());
    second.setRecvTimeoutMs(120000);

    // Order the observations: the second connection completes a work
    // request (so it is accepted and counted) before the first asks.
    const std::string work = second.request(
        R"({"id":"w","type":"run","dataset":"chain:n=64"})");
    ASSERT_NE(work.find("\"ok\":true"), std::string::npos) << work;

    const std::string status =
        first.request(R"({"id":"q","type":"status"})");
    const JsonValue v = JsonValue::parse(status);
    const JsonValue *conns = v.find("connections");
    ASSERT_NE(conns, nullptr) << status;
    EXPECT_EQ(conns->find("active")->asU64(), 2u);
    EXPECT_EQ(conns->find("total_accepted")->asU64(), 2u);
    const auto &per = conns->find("per_connection")->items();
    ASSERT_EQ(per.size(), 2u);
    std::uint64_t admitted = 0;
    for (const JsonValue &entry : per) {
        admitted += entry.find("admitted")->asU64();
        // Fault-free zero-stability: nothing rejected, nothing failed.
        EXPECT_EQ(entry.find("rejected")->asU64(), 0u);
        EXPECT_EQ(entry.find("failed")->asU64(), 0u);
    }
    EXPECT_EQ(admitted, 1u) << "exactly the one work request";
    // No request carried a tenant: the tenants block stays empty.
    EXPECT_TRUE(v.find("tenants")->members().empty());
}

// ------------------------------------------- bounded reorder buffer

constexpr std::uint32_t kFloodDepth = 8;
constexpr int kFloodLines = 64;

/** A run request the first worker task stalls on, then kFloodLines
 *  lines the parser rejects, each with its own id. */
std::vector<std::string>
floodLines()
{
    std::vector<std::string> lines = {
        R"({"id":"head","type":"run","dataset":"chain:n=64"})"};
    for (int i = 0; i < kFloodLines; ++i)
        lines.push_back(R"({"id":"f)" + std::to_string(i) +
                        R"(","type":"bogus"})");
    return lines;
}

service::ServeOptions
floodOptions()
{
    // The head request stalls its worker for 3 s. Every flood line is
    // answered at once, but its response must wait for the head's in
    // the session's reorder buffer.
    failpoint::configure("pool.task.slow:1@1=3000");
    service::ServeOptions options;
    options.jobs = 1;
    options.queueDepth = kFloodDepth;
    return options;
}

/** While the head stalls, exactly queueDepth + 1 flood lines fit in
 *  the reorder buffer; then the daemon must stop reading. */
void
expectFloodHeldAtTheCap(const service::Server &server)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (server.counters().invalid <= kFloodDepth &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    // Time for a daemon that keeps reading to show it.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    EXPECT_EQ(server.counters().invalid, kFloodDepth + 1)
        << "the daemon read past the reorder-buffer cap";
}

void
expectFloodAnsweredInOrder(const std::vector<std::string> &responses)
{
    ASSERT_EQ(responses.size(), static_cast<std::size_t>(kFloodLines + 1));
    EXPECT_NE(responses[0].find(R"("id":"head","ok":true)"),
              std::string::npos)
        << responses[0];
    for (int i = 0; i < kFloodLines; ++i) {
        EXPECT_NE(responses[i + 1].find(R"("id":"f)" +
                                        std::to_string(i) +
                                        R"(","ok":false)"),
                  std::string::npos)
            << responses[i + 1];
    }
}

TEST_F(NetServeTest, FloodBehindAStalledRequestIsCappedOverTcp)
{
    LoopHarness harness(floodOptions());
    client::Client client(harness.port());
    client.setRecvTimeoutMs(120000);
    for (const std::string &line : floodLines())
        client.sendLine(line);
    expectFloodHeldAtTheCap(harness.server);

    std::vector<std::string> responses;
    for (int i = 0; i <= kFloodLines; ++i)
        responses.push_back(client.recvLine());
    expectFloodAnsweredInOrder(responses);
}

TEST_F(NetServeTest, FloodBehindAStalledRequestIsCappedOverStdin)
{
    int in[2] = {-1, -1};
    ASSERT_EQ(::pipe(in), 0);
    std::string input;
    for (const std::string &line : floodLines())
        input += line + "\n";
    // A few KiB: fits the pipe buffer whole.
    ASSERT_EQ(::write(in[1], input.data(), input.size()),
              static_cast<ssize_t>(input.size()));
    ::close(in[1]);
    std::FILE *out = std::tmpfile();
    ASSERT_NE(out, nullptr);
    {
        LoopHarness harness(floodOptions(), in[0], ::fileno(out));
        expectFloodHeldAtTheCap(harness.server);
        EXPECT_TRUE(harness.finishedWithin(std::chrono::seconds(60)))
            << "the session never drained after EOF";
    }
    ::close(in[0]);

    std::string text;
    ::lseek(::fileno(out), 0, SEEK_SET);
    char buf[4096];
    ssize_t n = 0;
    while ((n = ::read(::fileno(out), buf, sizeof(buf))) > 0)
        text.append(buf, static_cast<std::size_t>(n));
    std::fclose(out);
    std::vector<std::string> responses;
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);)
        responses.push_back(line);
    expectFloodAnsweredInOrder(responses);
}

// ----------------------------------------- stop with a stuck client

/** A raw loopback socket with O_NONBLOCK: the client below must never
 *  block, and the client library's sockets do. */
int
nonBlockingClient(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    net::setNonBlocking(fd);
    return fd;
}

/**
 * Write request lines to non-blocking @p fd until the daemon has not
 * taken a byte for half a second: it stopped reading because its
 * output to a client that never reads has backed up. Returns the
 * bytes written.
 */
std::size_t
floodUntilStuck(int fd)
{
    std::string chunk;
    for (int i = 0; i < 1024; ++i)
        chunk += R"({"id":"stuck","type":"bogus"})" "\n";
    std::size_t total = 0;
    int idle = 0;
    while (idle < 50 && total < (std::size_t{256} << 20)) {
        const ssize_t n = ::write(fd, chunk.data(), chunk.size());
        if (n > 0) {
            total += static_cast<std::size_t>(n);
            idle = 0;
            continue;
        }
        if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)
            break;
        ++idle;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return total;
}

TEST_F(NetServeTest, StopDropsATcpClientThatStoppedReading)
{
    LoopHarness harness({});
    const int fd = nonBlockingClient(harness.port());
    EXPECT_GT(floodUntilStuck(fd), 0u);
    EXPECT_TRUE(harness.stopWithin(std::chrono::seconds(5)))
        << "the stop waited on a client that does not read";
    ::close(fd); // lets a hung loop finish, so the harness can join
}

TEST_F(NetServeTest, StopDropsAStdoutPipeNobodyReads)
{
    int in[2] = {-1, -1};
    int out[2] = {-1, -1};
    ASSERT_EQ(::pipe(in), 0);
    ASSERT_EQ(::pipe(out), 0);
    net::setNonBlocking(in[1]);
    {
        LoopHarness harness({}, in[0], out[1]);
        EXPECT_GT(floodUntilStuck(in[1]), 0u);
        EXPECT_TRUE(harness.stopWithin(std::chrono::seconds(5)))
            << "the stop waited on a stdout nobody reads";
        ::close(out[0]); // lets a hung loop finish
        out[0] = -1;
    }
    // The loop hands the caller's fds back as they came.
    EXPECT_EQ(::fcntl(in[0], F_GETFL) & O_NONBLOCK, 0);
    EXPECT_EQ(::fcntl(out[1], F_GETFL) & O_NONBLOCK, 0);
    ::close(in[0]);
    ::close(in[1]);
    ::close(out[1]);
}

} // namespace
} // namespace graphr
