/**
 * @file
 * Test helper: serve one request stream through graphr_serve's real
 * line framer — a net::EventLoop connection over a temp-file fd pair,
 * the way `graphr_serve --stdin` serves fds 0 and 1 — and return the
 * response bytes.
 */

#ifndef GRAPHR_TESTS_SERVE_TEXT_HH
#define GRAPHR_TESTS_SERVE_TEXT_HH

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include <unistd.h>

#include "net/event_loop.hh"
#include "service/server.hh"

namespace graphr
{

/** One stdin-style session over @p input; returns the response text.
 *  Call again to serve the next client on the same warm state. */
inline std::string
serveText(service::Server &server, const std::string &input)
{
    std::FILE *in = std::tmpfile();
    std::FILE *out = std::tmpfile();
    EXPECT_NE(in, nullptr);
    EXPECT_NE(out, nullptr);
    if (in == nullptr || out == nullptr)
        return {};
    std::fwrite(input.data(), 1, input.size(), in);
    std::fflush(in);
    ::lseek(::fileno(in), 0, SEEK_SET);

    std::ostringstream log;
    net::EventLoop loop(server, nullptr, 1, log);
    loop.addConnection(::fileno(in), ::fileno(out));
    loop.run();

    std::string text;
    ::lseek(::fileno(out), 0, SEEK_SET);
    char buf[4096];
    ssize_t n = 0;
    while ((n = ::read(::fileno(out), buf, sizeof(buf))) > 0)
        text.append(buf, static_cast<std::size_t>(n));
    std::fclose(in);
    std::fclose(out);
    return text;
}

} // namespace graphr

#endif // GRAPHR_TESTS_SERVE_TEXT_HH
