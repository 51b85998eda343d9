// Unit tests for the network substrate: clocks, link models, cross-traffic,
// pipes, TCP loopback, readiness polling, and the non-blocking socket
// surface that the event-driven serving front drives.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <csignal>

#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "net/link.h"
#include "net/pipe.h"
#include "net/poller.h"
#include "net/sim_clock.h"
#include "net/tcp.h"

namespace sbq::net {
namespace {

TEST(SimClockTest, AdvancesManually) {
  SimClock clock;
  EXPECT_EQ(clock.now_us(), 0u);
  clock.advance_us(150);
  EXPECT_EQ(clock.now_us(), 150u);
  clock.set_us(1000);
  EXPECT_EQ(clock.now_us(), 1000u);
}

TEST(SteadyTimeSourceTest, MonotonicallyIncreases) {
  SteadyTimeSource clock;
  const auto a = clock.now_us();
  const auto b = clock.now_us();
  EXPECT_LE(a, b);
}

TEST(LinkModelTest, TransferTimeScalesWithBytes) {
  LinkModel link(lan_100mbps());
  const auto small = link.transfer_time_us(1000, 0);
  const auto large = link.transfer_time_us(1000000, 0);
  EXPECT_GT(large, small);
  // 1 MB at 100 Mbps is 80 ms of serialization.
  EXPECT_NEAR(static_cast<double>(large), 80000.0 + 280.0, 2000.0);
}

TEST(LinkModelTest, AdslIsSlowerThanLan) {
  LinkModel lan(lan_100mbps());
  LinkModel adsl(adsl_1mbps());
  EXPECT_GT(adsl.transfer_time_us(100000, 0), 50 * lan.transfer_time_us(100000, 0));
}

TEST(LinkModelTest, LatencyDominatesSmallMessages) {
  LinkModel adsl(adsl_1mbps());
  const auto tiny = adsl.transfer_time_us(10, 0);
  EXPECT_GE(tiny, adsl_1mbps().latency_us);
  EXPECT_LT(tiny, adsl_1mbps().latency_us + 2000);
}

TEST(LinkModelTest, RejectsNonPositiveBandwidth) {
  LinkConfig bad;
  bad.bandwidth_bps = 0;
  EXPECT_THROW(LinkModel{bad}, TransportError);
}

TEST(CrossTrafficTest, LoadAtRespectsPhases) {
  CrossTrafficSchedule schedule;
  schedule.add_phase(1000, 2000, 0.5);
  schedule.add_phase(1500, 3000, 0.8);
  EXPECT_DOUBLE_EQ(schedule.load_at(500), 0.0);
  EXPECT_DOUBLE_EQ(schedule.load_at(1200), 0.5);
  EXPECT_DOUBLE_EQ(schedule.load_at(1700), 0.8);  // overlapping: max
  EXPECT_DOUBLE_EQ(schedule.load_at(2500), 0.8);
  EXPECT_DOUBLE_EQ(schedule.load_at(3000), 0.0);  // end-exclusive
}

TEST(CrossTrafficTest, LoadClampedBelowOne) {
  CrossTrafficSchedule schedule;
  schedule.add_phase(0, 100, 2.0);
  EXPECT_LT(schedule.load_at(50), 1.0);
}

TEST(CrossTrafficTest, RejectsBadPhases) {
  CrossTrafficSchedule schedule;
  EXPECT_THROW(schedule.add_phase(100, 100, 0.5), TransportError);
  EXPECT_THROW(schedule.add_phase(0, 10, -0.1), TransportError);
}

TEST(CrossTrafficTest, CongestionSlowsTransfers) {
  LinkModel link(adsl_1mbps());
  CrossTrafficSchedule schedule;
  schedule.add_phase(10000, 20000, 0.75);
  link.set_cross_traffic(schedule);
  const auto quiet = link.transfer_time_us(50000, 0);
  const auto congested = link.transfer_time_us(50000, 15000);
  // 75% load leaves 25% bandwidth: serialization takes ~4x longer.
  EXPECT_GT(congested, 3 * quiet);
}

TEST(PipeTest, RoundTripBytes) {
  auto [a, b] = make_pipe();
  a->write_all(std::string_view{"hello"});
  char buf[8] = {};
  EXPECT_EQ(b->read_some(buf, sizeof buf), 5u);
  EXPECT_EQ(std::string_view(buf, 5), "hello");

  b->write_all(std::string_view{"world!"});
  char buf2[6];
  a->read_exact(buf2, 6);
  EXPECT_EQ(std::string_view(buf2, 6), "world!");
}

TEST(PipeTest, EofAfterClose) {
  auto [a, b] = make_pipe();
  a->write_all(std::string_view{"x"});
  a->close();
  char c;
  EXPECT_EQ(b->read_some(&c, 1), 1u);  // drains buffered byte
  EXPECT_EQ(b->read_some(&c, 1), 0u);  // then EOF
}

TEST(PipeTest, ReadBlocksUntilData) {
  auto [a, b] = make_pipe();
  std::thread writer([&a = a] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    a->write_all(std::string_view{"late"});
  });
  char buf[4];
  b->read_exact(buf, 4);
  EXPECT_EQ(std::string_view(buf, 4), "late");
  writer.join();
}

TEST(PipeTest, WriteToClosedThrows) {
  auto [a, b] = make_pipe();
  b->close();
  EXPECT_THROW(a->write_all(std::string_view{"x"}), TransportError);
}

TEST(TcpTest, LoopbackRoundTrip) {
  TcpListener listener(0);
  ASSERT_GT(listener.port(), 0);

  std::thread server([&] {
    auto conn = listener.accept();
    ASSERT_NE(conn, nullptr);
    char buf[5];
    conn->read_exact(buf, 5);
    conn->write_all(std::string_view(buf, 5));
  });

  auto client = TcpStream::connect("127.0.0.1", listener.port());
  client->write_all(std::string_view{"proto"});
  char echo[5];
  client->read_exact(echo, 5);
  EXPECT_EQ(std::string_view(echo, 5), "proto");
  server.join();
}

TEST(TcpTest, ConnectRefusedThrows) {
  // Port 1 on loopback is almost certainly closed.
  EXPECT_THROW(TcpStream::connect("127.0.0.1", 1), TransportError);
}

TEST(TcpTest, CloseUnblocksAccept) {
  TcpListener listener(0);
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    listener.close();
  });
  EXPECT_EQ(listener.accept(), nullptr);
  closer.join();
}

// --------------------------------------------------------------- Poller

// Every Poller test runs both backends: poll(2) is the portable reference
// implementation the epoll backend must agree with.
std::vector<Poller::Backend> poller_backends() {
  std::vector<Poller::Backend> backends{Poller::Backend::kPoll};
#if defined(__linux__)
  backends.push_back(Poller::Backend::kEpoll);
#endif
  return backends;
}

/// A connected loopback TCP pair for readiness tests.
struct TcpPair {
  TcpPair() {
    TcpListener listener(0);
    client = TcpStream::connect("127.0.0.1", listener.port());
    served = listener.accept();
  }
  std::unique_ptr<TcpStream> client;
  std::unique_ptr<TcpStream> served;
};

TEST(PollerTest, ReportsReadableThenWritableOnBothBackends) {
  for (const auto backend : poller_backends()) {
    Poller poller(backend);
    TcpPair pair;
    poller.add(pair.served->fd(), /*want_read=*/true, /*want_write=*/false);
    EXPECT_EQ(poller.watched(), 1u);

    // Nothing to read yet: a zero-timeout wait reports nothing.
    EXPECT_TRUE(poller.wait(0).empty());

    pair.client->write_all(std::string_view{"ping"});
    const auto events = poller.wait(2000);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].fd, pair.served->fd());
    EXPECT_TRUE(events[0].readable);
    EXPECT_FALSE(events[0].writable);

    // Switch interest to writability: an idle socket is writable at once.
    poller.modify(pair.served->fd(), /*want_read=*/false, /*want_write=*/true);
    const auto writable = poller.wait(2000);
    ASSERT_EQ(writable.size(), 1u);
    EXPECT_TRUE(writable[0].writable);

    poller.remove(pair.served->fd());
    EXPECT_EQ(poller.watched(), 0u);
    EXPECT_TRUE(poller.wait(0).empty());
  }
}

TEST(PollerTest, WakeInterruptsABlockedWait) {
  for (const auto backend : poller_backends()) {
    Poller poller(backend);
    std::thread waker([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      poller.wake();
    });
    // Without the wake this would block five seconds; the wake must cut it
    // short (an empty event batch is the documented result).
    const auto events = poller.wait(5000);
    EXPECT_TRUE(events.empty());
    waker.join();
    // Wakes coalesce and are fully drained: the next wait blocks again.
    EXPECT_TRUE(poller.wait(0).empty());
  }
}

TEST(PollerTest, PeerCloseSurfacesAsReadableOrHangup) {
  for (const auto backend : poller_backends()) {
    Poller poller(backend);
    TcpPair pair;
    poller.add(pair.served->fd(), /*want_read=*/true, /*want_write=*/false);
    pair.client->close();
    const auto events = poller.wait(2000);
    ASSERT_EQ(events.size(), 1u);
    // EOF may be reported as plain readability (read returns 0) or as an
    // explicit hangup; the owner handles both the same way.
    EXPECT_TRUE(events[0].readable || events[0].hangup);
  }
}

// ------------------------------------------- non-blocking socket surface

TEST(TcpNonblockingTest, TryAcceptReportsWouldBlockThenDelivers) {
  TcpListener::Options options;
  options.nonblocking = true;
  TcpListener listener(0, options);

  bool would_block = false;
  EXPECT_EQ(listener.try_accept(would_block), nullptr);
  EXPECT_TRUE(would_block);

  auto client = TcpStream::connect("127.0.0.1", listener.port());
  std::unique_ptr<TcpStream> served;
  for (int spin = 0; spin < 2000 && !served; ++spin) {
    served = listener.try_accept(would_block);
    if (!served) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_NE(served, nullptr);

  client->write_all(std::string_view{"ok"});
  char buf[2];
  served->read_exact(buf, 2);
  EXPECT_EQ(std::string_view(buf, 2), "ok");
}

TEST(TcpNonblockingTest, ReusePortAllowsSiblingListeners) {
  TcpListener::Options options;
  options.reuse_port = true;
  options.nonblocking = true;
  TcpListener first(0, options);
  // A second listener on the same port must bind cleanly — each one owns an
  // accept shard of the shared port (how the event front spreads accepts
  // across runtimes).
  TcpListener second(first.port(), options);
  EXPECT_EQ(second.port(), first.port());
}

TEST(TcpNonblockingTest, NonblockingReadDistinguishesWouldBlockFromEof) {
  TcpPair pair;
  pair.served->set_nonblocking(true);

  char buf[16];
  bool would_block = false;
  EXPECT_EQ(pair.served->read_some_nonblocking(buf, sizeof buf, would_block), 0u);
  EXPECT_TRUE(would_block);

  pair.client->write_all(std::string_view{"hi"});
  std::size_t n = 0;
  for (int spin = 0; spin < 2000 && n == 0; ++spin) {
    n = pair.served->read_some_nonblocking(buf, sizeof buf, would_block);
    if (n == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(n, 2u);

  pair.client->close();
  n = 1;
  would_block = true;
  for (int spin = 0; spin < 2000 && would_block; ++spin) {
    n = pair.served->read_some_nonblocking(buf, sizeof buf, would_block);
    if (would_block) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(n, 0u);
  EXPECT_FALSE(would_block);  // 0 without would_block = EOF
}

TEST(TcpNonblockingTest, WriteChainSomeResumesFromAnOffset) {
  TcpPair pair;
  pair.served->set_nonblocking(true);
  BufferChain chain;
  const std::string payload = "resumable-vectored-write";
  chain.append_copy(as_bytes(payload));

  bool would_block = false;
  // Write the first half and the second half as separate resumed calls.
  std::size_t sent = 0;
  while (sent < payload.size()) {
    const std::size_t n =
        pair.served->write_chain_some(chain, sent, would_block);
    if (n == 0 && would_block) continue;  // loopback: effectively never
    sent += n;
  }
  std::string got(payload.size(), '\0');
  pair.client->read_exact(got.data(), got.size());
  EXPECT_EQ(got, payload);
}

// ------------------------------------------------ writes to a closed peer

// Every TcpStream write path, run against a peer that has gone away.
void write_each_way(TcpStream& stream, std::string_view payload) {
  BufferChain chain;
  chain.append_view(as_bytes(payload));
  bool would_block = false;
  stream.set_write_timeout_us(0);
  EXPECT_THROW(stream.write_all(payload), TransportError);
  EXPECT_THROW(stream.write_chain(chain), TransportError);
  stream.set_write_timeout_us(1'000'000);
  EXPECT_THROW(stream.write_all(payload), TransportError);
  EXPECT_THROW(stream.write_chain(chain), TransportError);
  EXPECT_THROW((void)stream.write_chain_some(chain, 0, would_block), TransportError);
}

TEST(TcpClosedPeerTest, WritesThrowInsteadOfRaisingSigpipe) {
  // No SIGPIPE handler: a write that raised the signal would kill the test.
  struct sigaction current {};
  ASSERT_EQ(::sigaction(SIGPIPE, nullptr, &current), 0);
  ASSERT_EQ(current.sa_handler, SIG_DFL);

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  TcpStream writer(fds[0]);
  TcpStream peer(fds[1]);
  peer.close();
  write_each_way(writer, "to nobody");
}

TEST(TcpClosedPeerTest, LoopbackWriteAfterPeerCloseThrowsTransportError) {
  TcpPair pair;
  pair.client->close();
  // The first segments may still be accepted before the peer's reset comes
  // back; a later write must fail with EPIPE/ECONNRESET as TransportError.
  const std::string chunk(64 * 1024, 'p');
  bool threw = false;
  for (int i = 0; i < 1000 && !threw; ++i) {
    try {
      pair.served->write_all(std::string_view{chunk});
    } catch (const TransportError&) {
      threw = true;
    }
  }
  EXPECT_TRUE(threw);
  write_each_way(*pair.served, chunk);
}

// -------------------------------------------------- write-side deadlines

TEST(TcpWriteDeadlineTest, StalledPeerTripsTheWriteDeadline) {
  TcpPair pair;
  // The peer never reads: once both socket buffers fill, the write stalls.
  pair.served->set_write_timeout_us(100'000);
  const std::string big(32 * 1024 * 1024, 'x');
  EXPECT_THROW(pair.served->write_all(std::string_view{big}), TimeoutError);
}

TEST(TcpWriteDeadlineTest, ChainWritesHonorTheDeadlineToo) {
  TcpPair pair;
  pair.served->set_write_timeout_us(100'000);
  const std::string big(32 * 1024 * 1024, 'y');
  BufferChain chain;
  chain.append_view(as_bytes(big));
  EXPECT_THROW(pair.served->write_chain(chain), TimeoutError);
}

TEST(TcpWriteDeadlineTest, SlowButLivePeerNeverTrips) {
  TcpPair pair;
  // Deadline bounds *stall*, not total transfer time: a peer that drains
  // slowly but steadily keeps re-arming it, so a transfer that takes far
  // longer than the deadline still completes.
  //
  // Clamp the send buffer: Linux asserts POLLOUT only once the buffer is
  // below half-full, so with an auto-tuned multi-megabyte buffer a steady
  // reader can leave the writer parked past the deadline before the first
  // wakeup. A small buffer keeps the writable edge within one reader tick.
  const int sndbuf = 64 * 1024;
  ::setsockopt(pair.served->fd(), SOL_SOCKET, SO_SNDBUF, &sndbuf,
               sizeof sndbuf);
  pair.served->set_write_timeout_us(150'000);
  const std::string payload(4 * 1024 * 1024, 'z');

  std::thread slow_reader([&] {
    std::size_t total = 0;
    char buf[64 * 1024];
    while (total < payload.size()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      const std::size_t n = pair.client->read_some(buf, sizeof buf);
      if (n == 0) break;
      total += n;
    }
    EXPECT_EQ(total, payload.size());
  });
  EXPECT_NO_THROW(pair.served->write_all(std::string_view{payload}));
  slow_reader.join();
}

}  // namespace
}  // namespace sbq::net
