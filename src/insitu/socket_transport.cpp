#include "insitu/socket_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <limits.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "common/backoff.hpp"
#include "common/error.hpp"
#include "common/string_util.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"

namespace eth::insitu {

namespace {

/// RAII file descriptor.
class Fd {
public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

private:
  int fd_ = -1;
};

void write_all(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t written = ::write(fd, p, n);
    if (written < 0) {
      if (errno == EINTR) continue;
      fail(std::string("SocketTransport: write failed: ") + std::strerror(errno));
    }
    p += written;
    n -= static_cast<std::size_t>(written);
  }
}

/// Gathered write of an iovec list (mutated in place to track partial
/// writes). MSG_NOSIGNAL turns a write to a closed peer into EPIPE,
/// raised as kConnectionClosed, instead of a process-killing SIGPIPE.
void send_all_vec(int fd, std::vector<iovec>& iov) {
  std::size_t first = 0;
  while (first < iov.size()) {
    msghdr msg{};
    msg.msg_iov = iov.data() + first;
    msg.msg_iovlen = std::min(iov.size() - first, std::size_t(IOV_MAX));
    const ssize_t written = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (written < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET)
        throw TransportError(TransportErrorCode::kConnectionClosed,
                             "SocketTransport: peer closed the connection while writing");
      fail(std::string("SocketTransport: sendmsg failed: ") + std::strerror(errno));
    }
    std::size_t left = static_cast<std::size_t>(written);
    while (first < iov.size() && left >= iov[first].iov_len) {
      left -= iov[first].iov_len;
      ++first;
    }
    if (first < iov.size() && left > 0) {
      iov[first].iov_base = static_cast<char*>(iov[first].iov_base) + left;
      iov[first].iov_len -= left;
    }
  }
}

/// Read exactly `n` bytes, honouring a wall-clock deadline started at
/// `timer` construction; deadline <= 0 waits forever.
void read_all_deadline(int fd, void* data, std::size_t n, const WallTimer& timer,
                       double deadline_seconds) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    if (deadline_seconds > 0) {
      const double remaining = deadline_seconds - timer.elapsed();
      require_transport(remaining > 0, TransportErrorCode::kTimeout,
                        strprintf("SocketTransport: recv deadline of %.3fs elapsed "
                                  "mid-message",
                                  deadline_seconds));
      pollfd pfd{fd, POLLIN, 0};
      const int timeout_ms =
          static_cast<int>(std::min(remaining * 1000.0 + 1.0, 3600.0 * 1000.0));
      const int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready < 0) {
        if (errno == EINTR) continue;
        fail(std::string("SocketTransport: poll failed: ") + std::strerror(errno));
      }
      require_transport(ready > 0, TransportErrorCode::kTimeout,
                        strprintf("SocketTransport: no data within the %.3fs recv "
                                  "deadline",
                                  deadline_seconds));
    }
    const ssize_t got = ::read(fd, p, n);
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET)
        throw TransportError(TransportErrorCode::kConnectionClosed,
                             "SocketTransport: connection reset mid-message");
      fail(std::string("SocketTransport: read failed: ") + std::strerror(errno));
    }
    require_transport(got != 0, TransportErrorCode::kConnectionClosed,
                      "SocketTransport: peer closed the connection mid-message");
    p += got;
    n -= static_cast<std::size_t>(got);
  }
}

class TcpTransport final : public Transport {
public:
  explicit TcpTransport(Fd fd) : fd_(std::move(fd)) {
    const int one = 1;
    ::setsockopt(fd_.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }

  void send_msg(const WireMessage& msg) override {
    check_message_length(msg.total_bytes());
    std::uint64_t len = msg.total_bytes();
    std::uint8_t header[8];
    for (int i = 0; i < 8; ++i) header[i] = static_cast<std::uint8_t>(len >> (8 * i));
    // One gathered write over [length header | segment...]: the kernel
    // pulls bulk arrays straight from the dataset's live storage, so no
    // userspace flatten ever happens on the socket path.
    std::vector<iovec> iov;
    iov.reserve(msg.segments().size() + 1);
    iov.push_back({header, sizeof header});
    for (const WireMessage::Segment& seg : msg.segments())
      iov.push_back({const_cast<std::uint8_t*>(seg.bytes.data()), seg.bytes.size()});
    send_all_vec(fd_.get(), iov);
    sent_ += msg.total_bytes();
    note_bytes_borrowed(msg.total_bytes());
  }

  WireMessage recv_msg() override {
    const WallTimer timer; // one deadline covers header + payload
    std::uint8_t header[8];
    read_all_deadline(fd_.get(), header, sizeof header, timer, recv_deadline_);
    std::uint64_t len = 0;
    for (int i = 0; i < 8; ++i) len |= std::uint64_t(header[i]) << (8 * i);
    check_message_length(len);
    // Read into a refcounted Buffer so the deserializer can alias bulk
    // arrays directly in the receive storage (kernel reads are not
    // charged to the userspace copy counter).
    Buffer buffer = Buffer::allocate(static_cast<std::size_t>(len));
    if (len > 0)
      read_all_deadline(fd_.get(), buffer.data(), buffer.size(), timer, recv_deadline_);
    WireMessage msg;
    msg.append_owned(std::move(buffer));
    return msg;
  }

  Bytes bytes_sent() const override { return sent_; }

  void set_recv_deadline(double seconds) override { recv_deadline_ = seconds; }

private:
  Fd fd_;
  Bytes sent_ = 0;
  double recv_deadline_ = kDefaultRecvDeadlineSeconds;
};

} // namespace

void layout_file_publish(const std::string& path, const LayoutEntry& entry) {
  require(entry.rank >= 0 && entry.port > 0 && !entry.host.empty(),
          "layout_file_publish: incomplete entry");
  const std::string line =
      strprintf("%d %s %d\n", entry.rank, entry.host.c_str(), entry.port);
  // O_APPEND writes of one short line are atomic on POSIX, so parallel
  // ranks publishing concurrently never interleave.
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  require(fd >= 0, "layout_file_publish: cannot open '" + path + "'");
  Fd guard(fd);
  write_all(fd, line.data(), line.size());
}

std::vector<LayoutEntry> layout_file_read(const std::string& path) {
  std::vector<LayoutEntry> entries;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return entries; // not published yet
  Fd guard(fd);
  std::string content;
  char buf[4096];
  ssize_t got;
  while ((got = ::read(fd, buf, sizeof buf)) > 0)
    content.append(buf, static_cast<std::size_t>(got));
  for (const std::string& raw : split(content, '\n')) {
    const std::string_view line = trim(raw);
    if (line.empty()) continue;
    const std::vector<std::string> fields = split(line, ' ');
    if (fields.size() != 3) continue; // torn or foreign line: skip
    LayoutEntry e;
    e.rank = static_cast<int>(parse_index(fields[0], "layout file rank"));
    e.host = fields[1];
    e.port = static_cast<int>(parse_index(fields[2], "layout file port"));
    entries.push_back(std::move(e));
  }
  return entries;
}

LayoutEntry layout_file_wait(const std::string& path, int rank, double timeout_seconds) {
  WallTimer timer;
  Backoff backoff({.initial_ms = 1.0, .max_ms = 50.0, .seed = 0xfee1 + std::uint64_t(rank)});
  while (true) {
    for (const LayoutEntry& e : layout_file_read(path))
      if (e.rank == rank) return e;
    const double remaining = timeout_seconds - timer.elapsed();
    require_transport(remaining > 0, TransportErrorCode::kTimeout,
                      strprintf("layout_file_wait: rank %d never appeared in '%s' "
                                "within %.1fs",
                                rank, path.c_str(), timeout_seconds));
    backoff.sleep(remaining);
  }
}

std::unique_ptr<Transport> socket_listen(const std::string& layout_path, int rank,
                                         double timeout_seconds) {
  const trace::Span listen_span("socket.listen");
  Fd listener(::socket(AF_INET, SOCK_STREAM, 0));
  require(listener.valid(), "socket_listen: cannot create socket");
  const int one = 1;
  ::setsockopt(listener.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0; // ephemeral
  require(::bind(listener.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0,
          "socket_listen: bind failed");
  socklen_t addr_len = sizeof addr;
  require(::getsockname(listener.get(), reinterpret_cast<sockaddr*>(&addr), &addr_len) == 0,
          "socket_listen: getsockname failed");
  require(::listen(listener.get(), 1) == 0, "socket_listen: listen failed");

  layout_file_publish(layout_path,
                      LayoutEntry{rank, "127.0.0.1", ntohs(addr.sin_port)});

  // Accept with timeout via non-blocking poll loop (backoff keeps the
  // wait cheap without adding much accept latency).
  const int flags = ::fcntl(listener.get(), F_GETFL, 0);
  ::fcntl(listener.get(), F_SETFL, flags | O_NONBLOCK);
  WallTimer timer;
  Backoff backoff({.initial_ms = 0.5, .max_ms = 20.0, .seed = 0xacce + std::uint64_t(rank)});
  while (true) {
    const int conn = ::accept(listener.get(), nullptr, nullptr);
    if (conn >= 0) {
      const int cflags = ::fcntl(conn, F_GETFL, 0);
      ::fcntl(conn, F_SETFL, cflags & ~O_NONBLOCK);
      return std::make_unique<TcpTransport>(Fd(conn));
    }
    require(errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR,
            std::string("socket_listen: accept failed: ") + std::strerror(errno));
    const double remaining = timeout_seconds - timer.elapsed();
    require_transport(remaining > 0, TransportErrorCode::kTimeout,
                      strprintf("socket_listen: rank %d timed out after %.1fs waiting "
                                "for a connection",
                                rank, timeout_seconds));
    backoff.sleep(remaining);
  }
}

std::unique_ptr<Transport> socket_connect(const std::string& layout_path, int rank,
                                          double timeout_seconds) {
  const trace::Span connect_span("socket.connect");
  WallTimer timer;
  const LayoutEntry entry = layout_file_wait(layout_path, rank, timeout_seconds);

  // Capped exponential backoff with jitter between attempts: on a busy
  // machine many viz ranks connect at once, and synchronized retries
  // would stampede the listener's accept queue.
  Backoff backoff({.initial_ms = 2.0, .max_ms = 200.0, .seed = 0xc0ec + std::uint64_t(rank)});
  int last_errno = 0;
  while (true) {
    Fd sock(::socket(AF_INET, SOCK_STREAM, 0));
    require(sock.valid(), "socket_connect: cannot create socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(entry.port));
    require(::inet_pton(AF_INET, entry.host.c_str(), &addr.sin_addr) == 1,
            "socket_connect: bad host '" + entry.host + "'");
    if (::connect(sock.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0)
      return std::make_unique<TcpTransport>(std::move(sock));
    last_errno = errno;
    const double remaining = timeout_seconds - timer.elapsed();
    if (remaining <= 0) {
      const auto code = last_errno == ECONNREFUSED
                            ? TransportErrorCode::kConnectionRefused
                            : TransportErrorCode::kTimeout;
      throw TransportError(
          code, strprintf("socket_connect: rank %d gave up after %.1fs (%s)", rank,
                          timeout_seconds, std::strerror(last_errno)));
    }
    backoff.sleep(remaining);
  }
}

} // namespace eth::insitu
