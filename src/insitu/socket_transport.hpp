#pragma once
// SocketTransport: the paper's internode rendezvous over real TCP.
//
// §III-C, verbatim protocol: "the simulation proxy application is
// started. Each process of the application then adds its assigned IP
// address and port number to a globally accessible layout file, then
// opens its port and waits for connection. The visualization proxy
// application is then started. Each process ... references the global
// layout file, determines the location of the simulation proxy(s) it
// will receive data from, waits for the corresponding port to open, and
// then establishes the connection."
//
// This implementation binds loopback ephemeral ports, appends
// "rank host port" lines to the layout file (O_APPEND, one line per
// write, so concurrent ranks never interleave), and retries connection
// until the peer's line appears. All rendezvous polling (layout-file
// wait, connect retry, accept) uses capped exponential backoff with
// deterministic jitter (common/backoff.hpp) instead of fixed-interval
// spinning, and every deadline expiry or stream failure raises a
// classified TransportError (common/error.hpp) rather than a hang or a
// generic exception.
//
// Wire format: u64 little-endian length + message bytes, written with
// one gathered sendmsg over the message's segments and read into one
// refcounted Buffer. Length prefixes above kMaxMessageBytes are
// rejected as kMessageTooLarge — an implausible length means a corrupt
// or desynchronized stream. Integrity-checked traffic additionally
// wraps each message in the CRC32 frame of transport.hpp
// (send_framed_msg/send_dataset). Receives observe the transport's
// recv deadline (set_recv_deadline) so a dead peer raises kTimeout
// instead of blocking forever.

#include <memory>
#include <string>
#include <vector>

#include "insitu/transport.hpp"

namespace eth::insitu {

/// One "rank host port" record of the layout file.
struct LayoutEntry {
  int rank = -1;
  std::string host;
  int port = 0;
};

/// Append this rank's entry (atomic single-line append).
void layout_file_publish(const std::string& path, const LayoutEntry& entry);

/// Parse every complete entry currently in the file (missing file ->
/// empty list).
std::vector<LayoutEntry> layout_file_read(const std::string& path);

/// Poll until `rank`'s entry appears or `timeout_seconds` elapses
/// (throws on timeout).
LayoutEntry layout_file_wait(const std::string& path, int rank, double timeout_seconds);

/// Simulation-proxy side: bind + publish + accept one peer.
/// Blocks in accept until the visualization proxy connects.
std::unique_ptr<Transport> socket_listen(const std::string& layout_path, int rank,
                                         double timeout_seconds = 30.0);

/// Visualization-proxy side: wait for the layout entry, then connect
/// (retrying until the port accepts or the timeout elapses).
std::unique_ptr<Transport> socket_connect(const std::string& layout_path, int rank,
                                          double timeout_seconds = 30.0);

} // namespace eth::insitu
