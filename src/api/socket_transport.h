// The wire deployments of the pmw::api protocol: codec frames over a
// stream socket — Unix-domain for the same-host sidecar story, TCP for
// the multi-host cluster (front door + shard-group workers).
//
//   StreamTransport (client)                FrameServer (server core)
//   Send: encode frame, register            accept loop -> per-connection
//   promise by request id, write            reader (frame walk -> sink
//   under the write lock; a reader          dispatch, enqueue reply
//   thread decodes reply frames and         future) + writer (wait FIFO,
//   resolves the matching promise           encode, write back)
//
// Unix-domain and TCP are the SAME protocol over the same framing path
// (api/frame_server.h): SocketServer/SocketTransport and
// TcpServer/TcpTransport differ only in how the listener/connection fd
// is made, so adversarial-bytes behavior — typed error envelopes for
// decodable-but-invalid frames, connection drop only on unrecoverable
// framing — cannot diverge between the two families.
//
// Many requests may be in flight on one connection in both directions:
// the client correlates replies by the request id the envelope echoes,
// and the server's writer waits on reply futures in arrival (FIFO)
// order — which costs nothing, because the dispatcher resolves them in
// exactly that order. The client surfaces channel failures as typed
// kTransportError envelopes, never raw errno text without a code.
//
// TCP widens the threat model from "same host" to "whoever can reach
// the port"; ServerOptions::auth_token + the hello frame exist for
// exactly that step (see endpoint.h for the binding rules).

#ifndef PMWCM_API_SOCKET_TRANSPORT_H_
#define PMWCM_API_SOCKET_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/endpoint.h"
#include "api/frame_server.h"
#include "api/transport.h"
#include "common/result.h"

namespace pmw {
namespace api {

/// Serves one ServerEndpoint on a Unix-domain socket path. Start() spawns
/// the accept loop; every accepted connection gets a reader thread
/// (decode -> Handle) and a writer thread (encode replies as their
/// futures resolve). Shut the server down BEFORE the endpoint so pending
/// replies can still be served and written back.
class SocketServer {
 public:
  /// `endpoint` must outlive the server.
  SocketServer(ServerEndpoint* endpoint, std::string socket_path);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds, listens, and starts accepting. Typed error on failure (path
  /// too long, bind refused).
  Status Start();

  /// Stops accepting, closes every connection after its pending replies
  /// are written, joins all threads, unlinks the socket path. Idempotent.
  void Shutdown();

  const std::string& path() const { return path_; }

 private:
  const std::string path_;
  /// True once Start() has bound the path (what Shutdown may unlink).
  bool bound_ = false;
  std::unique_ptr<FrameSink> sink_;
  FrameServer server_;
};

/// Serves one ServerEndpoint on a TCP listener — the multi-host front
/// door. Same dispatch, framing, and adversarial-bytes behavior as
/// SocketServer (one shared FrameServer underneath); only the listener
/// family differs.
class TcpServer {
 public:
  /// `endpoint` must outlive the server. `host` is an IPv4 dotted-quad
  /// (127.0.0.1 for same-host clusters, 0.0.0.0 to serve a real one);
  /// port 0 picks an ephemeral port — read it back via port().
  TcpServer(ServerEndpoint* endpoint, std::string host, uint16_t port);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds, listens, and starts accepting. Typed error on failure.
  Status Start();

  /// Stops accepting, drains and closes every connection. Idempotent.
  void Shutdown();

  const std::string& host() const { return host_; }
  /// The actual bound port (resolves port 0); valid after Start().
  uint16_t port() const { return bound_port_; }

 private:
  const std::string host_;
  const uint16_t requested_port_;
  uint16_t bound_port_ = 0;
  std::unique_ptr<FrameSink> sink_;
  FrameServer server_;
};

/// Client-side transport over one connected stream socket: the shared
/// trunk of SocketTransport (Unix-domain) and TcpTransport. Owns the
/// reader thread, the request-id correlation map, and the
/// typed-kTransportError failure paths.
class StreamTransport : public Transport {
 public:
  ~StreamTransport() override;

  /// Ok once connected; the typed connect error otherwise (every later
  /// Send on a failed channel resolves with it as a kTransportError
  /// envelope).
  Status status() const { return connect_status_; }

  std::future<AnswerEnvelope> Send(QueryRequest request) override;

  /// One batched frame, one write syscall, N pipelined replies (the
  /// server answers each name with its own envelope at consecutive
  /// request ids — the existing correlation path resolves them).
  std::vector<std::future<AnswerEnvelope>> SendBatch(
      QueryRequest request) override;

  /// Stats/metrics/trace polls ride the same connection; each reply is a
  /// normal answer frame correlated by request id.
  std::future<AnswerEnvelope> SendStats(StatsRequest request) override;
  std::future<AnswerEnvelope> SendMetrics(MetricsRequest request) override;
  std::future<AnswerEnvelope> SendTrace(TraceRequest request) override;

  /// The hello/auth frame binding an analyst id to THIS connection.
  std::future<AnswerEnvelope> SendHello(HelloRequest request) override;

  /// Internal shard RPC (combiner -> worker); the reply is an ordinary
  /// answer frame, so it shares the correlation machinery.
  std::future<AnswerEnvelope> SendShardRpc(ShardRpcRequest request) override;

  void Close() override;

 protected:
  StreamTransport() = default;
  /// Adopts the connected fd (spawning the reader thread) or records the
  /// typed connect error. Derived constructors call exactly once.
  void Adopt(Result<int> connected);

 private:
  void ReadLoop();
  /// Registers promises for ids [first_id, first_id + count), and writes
  /// `wire` (already framed) once; on any failure every registered
  /// promise resolves with a typed kTransportError envelope. The shared
  /// trunk of every Send flavor.
  std::vector<std::future<AnswerEnvelope>> ShipFrame(
      const std::string& wire, uint64_t first_id, size_t count);
  /// Fails every registered promise with kTransportError.
  void FailAllPending(const std::string& why);
  AnswerEnvelope TransportError(uint64_t request_id,
                                const std::string& why) const;

  Status connect_status_;
  int fd_ = -1;
  std::atomic<bool> closed_{false};
  /// Set by ReadLoop when the connection dies (EOF, error, malformed
  /// stream): no reply can ever arrive, so Send must stop registering
  /// promises that nothing would resolve.
  std::atomic<bool> broken_{false};
  std::mutex close_mutex_;  // serializes Close callers
  std::mutex write_mutex_;
  std::mutex pending_mutex_;
  std::unordered_map<uint64_t, std::promise<AnswerEnvelope>> pending_;
  std::thread reader_;  // last: started once fd_ is live
};

/// Client-side transport over one Unix-domain connection.
class SocketTransport : public StreamTransport {
 public:
  /// Connects immediately; check status() before first use.
  explicit SocketTransport(const std::string& socket_path);
};

/// Client-side transport over one TCP connection (IPv4 dotted-quad
/// host). What the cluster combiner and remote analysts use.
class TcpTransport : public StreamTransport {
 public:
  /// Connects immediately; check status() before first use.
  TcpTransport(const std::string& host, uint16_t port);
};

}  // namespace api
}  // namespace pmw

#endif  // PMWCM_API_SOCKET_TRANSPORT_H_
