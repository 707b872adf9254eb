// Acceptance tests for the pmw::api front door (src/api/):
//
//   (a) End-to-end transcript equivalence THROUGH THE WIRE: N client
//       threads, each on its own SocketTransport connection, drive a
//       SocketServer -> ServerEndpoint -> Dispatcher -> PmwService; the
//       endpoint's recorded arrival log is replayed through sequential
//       core::PmwCm under the same seed, and answers + the privacy
//       ledger must be bit-identical. The codec, the socket loops, the
//       queue, and the sharded service may only ever change wall-clock.
//   (b) One error vocabulary: every code crosses the wire with its
//       message unchanged, served errors carry the sequential
//       mechanism's own code, and protocol-level rejections (unknown
//       query, version mismatch, quota) are typed and cost zero privacy.
//   (c) Serving metadata rides along: epochs, hard/soft rounds,
//       cache-hit flags, and the remaining-budget view are consistent
//       with the mechanism's own accounting.
//
// The TSan CI job rebuilds this binary: the socket reader/writer threads
// and the deferred envelope assembly run under the race detector.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/catalog.h"
#include "api/client.h"
#include "api/codec.h"
#include "api/endpoint.h"
#include "api/envelope.h"
#include "api/error.h"
#include "api/in_process_transport.h"
#include "api/socket_transport.h"
#include "core/pmw_cm.h"
#include "data/binary_universe.h"
#include "data/generators.h"
#include "erm/noisy_gradient_oracle.h"
#include "gtest/gtest.h"

namespace pmw {
namespace api {
namespace {

core::PmwOptions PracticalOptions() {
  core::PmwOptions options;
  options.alpha = 0.15;
  options.beta = 0.05;
  options.privacy = {2.0, 1e-6};
  options.scale = 2.0;
  options.max_queries = 400;
  options.override_updates = 24;
  return options;
}

class ApiTest : public ::testing::Test {
 protected:
  ApiTest() : universe_(3) {
    data::Histogram dist = data::LogisticModelDistribution(
        universe_, {1.0, -0.8, 0.5}, {0.7, 0.4, 0.5}, 0.25);
    dataset_ = std::make_unique<data::Dataset>(
        data::RoundedDataset(universe_, dist, 60000));
    WorkloadSpec spec;
    spec.family = WorkloadSpec::Family::kLipschitz;
    spec.dim = 3;
    names_ = catalog_.Populate(spec, 8, /*seed=*/424242, "lip/");
  }

  ServerOptions DefaultServerOptions() const {
    ServerOptions options;
    options.mechanism = PracticalOptions();
    options.dispatcher.max_batch = 16;
    return options;
  }

  data::LabeledHypercubeUniverse universe_;
  QueryCatalog catalog_;
  std::vector<std::string> names_;
  std::unique_ptr<data::Dataset> dataset_;
};

TEST(ApiErrorTest, EveryCodeCrossesTheWireWithItsMessage) {
  for (uint16_t raw = 0; raw <= static_cast<uint16_t>(kMaxErrorCode);
       ++raw) {
    const ErrorCode code = static_cast<ErrorCode>(raw);
    AnswerEnvelope sent;
    sent.request_id = 7;
    sent.error = code;
    sent.message = "detail text";
    std::string frame;
    EncodeAnswer(sent, &frame);
    Result<AnswerEnvelope> decoded = DecodeAnswer(frame);
    ASSERT_TRUE(decoded.ok()) << ErrorCodeName(code);
    const Status status = decoded.value().status();
    EXPECT_EQ(status.code(), code) << ErrorCodeName(code);
    EXPECT_EQ(status.message(), "detail text") << ErrorCodeName(code);
  }
}

TEST_F(ApiTest, InProcessCallsMatchSequentialMechanismBitForBit) {
  constexpr uint64_t kSeed = 777;
  erm::NoisyGradientOracle oracle;
  ServerOptions options = DefaultServerOptions();
  ServerEndpoint endpoint(dataset_.get(), &oracle, &catalog_, options,
                          kSeed);
  // verify_codec: every call crosses the real byte format both ways.
  InProcessTransport transport(&endpoint, /*verify_codec=*/true);
  Client client(&transport, "analyst-0");

  erm::NoisyGradientOracle replay_oracle;
  core::PmwCm sequential(dataset_.get(), &replay_oracle,
                         options.mechanism, kSeed);

  for (int j = 0; j < 40; ++j) {
    const std::string& name = names_[static_cast<size_t>(j * 3) %
                                     names_.size()];
    AnswerEnvelope reply = client.Call(name);
    Result<core::PmwAnswer> want =
        sequential.AnswerQuery(*catalog_.Find(name));
    ASSERT_EQ(reply.ok(), want.ok()) << "call " << j;
    if (!want.ok()) {
      EXPECT_EQ(reply.error, want.status().code());
      continue;
    }
    ASSERT_EQ(reply.answer.size(), want.value().theta.size());
    for (size_t i = 0; i < reply.answer.size(); ++i) {
      EXPECT_EQ(reply.answer[i], want.value().theta[i])
          << "call " << j << " coord " << i;
    }
    // Serving metadata is consistent with the sequential mechanism.
    EXPECT_EQ(reply.meta.hard_round, want.value().was_update) << j;
    EXPECT_EQ(reply.meta.epoch,
              static_cast<uint64_t>(sequential.hypothesis_version()))
        << j;
    EXPECT_EQ(reply.meta.hard_rounds_remaining,
              sequential.schedule().T - sequential.update_count())
        << j;
    EXPECT_EQ(reply.meta.epsilon_spent,
              sequential.ledger().BasicTotal().epsilon)
        << j;
  }
  endpoint.Shutdown();
  EXPECT_EQ(endpoint.service().mechanism().ledger().Report(),
            sequential.ledger().Report());
  // The verify-codec loopback really produced frames.
  EXPECT_EQ(endpoint.codec_counters().frames_encoded->Value(), 2 * 40);
  EXPECT_EQ(endpoint.codec_counters().frames_decoded->Value(), 2 * 40);
  EXPECT_EQ(endpoint.codec_counters().decode_errors->Value(), 0);
  // And the registry carries them under their metric names.
  EXPECT_EQ(endpoint.registry().CounterValue("pmw_api_frames_encoded_total"),
            2 * 40);
  EXPECT_EQ(endpoint.registry().CounterValue("pmw_api_frames_decoded_total"),
            2 * 40);
}

TEST_F(ApiTest, ProtocolRejectionsAreTypedAndFree) {
  erm::NoisyGradientOracle oracle;
  ServerOptions options = DefaultServerOptions();
  options.quota.per_analyst_queries = 2;
  ServerEndpoint endpoint(dataset_.get(), &oracle, &catalog_, options, 5);
  InProcessTransport transport(&endpoint);
  Client client(&transport, "bounded");

  EXPECT_TRUE(client.Call(names_[0]).ok());
  EXPECT_TRUE(client.Call(names_[1]).ok());
  const int events = endpoint.service().mechanism().ledger().event_count();
  const long long answered =
      endpoint.service().mechanism().queries_answered();

  // Quota: typed, echoes the request id, costs nothing.
  AnswerEnvelope over = client.Call(names_[2]);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.error, ErrorCode::kQuotaExceeded);
  // Ids are namespaced per client (serial << 32 | sequence); this is the
  // client's third call.
  EXPECT_EQ(over.request_id & 0xffffffffu, 3u);
  EXPECT_NE(over.message.find("quota"), std::string::npos);

  // Unknown catalog name: never admitted, never queued.
  AnswerEnvelope unknown = client.Call("no-such-query");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.error, ErrorCode::kUnknownQuery);

  // Neither rejection touched the mechanism.
  EXPECT_EQ(endpoint.service().mechanism().ledger().event_count(), events);
  EXPECT_EQ(endpoint.service().mechanism().queries_answered(), answered);
  EXPECT_EQ(endpoint.quota().admitted("bounded"), 2);
}

TEST_F(ApiTest, CallBatchMatchesSequentialAndCoalescesFrames) {
  constexpr uint64_t kSeed = 808;
  erm::NoisyGradientOracle oracle;
  ServerOptions options = DefaultServerOptions();
  options.serve.num_shards = 2;
  ServerEndpoint endpoint(dataset_.get(), &oracle, &catalog_, options,
                          kSeed);
  // verify_codec: the batch crosses the real byte format — as ONE frame.
  InProcessTransport transport(&endpoint, /*verify_codec=*/true);
  Client client(&transport, "batcher");

  erm::NoisyGradientOracle replay_oracle;
  core::PmwCm sequential(dataset_.get(), &replay_oracle,
                         options.mechanism, kSeed);

  std::vector<std::string> batch;
  for (int j = 0; j < 6; ++j) {
    batch.push_back(names_[static_cast<size_t>(j) % names_.size()]);
  }
  std::vector<AnswerEnvelope> replies = client.CallBatch(batch);
  ASSERT_EQ(replies.size(), batch.size());
  for (size_t j = 0; j < batch.size(); ++j) {
    const AnswerEnvelope& reply = replies[j];
    Result<core::PmwAnswer> want =
        sequential.AnswerQuery(*catalog_.Find(batch[j]));
    ASSERT_EQ(reply.ok(), want.ok()) << "name " << j;
    if (!want.ok()) continue;
    ASSERT_EQ(reply.answer.size(), want.value().theta.size());
    for (size_t i = 0; i < reply.answer.size(); ++i) {
      // Exact: a batched wire call is just framing, never arithmetic.
      EXPECT_EQ(reply.answer[i], want.value().theta[i])
          << "name " << j << " coord " << i;
    }
    EXPECT_EQ(reply.meta.shards, 2u) << j;
    // Consecutive correlation ids, positionally.
    if (j > 0) {
      EXPECT_EQ(reply.request_id, replies[j - 1].request_id + 1);
    }
  }
  endpoint.Shutdown();
  EXPECT_EQ(endpoint.service().mechanism().ledger().Report(),
            sequential.ledger().Report());
  // One request frame for the whole batch (the syscall the satellite
  // saves) + one answer frame per name.
  EXPECT_EQ(endpoint.codec_counters().frames_encoded->Value(),
            1 + static_cast<long long>(batch.size()));
}

TEST_F(ApiTest, StatsRpcExposesReportAndBudgetView) {
  erm::NoisyGradientOracle oracle;
  ServerOptions options = DefaultServerOptions();
  options.serve.num_shards = 2;
  ServerEndpoint endpoint(dataset_.get(), &oracle, &catalog_, options, 31);
  InProcessTransport transport(&endpoint, /*verify_codec=*/true);
  Client client(&transport, "poller");

  // Drive some traffic so the counters have content.
  for (int j = 0; j < 8; ++j) {
    ASSERT_TRUE(client.Call(names_[static_cast<size_t>(j) %
                                   names_.size()]).ok());
  }
  const int events = endpoint.service().mechanism().ledger().event_count();
  const long long answered =
      endpoint.service().mechanism().queries_answered();

  AnswerEnvelope stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.message;
  // The stats reply carries the budget view alone: no report rides in
  // the message.
  EXPECT_TRUE(stats.message.empty()) << stats.message;
  // The budget view matches the C++-side accessors.
  EXPECT_EQ(stats.meta.hard_rounds_remaining,
            endpoint.quota().HardRoundsRemaining());
  const dp::PrivacyParams spent =
      endpoint.service().mechanism().ledger().BasicTotal();
  EXPECT_EQ(stats.meta.epsilon_spent, spent.epsilon);
  EXPECT_EQ(stats.meta.delta_spent, spent.delta);
  EXPECT_EQ(stats.meta.shards, 2u);
  EXPECT_EQ(stats.meta.epoch,
            static_cast<uint64_t>(
                endpoint.service().mechanism().hypothesis_version()));

  // The serving counters come from the Metrics RPC on the same endpoint,
  // each under its own metric name, the per-analyst slices included.
  AnswerEnvelope metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.message;
  EXPECT_NE(metrics.message.find("\npmw_frontend_submitted_total 8\n"),
            std::string::npos);
  EXPECT_NE(metrics.message.find(
                "\npmw_serve_analyst_queries_total{analyst=\"poller\"} 8\n"),
            std::string::npos);

  // Stats and metrics polls are free: no ledger event, no k-query slot.
  EXPECT_EQ(endpoint.service().mechanism().ledger().event_count(), events);
  EXPECT_EQ(endpoint.service().mechanism().queries_answered(), answered);
  endpoint.Shutdown();
}

struct ClientOutcome {
  std::string analyst_id;
  uint64_t request_id = 0;
  AnswerEnvelope envelope;
};

TEST_F(ApiTest, SocketTranscriptMatchesSequentialReplayOfArrivalLog) {
  constexpr int kAnalysts = 4;
  constexpr int kCallsPerAnalyst = 30;
  constexpr uint64_t kSeed = 555;

  erm::NoisyGradientOracle oracle;
  ServerOptions options = DefaultServerOptions();
  options.serve.num_threads = 2;
  options.record_arrival_log = true;
  ServerEndpoint endpoint(dataset_.get(), &oracle, &catalog_, options,
                          kSeed);
  const std::string path =
      "/tmp/pmw_api_test_" + std::to_string(::getpid()) + ".sock";
  SocketServer server(&endpoint, path);
  ASSERT_TRUE(server.Start().ok());

  // Each analyst drives its own connection, closed-loop, from its own
  // thread; the MPSC queue behind the endpoint fixes the interleaving
  // and the arrival log records it.
  std::mutex outcomes_mutex;
  std::vector<ClientOutcome> outcomes;
  std::vector<std::thread> analysts;
  for (int a = 0; a < kAnalysts; ++a) {
    analysts.emplace_back([this, a, &path, &outcomes_mutex, &outcomes] {
      SocketTransport transport(path);
      ASSERT_TRUE(transport.status().ok())
          << transport.status().ToString();
      Client client(&transport, "analyst-" + std::to_string(a));
      for (int j = 0; j < kCallsPerAnalyst; ++j) {
        const std::string& name =
            names_[static_cast<size_t>(a * 7 + j * 3) % names_.size()];
        ClientOutcome outcome;
        outcome.analyst_id = client.analyst_id();
        outcome.envelope = client.Call(name);
        outcome.request_id = outcome.envelope.request_id;
        std::lock_guard<std::mutex> lock(outcomes_mutex);
        outcomes.push_back(std::move(outcome));
      }
      transport.Close();
    });
  }
  for (std::thread& t : analysts) t.join();
  server.Shutdown();
  endpoint.Shutdown();

  const std::vector<ServerEndpoint::ArrivalRecord> arrivals =
      endpoint.ArrivalLog();
  ASSERT_EQ(arrivals.size(),
            static_cast<size_t>(kAnalysts * kCallsPerAnalyst));

  std::map<std::pair<std::string, uint64_t>, const ClientOutcome*> by_key;
  for (const ClientOutcome& outcome : outcomes) {
    by_key[{outcome.analyst_id, outcome.request_id}] = &outcome;
  }

  // Replay the recorded interleaving through the sequential mechanism.
  erm::NoisyGradientOracle replay_oracle;
  core::PmwCm sequential(dataset_.get(), &replay_oracle,
                         options.mechanism, kSeed);
  for (size_t position = 0; position < arrivals.size(); ++position) {
    const ServerEndpoint::ArrivalRecord& record = arrivals[position];
    auto it = by_key.find({record.analyst_id, record.client_request_id});
    ASSERT_NE(it, by_key.end()) << "position " << position;
    const AnswerEnvelope& got = it->second->envelope;
    Result<core::PmwAnswer> want =
        sequential.AnswerQuery(*catalog_.Find(record.query_name));
    ASSERT_EQ(got.ok(), want.ok()) << "position " << position;
    if (!want.ok()) {
      EXPECT_EQ(got.error, want.status().code());
      continue;
    }
    ASSERT_EQ(got.answer.size(), want.value().theta.size());
    for (size_t i = 0; i < got.answer.size(); ++i) {
      // Exact, not NEAR: the claim is bit-identical transcripts, across
      // a real socket and the binary codec.
      EXPECT_EQ(got.answer[i], want.value().theta[i])
          << "position " << position << " coord " << i;
    }
    EXPECT_EQ(got.meta.hard_round, want.value().was_update)
        << "position " << position;
  }

  // The scenario exercised hard rounds, and the ledgers agree
  // event-for-event (labels, params, commit sequence numbers).
  EXPECT_GT(sequential.update_count(), 0);
  EXPECT_EQ(endpoint.service().mechanism().ledger().Report(),
            sequential.ledger().Report());
  EXPECT_EQ(endpoint.service().mechanism().queries_answered(),
            sequential.queries_answered());

  // Wire accounting: one decoded request and one encoded reply per call.
  EXPECT_EQ(endpoint.codec_counters().frames_decoded->Value(),
            kAnalysts * kCallsPerAnalyst);
  EXPECT_EQ(endpoint.codec_counters().frames_encoded->Value(),
            kAnalysts * kCallsPerAnalyst);
  EXPECT_EQ(endpoint.codec_counters().decode_errors->Value(), 0);
  EXPECT_GT(endpoint.codec_counters().bytes_in->Value(), 0);
  EXPECT_GT(endpoint.codec_counters().bytes_out->Value(), 0);
}

TEST_F(ApiTest, BatchedCallsAndStatsWorkThroughARealSocket) {
  erm::NoisyGradientOracle oracle;
  ServerOptions options = DefaultServerOptions();
  options.serve.num_threads = 2;
  options.serve.num_shards = 4;
  ServerEndpoint endpoint(dataset_.get(), &oracle, &catalog_, options, 17);
  const std::string path =
      "/tmp/pmw_api_batch_" + std::to_string(::getpid()) + ".sock";
  SocketServer server(&endpoint, path);
  ASSERT_TRUE(server.Start().ok());
  SocketTransport transport(path);
  ASSERT_TRUE(transport.status().ok());
  Client client(&transport, "batcher");

  std::vector<std::string> batch(names_.begin(), names_.begin() + 5);
  std::vector<AnswerEnvelope> replies = client.CallBatch(batch);
  ASSERT_EQ(replies.size(), batch.size());
  for (size_t j = 0; j < replies.size(); ++j) {
    EXPECT_TRUE(replies[j].ok()) << replies[j].message;
    EXPECT_FALSE(replies[j].answer.empty()) << j;
    EXPECT_EQ(replies[j].meta.shards, 4u) << j;
    if (j > 0) {
      EXPECT_EQ(replies[j].request_id, replies[j - 1].request_id + 1);
    }
  }
  // One request frame carried the whole batch over the socket.
  EXPECT_EQ(endpoint.codec_counters().frames_decoded->Value(), 1);

  AnswerEnvelope stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.message;
  EXPECT_TRUE(stats.message.empty()) << stats.message;
  EXPECT_EQ(stats.meta.shards, 4u);
  EXPECT_EQ(endpoint.service().mechanism().queries_answered(),
            static_cast<long long>(batch.size()));

  // Metrics and trace polls ride the same connection as answers.
  AnswerEnvelope metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.message;
  EXPECT_NE(metrics.message.find("pmw_serve_queries_total"),
            std::string::npos);
  AnswerEnvelope trace = client.Trace();
  ASSERT_TRUE(trace.ok()) << trace.message;
  EXPECT_NE(trace.message.find("trace "), std::string::npos);

  transport.Close();
  server.Shutdown();
  endpoint.Shutdown();
}

TEST_F(ApiTest, SocketServerAnswersMalformedFramesWithTypedEnvelopes) {
  erm::NoisyGradientOracle oracle;
  ServerEndpoint endpoint(dataset_.get(), &oracle, &catalog_,
                          DefaultServerOptions(), 9);
  const std::string path =
      "/tmp/pmw_api_mal_" + std::to_string(::getpid()) + ".sock";
  SocketServer server(&endpoint, path);
  ASSERT_TRUE(server.Start().ok());
  SocketTransport transport(path);
  ASSERT_TRUE(transport.status().ok());
  Client client(&transport, "prober");

  // A healthy call first, proving the channel works...
  EXPECT_TRUE(client.Call(names_[0]).ok());

  // ...then a future-version frame over a RAW socket: the server must
  // answer with a typed kVersionMismatch envelope (request id 0 — the id
  // was unrecoverable) instead of crashing or going silent.
  QueryRequest alien;
  alien.analyst_id = "prober";
  alien.request_id = 99;
  alien.query_name = names_[0];
  std::string wire;
  EncodeRequest(alien, &wire);
  wire[6] = 42;  // foreign version byte

  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  ASSERT_LT(path.size(), sizeof(address.sun_path));
  std::memcpy(address.sun_path, path.data(), path.size());
  const int raw_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(raw_fd, 0);
  ASSERT_EQ(::connect(raw_fd, reinterpret_cast<sockaddr*>(&address),
                      sizeof(address)),
            0);
  ASSERT_EQ(::write(raw_fd, wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));

  std::string reply_bytes;
  size_t frame_size = 0;
  while (ExtractFrame(reply_bytes, &frame_size) == FrameStatus::kNeedMore) {
    char chunk[4096];
    const ssize_t n = ::read(raw_fd, chunk, sizeof(chunk));
    ASSERT_GT(n, 0) << "server closed without answering";
    reply_bytes.append(chunk, static_cast<size_t>(n));
  }
  ::close(raw_fd);
  Result<AnswerEnvelope> reply =
      DecodeAnswer(std::string_view(reply_bytes).substr(0, frame_size));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().error, ErrorCode::kVersionMismatch);
  EXPECT_EQ(reply.value().request_id, 0u);

  transport.Close();
  server.Shutdown();
  endpoint.Shutdown();
  // The healthy call is the only mechanism traffic; the malformed frame
  // cost one decode error and zero privacy.
  EXPECT_EQ(endpoint.service().mechanism().queries_answered(), 1);
  EXPECT_EQ(endpoint.codec_counters().decode_errors->Value(), 1);
}

TEST_F(ApiTest, MetricsRpcExposesTheRegistryInBothFormats) {
  erm::NoisyGradientOracle oracle;
  ServerOptions options = DefaultServerOptions();
  options.serve.num_shards = 2;
  ServerEndpoint endpoint(dataset_.get(), &oracle, &catalog_, options, 41);
  InProcessTransport transport(&endpoint, /*verify_codec=*/true);
  Client client(&transport, "scraper");

  for (int j = 0; j < 6; ++j) {
    ASSERT_TRUE(client.Call(names_[static_cast<size_t>(j) %
                                   names_.size()]).ok());
  }
  const int events = endpoint.service().mechanism().ledger().event_count();
  const long long answered =
      endpoint.service().mechanism().queries_answered();

  // Text format: one registry spanning every layer, Prometheus-shaped.
  AnswerEnvelope text = client.Metrics();
  ASSERT_TRUE(text.ok()) << text.message;
  EXPECT_NE(text.message.find("# TYPE"), std::string::npos);
  EXPECT_NE(text.message.find("pmw_serve_queries_total"),
            std::string::npos);
  EXPECT_NE(text.message.find("pmw_frontend_submitted_total"),
            std::string::npos);
  EXPECT_NE(text.message.find("pmw_api_frames_decoded_total"),
            std::string::npos);
  EXPECT_NE(text.message.find("pmw_frontend_queue_wait_us_bucket"),
            std::string::npos);

  // JSON format: same registry, machine-shaped, with histogram moments.
  AnswerEnvelope json = client.Metrics(kMetricsFormatJson);
  ASSERT_TRUE(json.ok()) << json.message;
  EXPECT_NE(json.message.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.message.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.message.find("\"p99\""), std::string::npos);

  // Scrapes are free: no ledger event, no k-query slot.
  EXPECT_EQ(endpoint.service().mechanism().ledger().event_count(), events);
  EXPECT_EQ(endpoint.service().mechanism().queries_answered(), answered);

  // Unknown format and foreign version are typed rejections.
  MetricsRequest weird;
  weird.analyst_id = "scraper";
  weird.request_id = 7;
  weird.format = 9;
  AnswerEnvelope rejected = endpoint.HandleMetrics(weird);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error, ErrorCode::kMalformedRequest);
  EXPECT_EQ(rejected.request_id, 7u);
  endpoint.Shutdown();
}

TEST_F(ApiTest, TraceRpcRendersSpanTrees) {
  erm::NoisyGradientOracle oracle;
  ServerOptions options = DefaultServerOptions();
  options.serve.num_shards = 2;
  ServerEndpoint endpoint(dataset_.get(), &oracle, &catalog_, options, 43);
  InProcessTransport transport(&endpoint, /*verify_codec=*/true);
  Client client(&transport, "tracer");

  for (int j = 0; j < 6; ++j) {
    ASSERT_TRUE(client.Call(names_[static_cast<size_t>(j) %
                                   names_.size()]).ok());
  }
  // min_total_us=0 keeps everything; the tree names its phases.
  AnswerEnvelope trace = client.Trace(/*min_total_us=*/0,
                                      /*max_traces=*/16);
  ASSERT_TRUE(trace.ok()) << trace.message;
  EXPECT_NE(trace.message.find("trace "), std::string::npos);
  EXPECT_NE(trace.message.find("analyst=tracer"), std::string::npos);
  EXPECT_NE(trace.message.find("queue"), std::string::npos);
  EXPECT_NE(trace.message.find("commit"), std::string::npos);

  // An impossible threshold filters everything out, gracefully.
  AnswerEnvelope empty = client.Trace(/*min_total_us=*/~0ULL >> 1,
                                      /*max_traces=*/16);
  ASSERT_TRUE(empty.ok());
  EXPECT_NE(empty.message.find("(no traces over threshold)"),
            std::string::npos);
  endpoint.Shutdown();
}

TEST_F(ApiTest, EveryHandlerRejectsForeignVersionsAlike) {
  // One version gate guards the whole front door: a version below or
  // above what the endpoint speaks gets a typed kVersionMismatch with the
  // request id echoed from every handler — query, stats, metrics, trace
  // and hello alike — and never reaches the mechanism. The gate runs
  // before auth, so a token-guarded endpoint rejects the same way.
  erm::NoisyGradientOracle oracle;
  ServerOptions options = DefaultServerOptions();
  options.auth_token = "secret";
  ServerEndpoint endpoint(dataset_.get(), &oracle, &catalog_, options, 45);

  struct Handler {
    const char* name;
    std::function<AnswerEnvelope(uint8_t version, uint64_t request_id)> call;
  };
  const std::vector<Handler> handlers = {
      {"query",
       [&](uint8_t version, uint64_t request_id) {
         QueryRequest request;
         request.version = version;
         request.analyst_id = "alien";
         request.request_id = request_id;
         request.query_name = names_[0];
         return endpoint.Handle(request).get();
       }},
      {"stats",
       [&](uint8_t version, uint64_t request_id) {
         StatsRequest request;
         request.version = version;
         request.request_id = request_id;
         return endpoint.HandleStats(request);
       }},
      {"metrics",
       [&](uint8_t version, uint64_t request_id) {
         MetricsRequest request;
         request.version = version;
         request.request_id = request_id;
         return endpoint.HandleMetrics(request);
       }},
      {"trace",
       [&](uint8_t version, uint64_t request_id) {
         TraceRequest request;
         request.version = version;
         request.request_id = request_id;
         return endpoint.HandleTrace(request);
       }},
      {"hello",
       [&](uint8_t version, uint64_t request_id) {
         HelloRequest request;
         request.version = version;
         request.analyst_id = "alien";
         request.auth_token = "secret";
         request.request_id = request_id;
         return endpoint.HandleHello(request);
       }},
  };

  uint64_t request_id = 100;
  for (const Handler& handler : handlers) {
    for (const uint8_t version :
         {uint8_t{0}, static_cast<uint8_t>(kProtocolVersion + 1)}) {
      ++request_id;
      const AnswerEnvelope reply = handler.call(version, request_id);
      const std::string context = std::string(handler.name) +
                                  " version=" + std::to_string(version);
      ASSERT_FALSE(reply.ok()) << context;
      EXPECT_EQ(reply.error, ErrorCode::kVersionMismatch) << context;
      EXPECT_EQ(reply.request_id, request_id) << context;
      EXPECT_NE(reply.message.find("protocol version"), std::string::npos)
          << context;
    }
    // The same handler accepts the version it speaks (hello with the
    // right token; the others need no hello at this layer).
    const AnswerEnvelope accepted = handler.call(kProtocolVersion, 1);
    EXPECT_NE(accepted.error, ErrorCode::kVersionMismatch) << handler.name;
  }

  // Rejections cost nothing; only the one accepted query reached the
  // mechanism.
  EXPECT_EQ(endpoint.service().mechanism().queries_answered(), 1);
  endpoint.Shutdown();
}

TEST_F(ApiTest, ReplayStaysBitIdenticalUnderTracingAndLiveScrapers) {
  // The observability invariant, end to end: spans recorded into the
  // trace ring, and a scraper hammering metrics/trace polls over its own
  // connection, must leave the transcript exactly where sequential
  // replay puts it.
  constexpr int kAnalysts = 3;
  constexpr int kCallsPerAnalyst = 20;
  constexpr uint64_t kSeed = 777;

  erm::NoisyGradientOracle oracle;
  ServerOptions options = DefaultServerOptions();
  options.serve.num_threads = 2;
  options.serve.num_shards = 2;
  options.record_arrival_log = true;
  ServerEndpoint endpoint(dataset_.get(), &oracle, &catalog_, options,
                          kSeed);
  const std::string path =
      "/tmp/pmw_api_obs_" + std::to_string(::getpid()) + ".sock";
  SocketServer server(&endpoint, path);
  ASSERT_TRUE(server.Start().ok());

  std::mutex outcomes_mutex;
  std::vector<ClientOutcome> outcomes;
  std::atomic<bool> done{false};
  std::thread scraper([&path, &done] {
    SocketTransport transport(path);
    ASSERT_TRUE(transport.status().ok());
    Client client(&transport, "scraper");
    while (!done.load(std::memory_order_relaxed)) {
      AnswerEnvelope text = client.Metrics(kMetricsFormatText);
      ASSERT_TRUE(text.ok()) << text.message;
      ASSERT_FALSE(text.message.empty());
      AnswerEnvelope json = client.Metrics(kMetricsFormatJson);
      ASSERT_TRUE(json.ok()) << json.message;
      AnswerEnvelope trace = client.Trace(/*min_total_us=*/0,
                                          /*max_traces=*/8);
      ASSERT_TRUE(trace.ok()) << trace.message;
    }
    transport.Close();
  });
  std::vector<std::thread> analysts;
  for (int a = 0; a < kAnalysts; ++a) {
    analysts.emplace_back([this, a, &path, &outcomes_mutex, &outcomes] {
      SocketTransport transport(path);
      ASSERT_TRUE(transport.status().ok());
      Client client(&transport, "analyst-" + std::to_string(a));
      for (int j = 0; j < kCallsPerAnalyst; ++j) {
        const std::string& name =
            names_[static_cast<size_t>(a * 5 + j * 3) % names_.size()];
        ClientOutcome outcome;
        outcome.analyst_id = client.analyst_id();
        outcome.envelope = client.Call(name);
        outcome.request_id = outcome.envelope.request_id;
        std::lock_guard<std::mutex> lock(outcomes_mutex);
        outcomes.push_back(std::move(outcome));
      }
      transport.Close();
    });
  }
  for (std::thread& t : analysts) t.join();
  done.store(true, std::memory_order_relaxed);
  scraper.join();
  server.Shutdown();
  endpoint.Shutdown();

  const std::vector<ServerEndpoint::ArrivalRecord> arrivals =
      endpoint.ArrivalLog();
  ASSERT_EQ(arrivals.size(),
            static_cast<size_t>(kAnalysts * kCallsPerAnalyst));

  std::map<std::pair<std::string, uint64_t>, const ClientOutcome*> by_key;
  for (const ClientOutcome& outcome : outcomes) {
    by_key[{outcome.analyst_id, outcome.request_id}] = &outcome;
  }
  erm::NoisyGradientOracle replay_oracle;
  core::PmwCm sequential(dataset_.get(), &replay_oracle,
                         options.mechanism, kSeed);
  for (size_t position = 0; position < arrivals.size(); ++position) {
    const ServerEndpoint::ArrivalRecord& record = arrivals[position];
    auto it = by_key.find({record.analyst_id, record.client_request_id});
    ASSERT_NE(it, by_key.end()) << "position " << position;
    const AnswerEnvelope& got = it->second->envelope;
    Result<core::PmwAnswer> want =
        sequential.AnswerQuery(*catalog_.Find(record.query_name));
    ASSERT_EQ(got.ok(), want.ok()) << "position " << position;
    if (!want.ok()) {
      EXPECT_EQ(got.error, want.status().code());
      continue;
    }
    ASSERT_EQ(got.answer.size(), want.value().theta.size());
    for (size_t i = 0; i < got.answer.size(); ++i) {
      EXPECT_EQ(got.answer[i], want.value().theta[i])
          << "position " << position << " coord " << i;
    }
  }
  EXPECT_EQ(endpoint.service().mechanism().ledger().Report(),
            sequential.ledger().Report());
  EXPECT_EQ(endpoint.service().mechanism().queries_answered(),
            sequential.queries_answered());
  // The scraper's frames decoded cleanly alongside the query traffic.
  EXPECT_EQ(endpoint.codec_counters().decode_errors->Value(), 0);
  // The ring saw the traffic (publication happens post-reply, so the
  // exact count is whatever committed before Shutdown drained).
  EXPECT_GT(endpoint.trace_recorder().published(), 0u);
}

}  // namespace
}  // namespace api
}  // namespace pmw
