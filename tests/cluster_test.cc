// Acceptance tests for the multi-host sharded serving subsystem
// (src/cluster/): the distributed transcript-equivalence property and
// its failure-mode corollaries.
//
//   (a) Bit-identity: a front door whose MW phases fan out to shard-group
//       workers over REAL localhost TCP (cluster::Combiner ->
//       cluster::ShardWorker) produces answers, a privacy ledger, and
//       commit sequence numbers bit-identical to sequential core::PmwCm
//       under the same seed — including through the full public surface
//       (TcpServer endpoint + TcpTransport client + hello/auth).
//   (b) Recovery: SIGKILLing one worker PROCESS mid-run and restarting
//       it leaves the transcript bit-identical — the combiner reconnects,
//       restores the latest checkpoint (when one exists), replays the
//       log suffix, and re-issues the in-flight phase. The worker holds
//       no private state, so a crash is purely an availability event.
//   (c) Identity: workers and endpoints with an auth token reject
//       un-helloed or wrongly-helloed traffic with typed kAuthRequired
//       envelopes, and a connection cannot speak for an analyst it did
//       not bind — quota accounting cannot be spoofed.
//   (d) Typed failure taxonomy: dead addresses and exhausted recovery
//       surface as kTransportError / kShardUnavailable, never as hangs,
//       crashes, or silent zeros.
//   (e) Wire input and arithmetic: shard-RPC (index, value) payloads are
//       validated before any conversion, and a worker's slice agrees
//       with the front door's local storage bit for bit — per-shard
//       maxima, partial sums and probabilities — at sizes where the
//       SIMD kernels have tails, with SIMD on and off.
//
// The TSan CI job rebuilds this binary: combiner fan-out, worker frame
// loops, and transport reader threads all run under the race detector.
// The recovery tests spawn the real pmw_shard_worker launcher via
// PMW_SHARD_WORKER_BIN (set by ctest; skipped when absent).

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "api/catalog.h"
#include "api/client.h"
#include "api/endpoint.h"
#include "api/envelope.h"
#include "api/error.h"
#include "api/socket_transport.h"
#include "cluster/combiner.h"
#include "cluster/slice_host.h"
#include "cluster/worker.h"
#include "common/random.h"
#include "common/simd.h"
#include "core/pmw_cm.h"
#include "core/sharded_hypothesis.h"
#include "data/binary_universe.h"
#include "data/generators.h"
#include "erm/noisy_gradient_oracle.h"
#include "gtest/gtest.h"
#include "serve/pmw_service.h"

namespace pmw {
namespace cluster {
namespace {

constexpr char kToken[] = "cluster-secret";

core::PmwOptions PracticalOptions() {
  core::PmwOptions options;
  options.alpha = 0.15;
  options.beta = 0.05;
  options.privacy = {2.0, 1e-6};
  options.scale = 2.0;
  options.max_queries = 400;
  options.override_updates = 12;
  return options;
}

/// One externally spawned pmw_shard_worker process. The worker exits
/// when its stdin closes, so the pipe doubles as a liveness leash.
struct WorkerProcess {
  pid_t pid = -1;
  int stdin_fd = -1;
  uint16_t port = 0;
};

const char* LauncherBin() { return std::getenv("PMW_SHARD_WORKER_BIN"); }

WorkerProcess SpawnWorker(uint16_t port) {
  WorkerProcess worker;
  const char* bin = LauncherBin();
  if (bin == nullptr) return worker;
  int to_child[2] = {-1, -1};
  int from_child[2] = {-1, -1};
  if (pipe(to_child) != 0 || pipe(from_child) != 0) return worker;
  const pid_t pid = fork();
  if (pid == 0) {
    dup2(to_child[0], STDIN_FILENO);
    dup2(from_child[1], STDOUT_FILENO);
    close(to_child[0]);
    close(to_child[1]);
    close(from_child[0]);
    close(from_child[1]);
    const std::string port_arg = "--port=" + std::to_string(port);
    const std::string token_arg = std::string("--auth-token=") + kToken;
    execl(bin, bin, port_arg.c_str(), token_arg.c_str(),
          static_cast<char*>(nullptr));
    _exit(127);
  }
  close(to_child[0]);
  close(from_child[1]);
  // The launcher prints PMW_SHARD_WORKER_PORT=<port>\n once listening.
  std::string line;
  char c = 0;
  while (read(from_child[0], &c, 1) == 1 && c != '\n') line.push_back(c);
  close(from_child[0]);
  const size_t eq = line.find('=');
  if (pid > 0 && eq != std::string::npos) {
    worker.pid = pid;
    worker.stdin_fd = to_child[1];
    worker.port = static_cast<uint16_t>(std::atoi(line.c_str() + eq + 1));
  }
  return worker;
}

/// Graceful stop: close the leash, let the launcher drain and exit.
void StopWorker(WorkerProcess* worker) {
  if (worker->stdin_fd >= 0) {
    close(worker->stdin_fd);
    worker->stdin_fd = -1;
  }
  if (worker->pid > 0) {
    waitpid(worker->pid, nullptr, 0);
    worker->pid = -1;
  }
}

/// The crash under test: SIGKILL, no goodbye, no flush.
void KillWorker(WorkerProcess* worker) {
  if (worker->pid > 0) {
    kill(worker->pid, SIGKILL);
    waitpid(worker->pid, nullptr, 0);
    worker->pid = -1;
  }
  if (worker->stdin_fd >= 0) {
    close(worker->stdin_fd);
    worker->stdin_fd = -1;
  }
}

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest() : universe_(3) {  // |X| = 16
    data::Histogram dist = data::LogisticModelDistribution(
        universe_, {1.0, -0.8, 0.5}, {0.7, 0.4, 0.5}, 0.25);
    dataset_ = std::make_unique<data::Dataset>(
        data::RoundedDataset(universe_, dist, 60000));
    api::WorkloadSpec spec;
    spec.family = api::WorkloadSpec::Family::kLipschitz;
    spec.dim = 3;
    names_ = catalog_.Populate(spec, 8, /*seed=*/424242, "lip/");
    for (int j = 0; j < 60; ++j) {
      workload_.push_back(names_[static_cast<size_t>(j * 3) % names_.size()]);
    }
  }

  int DomainSize() const { return universe_.size(); }

  std::vector<convex::CmQuery> Queries() const {
    std::vector<convex::CmQuery> queries;
    for (const std::string& name : workload_) {
      queries.push_back(*catalog_.Find(name));
    }
    return queries;
  }

  /// The sequential ground truth under the same seed.
  struct Transcript {
    std::vector<Result<core::PmwAnswer>> answers;
    std::string ledger_report;
    int update_count = 0;
    long long queries_answered = 0;
  };

  Transcript RunSequential(uint64_t seed,
                           const core::PmwOptions& options =
                               PracticalOptions()) const {
    erm::NoisyGradientOracle oracle;
    core::PmwCm cm(dataset_.get(), &oracle, options, seed);
    Transcript t;
    for (const convex::CmQuery& query : Queries()) {
      t.answers.push_back(cm.AnswerQuery(query));
    }
    t.ledger_report = cm.ledger().Report();
    t.update_count = cm.update_count();
    t.queries_answered = cm.queries_answered();
    return t;
  }

  void ExpectAnswerIdentical(const Result<convex::Vec>& got,
                             const Result<core::PmwAnswer>& want,
                             size_t position) const {
    ASSERT_EQ(got.ok(), want.ok()) << "query " << position;
    if (!want.ok()) {
      EXPECT_EQ(got.status().code(), want.status().code())
          << "query " << position;
      return;
    }
    const convex::Vec& g = *got;
    const convex::Vec& w = want.value().theta;
    ASSERT_EQ(g.size(), w.size()) << "query " << position;
    for (size_t i = 0; i < w.size(); ++i) {
      // Exact, not NEAR: the claim is bit-identical transcripts across
      // process boundaries and real TCP.
      EXPECT_EQ(g[i], w[i]) << "query " << position << " coord " << i;
    }
  }

  data::LabeledHypercubeUniverse universe_;
  api::QueryCatalog catalog_;
  std::vector<std::string> names_;
  std::vector<std::string> workload_;
  std::unique_ptr<data::Dataset> dataset_;
};

// ---------------------------------------------------------------------------
// (a) Distributed bit-identity, in-process workers over real TCP.
// ---------------------------------------------------------------------------

TEST_F(ClusterTest, DistributedTranscriptMatchesSequential) {
  constexpr uint64_t kSeed = 2200;
  const Transcript want = RunSequential(kSeed);
  ASSERT_GT(want.update_count, 0) << "scenario never fired an update";

  // Two shard-group workers, each a real TCP listener in this process.
  ShardWorkerOptions worker_options;
  worker_options.auth_token = kToken;
  ShardWorker worker_a(worker_options);
  ShardWorker worker_b(worker_options);
  ASSERT_TRUE(worker_a.Start().ok());
  ASSERT_TRUE(worker_b.Start().ok());

  CombinerOptions combiner_options;
  combiner_options.workers = {{"127.0.0.1", worker_a.port()},
                              {"127.0.0.1", worker_b.port()}};
  combiner_options.auth_token = kToken;
  Combiner combiner(combiner_options);
  ASSERT_TRUE(combiner.Connect(DomainSize(), /*num_shards=*/4).ok());

  erm::NoisyGradientOracle oracle;
  serve::ServeOptions serve_options;
  serve_options.num_threads = 2;
  serve_options.num_shards = 4;
  serve_options.hypothesis_delegate = &combiner;
  serve::PmwService service(dataset_.get(), &oracle, PracticalOptions(),
                            kSeed, serve_options);
  ASSERT_EQ(service.num_shards(), 4);

  const std::vector<convex::CmQuery> queries = Queries();
  std::vector<Result<convex::Vec>> got;
  for (size_t start = 0; start < queries.size(); start += 16) {
    const size_t count = std::min<size_t>(16, queries.size() - start);
    std::span<const convex::CmQuery> batch(&queries[start], count);
    for (auto& result : service.AnswerBatch(batch)) {
      got.push_back(std::move(result));
    }
  }

  ASSERT_EQ(got.size(), want.answers.size());
  for (size_t j = 0; j < got.size(); ++j) {
    ExpectAnswerIdentical(got[j], want.answers[j], j);
  }
  EXPECT_EQ(service.mechanism().ledger().Report(), want.ledger_report);
  EXPECT_EQ(service.mechanism().update_count(), want.update_count);
  EXPECT_EQ(service.mechanism().queries_answered(), want.queries_answered);

  // Both workers really did the MW phases, and nothing needed recovery.
  const CombinerStats stats = combiner.stats();
  EXPECT_GT(stats.rpcs, 0);
  EXPECT_EQ(stats.recoveries, 0);
  EXPECT_EQ(stats.updates_logged, want.update_count);
  EXPECT_GT(stats.combiner_wait_us, 0u);
  EXPECT_EQ(worker_a.updates_applied(),
            static_cast<uint64_t>(want.update_count));
  EXPECT_EQ(worker_b.updates_applied(),
            static_cast<uint64_t>(want.update_count));

  combiner.Close();
  worker_a.Shutdown();
  worker_b.Shutdown();
}

// ---------------------------------------------------------------------------
// (a) continued: the full public surface — TcpServer front door,
// TcpTransport client, hello/auth — over combiner-backed serving.
// ---------------------------------------------------------------------------

TEST_F(ClusterTest, FullTcpFrontDoorMatchesSequentialWithAuth) {
  constexpr uint64_t kSeed = 3300;

  ShardWorkerOptions worker_options;
  worker_options.auth_token = kToken;
  ShardWorker worker_a(worker_options);
  ShardWorker worker_b(worker_options);
  ASSERT_TRUE(worker_a.Start().ok());
  ASSERT_TRUE(worker_b.Start().ok());

  CombinerOptions combiner_options;
  combiner_options.workers = {{"127.0.0.1", worker_a.port()},
                              {"127.0.0.1", worker_b.port()}};
  combiner_options.auth_token = kToken;
  Combiner combiner(combiner_options);
  ASSERT_TRUE(combiner.Connect(DomainSize(), /*num_shards=*/4).ok());

  erm::NoisyGradientOracle oracle;
  api::ServerOptions options;
  options.mechanism = PracticalOptions();
  options.dispatcher.max_batch = 16;
  options.serve.num_threads = 2;
  options.serve.num_shards = 4;
  options.serve.hypothesis_delegate = &combiner;
  options.auth_token = "front-door-secret";
  api::ServerEndpoint endpoint(dataset_.get(), &oracle, &catalog_, options,
                               kSeed);
  api::TcpServer server(&endpoint, "127.0.0.1", 0);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  api::TcpTransport transport("127.0.0.1", server.port());
  ASSERT_TRUE(transport.status().ok()) << transport.status().ToString();
  api::Client client(&transport, "analyst-0");

  // Un-helloed queries bounce with a typed kAuthRequired — the endpoint
  // never sees them as admissible traffic.
  api::AnswerEnvelope unauthed = client.Call(names_[0]);
  ASSERT_FALSE(unauthed.ok());
  EXPECT_EQ(unauthed.error, api::ErrorCode::kAuthRequired);

  // A wrong token does not bind.
  api::AnswerEnvelope bad_hello = client.Hello("wrong-secret");
  ASSERT_FALSE(bad_hello.ok());
  EXPECT_EQ(bad_hello.error, api::ErrorCode::kAuthRequired);
  ASSERT_FALSE(client.Call(names_[0]).ok());

  // The real hello binds analyst-0 to this connection.
  api::AnswerEnvelope hello = client.Hello("front-door-secret");
  ASSERT_TRUE(hello.ok()) << hello.message;

  // A different analyst on the SAME connection is rejected: quota
  // accounting cannot be spoofed by stamping someone else's id.
  api::Client impostor(&transport, "analyst-spoof");
  api::AnswerEnvelope spoofed = impostor.Call(names_[0]);
  ASSERT_FALSE(spoofed.ok());
  EXPECT_EQ(spoofed.error, api::ErrorCode::kAuthRequired);

  // The bound analyst's transcript matches sequential replay exactly.
  erm::NoisyGradientOracle replay_oracle;
  core::PmwCm sequential(dataset_.get(), &replay_oracle, options.mechanism,
                         kSeed);
  for (int j = 0; j < 40; ++j) {
    const std::string& name =
        names_[static_cast<size_t>(j * 3) % names_.size()];
    api::AnswerEnvelope reply = client.Call(name);
    Result<core::PmwAnswer> want =
        sequential.AnswerQuery(*catalog_.Find(name));
    ASSERT_EQ(reply.ok(), want.ok()) << "call " << j << ": " << reply.message;
    if (!want.ok()) {
      EXPECT_EQ(reply.error, want.status().code()) << j;
      continue;
    }
    ASSERT_EQ(reply.answer.size(), want.value().theta.size()) << j;
    for (size_t i = 0; i < reply.answer.size(); ++i) {
      EXPECT_EQ(reply.answer[i], want.value().theta[i])
          << "call " << j << " coord " << i;
    }
    EXPECT_EQ(reply.meta.hard_round, want.value().was_update) << j;
  }
  EXPECT_GT(sequential.update_count(), 0);

  transport.Close();
  server.Shutdown();
  endpoint.Shutdown();
  EXPECT_EQ(endpoint.service().mechanism().ledger().Report(),
            sequential.ledger().Report());

  combiner.Close();
  worker_a.Shutdown();
  worker_b.Shutdown();
}

// ---------------------------------------------------------------------------
// (b) Crash/restart recovery with REAL worker processes.
// ---------------------------------------------------------------------------

TEST_F(ClusterTest, KillAndRestartWorkerKeepsTranscriptBitIdentical) {
  if (LauncherBin() == nullptr) {
    GTEST_SKIP() << "PMW_SHARD_WORKER_BIN not set (run under ctest)";
  }
  constexpr uint64_t kSeed = 4400;
  const Transcript want = RunSequential(kSeed);
  ASSERT_GE(want.update_count, 2) << "need updates on both sides of the kill";
  // Kill right after the first hard round commits, so every later hard
  // round exercises reconnect + replay.
  size_t first_update_pos = 0;
  for (size_t j = 0; j < want.answers.size(); ++j) {
    if (want.answers[j].ok() && want.answers[j].value().was_update) {
      first_update_pos = j;
      break;
    }
  }

  WorkerProcess proc_a = SpawnWorker(/*port=*/0);
  WorkerProcess proc_b = SpawnWorker(/*port=*/0);
  ASSERT_GT(proc_a.pid, 0);
  ASSERT_GT(proc_b.pid, 0);
  ASSERT_NE(proc_a.port, 0);
  ASSERT_NE(proc_b.port, 0);

  CombinerOptions combiner_options;
  combiner_options.workers = {{"127.0.0.1", proc_a.port},
                              {"127.0.0.1", proc_b.port}};
  combiner_options.auth_token = kToken;
  Combiner combiner(combiner_options);
  ASSERT_TRUE(combiner.Connect(DomainSize(), /*num_shards=*/4).ok());

  erm::NoisyGradientOracle oracle;
  serve::ServeOptions serve_options;
  serve_options.num_threads = 2;
  serve_options.num_shards = 4;
  serve_options.hypothesis_delegate = &combiner;
  serve::PmwService service(dataset_.get(), &oracle, PracticalOptions(),
                            kSeed, serve_options);

  const std::vector<convex::CmQuery> queries = Queries();
  std::vector<Result<convex::Vec>> got;
  const size_t kill_at = first_update_pos + 1;
  const auto drive = [&](size_t begin, size_t end) {
    for (size_t start = begin; start < end; start += 8) {
      const size_t count = std::min<size_t>(8, end - start);
      std::span<const convex::CmQuery> batch(&queries[start], count);
      for (auto& result : service.AnswerBatch(batch)) {
        got.push_back(std::move(result));
      }
    }
  };

  drive(0, kill_at);

  // The crash: worker A dies without a goodbye, then restarts EMPTY on
  // the same port (SO_REUSEADDR in ListenTcp makes the rebind stick).
  const uint16_t crashed_port = proc_a.port;
  KillWorker(&proc_a);
  proc_a = SpawnWorker(crashed_port);
  ASSERT_GT(proc_a.pid, 0);
  ASSERT_EQ(proc_a.port, crashed_port);

  drive(kill_at, queries.size());

  ASSERT_EQ(got.size(), want.answers.size());
  for (size_t j = 0; j < got.size(); ++j) {
    ExpectAnswerIdentical(got[j], want.answers[j], j);
  }
  EXPECT_EQ(service.mechanism().ledger().Report(), want.ledger_report);
  EXPECT_EQ(service.mechanism().update_count(), want.update_count);
  EXPECT_EQ(service.mechanism().queries_answered(), want.queries_answered);

  // The combiner really recovered: reconnect + configure + log replay.
  const CombinerStats stats = combiner.stats();
  EXPECT_GE(stats.recoveries, 1);
  EXPECT_GE(stats.rpc_failures, 1);

  combiner.Close();
  StopWorker(&proc_a);
  StopWorker(&proc_b);
}

TEST_F(ClusterTest, CheckpointedRecoveryReplaysSuffixNotFullLog) {
  if (LauncherBin() == nullptr) {
    GTEST_SKIP() << "PMW_SHARD_WORKER_BIN not set (run under ctest)";
  }
  constexpr uint64_t kSeed = 4400;
  // A tighter accuracy target trips more hard rounds than the default
  // scenario, so a checkpoint (every 2 updates) lands before the kill.
  core::PmwOptions options = PracticalOptions();
  options.alpha = 0.05;
  const Transcript want = RunSequential(kSeed, options);
  ASSERT_GE(want.update_count, 4)
      << "need enough updates for a checkpoint before the kill";
  // Kill right after the THIRD hard round commits: with a checkpoint
  // every 2 updates, the combiner has a checkpoint at seq 2 by then, so
  // recovery must rebuild the worker from kRestore + a 1-update suffix,
  // not a full from-zero replay.
  int updates_seen = 0;
  size_t third_update_pos = 0;
  for (size_t j = 0; j < want.answers.size(); ++j) {
    if (want.answers[j].ok() && want.answers[j].value().was_update) {
      if (++updates_seen == 3) {
        third_update_pos = j;
        break;
      }
    }
  }
  ASSERT_EQ(updates_seen, 3);

  WorkerProcess proc_a = SpawnWorker(/*port=*/0);
  WorkerProcess proc_b = SpawnWorker(/*port=*/0);
  ASSERT_GT(proc_a.pid, 0);
  ASSERT_GT(proc_b.pid, 0);

  CombinerOptions combiner_options;
  combiner_options.workers = {{"127.0.0.1", proc_a.port},
                              {"127.0.0.1", proc_b.port}};
  combiner_options.auth_token = kToken;
  combiner_options.checkpoint_interval = 2;
  Combiner combiner(combiner_options);
  ASSERT_TRUE(combiner.Connect(DomainSize(), /*num_shards=*/4).ok());

  erm::NoisyGradientOracle oracle;
  serve::ServeOptions serve_options;
  serve_options.num_threads = 2;
  serve_options.num_shards = 4;
  serve_options.hypothesis_delegate = &combiner;
  serve::PmwService service(dataset_.get(), &oracle, options, kSeed,
                            serve_options);

  const std::vector<convex::CmQuery> queries = Queries();
  std::vector<Result<convex::Vec>> got;
  const size_t kill_at = third_update_pos + 1;
  const auto drive = [&](size_t begin, size_t end) {
    for (size_t start = begin; start < end; start += 8) {
      const size_t count = std::min<size_t>(8, end - start);
      std::span<const convex::CmQuery> batch(&queries[start], count);
      for (auto& result : service.AnswerBatch(batch)) {
        got.push_back(std::move(result));
      }
    }
  };

  drive(0, kill_at);

  // The checkpoint the recovery will restore from exists BEFORE the
  // crash, and the log holds only the suffix past it.
  const CombinerStats before = combiner.stats();
  ASSERT_GE(before.checkpoints, 1)
      << "checkpoint_interval=2 should have checkpointed by update 3";
  ASSERT_LT(before.updates_logged, 3)
      << "log must be the suffix since the checkpoint, not the full "
         "history";

  const uint16_t crashed_port = proc_a.port;
  KillWorker(&proc_a);
  proc_a = SpawnWorker(crashed_port);
  ASSERT_GT(proc_a.pid, 0);
  ASSERT_EQ(proc_a.port, crashed_port);

  drive(kill_at, queries.size());

  // Bit-identity survives a recovery whose rebuild path is
  // checkpoint-restore + suffix replay (not from-zero replay).
  ASSERT_EQ(got.size(), want.answers.size());
  for (size_t j = 0; j < got.size(); ++j) {
    ExpectAnswerIdentical(got[j], want.answers[j], j);
  }
  EXPECT_EQ(service.mechanism().ledger().Report(), want.ledger_report);
  EXPECT_EQ(service.mechanism().update_count(), want.update_count);
  EXPECT_EQ(service.mechanism().queries_answered(), want.queries_answered);

  const CombinerStats stats = combiner.stats();
  EXPECT_GE(stats.recoveries, 1);
  EXPECT_GE(stats.rpc_failures, 1);
  EXPECT_GE(stats.checkpoints, before.checkpoints);
  // The log bound held all the way through: never more than one full
  // interval of updates pending replay.
  EXPECT_LT(stats.updates_logged, want.update_count)
      << "checkpointing never truncated the log";
  EXPECT_LE(stats.updates_logged, combiner_options.checkpoint_interval);
  EXPECT_EQ(combiner.update_seq(), static_cast<uint64_t>(want.update_count));

  combiner.Close();
  StopWorker(&proc_a);
  StopWorker(&proc_b);
}

// ---------------------------------------------------------------------------
// (c) Worker-side identity enforcement.
// ---------------------------------------------------------------------------

TEST_F(ClusterTest, WorkerRequiresHelloBeforeRpcs) {
  ShardWorkerOptions worker_options;
  worker_options.auth_token = kToken;
  ShardWorker worker(worker_options);
  ASSERT_TRUE(worker.Start().ok());

  api::TcpTransport transport("127.0.0.1", worker.port());
  ASSERT_TRUE(transport.status().ok());

  // RPC before hello: typed kAuthRequired, connection stays usable.
  api::ShardRpcRequest rpc;
  rpc.op = api::ShardRpcOp::kConfigure;
  rpc.request_id = 1;
  rpc.domain_size = 16;
  rpc.num_shards = 4;
  rpc.group_hi = 4;
  api::AnswerEnvelope unauthed = transport.SendShardRpc(rpc).get();
  ASSERT_FALSE(unauthed.ok());
  EXPECT_EQ(unauthed.error, api::ErrorCode::kAuthRequired);

  // Wrong token: rejected, still not bound.
  api::HelloRequest bad;
  bad.analyst_id = "combiner";
  bad.request_id = 2;
  bad.auth_token = "not-the-secret";
  api::AnswerEnvelope bad_reply = transport.SendHello(bad).get();
  ASSERT_FALSE(bad_reply.ok());
  EXPECT_EQ(bad_reply.error, api::ErrorCode::kAuthRequired);
  rpc.request_id = 3;
  ASSERT_FALSE(transport.SendShardRpc(rpc).get().ok());

  // Right token: bound, and the same RPC now succeeds.
  api::HelloRequest good;
  good.analyst_id = "combiner";
  good.request_id = 4;
  good.auth_token = kToken;
  ASSERT_TRUE(transport.SendHello(good).get().ok());
  rpc.request_id = 5;
  api::AnswerEnvelope configured = transport.SendShardRpc(rpc).get();
  EXPECT_TRUE(configured.ok()) << configured.message;

  // Analyst-protocol traffic is typed away: a worker is not a front door.
  api::Client analyst(&transport, "lost-analyst");
  api::AnswerEnvelope lost = analyst.Call("lip/0");
  ASSERT_FALSE(lost.ok());
  EXPECT_EQ(lost.error, api::ErrorCode::kMalformedRequest);

  transport.Close();
  worker.Shutdown();
}

TEST_F(ClusterTest, SliceHostRejectsOutOfSequencePhases) {
  // The crash-detection signal: a freshly configured (hence seq-0) slice
  // must reject mid-transcript phases with a typed error so the combiner
  // knows to replay.
  SliceHost slice;
  ASSERT_TRUE(slice.Configure(16, 4, 0, 2).ok());
  std::vector<double> payoff(static_cast<size_t>(slice.end() - slice.base()),
                             0.25);
  std::vector<double> local_max;
  const Status stale = slice.Reweigh(/*update_seq=*/3, payoff, 0.5,
                                     &local_max);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.code(), api::ErrorCode::kMalformedRequest);
  // Phases out of order within a matching seq are rejected too.
  std::vector<double> local_sum;
  EXPECT_FALSE(slice.Partials(/*update_seq=*/0, 0.0, &local_sum).ok());
  EXPECT_FALSE(slice.Normalize(/*update_seq=*/0, 1.0).ok());
  // The legal sequence goes through.
  ASSERT_TRUE(slice.Reweigh(0, payoff, 0.5, &local_max).ok());
  ASSERT_TRUE(slice.Partials(0, 0.0, &local_sum).ok());
  ASSERT_TRUE(slice.Normalize(0, 1.0).ok());
  EXPECT_EQ(slice.updates_applied(), 1u);
}

// ---------------------------------------------------------------------------
// (d) Connect failures are typed taxonomy errors (satellite pinning).
// ---------------------------------------------------------------------------

TEST_F(ClusterTest, ConnectFailuresAreTypedTaxonomyErrors) {
  // Port 1 on loopback: connection refused, fast and deterministic.
  api::TcpTransport dead_tcp("127.0.0.1", 1);
  EXPECT_FALSE(dead_tcp.status().ok());
  api::Client tcp_client(&dead_tcp, "nobody");
  api::AnswerEnvelope tcp_reply = tcp_client.Call("lip/0");
  ASSERT_FALSE(tcp_reply.ok());
  EXPECT_EQ(tcp_reply.error, api::ErrorCode::kTransportError);
  EXPECT_NE(tcp_reply.message.find("stream transport"), std::string::npos);

  // Unix path that does not exist: same taxonomy, same shape.
  api::SocketTransport dead_unix("/tmp/pmw_no_such_socket.sock");
  EXPECT_FALSE(dead_unix.status().ok());
  api::Client unix_client(&dead_unix, "nobody");
  api::AnswerEnvelope unix_reply = unix_client.Call("lip/0");
  ASSERT_FALSE(unix_reply.ok());
  EXPECT_EQ(unix_reply.error, api::ErrorCode::kTransportError);

  // A hostname is a typed error, not a DNS lookup: cluster topology is
  // explicit IPv4.
  api::TcpTransport named("worker-0.cluster.internal", 9999);
  EXPECT_FALSE(named.status().ok());

  // The combiner rolls dead workers up into kShardUnavailable.
  CombinerOptions combiner_options;
  combiner_options.workers = {{"127.0.0.1", 1}};
  combiner_options.reconnect_attempts = 1;
  combiner_options.reconnect_backoff_ms = 1;
  Combiner combiner(combiner_options);
  const Status unreachable = combiner.Connect(16, 4);
  ASSERT_FALSE(unreachable.ok());
  EXPECT_EQ(unreachable.code(), api::ErrorCode::kShardUnavailable);
}

TEST_F(ClusterTest, ExhaustedRecoverySurfacesAsShardUnavailableAtZeroCost) {
  // A worker that dies and NEVER comes back: the MW update must fail
  // typed (kShardUnavailable -> kInternal status wire code), the update
  // must stay unapplied, and the mechanism must keep serving soft
  // rounds. Zero additional privacy cost for the failure itself.
  ShardWorkerOptions worker_options;
  worker_options.auth_token = kToken;
  auto worker = std::make_unique<ShardWorker>(worker_options);
  ASSERT_TRUE(worker->Start().ok());

  CombinerOptions combiner_options;
  combiner_options.workers = {{"127.0.0.1", worker->port()}};
  combiner_options.auth_token = kToken;
  combiner_options.rpc_timeout_ms = 2000;
  combiner_options.reconnect_attempts = 2;
  combiner_options.reconnect_backoff_ms = 1;
  Combiner combiner(combiner_options);
  ASSERT_TRUE(combiner.Connect(DomainSize(), /*num_shards=*/4).ok());

  // Kill the only worker for good.
  worker->Shutdown();
  worker.reset();

  std::vector<double> payoff(static_cast<size_t>(DomainSize()), 0.1);
  std::vector<double> local_max;
  const Status failed = combiner.Reweigh(payoff, 0.5, &local_max);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), api::ErrorCode::kShardUnavailable)
      << failed.ToString();
  EXPECT_EQ(combiner.update_seq(), 0u) << "failed update must not commit";
}

// ---------------------------------------------------------------------------
// (e) Wire input validation and worker/front-door bit agreement.
// ---------------------------------------------------------------------------

bool SameBits(double a, double b) {
  uint64_t ab, bb;
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  return ab == bb;
}

TEST(IndexPairsTest, DecodeReturnsWhatEncodeEmitted) {
  const data::HistogramSupport support = {{3, 0.25}, {4, 0.5}, {9, 0.125}};
  const Result<data::HistogramSupport> decoded =
      DecodeIndexPairs(EncodeIndexPairs(support), 0, 10);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value(), support);
}

TEST(IndexPairsTest, DecodeRejectsMalformedPayloadsWithTypedErrors) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> bad = {
      {nan, 0.5},              // NaN index
      {inf, 0.5},              // +inf
      {-inf, 0.5},             // -inf
      {2147483648.0, 0.5},     // 2^31: would overflow the int cast
      {-1.0, 0.5},             // negative
      {2.5, 0.5},              // not an integer
      {10.0, 0.5},             // == hi: outside [0, 10)
      {3.0, 0.5, 3.0, 0.25},   // repeated
      {5.0, 0.5, 4.0, 0.25},   // decreasing
      {3.0, 0.5, 4.0},         // odd length
      {3.0, nan},              // NaN mass
      {3.0, 0.0},              // Snapshot never emits a zero mass
  };
  for (size_t k = 0; k < bad.size(); ++k) {
    const Result<data::HistogramSupport> decoded =
        DecodeIndexPairs(bad[k], 0, 10);
    ASSERT_FALSE(decoded.ok()) << "case " << k;
    EXPECT_EQ(decoded.status().code(), api::ErrorCode::kMalformedRequest)
        << "case " << k;
  }
  // The range is the caller's: an index valid for one slice is outside
  // another.
  EXPECT_FALSE(DecodeIndexPairs({3.0, 0.5}, 4, 8).ok());
}

TEST(SliceHostTest, RejectedRestoreLeavesTheSliceUnchanged) {
  SliceHost slice;
  ASSERT_TRUE(slice.Configure(16, 4, 0, 2).ok());  // owns [0, 8)
  // One update moves the slice off uniform, so a stray fill would show.
  std::vector<double> payoff = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7};
  std::vector<double> local_max, local_sum;
  ASSERT_TRUE(slice.Reweigh(0, payoff, 0.5, &local_max).ok());
  ASSERT_TRUE(slice.Partials(0, local_max.back(), &local_sum).ok());
  ASSERT_TRUE(slice.Normalize(0, local_sum[0] + local_sum[1]).ok());
  const Result<data::HistogramSupport> before = slice.Snapshot(0, 8);
  ASSERT_TRUE(before.ok());

  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::vector<double>& pairs :
       std::vector<std::vector<double>>{{nan, 0.5},
                                        {1.0, 0.5, 8.0, 0.5},
                                        {3.0, 0.5, 2.0, 0.5},
                                        {1.0, 0.5, 2.0}}) {
    const Status rejected = slice.Restore(/*update_seq=*/7, pairs);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.code(), api::ErrorCode::kMalformedRequest);
    EXPECT_EQ(slice.updates_applied(), 1u);
    const Result<data::HistogramSupport> after = slice.Snapshot(0, 8);
    ASSERT_TRUE(after.ok());
    ASSERT_EQ(after.value().size(), before.value().size());
    for (size_t k = 0; k < before.value().size(); ++k) {
      EXPECT_EQ(after.value()[k].first, before.value()[k].first);
      EXPECT_TRUE(
          SameBits(after.value()[k].second, before.value()[k].second));
    }
  }

  // A valid checkpoint installs exactly its entries.
  const data::HistogramSupport checkpoint = {{1, 0.5}, {6, 0.5}};
  ASSERT_TRUE(slice.Restore(5, EncodeIndexPairs(checkpoint)).ok());
  EXPECT_EQ(slice.updates_applied(), 5u);
  EXPECT_EQ(slice.Snapshot(0, 8).value(), checkpoint);
}

/// Two SliceHost shard groups behind the delegate seam, in process: the
/// combiner's fan-out without the transport, so the front door's
/// MultiplicativeUpdate runs unchanged over worker slices.
class InProcessGroups : public core::HypothesisDelegate {
 public:
  InProcessGroups(int domain_size, int num_shards) {
    const int half = num_shards / 2;
    EXPECT_TRUE(hosts_[0].Configure(domain_size, num_shards, 0, half).ok());
    EXPECT_TRUE(
        hosts_[1].Configure(domain_size, num_shards, half, num_shards).ok());
  }

  Status Reweigh(const std::vector<double>& payoff, double eta,
                 std::vector<double>* local_max) override {
    local_max->clear();
    for (SliceHost& host : hosts_) {
      const std::vector<double> slice(payoff.begin() + host.base(),
                                      payoff.begin() + host.end());
      std::vector<double> group;
      Status status = host.Reweigh(seq_, slice, eta, &group);
      if (!status.ok()) return status;
      local_max->insert(local_max->end(), group.begin(), group.end());
    }
    return Status::Ok();
  }
  Status PartialSums(double global_max,
                     std::vector<double>* local_sum) override {
    local_sum->clear();
    for (SliceHost& host : hosts_) {
      std::vector<double> group;
      Status status = host.Partials(seq_, global_max, &group);
      if (!status.ok()) return status;
      local_sum->insert(local_sum->end(), group.begin(), group.end());
    }
    return Status::Ok();
  }
  Status Normalize(double total) override {
    for (SliceHost& host : hosts_) {
      Status status = host.Normalize(seq_, total);
      if (!status.ok()) return status;
    }
    ++seq_;
    return Status::Ok();
  }
  Result<data::HistogramSupport> Snapshot(int lo, int hi) override {
    data::HistogramSupport support;
    for (SliceHost& host : hosts_) {
      const int slice_lo = std::max(lo, host.base());
      const int slice_hi = std::min(hi, host.end());
      if (slice_lo >= slice_hi) continue;
      Result<data::HistogramSupport> slice = host.Snapshot(slice_lo, slice_hi);
      if (!slice.ok()) return slice.status();
      support.insert(support.end(), slice.value().begin(),
                     slice.value().end());
    }
    return support;
  }

  SliceHost& host(int g) { return hosts_[static_cast<size_t>(g)]; }

 private:
  std::array<SliceHost, 2> hosts_;
  uint64_t seq_ = 0;
};

TEST(SliceHostTest, WorkersAgreeWithTheFrontDoorBitForBitAtKernelTails) {
  // Sizes whose shards leave remainders past every 4-lane kernel body
  // (and |X| = 5, where some shards are a single element), two groups
  // over 4- and 8-shard partitions, SIMD on and off. With SIMD off both
  // sides run the scalar loops; without AVX2 support SetEnabled(true)
  // stays scalar too, and the comparison still holds.
  const bool simd_was_enabled = simd::Enabled();
  for (bool simd_on : {true, false}) {
    simd::SetEnabled(simd_on);
    for (int size : {5, 33, 1000, 2048}) {
      for (int requested : {4, 8}) {
        const int shards =
            static_cast<int>(core::PartitionDomain(size, requested).size());
        core::ShardedHypothesis front(size, shards);
        InProcessGroups groups(size, shards);
        core::ShardedHypothesis workers(size, shards, nullptr,
                                        core::HypothesisBackend::kDense, {},
                                        &groups);
        Rng rng(7100 + static_cast<uint64_t>(size) * 16 +
                static_cast<uint64_t>(shards));
        for (int round = 0; round < 20; ++round) {
          std::vector<double> payoff(static_cast<size_t>(size));
          for (double& value : payoff) value = rng.Gaussian(0.0, 1.0);
          const double eta = rng.Uniform(-2.0, 2.0);
          ASSERT_TRUE(front.MultiplicativeUpdate(payoff, eta).ok());
          ASSERT_TRUE(workers.MultiplicativeUpdate(payoff, eta).ok());
          const std::string where =
              "simd=" + std::to_string(simd_on) + " size=" +
              std::to_string(size) + " shards=" + std::to_string(shards) +
              " round=" + std::to_string(round);
          for (int s = 0; s < shards; ++s) {
            ASSERT_TRUE(SameBits(front.shard(s).local_max,
                                 workers.shard(s).local_max))
                << where << " max of shard " << s;
            ASSERT_TRUE(SameBits(front.shard(s).local_sum,
                                 workers.shard(s).local_sum))
                << where << " sum of shard " << s;
          }
          for (int g = 0; g < 2; ++g) {
            SliceHost& host = groups.host(g);
            const Result<data::HistogramSupport> got =
                host.Snapshot(host.base(), host.end());
            const data::HistogramSupport want =
                front.CompactSupport(host.base(), host.end());
            ASSERT_TRUE(got.ok());
            ASSERT_EQ(got.value().size(), want.size()) << where;
            for (size_t k = 0; k < want.size(); ++k) {
              ASSERT_EQ(got.value()[k].first, want[k].first) << where;
              ASSERT_TRUE(SameBits(got.value()[k].second, want[k].second))
                  << where << " index " << want[k].first;
            }
          }
        }
      }
    }
  }
  simd::SetEnabled(simd_was_enabled);
}

}  // namespace
}  // namespace cluster
}  // namespace pmw
