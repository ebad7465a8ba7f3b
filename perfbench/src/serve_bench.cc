// `serve` workload of the repository benchmark: launches demon_serve as its
// own process, drives it through real sockets and checks what it stored.
//
// 64 tenants (the demon_load defaults: one unrestricted itemset monitor
// over 64 items at minsup 0.3) receive 64-record batches, equal to the
// server's flush_records, so each batch seals one block; the server
// checkpoints every 4 blocks. The load is an open loop: batch j is due at
// start + j * batch / rate, whatever happened before it, and goes out on
// persistent connection j mod 4 (a tenant always uses the same connection,
// so its batches stay in order). Each batch is timed from its due time to
// its ack (ingest) and to the first response whose records_durable covers
// its last record (durable); between batches each connection sends kStats
// probes for its tenants that still have batches in flight.
//
// A run times kSetups set-ups (server start plus tenant creation, each on a
// fresh server and data directory). The last before the load goes on to
// it, flushes, reads the server's peak RSS, shuts the server down and
// checks every tenant's checkpoint against an in-process replay of its
// stream; the remaining set-ups follow. Every second one of the others
// goes on to a capacity round: the same stream sent back to back over one more
// connection without waiting for replies (a writer thread sends, the main
// thread reads the replies), then a FlushAll. The server is busy the whole
// round, so its CPU time per record is what admitting, sealing,
// WAL-appending and checkpointing a record costs rather than what waking
// up for each request costs; the median over rounds is reported. --trace=1 adds the decomposed replay: wire codec, TenantHost
// in-process, and WriteAheadLog::Append / DemonMonitor::Checkpoint at the
// serve cadence.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/flags.h"
#include "common/random.h"
#include "core/demon_monitor.h"
#include "persistence/wal.h"
#include "server/tenant_host.h"
#include "server/wire.h"
#include "tidlist/simd.h"

namespace perfbench {
namespace {

using demon::DemonMonitor;
using demon::Result;
using demon::Status;
using demon::Transaction;
using demon::TransactionBlock;
using demon::server::ClientConnection;
using demon::server::MsgType;
using demon::server::Request;
using demon::server::Response;

// The workload's definition; the server is launched with the same values.
constexpr uint64_t kNumItems = 64;
constexpr double kMinsup = 0.3;
constexpr uint64_t kTenants = 64;
constexpr uint64_t kBatch = 64;  // records per batch = the server's flush_records
constexpr uint64_t kCheckpointBlocks = 4;
constexpr uint64_t kServerThreads = 4;
constexpr uint64_t kConnections = 4;
constexpr double kRate = 20000.0;  // offered records per second
constexpr double kProbeIntervalS = 0.5e-3;
/// Set-ups timed per run (the median is reported); one is tens of ms.
/// The load runs on the server of the last set-up before it; every second
/// one of the others carries a capacity round. Half run after the load, so
/// that the medians sample the host across the run rather than in one
/// stretch of it.
constexpr size_t kSetups = 21;
constexpr size_t kSetupsBeforeLoad = 11;
static_assert(kTenants % kConnections == 0);

struct Config {
  uint64_t seed = 0;
  uint64_t batches_per_tenant = 0;
  std::string data_dir;
  std::string work_dir;
};

demon::MonitorSpec TenantSpec() {
  demon::MonitorSpec spec;
  spec.kind = demon::MonitorKind::kUnrestrictedItemsets;
  spec.name = "itemsets";
  spec.minsup = kMinsup;
  return spec;
}

std::string TenantName(uint64_t tenant) { return "t" + std::to_string(tenant); }

/// Record `index` of `tenant`: a pure function of (seed, tenant, index).
Transaction MakeRecord(uint64_t seed, uint64_t tenant, uint64_t index) {
  demon::Rng rng(seed ^ (tenant + 1) * 0x9E3779B97F4A7C15ULL ^
                 (index + 1) * 0xBF58476D1CE4E5B9ULL);
  const size_t size = 2 + static_cast<size_t>(rng.NextUint64(6));
  std::vector<demon::Item> items;
  items.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    items.push_back(static_cast<demon::Item>(rng.NextUint64(kNumItems)));
  }
  return Transaction(std::move(items));
}

/// Global batch j goes to tenant j mod T as that tenant's (j / T)-th batch.
Request BatchRequest(const Config& c, uint64_t j) {
  const uint64_t tenant = j % kTenants;
  const uint64_t first = (j / kTenants) * kBatch;
  Request request;
  request.type = MsgType::kAppendBatch;
  request.tenant = TenantName(tenant);
  request.first_record_index = first;
  request.transactions.reserve(kBatch);
  for (uint64_t i = 0; i < kBatch; ++i) {
    request.transactions.push_back(MakeRecord(c.seed, tenant, first + i));
  }
  return request;
}

uint64_t TotalBatches(const Config& c) {
  return kTenants * c.batches_per_tenant;
}

/// What one batch experienced, all times on the NowSeconds clock.
struct BatchTimes {
  double due = 0.0;
  double sent = 0.0;
  double acked = 0.0;
  double durable = 0.0;  // 0 until a response covers the batch
};

struct WorkerResult {
  Status status;
  uint64_t failed = 0;
  uint64_t probes = 0;
  uint64_t backlog_max = 0;
};

/// Creates the tenants of connection `worker` (every tenant t with
/// t mod kConnections == worker).
Status CreateTenants(ClientConnection* connection, uint64_t worker) {
  for (uint64_t t = worker; t < kTenants; t += kConnections) {
    Request create;
    create.type = MsgType::kCreateTenant;
    create.tenant = TenantName(t);
    create.num_items = kNumItems;
    create.specs.push_back(TenantSpec());
    auto response = connection->Call(create);
    if (!response.ok()) return response.status();
    DEMON_RETURN_NOT_OK(response.value().ToStatus());
  }
  return Status::OK();
}

/// Runs `body(w)` on one thread per connection and joins them.
template <typename Body>
void PerConnection(Body&& body) {
  std::vector<std::thread> threads;
  for (uint64_t w = 0; w < kConnections; ++w) threads.emplace_back(body, w);
  for (std::thread& t : threads) t.join();
}

/// A demon_serve process with the workload's server options on an
/// ephemeral port. The destructor terminates it if it is still running;
/// either way it is waited for.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(0.0); }

  /// Launches `binary` over `data_dir` and waits until it listens.
  Status Start(const std::string& binary, const std::string& data_dir) {
    std::vector<std::string> args = {
        binary,
        "--port=0",
        "--data_dir=" + data_dir,
        "--threads=" + std::to_string(kServerThreads),
        "--flush_records=" + std::to_string(kBatch),
        "--checkpoint_blocks=" + std::to_string(kCheckpointBlocks)};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    int fds[2];
    if (::pipe(fds) != 0) return Status::IoError("pipe failed");
    pid_ = ::fork();
    if (pid_ == 0) {
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      ::execv(binary.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    stdout_ = fds[0];
    if (pid_ < 0) return Status::IoError("fork failed");
    // demon_serve prints "... listening on 127.0.0.1:<port> ..." and flushes.
    constexpr double kStartTimeoutS = 30.0;
    const double deadline = NowSeconds() + kStartTimeoutS;
    std::string text;
    for (;;) {
      const size_t at = text.find("127.0.0.1:");
      if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
        port_ = static_cast<uint16_t>(std::stoul(text.substr(at + 10)));
        return Status::OK();
      }
      pollfd ready{stdout_, POLLIN, 0};
      const int wait_ms = static_cast<int>((deadline - NowSeconds()) * 1e3);
      char buf[512];
      ssize_t n = 0;
      if (wait_ms <= 0 || ::poll(&ready, 1, wait_ms) <= 0 ||
          (n = ::read(stdout_, buf, sizeof(buf))) <= 0) {
        return Status::Internal("demon_serve did not start");
      }
      text.append(buf, static_cast<size_t>(n));
    }
  }

  /// Waits up to `timeout_s` for the process to exit (it exits after a
  /// kShutdown request), then terminates it. Returns its exit code, or -1
  /// when it had to be terminated or did not exit normally.
  int Stop(double timeout_s) {
    if (pid_ > 0) {
      int status = 0;
      if (!WaitFor(timeout_s, &status)) {
        ::kill(pid_, SIGTERM);
        if (!WaitFor(10.0, &status)) {
          ::kill(pid_, SIGKILL);
          ::waitpid(pid_, &status, 0);
        }
        status = -1;
      }
      exit_code_ = status != -1 && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      pid_ = -1;
    }
    if (stdout_ >= 0) ::close(stdout_);
    stdout_ = -1;
    return exit_code_;
  }

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  bool WaitFor(double timeout_s, int* status) {
    const double deadline = NowSeconds() + timeout_s;
    for (;;) {
      if (::waitpid(pid_, status, WNOHANG) == pid_) return true;
      if (NowSeconds() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  pid_t pid_ = -1;
  int stdout_ = -1;
  uint16_t port_ = 0;
  int exit_code_ = -1;
};

/// One set-up: a fresh server over `data_dir`, kConnections connections
/// and every tenant created. `start_s` receives the server's start time.
Status SetUp(const std::string& binary, const std::string& data_dir,
             ServerProcess* server,
             std::vector<std::unique_ptr<ClientConnection>>* connections,
             double* start_s) {
  ::mkdir(data_dir.c_str(), 0755);
  const double t0 = NowSeconds();
  DEMON_RETURN_NOT_OK(server->Start(binary, data_dir));
  *start_s = NowSeconds() - t0;
  for (uint64_t w = 0; w < kConnections; ++w) {
    connections->push_back(std::make_unique<ClientConnection>());
    DEMON_RETURN_NOT_OK(connections->back()->Connect("127.0.0.1", server->port()));
  }
  std::vector<Status> created(kConnections);
  PerConnection([&](uint64_t w) {
    created[w] = CreateTenants((*connections)[w].get(), w);
  });
  for (const Status& status : created) DEMON_RETURN_NOT_OK(status);
  return Status::OK();
}

/// Asks the server to shut down (it flushes durably first) and waits for
/// it to exit with code 0.
Status Shutdown(std::vector<std::unique_ptr<ClientConnection>>* connections,
                ServerProcess* server) {
  Request request;
  request.type = MsgType::kShutdown;
  const auto stopped = (*connections)[0]->Call(request);
  connections->clear();
  if (!stopped.ok()) return stopped.status();
  DEMON_RETURN_NOT_OK(stopped.value().ToStatus());
  const int code = server->Stop(30.0);
  if (code != 0) {
    return Status::Internal("demon_serve exited with " + std::to_string(code));
  }
  return Status::OK();
}

/// The open loop of one connection over its batches (j ≡ worker mod
/// connections), probing for durability between sends.
WorkerResult RunConnection(const Config& c, ClientConnection* connection,
                           uint64_t worker, const std::vector<Request>& batches,
                           std::vector<BatchTimes>* times,
                           std::vector<double>* call_s) {
  WorkerResult result;
  const uint64_t total = TotalBatches(c);
  // Per tenant of this connection: index of the oldest batch not yet
  // known durable, in the tenant's own batch order.
  std::vector<uint64_t> oldest_pending(kTenants, 0);
  std::vector<uint64_t> acked_batches(kTenants, 0);
  auto mark = [&](uint64_t tenant, const Response& r, double now) {
    result.backlog_max = std::max<uint64_t>(
        result.backlog_max, r.records_admitted - r.records_durable);
    uint64_t& k = oldest_pending[tenant];
    while (k < acked_batches[tenant] && (k + 1) * kBatch <= r.records_durable) {
      (*times)[k * kTenants + tenant].durable = now;
      ++k;
    }
  };
  auto any_pending = [&] {
    for (uint64_t t = worker; t < kTenants; t += kConnections) {
      if (oldest_pending[t] < acked_batches[t]) return true;
    }
    return false;
  };
  uint64_t next = worker;
  uint64_t probe_cursor = worker;
  double next_probe = 0.0;
  const double deadline_slack = 30.0;
  for (;;) {
    const double now = NowSeconds();
    if (next < total && (*times)[next].due <= now) {
      BatchTimes& bt = (*times)[next];
      bt.sent = NowSeconds();
      auto response = connection->Call(batches[next]);
      bt.acked = NowSeconds();
      call_s->push_back(bt.acked - bt.sent);
      const uint64_t tenant = next % kTenants;
      if (!response.ok() || !response.value().ok()) {
        ++result.failed;
        if (!response.ok()) {
          result.status = response.status();
          return result;
        }
      } else {
        acked_batches[tenant] = next / kTenants + 1;
        mark(tenant, response.value(), bt.acked);
      }
      // The first probe for a batch not yet durable goes out right away;
      // later ones every probe interval.
      if (oldest_pending[tenant] < acked_batches[tenant]) next_probe = bt.acked;
      next += kConnections;
      continue;
    }
    if (!any_pending()) {
      if (next >= total) return result;
      next_probe = 0.0;
      const double wait = (*times)[next].due - NowSeconds();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      continue;
    }
    if (next_probe == 0.0) next_probe = now + kProbeIntervalS;
    if (next_probe <= now) {
      // Probe the pending tenants round-robin, one per tick.
      uint64_t t = probe_cursor;
      for (uint64_t i = 0; i < kTenants / kConnections; ++i) {
        t += kConnections;
        if (t >= kTenants) t = worker;
        if (oldest_pending[t] < acked_batches[t]) break;
      }
      probe_cursor = t;
      Request stats;
      stats.type = MsgType::kStats;
      stats.tenant = TenantName(t);
      auto response = connection->Call(stats);
      ++result.probes;
      if (!response.ok()) {
        result.status = response.status();
        return result;
      }
      if (response.value().ok()) mark(t, response.value(), NowSeconds());
      next_probe = NowSeconds() + kProbeIntervalS;
      if (next >= total && NowSeconds() > (*times)[total - 1].due + deadline_slack) {
        result.status = Status::Internal("batches never became durable");
        return result;
      }
      continue;
    }
    double wake = next_probe;
    if (next < total) wake = std::min(wake, (*times)[next].due);
    const double wait = wake - NowSeconds();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

/// What one capacity round measured.
struct CapacityRound {
  double wall_s = 0.0;
  CpuSeconds server_cpu;
};

/// One capacity round on a freshly set-up server: `frames` pipelined over
/// a connection of its own, then a FlushAll on `admin`, whose reply must
/// report `records` durable. CPU and wall time run from the first send
/// through the flush's reply.
Result<CapacityRound> RunCapacityRound(const std::vector<std::string>& frames,
                                       uint64_t records,
                                       const ServerProcess& server,
                                       ClientConnection* admin) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (fd < 0 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (fd >= 0) ::close(fd);
    return Status::IoError("capacity connection failed");
  }
  CapacityRound round;
  const CpuSeconds cpu0 = ProcessCpuSeconds(server.pid());
  const double t0 = NowSeconds();
  Status sent;
  std::thread writer([&] {
    for (const std::string& frame : frames) {
      sent = demon::server::SendFrame(fd, frame);
      if (!sent.ok()) return;
    }
  });
  Status received;
  for (size_t i = 0; i < frames.size() && received.ok(); ++i) {
    auto payload = demon::server::ReceiveFramePayload(fd);
    auto response = payload.ok()
                        ? demon::server::DecodeResponsePayload(payload.value())
                        : Result<Response>(payload.status());
    received = response.ok() ? response.value().ToStatus() : response.status();
  }
  // Unblocks the writer if the replies stopped early.
  ::shutdown(fd, SHUT_RDWR);
  writer.join();
  ::close(fd);
  DEMON_RETURN_NOT_OK(received);
  DEMON_RETURN_NOT_OK(sent);
  Request flush;
  flush.type = MsgType::kFlushAll;
  const auto flushed = admin->Call(flush);
  round.wall_s = NowSeconds() - t0;
  round.server_cpu = ProcessCpuSeconds(server.pid()) - cpu0;
  if (!flushed.ok()) return flushed.status();
  DEMON_RETURN_NOT_OK(flushed.value().ToStatus());
  if (flushed.value().records_durable != records) {
    return Status::Internal("capacity round: " +
                            std::to_string(flushed.value().records_durable) +
                            " records durable of " + std::to_string(records));
  }
  return round;
}

/// Replays every tenant's stream in process: one DemonMonitor per tenant
/// fed the same 64-record blocks the server seals. With `layers`, also
/// appends each block to a WAL and checkpoints every kCheckpointBlocks
/// blocks, timing each call. Returns the per-tenant model digests.
std::vector<uint64_t> ReplayTenants(const Config& c, JsonObject* layers) {
  std::vector<uint64_t> digests;
  std::vector<double> wal_append, checkpoint;
  double add_block = 0.0;
  uint64_t bytes_written = 0;
  const std::string dir = c.work_dir + "/replay";
  ::mkdir(dir.c_str(), 0755);
  for (uint64_t t = 0; t < kTenants; ++t) {
    DemonMonitor monitor(kNumItems);
    DEMON_CHECK(monitor.AddMonitor(TenantSpec()).ok());
    std::unique_ptr<demon::persistence::WriteAheadLog> wal;
    const std::string wal_path = dir + "/" + TenantName(t) + ".wal";
    const std::string checkpoint_path = dir + "/" + TenantName(t) + ".ckpt";
    if (layers != nullptr) {
      wal = demon::persistence::WriteAheadLog::Open(wal_path).value();
    }
    for (uint64_t k = 0; k < c.batches_per_tenant; ++k) {
      std::vector<Transaction> records;
      for (uint64_t i = 0; i < kBatch; ++i) {
        records.push_back(MakeRecord(c.seed, t, k * kBatch + i));
      }
      TransactionBlock block(std::move(records), k * kBatch);
      if (wal != nullptr) {
        // The id DemonMonitor would assign, as the server's WAL records it.
        block.mutable_info()->id = static_cast<demon::BlockId>(k + 1);
        const uint64_t before = FileSize(wal_path);
        const double t0 = NowSeconds();
        DEMON_CHECK(wal->Append(block).ok());
        wal_append.push_back(NowSeconds() - t0);
        bytes_written += FileSize(wal_path) - before;
      }
      const double t0 = NowSeconds();
      monitor.AddBlock(std::move(block));
      add_block += NowSeconds() - t0;
      if (wal != nullptr && (k + 1) % kCheckpointBlocks == 0) {
        const double c0 = NowSeconds();
        DEMON_CHECK(monitor.Checkpoint(checkpoint_path).ok());
        checkpoint.push_back(NowSeconds() - c0);
        bytes_written += FileSize(checkpoint_path);
        DEMON_CHECK(wal->Reset().ok());
      }
    }
    digests.push_back(ModelDigest(*monitor.ItemsetModelOf(0).value()));
  }
  if (layers != nullptr) {
    layers->Nums("wal_append_s", wal_append)
        .Nums("checkpoint_s", checkpoint)
        .Num("core.add_block_s", add_block)
        .Int("persistence.bytes_written", bytes_written);
  }
  return digests;
}

/// Wire codec and TenantHost, in process, on the same batches.
void ReplayWireAndHost(const Config& c, const std::vector<Request>& batches,
                       JsonObject* layers) {
  std::vector<double> encode, decode;
  uint64_t frame_bytes = 0;
  for (const Request& request : batches) {
    const double t0 = NowSeconds();
    const std::string frame = demon::server::EncodeRequestFrame(request);
    const double t1 = NowSeconds();
    auto decoded = demon::server::DecodeRequestPayload(frame.substr(4));
    const double t2 = NowSeconds();
    DEMON_CHECK(decoded.ok() &&
                decoded.value().transactions.size() == request.transactions.size());
    encode.push_back(t1 - t0);
    decode.push_back(t2 - t1);
    frame_bytes += frame.size();
  }
  demon::telemetry::TelemetryRegistry registry;
  demon::server::TenantPolicy policy;
  policy.flush_records = kBatch;
  policy.checkpoint_blocks = kCheckpointBlocks;
  const std::string dir = c.work_dir + "/host";
  ::mkdir(dir.c_str(), 0755);
  std::vector<double> append;
  double flush_s = 0.0;
  {
    demon::server::TenantHost host(dir, kServerThreads, policy, &registry);
    for (uint64_t t = 0; t < kTenants; ++t) {
      DEMON_CHECK(host.CreateTenant(TenantName(t), kNumItems, {TenantSpec()}).ok());
    }
    for (const Request& request : batches) {
      std::vector<Transaction> records = request.transactions;
      const double t0 = NowSeconds();
      const auto outcome = host.Append(request.tenant, request.first_record_index,
                                       std::move(records));
      append.push_back(NowSeconds() - t0);
      DEMON_CHECK(outcome.ok());
    }
    const double t0 = NowSeconds();
    DEMON_CHECK(host.FlushAll().ok());
    flush_s = NowSeconds() - t0;
  }
  layers->Nums("wire_encode_s", encode)
      .Nums("wire_decode_s", decode)
      .Int("server.wire.frame_bytes", frame_bytes)
      .Nums("host_append_s", append)
      .Num("server.host.flush_s", flush_s);
}

/// Restores each tenant's checkpoint (+ WAL) as the server left it and
/// returns the model digests.
std::vector<uint64_t> RestoredDigests(const Config& c, Checks* checks) {
  std::vector<uint64_t> digests;
  bool all_restored = true;
  for (uint64_t t = 0; t < kTenants; ++t) {
    const std::string dir = c.data_dir + "/tenants/" + TenantName(t);
    auto restored = DemonMonitor::Restore(dir + "/checkpoint.demon");
    if (!restored.ok()) {
      all_restored = false;
      digests.push_back(0);
      continue;
    }
    std::unique_ptr<DemonMonitor> monitor = std::move(restored).value();
    const std::string wal = dir + "/wal.demon";
    if (FileSize(wal) > 0 && !monitor->ReplayWal(wal).ok()) all_restored = false;
    digests.push_back(ModelDigest(*monitor->ItemsetModelOf(0).value()));
  }
  checks->Add("every_checkpoint_restores", all_restored);
  return digests;
}

int Main(int argc, char** argv) {
  demon::flags::FlagSet flags("serve_bench", "serve workload of the benchmark");
  flags.DefineString("demon_serve", "", "path of the demon_serve program");
  flags.DefineInt("seed", 1, "input seed");
  flags.DefineInt("seconds", 12, "run length the record count is scaled to");
  flags.DefineBool("trace", false, "add the decomposed replay");
  flags.DefineString("work_dir", "", "scratch directory");
  flags.DefineString("out", "", "result JSON path");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok() || flags.GetString("demon_serve").empty() ||
      flags.GetString("out").empty() || flags.GetString("work_dir").empty() ||
      flags.GetInt("seconds") < 1) {
    std::fprintf(stderr, "serve_bench: %s\n%s", parsed.message().c_str(),
                 flags.HelpText().c_str());
    return 2;
  }
  Config c;
  c.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  // The workload is fixed by records sent, not by time: a checkpoint
  // rewrites the tenant's whole history, so its cost grows with the stream.
  c.batches_per_tenant = std::max<uint64_t>(
      kCheckpointBlocks,
      static_cast<uint64_t>(std::lround(static_cast<double>(flags.GetInt("seconds")) *
                                        kRate / static_cast<double>(kTenants * kBatch))));
  c.work_dir = flags.GetString("work_dir");
  auto fail = [](const char* what, const Status& status) {
    std::fprintf(stderr, "serve_bench: %s: %s\n", what, status.message().c_str());
    return 1;
  };

  ServerProcess server;
  std::vector<std::unique_ptr<ClientConnection>> connections;
  std::vector<double> setup_s, server_start_s;
  // Set-up k on a fresh server and data directory, left running.
  auto set_up = [&](size_t k) {
    // Tenant creation is file-system bound: flush the write-back earlier
    // set-ups and runs left pending, so each pays only for its own files.
    ::sync();
    c.data_dir = c.work_dir + "/serve-" + std::to_string(k);
    double start_s = 0.0;
    const double t0 = NowSeconds();
    const Status status = SetUp(flags.GetString("demon_serve"), c.data_dir,
                                &server, &connections, &start_s);
    setup_s.push_back(NowSeconds() - t0);
    server_start_s.push_back(start_s);
    return status;
  };
  // Inputs are generated before any clock starts.
  const uint64_t total = TotalBatches(c);
  std::vector<Request> batches;
  std::vector<std::string> frames;
  batches.reserve(total);
  frames.reserve(total);
  for (uint64_t j = 0; j < total; ++j) {
    batches.push_back(BatchRequest(c, j));
    frames.push_back(demon::server::EncodeRequestFrame(batches.back()));
  }

  // A repetition: set-up k, for odd k a capacity round on its server,
  // shutdown.
  std::vector<double> capacity_wall_s, capacity_user_cpu_s, capacity_system_cpu_s;
  auto repetition = [&](size_t k) -> Status {
    DEMON_RETURN_NOT_OK(set_up(k));
    if (k % 2 == 1) {
      const auto round = RunCapacityRound(frames, total * kBatch, server,
                                          connections[0].get());
      if (!round.ok()) return round.status();
      capacity_wall_s.push_back(round.value().wall_s);
      capacity_user_cpu_s.push_back(round.value().server_cpu.user);
      capacity_system_cpu_s.push_back(round.value().server_cpu.system);
    }
    return Shutdown(&connections, &server);
  };
  // A traced run reports neither set-up time nor capacity and skips the
  // repetitions.
  const bool trace = flags.GetBool("trace");
  const size_t before_load = trace ? 1 : kSetupsBeforeLoad;
  for (size_t k = 0; k + 1 < before_load; ++k) {
    const Status status = repetition(k);
    if (!status.ok()) return fail("repetition", status);
  }
  {
    const Status status = set_up(before_load - 1);
    if (!status.ok()) return fail("set-up", status);
  }
  auto call = [&](MsgType type, const std::string& tenant) {
    Request request;
    request.type = type;
    request.tenant = tenant;
    return connections[0]->Call(request);
  };

  std::vector<BatchTimes> times(total);
  const double interval = static_cast<double>(kBatch) / kRate;
  const double start = NowSeconds() + 0.05;
  for (uint64_t j = 0; j < total; ++j) {
    times[j].due = start + static_cast<double>(j) * interval;
  }
  const CpuSeconds server_cpu0 = ProcessCpuSeconds(server.pid());
  std::vector<WorkerResult> results(kConnections);
  std::vector<std::vector<double>> call_s(kConnections);
  PerConnection([&](uint64_t w) {
    results[w] = RunConnection(c, connections[w].get(), w, batches, &times,
                               &call_s[w]);
  });
  const double flush0 = NowSeconds();
  const auto flushed = call(MsgType::kFlushAll, "");
  const double end = NowSeconds();
  const CpuSeconds server_cpu = ProcessCpuSeconds(server.pid()) - server_cpu0;
  uint64_t failed = 0, probes = 0, backlog_max = 0;
  for (const WorkerResult& r : results) {
    if (!r.status.ok()) return fail("load", r.status);
    failed += r.failed;
    probes += r.probes;
    backlog_max = std::max(backlog_max, r.backlog_max);
  }
  if (!flushed.ok() || !flushed.value().ok()) ++failed;

  Checks checks;
  bool all_durable = true;
  for (uint64_t t = 0; t < kTenants; ++t) {
    const auto stats = call(MsgType::kStats, TenantName(t));
    all_durable = all_durable && stats.ok() && stats.value().ok() &&
                  stats.value().records_durable == c.batches_per_tenant * kBatch;
  }
  checks.Add("every_tenant_durable_equals_sent", all_durable);
  const double peak_rss_mb = PeakRssMb(std::to_string(server.pid()));
  const double state_mb = RssMb(std::to_string(server.pid()));
  const Status stopped = Shutdown(&connections, &server);
  if (!stopped.ok()) ++failed;

  std::vector<double> due, sent, acked, durable;
  for (const BatchTimes& bt : times) {
    due.push_back(bt.due - start);
    sent.push_back(bt.sent - start);
    acked.push_back(bt.acked - start);
    durable.push_back(bt.durable > 0 ? bt.durable - start : -1.0);
  }
  std::vector<double> calls;
  for (const auto& v : call_s) calls.insert(calls.end(), v.begin(), v.end());
  JsonObject out;
  out.Str("kernel_tier", demon::simd::ActiveKernelName())
      .Int("failed", failed)
      .Int("records", total * kBatch)
      .Int("blocks", total)
      .Num("wall_s", end - start)
      .Num("flush_s", end - flush0)
      .Num("server_user_cpu_s", server_cpu.user)
      .Num("server_system_cpu_s", server_cpu.system)
      .Num("peak_rss_mb", peak_rss_mb)
      .Num("state_mb", state_mb)
      .Int("probes", probes)
      .Num("probe_interval_s", kProbeIntervalS)
      .Int("backlog_records_max", backlog_max)
      .Nums("due", due)
      .Nums("sent", sent)
      .Nums("acked", acked)
      .Nums("durable", durable);

  // Correctness, after timing: each checkpoint the server left restores to
  // the model of an in-process replay of that tenant's stream.
  JsonObject layers;
  const std::vector<uint64_t> restored = RestoredDigests(c, &checks);
  const std::vector<uint64_t> replayed = ReplayTenants(c, trace ? &layers : nullptr);
  checks.Add("every_checkpoint_equals_replay", restored == replayed);
  if (trace) {
    ReplayWireAndHost(c, batches, &layers);
    layers.Nums("call_s", calls)
        .Num("span_cost_s", SpanCostSeconds())
        .Int("spans", calls.size() + probes);
    out.Obj("trace", layers);
  } else {
    for (size_t k = before_load; k < kSetups; ++k) {
      const Status status = repetition(k);
      if (!status.ok()) return fail("repetition", status);
    }
  }
  // Attempted: the open loop's batches, its FlushAll and the shutdown, and
  // each capacity round's batches and FlushAll (a failed round ends the run).
  out.Int("attempted", total + 2 + capacity_wall_s.size() * (total + 1))
      .Nums("setup_s", setup_s)
      .Int("capacity_records", total * kBatch)
      .Nums("capacity_wall_s", capacity_wall_s)
      .Nums("capacity_server_user_cpu_s", capacity_user_cpu_s)
      .Nums("capacity_server_system_cpu_s", capacity_system_cpu_s)
      .Nums("server_start_s", server_start_s)
      .Obj("checks", checks.json()).Bool("correct", checks.all_ok());
  return WriteFile(flags.GetString("out"), out.ToString() + "\n") ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
