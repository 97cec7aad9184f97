// The two wire workloads, ingest_wire and audit_mixed: one in-process
// ProvenanceServer (4 shards, group commit, periodic sealed checkpoints)
// driven over loopback by one connection per driver thread. Every request
// is timed on the client, from SendRequest to the matching response.
//
// The load is closed-loop per object: a connection keeps up to `depth`
// requests in flight but never two on the same object, so an update is
// sent only after the previous record of its chain was durably acked.
// Each connection owns a disjoint slice of objects (ids striped across
// connections), which makes its local view of every chain exact: reads
// are checked against it as they arrive.

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <deque>
#include <optional>
#include <thread>

#include "common.h"
#include "common/thread_pool.h"
#include "common/varint.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "provenance/ingest_pipeline.h"
#include "provenance/serialization.h"
#include "provenance/verifier.h"
#include "storage/env.h"
#include "storage/wal.h"
#include "workload/zipf.h"

namespace perfbench {
namespace {

using provenance::IngestOptions;
using provenance::IngestPipeline;
using provenance::IngestRequest;
using provenance::OperationType;
using storage::ObjectId;

struct WireShape {
  /// Objects per connection.
  size_t slice;
  /// audit_mixed: Zipf-chosen updates per connection loaded before the run.
  size_t preload_updates;
  /// Request mix; the rest are submits.
  double verify_frac;
  double query_frac;
  /// ingest_wire: each connection first inserts its whole slice.
  bool inserts_first;
  /// Requests in flight per connection.
  size_t depth;
  /// Per-shard records between sealed checkpoints.
  uint64_t checkpoint_every;
  /// Set-up repetitions (setup_s is their median).
  size_t setups;
  /// Requests pre-generated per connection and second of the run, well
  /// above any rate seen; a connection that uses them all stops early
  /// (and says so).
  size_t intents_per_second;
};

constexpr double kZipfTheta = 0.99;
constexpr size_t kReplayPerConnection = 300;
constexpr size_t kReplayBatch = 16;

enum class Kind : uint8_t { kSubmit, kVerify, kQuery };

/// One pre-generated request: which object (before the in-flight probe),
/// what to do, and the SHA-1-sized post-state hash a submit carries.
struct Intent {
  uint32_t object;
  Kind kind;
  std::array<uint8_t, 20> post;
};

/// The connection's view of one object's chain.
struct ObjectView {
  bool exists = false;
  bool in_flight = false;
  crypto::Digest last;
  uint64_t accepted = 0;
};

struct Connection {
  size_t index = 0;
  std::vector<Intent> intents;
  std::vector<ObjectView> objects;
  std::optional<net::ProvenanceClient> client;
  uint64_t submits_sent = 0;

  // Results, owned by the connection's driver thread until it is joined.
  std::vector<double> submit_us, verify_us, query_us;
  uint64_t attempted = 0, failed = 0, acked = 0;
  uint64_t done_traced = 0, done_untraced = 0;
  int64_t last_done_ns = 0;
  bool exhausted = false;
  std::string failure;
  std::vector<net::Request> replay;  // acked requests, traced run only
};

ObjectId IdOf(size_t conn, size_t k, size_t conns) {
  return 1 + static_cast<ObjectId>(k * conns + conn);
}

std::array<uint8_t, 20> RandomHash(Rng* rng) {
  std::array<uint8_t, 20> hash{};
  for (uint8_t& b : hash) b = static_cast<uint8_t>(rng->NextUint64());
  return hash;
}

uint64_t StreamSeed(uint64_t seed, size_t conn, uint64_t salt) {
  return (seed * 0x9E3779B97F4A7C15ull) ^ ((conn + 1) * salt);
}

std::vector<Intent> MakeIntents(const WireShape& shape, const Config& config,
                                size_t conn) {
  const size_t count =
      shape.slice + static_cast<size_t>(
                        config.seconds *
                        static_cast<double>(shape.intents_per_second));
  Rng rng(StreamSeed(config.seed, conn, 0xC2B2AE3D27D4EB4Full));
  const workload::ZipfGenerator zipf(shape.slice, kZipfTheta);
  std::vector<Intent> intents;
  intents.reserve(count);
  if (shape.inserts_first) {
    for (size_t k = 0; k < shape.slice; ++k) {
      intents.push_back(
          Intent{static_cast<uint32_t>(k), Kind::kSubmit, RandomHash(&rng)});
    }
  }
  while (intents.size() < count) {
    Kind kind = Kind::kSubmit;
    const double u = rng.NextDouble();
    if (u < shape.verify_frac) {
      kind = Kind::kVerify;
    } else if (u < shape.verify_frac + shape.query_frac) {
      kind = Kind::kQuery;
    }
    const auto k = static_cast<uint32_t>(zipf.Next(&rng));
    const std::array<uint8_t, 20> post =
        kind == Kind::kSubmit ? RandomHash(&rng) : std::array<uint8_t, 20>{};
    intents.push_back(Intent{k, kind, post});
  }
  return intents;
}

IngestRequest ToIngest(const net::SubmitRequest& submit, const Pki& pki) {
  IngestRequest ingest;
  ingest.op = submit.op;
  ingest.object = submit.object;
  ingest.post_hash = submit.post_hash;
  ingest.has_pre_hash = submit.has_pre_hash;
  ingest.pre_hash = submit.pre_hash;
  ingest.participant = pki.participant(submit.participant_id - 1);
  return ingest;
}

/// One workload instance: store, server, connected clients.
struct WireState {
  std::string root;
  IngestOptions options;
  std::unique_ptr<IngestPipeline> pipeline;
  std::unique_ptr<net::ProvenanceServer> server;
  std::vector<std::unique_ptr<Connection>> conns;
  std::vector<IngestRequest> preload;

  WireState() = default;
  WireState(const WireState&) = delete;
  WireState& operator=(const WireState&) = delete;
  ~WireState() {
    server.reset();
    if (pipeline) (void)pipeline->Close();
    pipeline.reset();
    if (!root.empty()) RemoveTree(root);
  }
};

/// Builds a fresh instance: inputs from the seed, an empty (or
/// preloaded) store, a started server, and one connection per driver.
std::unique_ptr<WireState> SetUp(const WireShape& shape, const Config& config,
                                 const Pki& pki, size_t rep) {
  auto state = std::make_unique<WireState>();
  state->root = config.work_dir + "/store-" + std::to_string(rep);
  RemoveTree(state->root);
  state->options = StoreOptions(pki, shape.checkpoint_every);
  auto pipeline = IngestPipeline::Open(storage::Env::Default(), state->root,
                                       state->options);
  Check(pipeline.status(), "pipeline open");
  state->pipeline = std::move(*pipeline);

  const size_t conns = DriverThreads();
  for (size_t c = 0; c < conns; ++c) {
    auto conn = std::make_unique<Connection>();
    conn->index = c;
    conn->intents = MakeIntents(shape, config, c);
    conn->objects.resize(shape.slice);
    state->conns.push_back(std::move(conn));
  }

  // audit_mixed population: every object inserted, then Zipf-chosen
  // updates, so hot chains are long and the tail is short.
  if (shape.preload_updates > 0) {
    for (auto& conn : state->conns) {
      Rng rng(StreamSeed(config.seed, conn->index, 0x165667B19E3779F9ull));
      const workload::ZipfGenerator zipf(shape.slice, kZipfTheta);
      const size_t total = shape.slice + shape.preload_updates;
      for (size_t i = 0; i < total; ++i) {
        const size_t k =
            i < shape.slice ? i : static_cast<size_t>(zipf.Next(&rng));
        ObjectView& view = conn->objects[k];
        IngestRequest request;
        request.op = view.exists ? OperationType::kUpdate
                                 : OperationType::kInsert;
        request.object = IdOf(conn->index, k, conns);
        request.post_hash = RandomDigest(&rng);
        request.has_pre_hash = view.exists;
        request.pre_hash = view.last;
        request.participant = pki.participant(i + conn->index);
        Check(state->pipeline->Submit(request), "preload submit");
        view.exists = true;
        view.last = request.post_hash;
        ++view.accepted;
        state->preload.push_back(request);
      }
    }
    Check(state->pipeline->Drain(), "preload drain");
  }

  std::map<crypto::ParticipantId, const crypto::Participant*> participants;
  for (const auto& p : pki.participants) participants[p->id()] = p.get();
  auto server = net::ProvenanceServer::Start(
      state->pipeline.get(), pki.registry.get(), std::move(participants),
      net::ServerOptions{});
  Check(server.status(), "server start");
  state->server = std::move(*server);
  for (auto& conn : state->conns) {
    auto client =
        net::ProvenanceClient::Connect("127.0.0.1", state->server->port());
    Check(client.status(), "client connect");
    conn->client.emplace(std::move(*client));
  }
  return state;
}

/// Applies one response to the connection's view of object `k` and
/// checks reads against it; a non-OK or disagreeing answer counts as
/// failed.
void HandleResponse(Connection* c, size_t k, const net::Request& request,
                    double us, const net::Response& response,
                    bool record_replay) {
  ObjectView& view = c->objects[k];
  const ObjectId id = request.op == net::NetOp::kSubmitRecord
                          ? request.submit.object
                          : request.object;
  auto fail = [c](const std::string& why) {
    ++c->failed;
    if (c->failure.empty()) c->failure = why;
  };
  if (!response.ok()) {
    fail(std::string(net::NetOpName(request.op)) + " on object " +
         std::to_string(id) + " answered " + response.ToStatus().ToString());
    return;
  }
  switch (request.op) {
    case net::NetOp::kSubmitRecord:
      view.exists = true;
      view.last = request.submit.post_hash;
      ++view.accepted;
      ++c->acked;
      c->submit_us.push_back(us);
      break;
    case net::NetOp::kVerifyObject: {
      auto summary = net::DecodeVerifySummary(response.body);
      if (!summary.ok() || !summary->ok || summary->issues != 0 ||
          summary->records_checked != view.accepted) {
        fail("verify-object " + std::to_string(id) + " disagrees: checked " +
             (summary.ok() ? std::to_string(summary->records_checked) : "?") +
             " of " + std::to_string(view.accepted) + " acked");
        return;
      }
      c->verify_us.push_back(us);
      break;
    }
    case net::NetOp::kQueryChain: {
      auto records = net::DecodeChainBody(response.body);
      bool same = records.ok() && records->size() == view.accepted;
      for (size_t i = 0; same && i < records->size(); ++i) {
        same = (*records)[i].output.object_id == id;
      }
      if (!same) {
        fail("query-chain " + std::to_string(id) + " returned " +
             (records.ok() ? std::to_string(records->size()) : "garbage") +
             " records, " + std::to_string(view.accepted) + " acked");
        return;
      }
      c->query_us.push_back(us);
      break;
    }
    case net::NetOp::kStats:
      break;
  }
  if (record_replay && c->replay.size() < kReplayPerConnection) {
    c->replay.push_back(request);
  }
}

/// The driver loop of one connection: keep `depth` requests in flight,
/// one per object, until `stop`; then collect what is still in flight.
void Drive(Connection* c, const WireShape& shape, size_t conns,
           const std::atomic<bool>& go, const std::atomic<bool>& stop,
           bool record_replay) {
  struct InFlight {
    size_t k;
    int64_t sent_ns;
    uint64_t request_id;
    net::Request request;
  };
  std::deque<InFlight> window;
  size_t next = 0;
  const size_t depth = std::min(shape.depth, shape.slice - 1);
  while (!go.load(std::memory_order_acquire)) std::this_thread::yield();

  for (;;) {
    while (!stop.load(std::memory_order_relaxed) && window.size() < depth) {
      if (next == c->intents.size()) {
        c->exhausted = true;
        break;
      }
      const Intent& intent = c->intents[next++];
      size_t k = intent.object;
      while (c->objects[k].in_flight) k = (k + 1) % c->objects.size();
      ObjectView& view = c->objects[k];
      const ObjectId id = IdOf(c->index, k, conns);
      // A chain must exist before it can be read; until its insert is
      // acked, an object's first request is that insert.
      const Kind kind = view.exists ? intent.kind : Kind::kSubmit;
      net::Request request;
      if (kind == Kind::kSubmit) {
        request.op = net::NetOp::kSubmitRecord;
        net::SubmitRequest& s = request.submit;
        s.participant_id = 1 + (c->submits_sent++ + c->index) % kParticipants;
        s.op = view.exists ? OperationType::kUpdate : OperationType::kInsert;
        s.object = id;
        s.post_hash = crypto::Digest::FromBytes(
            ByteView(intent.post.data(), intent.post.size()));
        s.has_pre_hash = view.exists;
        if (view.exists) s.pre_hash = view.last;
      } else {
        request.op = kind == Kind::kVerify ? net::NetOp::kVerifyObject
                                           : net::NetOp::kQueryChain;
        request.object = id;
      }
      view.in_flight = true;
      const uint64_t rid = (uint64_t{c->index} << 40) | next;
      const int64_t sent = NowNs();
      Status sent_ok;
      {
        ScopedSpan span("net.client_send_request", rid);
        sent_ok = c->client->SendRequest(request);
      }
      ++c->attempted;
      if (!sent_ok.ok()) {
        c->failed += 1 + window.size();
        c->failure = "send: " + sent_ok.ToString();
        return;
      }
      window.push_back(InFlight{k, sent, rid, std::move(request)});
    }
    if (window.empty()) return;

    InFlight f = std::move(window.front());
    window.pop_front();
    std::optional<Result<net::Response>> response;
    {
      ScopedSpan span("net.client_read_response", f.request_id);
      response.emplace(c->client->ReadResponse());
    }
    const int64_t done = NowNs();
    c->objects[f.k].in_flight = false;
    if (!response->ok()) {
      c->failed += 1 + window.size();
      c->failure = "read: " + response->status().ToString();
      return;
    }
    (Spans::enabled() ? c->done_traced : c->done_untraced) += 1;
    c->last_done_ns = done;
    HandleResponse(c, f.k, f.request, (done - f.sent_ns) / 1e3, **response,
                   record_replay);
  }
}

/// Traced run only: the acked request stream replayed in-process through
/// the layers behind the server, one span per public call, so each
/// layer's self time shows separately from the wire.
void Replay(const WireState& live, const Pki& pki) {
  const std::string root = live.root + "-replay";
  ResetDir(root);
  storage::Env* env = storage::Env::Default();
  auto opened = IngestPipeline::Open(env, root + "/store", live.options);
  Check(opened.status(), "replay pipeline open");
  std::unique_ptr<IngestPipeline> pipeline = std::move(*opened);
  auto wal =
      storage::WalWriter::Open(env, root + "/wal", storage::WalOptions{});
  Check(wal.status(), "replay WAL open");
  provenance::ChecksumEngine engine;
  provenance::LocalChainState tails;

  // The preloaded population, untraced, so replayed reads find it.
  const bool was_on = Spans::enabled();
  Spans::SetEnabled(false);
  for (const IngestRequest& request : live.preload) {
    Check(pipeline->Submit(request), "replay preload");
  }
  Check(pipeline->Drain(), "replay preload drain");
  for (const IngestRequest& request : live.preload) {
    const auto chain = pipeline->store().ChainRecords(request.object);
    tails.Set(request.object, chain.back()->seq_id, chain.back()->checksum);
  }
  Spans::SetEnabled(was_on);

  // Connection streams interleaved round-robin: per-object order holds
  // because every object belongs to exactly one connection.
  std::vector<const net::Request*> stream;
  for (size_t i = 0;; ++i) {
    bool any = false;
    for (const auto& conn : live.conns) {
      if (i < conn->replay.size()) {
        stream.push_back(&conn->replay[i]);
        any = true;
      }
    }
    if (!any) break;
  }

  size_t unsynced = 0;
  auto sync = [&](uint64_t rid) {
    {
      ScopedSpan span("storage.wal_sync", rid);
      Check(wal->Sync(), "replay WAL sync");
    }
    ScopedSpan span("provenance.drain", rid);
    Check(pipeline->Drain(), "replay drain");
    unsynced = 0;
  };
  uint64_t rid = uint64_t{1} << 56;
  for (const net::Request* original : stream) {
    ++rid;
    ScopedSpan root_span("bench.replay_request", rid);
    Bytes frame;
    {
      ScopedSpan span("net.encode", rid);
      frame = net::EncodeFrame(net::EncodeRequest(*original));
    }
    net::Request request;
    {
      ScopedSpan span("net.decode", rid);
      size_t consumed = 0;
      Bytes payload;
      auto complete = net::TryDecodeFrame(frame, net::kMaxFramePayload,
                                          &consumed, &payload);
      Check(complete.status(), "replay frame decode");
      auto decoded = net::DecodeRequest(payload);
      Check(decoded.status(), "replay request decode");
      request = std::move(*decoded);
    }
    if (request.op == net::NetOp::kSubmitRecord) {
      const IngestRequest ingest = ToIngest(request.submit, pki);
      std::optional<Result<provenance::ProvenanceRecord>> signed_record;
      {
        ScopedSpan span("provenance.build_signed_record", rid);
        signed_record.emplace(provenance::BuildSignedIngestRecord(
            engine, tails.Get(ingest.object), ingest));
      }
      Check(signed_record->status(), "replay sign");
      const provenance::ProvenanceRecord& record = **signed_record;
      tails.Set(ingest.object, record.seq_id, record.checksum);
      const Bytes entry = provenance::EncodeWalRecordEntry(record);
      {
        ScopedSpan span("storage.wal_append", rid);
        Check(wal->Append(entry), "replay WAL append");
      }
      {
        ScopedSpan span("provenance.submit", rid);
        Check(pipeline->Submit(ingest), "replay submit");
      }
      if (++unsynced == kReplayBatch) sync(rid);
      continue;
    }
    // The server commits the pending run before any read.
    if (unsynced > 0) sync(rid);
    provenance::StoreSnapshot snapshot;
    {
      ScopedSpan span("provenance.open_snapshot", rid);
      snapshot = pipeline->OpenSnapshot();
    }
    std::vector<const provenance::ProvenanceRecord*> chain;
    {
      ScopedSpan span("provenance.chain_records", rid);
      chain = snapshot.ChainRecords(request.object);
    }
    if (request.op == net::NetOp::kVerifyObject) {
      std::map<ObjectId, std::vector<const provenance::ProvenanceRecord*>>
          chains;
      chains.emplace(request.object, std::move(chain));
      provenance::VerificationReport report;
      ScopedSpan span("provenance.verify_record_chains", rid);
      provenance::VerifyRecordChains(*pki.registry, engine, chains, &report,
                                     nullptr);
    } else {
      ScopedSpan span("provenance.encode_records", rid);
      Bytes body;
      for (const auto* record : chain) {
        AppendLengthPrefixed(&body, provenance::EncodeRecord(*record));
      }
    }
  }
  if (unsynced > 0) sync(rid);
  {
    ScopedSpan span("provenance.checkpoint_now", rid);
    Check(pipeline->CheckpointNow(), "replay checkpoint");
  }
  Check(wal->Close(), "replay WAL close");
  Check(pipeline->Close(), "replay close");
  pipeline.reset();
  RemoveTree(root);
}

Outcome RunWire(const WireShape& shape, const Config& config, const Pki& pki,
                bool mixed) {
  Outcome out;
  WireShape s = shape;
  if (config.tiny) {
    s.slice = 32;
    s.preload_updates = std::min<size_t>(s.preload_updates, 64);
    s.setups = 2;
    s.checkpoint_every = 64;
  }

  // Set-up, repeated; the last instance is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<WireState> state;
  for (size_t rep = 0; rep < s.setups; ++rep) {
    state.reset();
    const int64_t t0 = NowNs();
    state = SetUp(s, config, pki, rep);
    setup_s.push_back((NowNs() - t0) / 1e9);
  }
  const uint64_t preloaded = state->preload.size();

  // Measured part.
  std::atomic<bool> go{false}, stop{false};
  std::vector<std::thread> drivers;
  const size_t conns = state->conns.size();
  for (auto& conn : state->conns) {
    drivers.emplace_back(Drive, conn.get(), std::cref(s), conns,
                         std::cref(go), std::cref(stop), config.trace);
  }
  Ledger ledger;
  ledger.Begin();
  const int64_t t0 = NowNs();
  const int64_t deadline = t0 + static_cast<int64_t>(config.seconds * 1e9);
  go.store(true, std::memory_order_release);
  // The traced run alternates 100 ms untraced / traced phases so both
  // see the same store growth; their rates give the tracing overhead.
  double phase_ns[2] = {0, 0};
  bool traced = false;
  for (int64_t now = NowNs(); now < deadline; now = NowNs()) {
    const int64_t phase_end = std::min(deadline, now + 100'000'000);
    std::this_thread::sleep_for(std::chrono::nanoseconds(phase_end - now));
    phase_ns[traced] += static_cast<double>(NowNs() - now);
    if (config.trace) {
      traced = !traced;
      Spans::SetEnabled(traced);
    }
  }
  stop.store(true);
  for (std::thread& t : drivers) t.join();
  Spans::SetEnabled(false);
  ledger.End();

  // Merge the per-connection samples.
  std::vector<double> submit_us, verify_us, query_us;
  uint64_t acked = 0, done_traced = 0, done_untraced = 0;
  int64_t last_done = t0;
  for (const auto& c : state->conns) {
    submit_us.insert(submit_us.end(), c->submit_us.begin(), c->submit_us.end());
    verify_us.insert(verify_us.end(), c->verify_us.begin(), c->verify_us.end());
    query_us.insert(query_us.end(), c->query_us.begin(), c->query_us.end());
    out.attempted += c->attempted;
    out.failed += c->failed;
    acked += c->acked;
    done_traced += c->done_traced;
    done_untraced += c->done_untraced;
    last_done = std::max(last_done, c->last_done_ns);
    if (!c->failure.empty()) out.Fail("connection " + std::to_string(c->index) +
                                      ": " + c->failure);
    if (c->exhausted) {
      std::printf("note: connection %zu used all %zu pre-generated requests\n",
                  c->index, c->intents.size());
    }
  }
  const double elapsed = (last_done - t0) / 1e9;
  std::vector<double> all_us = submit_us;
  all_us.insert(all_us.end(), verify_us.begin(), verify_us.end());
  all_us.insert(all_us.end(), query_us.begin(), query_us.end());

  // Checks: the store holds exactly the acked records, every chain
  // verifies, and a recovered store matches it.
  state->server.reset();
  Check(state->pipeline->Drain(), "post-run drain");
  const uint64_t expected = preloaded + acked;
  ThreadPool pool(DriverThreads());
  {
    auto report = state->pipeline->store().VerifyChains(
        *pki.registry, crypto::HashAlgorithm::kSha1, &pool);
    if (!report.ok() || report.records_checked != expected) {
      out.Fail("post-run VerifyChains: " +
               std::to_string(report.records_checked) + " records checked, " +
               std::to_string(expected) + " acked, " +
               std::to_string(report.issues.size()) + " issues");
    }
    for (const auto& c : state->conns) {
      for (size_t k = 0; k < c->objects.size(); ++k) {
        const ObjectId id = IdOf(c->index, k, conns);
        if (state->pipeline->store().ChainRecords(id).size() !=
            c->objects[k].accepted) {
          out.Fail("chain " + std::to_string(id) + " length differs from acks");
        }
      }
    }
  }
  // A fresh seal makes the on-disk footprint independent of where the
  // last periodic checkpoint happened to fall.
  Check(state->pipeline->CheckpointNow(), "post-run checkpoint");
  const double disk_bytes = static_cast<double>(DirBytes(state->root));
  Check(state->pipeline->Close(), "post-run close");
  state->pipeline.reset();
  {
    auto reopened = IngestPipeline::Open(storage::Env::Default(), state->root,
                                         state->options);
    if (!reopened.ok()) {
      out.Fail("recovery: " + reopened.status().ToString());
    } else {
      auto report = (*reopened)->store().VerifyChains(
          *pki.registry, crypto::HashAlgorithm::kSha1, &pool);
      if ((*reopened)->store().record_count() != expected || !report.ok() ||
          report.records_checked != expected) {
        out.Fail("recovered store holds " +
                 std::to_string((*reopened)->store().record_count()) +
                 " records (" + std::to_string(report.issues.size()) +
                 " issues), expected " + std::to_string(expected));
      }
      Check((*reopened)->Close(), "recovered close");
    }
  }
  const double peak_rss = PeakRssMb();

  // Report.
  Report& r = out.report;
  const LatencySummary all = Summarize(all_us, 0.99);
  const LatencySummary submits = Summarize(submit_us, 0.99);
  char note[96];
  std::snprintf(note, sizeof(note), "%s requests over %.3f s",
                mixed ? "all" : "submit", elapsed);
  r.Add("ops_per_s", Ratio(static_cast<double>(all.n), elapsed), "1/s", note);
  std::snprintf(note, sizeof(note), "n=%zu", all.n);
  r.Add("p50_ms", all.p50 / 1e3, "ms", note);
  std::snprintf(note, sizeof(note), "p99 n=%zu beyond=%zu", all.n, all.beyond);
  r.Add("tail_ms", all.tail / 1e3, "ms", note);
  r.Add("submit_rps", Ratio(static_cast<double>(submits.n), elapsed), "1/s");
  AddLatency(&r, "submit", submits);
  if (mixed) {
    AddLatency(&r, "verify", Summarize(verify_us, 0.99));
    AddLatency(&r, "query", Summarize(query_us, 0.99));
    r.Add("read_rps",
          Ratio(static_cast<double>(verify_us.size() + query_us.size()),
                elapsed),
          "1/s");
  }
  r.Add("disk_bytes_per_record",
        Ratio(disk_bytes, static_cast<double>(expected)), "B/record",
        "store bytes after a final seal / stored records");
  r.Add("failed_ratio",
        Ratio(static_cast<double>(out.failed),
              static_cast<double>(out.attempted)),
        "ratio");
  r.Add("setup_s", Median(setup_s), "s");
  r.Add("peak_rss_mb", peak_rss, "MB");
  AddLayerMetrics(&r, ledger, all.sum);

  if (config.trace) {
    const double untraced_rate = Ratio(static_cast<double>(done_untraced),
                                       phase_ns[0]);
    const double traced_rate = Ratio(static_cast<double>(done_traced),
                                     phase_ns[1]);
    Spans::SetEnabled(true);
    Replay(*state, pki);
    Spans::SetEnabled(false);
    AddTraceMetrics(&r, Spans::Collect(),
                    (Ratio(untraced_rate, traced_rate) - 1) * 100);
  }
  return out;
}

}  // namespace

Outcome RunIngestWire(const Config& config, const Pki& pki) {
  WireShape shape{};
  shape.slice = 256;
  shape.inserts_first = true;
  shape.depth = 32;
  // 128 requests wait out each seal, so 128/5000 = 2.6% of submits do: p99
  // lands inside the checkpoint stall rather than on its edge.
  shape.checkpoint_every = 5000;
  shape.setups = 9;
  shape.intents_per_second = 4000;
  return RunWire(shape, config, pki, /*mixed=*/false);
}

Outcome RunAuditMixed(const Config& config, const Pki& pki) {
  WireShape shape{};
  shape.slice = 256;
  shape.preload_updates = 512;
  shape.verify_frac = 0.60;
  shape.query_frac = 0.15;
  shape.depth = 8;
  shape.checkpoint_every = 1500;
  shape.setups = 3;
  shape.intents_per_second = 1500;
  return RunWire(shape, config, pki, /*mixed=*/true);
}

}  // namespace perfbench
