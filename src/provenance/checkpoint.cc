#include "provenance/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/varint.h"
#include "observability/metrics.h"
#include "observability/trace.h"
#include "provenance/serialization.h"

namespace provdb::provenance {
namespace {

/// The tail of one live chain as sealed into the chain-tails frame.
struct ChainTail {
  SeqId seq_id = 0;
  Bytes checksum;
};

constexpr char kTmpSuffix[] = ".tmp";

/// "checkpoint-NNNNNN.pvck" -> horizon, or 0 when `name` is not a
/// (non-temporary) checkpoint file. Unlike WAL segment names a horizon
/// of 0 never appears in a file name, so 0 is unambiguous here.
uint64_t ParseCheckpointName(const std::string& name) {
  const std::string prefix = "checkpoint-";
  const std::string suffix = ".pvck";
  if (name.size() <= prefix.size() + suffix.size()) return 0;
  if (name.compare(0, prefix.size(), prefix) != 0) return 0;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return 0;
  }
  uint64_t index = 0;
  for (size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    char c = name[i];
    if (c < '0' || c > '9') return 0;
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (index > (UINT64_MAX - digit) / 10) return 0;
    index = index * 10 + digit;
  }
  return index;
}

Bytes BuildCheckpointHeader(uint64_t horizon) {
  Bytes header;
  header.reserve(kCheckpointHeaderSize);
  AppendBytes(&header, ByteView(reinterpret_cast<const uint8_t*>(
                                    kCheckpointMagic),
                                sizeof(kCheckpointMagic)));
  AppendFixed64(&header, horizon);
  AppendFixed32(&header, Crc32(ByteView(header.data(), header.size())));
  return header;
}

/// The I/O unit of both directions: CheckpointWriter::Write appends
/// frames to the temp file in chunks of about this size, and
/// CheckpointReader::Load reads the file in ranges of at most this size,
/// so neither a seal's nor a load's buffer grows with the store.
constexpr size_t kChunkBytes = 64 * 1024;

/// A varint64 never takes more than this many bytes.
constexpr size_t kMaxVarintBytes = 10;

/// Reads one checkpoint file front to back through Env::ReadFileRange,
/// at most kChunkBytes per read. The buffer is one chunk, or one frame
/// when a frame is larger than that — never the whole file.
class FrameStream {
 public:
  FrameStream(storage::Env* env, const std::string& path, uint64_t size)
      : env_(env), path_(path), size_(size) {}

  /// Bytes of the file not yet consumed.
  uint64_t remaining() const { return size_ - consumed_; }

  /// Consumes the next `n` bytes (at most remaining()). The view is valid
  /// until the next call.
  Result<ByteView> Take(size_t n) {
    PROVDB_RETURN_IF_ERROR(Fill(n));
    const ByteView bytes(buffer_.data() + pos_, n);
    pos_ += n;
    consumed_ += n;
    return bytes;
  }

  /// Consumes the next frame and returns its CRC-checked payload, valid
  /// until the next call. A length reaching past the end of the file is
  /// refused before anything is read for it, so a forged length costs no
  /// memory.
  Result<ByteView> Next() {
    const size_t peek =
        static_cast<size_t>(std::min<uint64_t>(remaining(), kMaxVarintBytes));
    PROVDB_RETURN_IF_ERROR(Fill(peek));
    VarintReader reader(ByteView(buffer_.data() + pos_, peek));
    PROVDB_ASSIGN_OR_RETURN(uint64_t length, reader.ReadVarint64());
    const uint64_t after = remaining() - reader.position();
    if (length > after || after - length < 4) {
      return Status::Corruption("truncated checkpoint frame in " + path_);
    }
    const size_t prefix = reader.position();
    PROVDB_ASSIGN_OR_RETURN(ByteView frame,
                            Take(prefix + static_cast<size_t>(length) + 4));
    const ByteView payload = frame.subview(prefix, length);
    if (ReadFixed32(frame, prefix + payload.size()) != Crc32(payload)) {
      return Status::Corruption("checkpoint frame CRC mismatch in " + path_);
    }
    return payload;
  }

 private:
  /// Makes the next `n` bytes (at most remaining()) resident from pos_.
  /// A fill tops the buffer up to one chunk, or to `n` for a frame larger
  /// than that, and reserves exactly that: for every frame that fits a
  /// chunk the buffer is one chunk, allocated once.
  Status Fill(size_t n) {
    if (buffer_.size() - pos_ >= n) {
      return Status::OK();
    }
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
    const uint64_t unread = size_ - consumed_ - buffer_.size();
    const size_t target = static_cast<size_t>(std::min<uint64_t>(
        std::max(n, kChunkBytes), buffer_.size() + unread));
    buffer_.reserve(target);
    while (buffer_.size() < target) {
      const uint64_t offset = consumed_ + buffer_.size();
      const size_t want = std::min(kChunkBytes, target - buffer_.size());
      const size_t before = buffer_.size();
      PROVDB_RETURN_IF_ERROR(
          env_->ReadFileRange(path_, offset, want, &buffer_));
      if (buffer_.size() - before != want) {
        return Status::Corruption("checkpoint " + path_ +
                                  " shrank while being read");
      }
    }
    return Status::OK();
  }

  storage::Env* env_;
  const std::string& path_;
  const uint64_t size_;
  uint64_t consumed_ = 0;
  Bytes buffer_;
  size_t pos_ = 0;
};

void AppendFrame(Bytes* out, ByteView payload) {
  AppendVarint64(out, payload.size());
  AppendBytes(out, payload);
  AppendFixed32(out, Crc32(payload));
}

/// Absorbs one frame payload into the running root digest. The fixed
/// length prefix keeps payload boundaries unambiguous under
/// concatenation (two different frame sequences can never hash alike).
void AbsorbFrame(crypto::Hasher* hasher, ByteView payload) {
  // Little-endian fixed64, as AppendFixed64 writes it, on the stack.
  uint8_t len[8];
  uint64_t size = payload.size();
  for (uint8_t& byte : len) {
    byte = static_cast<uint8_t>(size);
    size >>= 8;
  }
  hasher->Update(ByteView(len, sizeof(len)));
  hasher->Update(payload);
}

Bytes EncodeManifest(const CheckpointManifest& manifest) {
  Bytes out;
  AppendByte(&out, kCheckpointVersion);
  AppendVarint64(&out, manifest.wal_horizon);
  AppendVarint64(&out, manifest.sealer);
  AppendVarint64(&out, static_cast<uint64_t>(manifest.root_hash));
  AppendVarint64(&out, manifest.live_records);
  AppendVarint64(&out, manifest.chain_count);
  return out;
}

Result<CheckpointManifest> DecodeManifest(ByteView payload) {
  VarintReader reader(payload);
  PROVDB_ASSIGN_OR_RETURN(Bytes version, reader.ReadRaw(1));
  if (version[0] != kCheckpointVersion) {
    return Status::Corruption("unsupported checkpoint version " +
                              std::to_string(version[0]));
  }
  CheckpointManifest manifest;
  PROVDB_ASSIGN_OR_RETURN(manifest.wal_horizon, reader.ReadVarint64());
  PROVDB_ASSIGN_OR_RETURN(manifest.sealer, reader.ReadVarint64());
  PROVDB_ASSIGN_OR_RETURN(uint64_t alg, reader.ReadVarint64());
  if (alg > static_cast<uint64_t>(crypto::HashAlgorithm::kMd5)) {
    return Status::Corruption("unknown checkpoint root hash algorithm " +
                              std::to_string(alg));
  }
  manifest.root_hash = static_cast<crypto::HashAlgorithm>(alg);
  PROVDB_ASSIGN_OR_RETURN(manifest.live_records, reader.ReadVarint64());
  PROVDB_ASSIGN_OR_RETURN(manifest.chain_count, reader.ReadVarint64());
  if (!reader.done()) {
    return Status::Corruption("trailing bytes after checkpoint manifest");
  }
  return manifest;
}

/// The live chain tails of `view`, ascending by object id — the map
/// iteration order *is* the sealed order. A chain's head cell is its
/// newest record, hence its tail.
std::map<storage::ObjectId, ChainTail> CollectChainTails(
    const StoreReadView& view) {
  std::map<storage::ObjectId, ChainTail> tails;
  view.ForEachChain([&](storage::ObjectId object, const ChainNode* head) {
    tails[object] = ChainTail{head->record->seq_id, head->record->checksum};
  });
  return tails;
}

/// The live records of `view` in store-index order: every chain cell
/// placed at its index (a bucket sort on ChainNode::index), then the
/// pruned gaps dropped.
std::vector<const ProvenanceRecord*> LiveRecordsInIndexOrder(
    const StoreReadView& view) {
  std::vector<const ProvenanceRecord*> by_index(
      static_cast<size_t>(view.record_count()), nullptr);
  view.ForEachChain([&](storage::ObjectId, const ChainNode* head) {
    for (const ChainNode* cell = head; cell != nullptr; cell = cell->prev) {
      by_index[static_cast<size_t>(cell->index)] = cell->record;
    }
  });
  by_index.erase(std::remove(by_index.begin(), by_index.end(), nullptr),
                 by_index.end());
  return by_index;
}

Bytes EncodeChainTails(const std::map<storage::ObjectId, ChainTail>& tails) {
  Bytes out;
  for (const auto& [object, tail] : tails) {
    AppendVarint64(&out, object);
    AppendVarint64(&out, tail.seq_id);
    AppendLengthPrefixed(&out, tail.checksum);
  }
  return out;
}

}  // namespace

std::string CheckpointFileName(const std::string& dir, uint64_t horizon) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "checkpoint-%06llu.pvck",
                static_cast<unsigned long long>(horizon));
  return dir + "/" + buf;
}

Status CheckpointWriter::Write(storage::Env* env, const std::string& dir,
                               const StoreReadView& view,
                               uint64_t wal_horizon,
                               const crypto::Signer& signer,
                               uint64_t sealer_id,
                               crypto::HashAlgorithm root_hash) {
  if (wal_horizon == 0) {
    return Status::InvalidArgument(
        "checkpoint horizon must cover at least WAL segment 1");
  }
  // Checkpoint observability (docs/OBSERVABILITY.md). Resolved here
  // because sealing is a one-shot static pass, like WAL recovery.
  observability::MetricsRegistry& metrics = observability::GlobalMetrics();
  observability::ScopedLatencyTimer timer(
      metrics.histogram("checkpoint.write.latency_us"));
  observability::TraceSpan span("checkpoint.write");

  const std::map<storage::ObjectId, ChainTail> tails = CollectChainTails(view);
  const std::vector<const ProvenanceRecord*> records =
      LiveRecordsInIndexOrder(view);
  CheckpointManifest manifest;
  manifest.wal_horizon = wal_horizon;
  manifest.sealer = sealer_id;
  manifest.root_hash = root_hash;
  manifest.live_records = records.size();
  manifest.chain_count = tails.size();

  std::unique_ptr<crypto::Hasher> hasher = crypto::CreateHasher(root_hash);
  hasher->Reset();

  // tmp + fsync + atomic rename + directory fsync (inside RenameFile):
  // a crash at any point leaves either no checkpoint or the complete
  // sealed one — never a torn file that recovery must judge. Frames
  // stream into the temp file in bounded chunks rather than being
  // materialized whole.
  const std::string final_path = CheckpointFileName(dir, wal_horizon);
  const std::string tmp_path = final_path + kTmpSuffix;
  PROVDB_ASSIGN_OR_RETURN(std::unique_ptr<storage::WritableFile> file,
                          env->NewWritableFile(tmp_path));
  Bytes chunk = BuildCheckpointHeader(wal_horizon);
  uint64_t file_bytes = 0;
  auto flush_chunk = [&]() -> Status {
    file_bytes += chunk.size();
    Status appended = file->Append(chunk);
    chunk.clear();
    return appended;
  };
  auto emit = [&](ByteView payload) -> Status {
    AbsorbFrame(hasher.get(), payload);
    AppendFrame(&chunk, payload);
    return chunk.size() >= kChunkBytes ? flush_chunk() : Status::OK();
  };
  PROVDB_RETURN_IF_ERROR(emit(EncodeManifest(manifest)));
  for (const ProvenanceRecord* record : records) {
    PROVDB_RETURN_IF_ERROR(emit(EncodeRecord(*record)));
  }
  PROVDB_RETURN_IF_ERROR(emit(EncodeChainTails(tails)));

  // The seal: sign the store-level root. The signature frame itself is
  // outside the root (it cannot cover itself); its integrity comes from
  // the frame CRC plus the fact that a swapped signature fails to
  // verify.
  crypto::Digest root = hasher->Finish();
  PROVDB_ASSIGN_OR_RETURN(Bytes signature, signer.Sign(root.view()));
  Bytes seal;
  AppendLengthPrefixed(&seal, signature);
  AppendFrame(&chunk, seal);
  PROVDB_RETURN_IF_ERROR(flush_chunk());
  PROVDB_RETURN_IF_ERROR(file->Sync());
  PROVDB_RETURN_IF_ERROR(file->Close());
  PROVDB_RETURN_IF_ERROR(env->RenameFile(tmp_path, final_path));

  metrics.counter("checkpoint.writes")->Increment();
  metrics.counter("checkpoint.write.records")->Add(manifest.live_records);
  metrics.counter("checkpoint.write.bytes")->Add(file_bytes);
  return Status::OK();
}

Result<LoadedCheckpoint> CheckpointReader::Load(
    storage::Env* env, const std::string& path,
    const crypto::SignatureVerifier& verifier) {
  observability::MetricsRegistry& metrics = observability::GlobalMetrics();
  observability::ScopedLatencyTimer timer(
      metrics.histogram("checkpoint.load.latency_us"));
  observability::TraceSpan span("checkpoint.load");

  PROVDB_ASSIGN_OR_RETURN(uint64_t file_size, env->FileSize(path));
  if (file_size < kCheckpointHeaderSize) {
    return Status::Corruption("checkpoint " + path + " shorter than header");
  }
  FrameStream frames(env, path, file_size);
  PROVDB_ASSIGN_OR_RETURN(ByteView header,
                          frames.Take(kCheckpointHeaderSize));
  // The magic is a public framing constant, not a secret; timing-safe
  // comparison is not required here.
  // lint:allow ct-memcmp
  if (std::memcmp(header.data(), kCheckpointMagic,
                  sizeof(kCheckpointMagic)) != 0 ||
      ReadFixed32(header, 16) != Crc32(header.subview(0, 16))) {
    return Status::Corruption("bad checkpoint header in " + path);
  }
  const uint64_t header_horizon = ReadFixed64(header, 8);

  // One pass over the frames, in file order: each frame's CRC is checked,
  // its payload absorbed into the root digest, and — for a record frame —
  // decoded into the store. Frame roles come from the manifest's record
  // count: manifest, that many records, chain tails, seal, end of file.
  // Strict framing: checkpoints are written atomically, so unlike a WAL
  // tail there is no legal way for one to end mid-frame — every
  // malformation is corruption, never a salvageable tear — including a
  // file that ends before the manifest's frame count is reached.
  auto next_frame = [&]() -> Result<ByteView> {
    if (frames.remaining() == 0) {
      return Status::Corruption("checkpoint " + path +
                                " ends before its manifest's last frame");
    }
    return frames.Next();
  };
  PROVDB_ASSIGN_OR_RETURN(ByteView manifest_payload, next_frame());
  PROVDB_ASSIGN_OR_RETURN(CheckpointManifest manifest,
                          DecodeManifest(manifest_payload));
  if (manifest.wal_horizon != header_horizon) {
    return Status::Corruption(
        "checkpoint header horizon disagrees with its manifest in " + path);
  }
  std::unique_ptr<crypto::Hasher> hasher =
      crypto::CreateHasher(manifest.root_hash);
  hasher->Reset();
  AbsorbFrame(hasher.get(), manifest_payload);

  // A record that fails to decode or to join its chain is held back, not
  // reported: a record forged under a valid CRC must meet the seal's
  // refusal (kVerificationFailed), whichever of its bytes changed, so no
  // decode error may be reported before the seal is checked. Records
  // past the first failure are still hashed but no longer decoded.
  LoadedCheckpoint loaded;
  loaded.manifest = manifest;
  Status record_error;
  for (uint64_t i = 0; i < manifest.live_records; ++i) {
    PROVDB_ASSIGN_OR_RETURN(ByteView payload, next_frame());
    AbsorbFrame(hasher.get(), payload);
    if (record_error.ok()) {
      Result<ProvenanceRecord> rec = DecodeRecord(payload);
      record_error =
          rec.ok() ? loaded.store.AddRecord(std::move(rec).value()).status()
                   : rec.status();
    }
  }
  PROVDB_ASSIGN_OR_RETURN(ByteView tails_payload, next_frame());
  AbsorbFrame(hasher.get(), tails_payload);
  const Bytes sealed_tails = tails_payload.ToBytes();
  PROVDB_ASSIGN_OR_RETURN(ByteView seal_payload, next_frame());
  if (frames.remaining() != 0) {
    return Status::Corruption("checkpoint " + path +
                              " has more frames than its manifest lists");
  }

  // The seal: the signature over the root of every preceding frame. This
  // is the same refusal a tampered record meets — kVerificationFailed —
  // and it is checked before the store leaves this function, so a file
  // that fails it is never partially loaded.
  crypto::Digest root = hasher->Finish();
  VarintReader seal_reader(seal_payload);
  PROVDB_ASSIGN_OR_RETURN(Bytes signature, seal_reader.ReadLengthPrefixed());
  if (!seal_reader.done()) {
    return Status::Corruption("trailing bytes after checkpoint seal in " +
                              path);
  }
  Status sealed = verifier.Verify(root.view(), signature);
  if (!sealed.ok()) {
    return Status::VerificationFailed(
        "checkpoint seal of " + path +
        " does not verify: " + sealed.ToString());
  }
  PROVDB_RETURN_IF_ERROR(record_error);

  // Cross-check the rebuilt chain tails against the sealed ones — a
  // defense-in-depth consistency check (the signature already covers
  // both).
  const std::map<storage::ObjectId, ChainTail> rebuilt =
      CollectChainTails(loaded.store.CurrentView());
  if (rebuilt.size() != manifest.chain_count) {
    return Status::Corruption("checkpoint " + path + " chain count " +
                              std::to_string(rebuilt.size()) +
                              " does not match its manifest");
  }
  VarintReader tails_reader(sealed_tails);
  for (const auto& [object, tail] : rebuilt) {
    PROVDB_ASSIGN_OR_RETURN(uint64_t sealed_object,
                            tails_reader.ReadVarint64());
    PROVDB_ASSIGN_OR_RETURN(uint64_t sealed_seq, tails_reader.ReadVarint64());
    PROVDB_ASSIGN_OR_RETURN(Bytes sealed_checksum,
                            tails_reader.ReadLengthPrefixed());
    if (sealed_object != object || sealed_seq != tail.seq_id ||
        !ConstantTimeEqual(sealed_checksum, tail.checksum)) {
      return Status::Corruption(
          "checkpoint " + path + " chain tail for object " +
          std::to_string(object) + " disagrees with its sealed records");
    }
  }
  if (!tails_reader.done()) {
    return Status::Corruption("trailing bytes after checkpoint chain tails in " +
                              path);
  }

  metrics.counter("checkpoint.loads")->Increment();
  metrics.counter("checkpoint.load.records")->Add(manifest.live_records);
  return loaded;
}

Result<uint64_t> LatestCheckpointHorizon(storage::Env* env,
                                         const std::string& dir) {
  PROVDB_ASSIGN_OR_RETURN(std::vector<std::string> names, env->ListDir(dir));
  uint64_t latest = 0;
  for (const std::string& name : names) {
    latest = std::max(latest, ParseCheckpointName(name));
  }
  if (latest == 0) {
    return Status::NotFound("no checkpoint in " + dir);
  }
  return latest;
}

Status RemoveStaleCheckpoints(storage::Env* env, const std::string& dir,
                              uint64_t keep_horizon) {
  observability::Counter* removed =
      observability::GlobalMetrics().counter("checkpoint.stale_removed");
  PROVDB_ASSIGN_OR_RETURN(std::vector<std::string> names, env->ListDir(dir));
  bool removed_any = false;
  const size_t tmp_len = sizeof(kTmpSuffix) - 1;
  for (const std::string& name : names) {
    const uint64_t horizon = ParseCheckpointName(name);
    const bool stale_checkpoint = horizon > 0 && horizon < keep_horizon;
    // A lingering .tmp is always abandoned: the writer builds every
    // snapshot in a fresh temp file and renames it away on success, and
    // this cleanup only runs between writes.
    const bool abandoned_tmp =
        name.size() > tmp_len &&
        name.compare(name.size() - tmp_len, tmp_len, kTmpSuffix) == 0 &&
        ParseCheckpointName(name.substr(0, name.size() - tmp_len)) > 0;
    if (!stale_checkpoint && !abandoned_tmp) {
      continue;
    }
    PROVDB_RETURN_IF_ERROR(env->RemoveFile(dir + "/" + name));
    removed->Increment();
    removed_any = true;
  }
  if (removed_any) {
    PROVDB_RETURN_IF_ERROR(env->SyncDir(dir));
  }
  return Status::OK();
}

}  // namespace provdb::provenance
