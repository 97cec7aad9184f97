#ifndef PROVDB_PROVENANCE_CHECKPOINT_H_
#define PROVDB_PROVENANCE_CHECKPOINT_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "crypto/hash.h"
#include "crypto/signer.h"
#include "provenance/provenance_store.h"
#include "storage/env.h"

namespace provdb::provenance {

/// Signed checkpoints: sealed snapshots of a ProvenanceStore that bound
/// recovery to "checkpoint + WAL suffix" and let segments wholly behind
/// the seal be garbage-collected (DESIGN.md §13).
///
/// A checkpoint file `checkpoint-NNNNNN.pvck` (NNNNNN = the WAL segment
/// horizon it covers) is written tmp+fsync+rename, so it exists either
/// completely or not at all. Its layout mirrors the WAL segment format:
///
///   +--------+-------------+---------------------+
///   | magic  | wal horizon | crc32(magic||horizon)|  20-byte header
///   +--------+-------------+---------------------+
///   | varint(len) | payload | crc32(payload)     |  frame, repeated
///   +-------------+---------+--------------------+
///
/// Frame sequence: one manifest, one EncodeRecord payload per live
/// record (store index order), one chain-tails frame (per live chain,
/// ascending object id: the tail seqID and tail checksum), and finally
/// the seal — a signature over the store-level root digest, which is the
/// running hash of every preceding frame payload. Tampering with any
/// byte of the snapshot therefore either breaks a CRC (kCorruption) or
/// changes the root so the seal no longer verifies (kVerificationFailed)
/// — a forged checkpoint is refused at load exactly like a forged
/// record, which is what lets the tamper-evidence guarantee survive log
/// truncation.
inline constexpr char kCheckpointMagic[8] = {'P', 'V', 'D', 'B',
                                             'C', 'K', 'P', '1'};
inline constexpr size_t kCheckpointHeaderSize = 8 + 8 + 4;
inline constexpr uint8_t kCheckpointVersion = 1;

/// The manifest frame, parsed.
struct CheckpointManifest {
  /// Last WAL segment whose records the snapshot covers. Recovery
  /// replays only segments past this index; GC may delete the rest.
  uint64_t wal_horizon = 0;
  /// Participant id whose key sealed the checkpoint.
  uint64_t sealer = 0;
  /// Hash algorithm of the store-level root digest.
  crypto::HashAlgorithm root_hash = crypto::HashAlgorithm::kSha1;
  uint64_t live_records = 0;
  uint64_t chain_count = 0;
};

/// Full path of the checkpoint sealed at `horizon` under `dir`.
std::string CheckpointFileName(const std::string& dir, uint64_t horizon);

/// Serializes and seals checkpoints.
class CheckpointWriter {
 public:
  /// Writes the sealed snapshot of `view` covering WAL segments
  /// 1..`wal_horizon` into `dir`, signing the root digest with `signer`
  /// (recorded as participant `sealer_id`). Durable on return: the file
  /// is fsynced before the atomic rename and the directory after it.
  ///
  /// The view must stay protected for the call: either a published
  /// version under an epoch pin (the ingest pipeline's background seals,
  /// which run while the shard keeps ingesting) or a quiescent store's
  /// ProvenanceStore::CurrentView().
  static Status Write(storage::Env* env, const std::string& dir,
                      const StoreReadView& view, uint64_t wal_horizon,
                      const crypto::Signer& signer, uint64_t sealer_id,
                      crypto::HashAlgorithm root_hash =
                          crypto::HashAlgorithm::kSha1);
};

/// A verified checkpoint: the rebuilt store plus its manifest.
struct LoadedCheckpoint {
  ProvenanceStore store;
  CheckpointManifest manifest;
};

/// Loads and verifies sealed checkpoints.
class CheckpointReader {
 public:
  /// Parses, CRC-checks, and signature-verifies the checkpoint at
  /// `path`, then rebuilds the store and cross-checks it against the
  /// sealed chain tails. Framing damage is kCorruption; a seal that does
  /// not verify under `verifier` is kVerificationFailed — the checkpoint
  /// is refused, never partially loaded.
  static Result<LoadedCheckpoint> Load(storage::Env* env,
                                       const std::string& path,
                                       const crypto::SignatureVerifier&
                                           verifier);
};

/// Horizon of the newest checkpoint in `dir`; kNotFound when none
/// exists. In-flight `.tmp` files (a crash mid-write) are ignored.
Result<uint64_t> LatestCheckpointHorizon(storage::Env* env,
                                         const std::string& dir);

/// Deletes checkpoints older than `keep_horizon` and any abandoned
/// `.tmp` leftovers. Idempotent, so a crash mid-removal just resumes on
/// the next call.
Status RemoveStaleCheckpoints(storage::Env* env, const std::string& dir,
                              uint64_t keep_horizon);

}  // namespace provdb::provenance

#endif  // PROVDB_PROVENANCE_CHECKPOINT_H_
