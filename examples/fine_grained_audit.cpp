// Fine-grained audit: combines provenance verification with Merkle
// inclusion proofs and lineage queries.
//
// Scenario: a data owner maintains a tracked table. An auditor verifies
// the table's provenance once, which gives them a *trusted root digest*
// (the output state of the newest signed record). From then on, the owner
// can answer point queries — "what is row 2, column 1?" — with the value
// plus an inclusion proof against that digest: the auditor checks single
// cells without re-downloading or re-hashing the whole table, and without
// trusting the owner.

#include <cstdio>

#include "common/rng.h"
#include "crypto/pki.h"
#include "example_util.h"
#include "provenance/merkle_proof.h"
#include "provenance/query.h"
#include "provenance/tracked_database.h"
#include "provenance/verifier.h"

using namespace provdb;

int main() {
  provdb::examples::InitObservability();
  std::printf("fine-grained audit — inclusion proofs over verified "
              "provenance\n");
  std::printf("============================================================"
              "\n\n");

  Rng rng(31337);
  auto ca = crypto::CertificateAuthority::Create(1024, &rng).value();
  auto owner = crypto::Participant::Create(1, "owner", 1024, &rng, ca).value();
  auto curator =
      crypto::Participant::Create(2, "curator", 1024, &rng, ca).value();
  crypto::ParticipantRegistry registry(ca.public_key());
  examples::OrDie(registry.Register(owner.certificate()));
  examples::OrDie(registry.Register(curator.certificate()));

  // The owner builds a tracked 4x3 table.
  provenance::TrackedDatabase db;
  auto table = db.Insert(owner, storage::Value::String("measurements"))
                   .value();
  std::vector<storage::ObjectId> rows;
  for (int r = 0; r < 4; ++r) {
    auto row = db.Insert(owner, storage::Value::Int(r), table).value();
    for (int c = 0; c < 3; ++c) {
      db.Insert(owner, storage::Value::Int(100 * r + c), row).value();
    }
    rows.push_back(row);
  }
  // The curator corrects one reading.
  storage::ObjectId target_cell =
      db.tree().GetNode(rows[2]).value()->children[1];
  examples::OrDie(db.Update(curator, target_cell, storage::Value::Int(999)));

  // --- One-time verification gives the auditor a trusted digest --------
  auto bundle = db.ExportForRecipient(table).value();
  provenance::ProvenanceVerifier verifier(&registry);
  auto report = verifier.Verify(bundle);
  std::printf("auditor verified the table's provenance: %s\n",
              report.ToString().c_str());
  if (!report.ok()) return 1;

  // The trusted digest is the output state of the newest verified record.
  crypto::Digest trusted_root;
  provenance::SeqId best = 0;
  for (const auto& rec : bundle.records) {
    if (rec.output.object_id == table && rec.seq_id >= best) {
      best = rec.seq_id;
      trusted_root = rec.output.state_hash;
    }
  }
  std::printf("trusted table digest: %s...\n\n",
              trusted_root.ToHex().substr(0, 16).c_str());

  // --- Point queries with inclusion proofs ------------------------------
  auto proof = provenance::BuildInclusionProof(
                   db.tree(), target_cell, table, crypto::HashAlgorithm::kSha1)
                   .value();
  Bytes wire = proof.Serialize();
  std::printf("owner answers 'row 2, col 1?' with value 999 + a %zu-byte "
              "proof (%zu sibling hashes)\n",
              wire.size(), proof.SiblingCount());

  Status check = provenance::VerifyLeafInclusion(
      proof, storage::Value::Int(999), trusted_root,
      crypto::HashAlgorithm::kSha1);
  std::printf("auditor checks the proof:                 %s\n",
              check.ok() ? "ACCEPTED" : "REJECTED");

  Status lie = provenance::VerifyLeafInclusion(
      proof, storage::Value::Int(123), trusted_root,
      crypto::HashAlgorithm::kSha1);
  std::printf("owner lies about the value (123):         %s\n\n",
              lie.ok() ? "ACCEPTED (!!)" : "REJECTED");

  // --- Lineage queries over the verified history -------------------------
  // A quiescent store is read through its one-view snapshot.
  const provenance::StoreSnapshot history = db.provenance().QuiescentSnapshot();
  auto summary = provenance::SummarizeLineage(history, table).value();
  std::printf("table lineage: %s\n", summary.ToString().c_str());
  bool curator_touched =
      provenance::ParticipantTouched(history, table, curator.id())
          .value();
  std::printf("did the curator ever touch this table? %s\n",
              curator_touched ? "yes" : "no");
  auto cell_history =
      provenance::HistorySlice(history, target_cell, 0, 100).value();
  std::printf("the corrected cell has %zu records (insert by owner, update "
              "by curator)\n",
              cell_history.size());

  return check.ok() && !lie.ok() && curator_touched ? 0 : 1;
}
