#include "provenance/verifier.h"

#include <algorithm>
#include <future>
#include <map>
#include <set>
#include <utility>

#include "observability/trace.h"

namespace provdb::provenance {

std::string_view IssueKindName(IssueKind kind) {
  switch (kind) {
    case IssueKind::kDataHashMismatch:
      return "DataHashMismatch";
    case IssueKind::kSubjectMismatch:
      return "SubjectMismatch";
    case IssueKind::kMissingRecords:
      return "MissingRecords";
    case IssueKind::kChainLinkBroken:
      return "ChainLinkBroken";
    case IssueKind::kSeqViolation:
      return "SeqViolation";
    case IssueKind::kBadSignature:
      return "BadSignature";
    case IssueKind::kUnknownParticipant:
      return "UnknownParticipant";
    case IssueKind::kMalformedRecord:
      return "MalformedRecord";
    case IssueKind::kAggregateInputUnresolved:
      return "AggregateInputUnresolved";
    case IssueKind::kSnapshotMalformed:
      return "SnapshotMalformed";
  }
  return "Unknown";
}

std::string VerificationIssue::ToString() const {
  return std::string(IssueKindName(kind)) + " (object " +
         std::to_string(object) + ", seq " + std::to_string(seq_id) + "): " +
         message;
}

bool VerificationReport::HasIssue(IssueKind kind) const {
  for (const VerificationIssue& issue : issues) {
    if (issue.kind == kind) {
      return true;
    }
  }
  return false;
}

std::string VerificationReport::ToString() const {
  if (ok()) {
    return "OK (" + std::to_string(records_checked) + " records, " +
           std::to_string(signatures_verified) + " signatures verified)";
  }
  std::string out =
      "FAILED with " + std::to_string(issues.size()) + " issue(s):";
  for (const VerificationIssue& issue : issues) {
    out += "\n  - " + issue.ToString();
  }
  return out;
}

ProvenanceVerifier::ProvenanceVerifier(
    const crypto::ParticipantRegistry* registry, crypto::HashAlgorithm alg,
    ParallelismConfig parallelism)
    : registry_(registry),
      engine_(alg),
      runs_(observability::GlobalMetrics().counter("verify.runs")),
      run_latency_(
          observability::GlobalMetrics().histogram("verify.run.latency_us")) {
  if (!parallelism.sequential()) {
    pool_ = std::make_unique<ThreadPool>(
        static_cast<size_t>(parallelism.num_threads));
  }
}

VerificationReport ProvenanceVerifier::Verify(
    const RecipientBundle& bundle) const {
  observability::ScopedLatencyTimer timer(run_latency_);
  observability::TraceSpan run_span("verify.run");
  runs_->Increment();
  VerificationReport report;
  auto add_issue = [&](IssueKind kind, storage::ObjectId object, SeqId seq,
                       std::string message) {
    report.issues.push_back(
        VerificationIssue{kind, object, seq, std::move(message)});
  };

  // Group the bundle's records into per-object chains, ordered by seqID.
  std::map<storage::ObjectId, std::vector<const ProvenanceRecord*>> chains;
  for (const ProvenanceRecord& rec : bundle.records) {
    chains[rec.output.object_id].push_back(&rec);
  }
  for (auto& [id, chain] : chains) {
    std::stable_sort(chain.begin(), chain.end(),
                     [](const ProvenanceRecord* a, const ProvenanceRecord* b) {
                       return a->seq_id < b->seq_id;
                     });
  }

  // Check 1 (§3): the shipped data matches the most recent record.
  if (bundle.data.root() != bundle.subject) {
    add_issue(IssueKind::kSubjectMismatch, bundle.subject, 0,
              "data snapshot root " + std::to_string(bundle.data.root()) +
                  " is not the bundle subject");
  }
  auto subject_chain = chains.find(bundle.subject);
  if (subject_chain == chains.end() || subject_chain->second.empty()) {
    add_issue(IssueKind::kMissingRecords, bundle.subject, 0,
              "no provenance records for the subject object");
  } else {
    const ProvenanceRecord* latest = subject_chain->second.back();
    Result<crypto::Digest> data_hash =
        bundle.data.Hash(engine_.algorithm());
    if (!data_hash.ok()) {
      add_issue(IssueKind::kSnapshotMalformed, bundle.subject, 0,
                data_hash.status().message());
    } else if (data_hash.value() != latest->output.state_hash) {
      add_issue(IssueKind::kDataHashMismatch, bundle.subject, latest->seq_id,
                "data hash does not match the most recent provenance record "
                "(undocumented modification, or provenance re-attribution)");
    }
  }

  // Check 2 (§3): recompute every checksum, earliest first.
  VerifyRecordChains(*registry_, engine_, chains, &report, pool_.get());
  return report;
}

VerificationReport ProvenanceVerifier::VerifyStore(
    const StoreSnapshot& snapshot) const {
  observability::ScopedLatencyTimer timer(run_latency_);
  observability::TraceSpan run_span("verify.run");
  runs_->Increment();
  VerificationReport report;
  // Snapshot chains are already per-object in seqID order (AddRecord
  // enforces monotonicity); no grouping or sorting pass is needed.
  VerifyRecordChains(*registry_, engine_, snapshot.AllChains(), &report,
                     pool_.get());
  return report;
}

namespace {

/// Verification result of one per-object chain. Chains are self-contained
/// (§3.2): verifying one reads only its own records, the read-only `chains`
/// map (for aggregate-input resolution), and the run's read-only
/// participant verifiers — so these results can be produced on any thread
/// and merged in object-id order.
struct ChainCheckResult {
  std::vector<VerificationIssue> issues;
  uint64_t records_checked = 0;
  uint64_t signatures_verified = 0;
};

/// Per-chain instruments, shared by ProvenanceVerifier and StoreAuditor
/// (both funnel through VerifyRecordChains). Resolved once; recording is
/// lock-free, so pool workers verifying chains concurrently never contend.
struct ChainMetrics {
  observability::Counter* chains;
  observability::Counter* records;
  observability::Counter* signatures_ok;
  observability::Counter* signatures_bad;
  observability::Counter* issues;
  observability::Histogram* chain_latency;
};

const ChainMetrics& GetChainMetrics() {
  static const ChainMetrics* metrics = new ChainMetrics{
      observability::GlobalMetrics().counter("verify.chains"),
      observability::GlobalMetrics().counter("verify.records"),
      observability::GlobalMetrics().counter("verify.signatures.ok"),
      observability::GlobalMetrics().counter("verify.signatures.bad"),
      observability::GlobalMetrics().counter("verify.issues"),
      observability::GlobalMetrics().histogram("verify.chain.latency_us"),
  };
  return *metrics;
}

using ParticipantVerifiers =
    std::map<crypto::ParticipantId, crypto::RsaSignatureVerifier>;

/// One signature verifier — and thus one Montgomery context — per
/// registered participant whose records `chains` hold. Context derivation
/// is the expensive part of setting a verifier up
/// (crypto.bignum.montgomery_contexts counts them), and a run's records
/// come from a handful of participants, so VerifyRecordChains builds
/// this once, before any fan-out, and every chain only reads it. A
/// participant without a CA-endorsed certificate gets no entry; its
/// records report kUnknownParticipant.
ParticipantVerifiers BuildParticipantVerifiers(
    const crypto::ParticipantRegistry& registry, crypto::HashAlgorithm alg,
    const std::map<storage::ObjectId, std::vector<const ProvenanceRecord*>>&
        chains) {
  std::set<crypto::ParticipantId> participants;
  for (const auto& [object, chain] : chains) {
    for (const ProvenanceRecord* rec : chain) {
      participants.insert(rec->participant);
    }
  }
  ParticipantVerifiers verifiers;
  for (crypto::ParticipantId id : participants) {
    Result<crypto::RsaPublicKey> key = registry.LookupKey(id);
    if (key.ok()) {
      verifiers.emplace(
          id, crypto::RsaSignatureVerifier(std::move(key.value()), alg));
    }
  }
  return verifiers;
}

ChainCheckResult VerifyOneChain(
    const ParticipantVerifiers& verifiers, const ChecksumEngine& engine,
    const std::map<storage::ObjectId, std::vector<const ProvenanceRecord*>>&
        chains,
    storage::ObjectId object, const std::vector<const ProvenanceRecord*>& chain) {
  const ChainMetrics& metrics = GetChainMetrics();
  observability::ScopedLatencyTimer timer(metrics.chain_latency);
  ChainCheckResult report;
  auto add_issue = [&](IssueKind kind, storage::ObjectId obj, SeqId seq,
                       std::string message) {
    report.issues.push_back(
        VerificationIssue{kind, obj, seq, std::move(message)});
  };
  const ChecksumEngine& engine_ = engine;  // keep the original loop body verbatim

  {
    const ProvenanceRecord* prev = nullptr;
    for (const ProvenanceRecord* rec : chain) {
      ++report.records_checked;

      // -- Structural validity -------------------------------------
      bool malformed = false;
      if (rec->output.object_id != object) {
        // The chain key is the object the store committed the record
        // under; a record claiming a different output is re-attribution
        // (R5). Honest groupings key chains by output id, so this can
        // only fire when the stored record bytes were tampered after
        // commit (e.g. under a pinned snapshot's chain index).
        add_issue(IssueKind::kSubjectMismatch, object, rec->seq_id,
                  "record claims output object " +
                      std::to_string(rec->output.object_id) +
                      " but is filed in the chain of object " +
                      std::to_string(object) + " (re-attribution, R5)");
        malformed = true;
      }
      if (rec->op == OperationType::kInsert && !rec->inputs.empty()) {
        add_issue(IssueKind::kMalformedRecord, object, rec->seq_id,
                  "insert record must have no inputs");
        malformed = true;
      }
      if (rec->op == OperationType::kUpdate &&
          (rec->inputs.size() != 1 || rec->inputs[0].object_id != object)) {
        add_issue(IssueKind::kMalformedRecord, object, rec->seq_id,
                  "update record must have exactly the object itself as "
                  "input");
        malformed = true;
      }
      if (rec->op == OperationType::kAggregate) {
        if (rec->inputs.empty()) {
          add_issue(IssueKind::kMalformedRecord, object, rec->seq_id,
                    "aggregate record must have inputs");
          malformed = true;
        }
        for (size_t i = 1; i < rec->inputs.size(); ++i) {
          if (rec->inputs[i - 1].object_id >= rec->inputs[i].object_id) {
            add_issue(IssueKind::kMalformedRecord, object, rec->seq_id,
                      "aggregate inputs must follow the global total order");
            malformed = true;
            break;
          }
        }
      }
      if (malformed) {
        prev = rec;
        continue;
      }

      // -- seqID discipline (§2.1) ----------------------------------
      if (prev == nullptr) {
        if (rec->op == OperationType::kInsert && rec->seq_id != 0) {
          add_issue(IssueKind::kSeqViolation, object, rec->seq_id,
                    "insert must start its chain at seqID 0");
        }
      } else {
        if (rec->op != OperationType::kUpdate) {
          add_issue(IssueKind::kSeqViolation, object, rec->seq_id,
                    "only updates may continue an existing chain");
        } else if (rec->seq_id != prev->seq_id + 1) {
          add_issue(IssueKind::kSeqViolation, object, rec->seq_id,
                    "update seqID must increment by one (previous was " +
                        std::to_string(prev->seq_id) + ")");
        }
      }

      // -- Chain linkage (R2/R3/R6/R7) -------------------------------
      if (rec->op == OperationType::kUpdate && prev != nullptr &&
          !(rec->inputs[0].state_hash == prev->output.state_hash)) {
        add_issue(IssueKind::kChainLinkBroken, object, rec->seq_id,
                  "update input state does not match the previous record's "
                  "output state");
      }

      // -- Checksum payload reconstruction ---------------------------
      Bytes payload;
      if (rec->op == OperationType::kInsert) {
        payload = engine_.BuildInsertPayload(rec->output.state_hash);
      } else if (rec->op == OperationType::kUpdate) {
        Bytes prev_checksum = prev != nullptr ? prev->checksum : Bytes{};
        payload = engine_.BuildUpdatePayload(rec->inputs[0].state_hash,
                                             rec->output.state_hash,
                                             prev_checksum);
      } else {
        // Aggregate: resolve each input to the record that produced the
        // exact recorded state; its checksum is the signed "previous".
        std::vector<crypto::Digest> input_hashes;
        std::vector<Bytes> prev_checksums;
        SeqId max_input_seq = 0;
        for (const ObjectState& input : rec->inputs) {
          input_hashes.push_back(input.state_hash);
          Bytes resolved;
          auto in_chain = chains.find(input.object_id);
          if (in_chain != chains.end()) {
            bool found = false;
            for (size_t i = in_chain->second.size(); i-- > 0;) {
              const ProvenanceRecord* cand = in_chain->second[i];
              if (cand->seq_id < rec->seq_id &&
                  cand->output.state_hash == input.state_hash) {
                resolved = cand->checksum;
                if (cand->seq_id > max_input_seq) {
                  max_input_seq = cand->seq_id;
                }
                found = true;
                break;
              }
            }
            if (!found) {
              add_issue(IssueKind::kAggregateInputUnresolved, object,
                        rec->seq_id,
                        "aggregation input " +
                            std::to_string(input.object_id) +
                            " has records in the bundle but none matching "
                            "the recorded input state");
            }
          }
          prev_checksums.push_back(std::move(resolved));
        }
        if (rec->seq_id != max_input_seq + 1) {
          add_issue(IssueKind::kSeqViolation, object, rec->seq_id,
                    "aggregate seqID must be 1 + max input seqID (" +
                        std::to_string(max_input_seq) + ")");
        }
        payload = engine_.BuildAggregatePayload(
            input_hashes, rec->output.state_hash, prev_checksums);
      }

      // -- Signature (R1, R8) ----------------------------------------
      auto verifier = verifiers.find(rec->participant);
      if (verifier == verifiers.end()) {
        add_issue(IssueKind::kUnknownParticipant, object, rec->seq_id,
                  "participant " + std::to_string(rec->participant) +
                      " has no CA-endorsed certificate");
      } else {
        Status sig = verifier->second.Verify(payload, rec->checksum);
        if (!sig.ok()) {
          metrics.signatures_bad->Increment();
          add_issue(IssueKind::kBadSignature, object, rec->seq_id,
                    "checksum signature does not verify: " + sig.message());
        } else {
          ++report.signatures_verified;
        }
      }

      prev = rec;
    }
  }
  metrics.chains->Increment();
  metrics.records->Add(report.records_checked);
  metrics.signatures_ok->Add(report.signatures_verified);
  metrics.issues->Add(report.issues.size());
  return report;
}

}  // namespace

void VerifyRecordChains(
    const crypto::ParticipantRegistry& registry, const ChecksumEngine& engine,
    const std::map<storage::ObjectId, std::vector<const ProvenanceRecord*>>&
        chains,
    VerificationReport* report_out, ThreadPool* pool) {
  VerificationReport& report = *report_out;
  auto merge = [&report](ChainCheckResult result) {
    for (VerificationIssue& issue : result.issues) {
      report.issues.push_back(std::move(issue));
    }
    report.records_checked += result.records_checked;
    report.signatures_verified += result.signatures_verified;
  };

  const ParticipantVerifiers verifiers =
      BuildParticipantVerifiers(registry, engine.algorithm(), chains);

  if (pool == nullptr || pool->size() <= 1 || chains.size() <= 1) {
    for (const auto& [object, chain] : chains) {
      merge(VerifyOneChain(verifiers, engine, chains, object, chain));
    }
    return;
  }

  // One task per chain; futures are collected in map (= ascending object
  // id) order, so the merged report is byte-identical to the sequential
  // one regardless of task completion order.
  std::vector<std::future<ChainCheckResult>> results;
  results.reserve(chains.size());
  for (auto it = chains.begin(); it != chains.end(); ++it) {
    const storage::ObjectId object = it->first;
    const std::vector<const ProvenanceRecord*>* chain = &it->second;
    results.push_back(pool->Submit([&verifiers, &engine, &chains, object,
                                    chain] {
      return VerifyOneChain(verifiers, engine, chains, object, *chain);
    }));
  }
  for (std::future<ChainCheckResult>& result : results) {
    merge(result.get());
  }
}

}  // namespace provdb::provenance
