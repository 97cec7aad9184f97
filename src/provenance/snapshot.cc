#include "provenance/snapshot.h"

#include <algorithm>
#include <set>
#include <string>

namespace provdb::provenance {

const ChainNode* StoreReadView::head_for(storage::ObjectId id) const {
  const ChainIndex::Leaf* leaf = ChainIndex::Find(root_, id);
  return leaf != nullptr ? leaf->head : nullptr;
}

namespace {

/// Reverses a cons list into seqID (ascending) order.
std::vector<const ProvenanceRecord*> MaterializeChain(const ChainNode* head) {
  if (head == nullptr) {
    return {};
  }
  std::vector<const ProvenanceRecord*> out(
      static_cast<size_t>(head->length));
  size_t pos = out.size();
  for (const ChainNode* cell = head; cell != nullptr; cell = cell->prev) {
    out[--pos] = cell->record;
  }
  return out;
}

}  // namespace

std::vector<const ProvenanceRecord*> StoreReadView::ChainRecords(
    storage::ObjectId id) const {
  return MaterializeChain(head_for(id));
}

void StoreReadView::AppendChains(
    std::map<storage::ObjectId, std::vector<const ProvenanceRecord*>>* out)
    const {
  ForEachChain([out](storage::ObjectId id, const ChainNode* head) {
    (*out)[id] = MaterializeChain(head);
  });
}

uint64_t StoreSnapshot::record_count() const {
  uint64_t total = 0;
  for (const StoreReadView& view : views_) {
    total += view.record_count();
  }
  return total;
}

uint64_t StoreSnapshot::live_record_count() const {
  uint64_t total = 0;
  for (const StoreReadView& view : views_) {
    total += view.live_record_count();
  }
  return total;
}

std::map<storage::ObjectId, std::vector<const ProvenanceRecord*>>
StoreSnapshot::AllChains() const {
  std::map<storage::ObjectId, std::vector<const ProvenanceRecord*>> chains;
  for (const StoreReadView& view : views_) {
    view.AppendChains(&chains);
  }
  return chains;
}

std::vector<const ProvenanceRecord*> StoreSnapshot::ChainRecords(
    storage::ObjectId id) const {
  if (views_.empty()) {
    return {};
  }
  return view_for(id).ChainRecords(id);
}

namespace {

/// Work item of the DAG closure: include an object's chain up to and
/// including `end_pos`.
struct Prefix {
  storage::ObjectId object;
  size_t end_pos;
};

/// Reverses a cons list into seqID (ascending) order of cells.
std::vector<const ChainNode*> ChainCells(const ChainNode* head) {
  if (head == nullptr) {
    return {};
  }
  std::vector<const ChainNode*> out(static_cast<size_t>(head->length));
  size_t pos = out.size();
  for (const ChainNode* cell = head; cell != nullptr; cell = cell->prev) {
    out[--pos] = cell;
  }
  return out;
}

}  // namespace

Result<std::vector<const ChainNode*>> StoreSnapshot::ClosureCells(
    storage::ObjectId subject,
    const std::vector<storage::ObjectId>& descendants) const {
  std::map<storage::ObjectId, std::vector<const ChainNode*>> cache;
  auto chain_of = [&](storage::ObjectId id)
      -> const std::vector<const ChainNode*>& {
    auto it = cache.find(id);
    if (it == cache.end()) {
      const ChainNode* head =
          views_.empty() ? nullptr : view_for(id).head_for(id);
      it = cache.emplace(id, ChainCells(head)).first;
    }
    return it->second;
  };

  const size_t subject_length = chain_of(subject).size();
  if (subject_length == 0) {
    return Status::NotFound("no provenance records for object " +
                            std::to_string(subject));
  }
  std::vector<Prefix> work;
  work.push_back({subject, subject_length - 1});
  for (storage::ObjectId descendant : descendants) {
    const size_t length = chain_of(descendant).size();
    if (length > 0) {
      work.push_back({descendant, length - 1});
    }
  }

  std::set<const ChainNode*> included;
  while (!work.empty()) {
    Prefix prefix = work.back();
    work.pop_back();
    const std::vector<const ChainNode*>& chain = chain_of(prefix.object);
    for (size_t pos = 0; pos <= prefix.end_pos && pos < chain.size(); ++pos) {
      if (!included.insert(chain[pos]).second) {
        continue;  // already included (shared history via the DAG)
      }
      const ProvenanceRecord* rec = chain[pos]->record;
      if (rec->op != OperationType::kAggregate) {
        continue;
      }
      // Follow each aggregation input back to the record that produced
      // the exact input state, then include that input's chain up to
      // there. Untracked inputs (bootstrap data) have no chain.
      for (const ObjectState& input : rec->inputs) {
        const std::vector<const ChainNode*>& input_chain =
            chain_of(input.object_id);
        // Scan from the end: the matching record is the latest one whose
        // output state equals the recorded input state.
        for (size_t pos2 = input_chain.size(); pos2-- > 0;) {
          const ProvenanceRecord* cand = input_chain[pos2]->record;
          if (cand->output.state_hash == input.state_hash &&
              cand->seq_id < rec->seq_id) {
            work.push_back({input.object_id, pos2});
            break;
          }
        }
      }
    }
  }
  return std::vector<const ChainNode*>(included.begin(), included.end());
}

Result<std::vector<ProvenanceRecord>> StoreSnapshot::ExtractProvenance(
    storage::ObjectId subject) const {
  return ExtractProvenanceDeep(subject, {});
}

Result<std::vector<ProvenanceRecord>> StoreSnapshot::ExtractProvenanceDeep(
    storage::ObjectId subject,
    const std::vector<storage::ObjectId>& descendants) const {
  PROVDB_ASSIGN_OR_RETURN(std::vector<const ChainNode*> cells,
                          ClosureCells(subject, descendants));
  // Ascending (object id, seqID): the canonical cross-shard linear
  // extension of the seqID partial order.
  std::sort(cells.begin(), cells.end(),
            [](const ChainNode* a, const ChainNode* b) {
              if (a->record->output.object_id != b->record->output.object_id) {
                return a->record->output.object_id <
                       b->record->output.object_id;
              }
              return a->record->seq_id < b->record->seq_id;
            });
  std::vector<ProvenanceRecord> out;
  out.reserve(cells.size());
  for (const ChainNode* cell : cells) {
    out.push_back(*cell->record);
  }
  return out;
}

}  // namespace provdb::provenance
