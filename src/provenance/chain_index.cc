#include "provenance/chain_index.h"

namespace provdb::provenance {

const ChainIndex::Leaf* ChainIndex::Find(const Node* root,
                                         storage::ObjectId key) {
  const Node* node = root;
  unsigned shift = 0;
  while (node != nullptr) {
    uintptr_t entry = node->child[NibbleAt(key, shift)];
    if (entry == 0) {
      return nullptr;
    }
    if (IsLeaf(entry)) {
      const Leaf* leaf = AsLeaf(entry);
      return leaf->key == key ? leaf : nullptr;
    }
    node = AsNode(entry);
    shift += 4;
  }
  return nullptr;
}

void ChainIndex::RetireOrDelete(EpochRetired* node,
                                EpochDomain::RetireBuffer* retired) {
  if (retired != nullptr) {
    retired->Add(node);
  } else {
    delete node;
  }
}

ChainIndex::Node* ChainIndex::BuildSplit(const Leaf* existing, Leaf* fresh,
                                         unsigned shift) {
  // Two distinct keys: descend until their nibbles diverge (guaranteed
  // within 64/4 = 16 levels), then hang both leaves off that node.
  Node* node = new Node;
  size_t a = NibbleAt(existing->key, shift);
  size_t b = NibbleAt(fresh->key, shift);
  if (a != b) {
    node->child[a] = Tag(existing);
    node->child[b] = Tag(fresh);
  } else {
    node->child[a] = Tag(BuildSplit(existing, fresh, shift + 4));
  }
  return node;
}

const ChainIndex::Node* ChainIndex::InsertRec(const Node* node, Leaf* leaf,
                                              unsigned shift,
                                              EpochDomain::RetireBuffer* retired) {
  Node* copy = new Node;
  if (node != nullptr) {
    for (size_t i = 0; i < 16; ++i) {
      copy->child[i] = node->child[i];
    }
  }
  const size_t idx = NibbleAt(leaf->key, shift);
  const uintptr_t entry = copy->child[idx];
  if (entry == 0) {
    copy->child[idx] = Tag(leaf);
  } else if (IsLeaf(entry)) {
    const Leaf* existing = AsLeaf(entry);
    if (existing->key == leaf->key) {
      copy->child[idx] = Tag(leaf);
      // The old leaf is unlinked from the new version; readers pinned on
      // an older root still reach it. Its chain cells stay alive — the
      // new leaf links to them or the caller retires them (see header).
      RetireOrDelete(const_cast<Leaf*>(existing), retired);
    } else {
      copy->child[idx] = Tag(BuildSplit(existing, leaf, shift + 4));
    }
  } else {
    copy->child[idx] =
        Tag(InsertRec(AsNode(entry), leaf, shift + 4, retired));
    RetireOrDelete(const_cast<Node*>(AsNode(entry)), retired);
  }
  return copy;
}

const ChainIndex::Node* ChainIndex::Insert(
    const Node* root, Leaf* leaf, EpochDomain::RetireBuffer* retired) {
  const Node* new_root = InsertRec(root, leaf, 0, retired);
  if (root != nullptr) {
    RetireOrDelete(const_cast<Node*>(root), retired);
  }
  return new_root;
}

void ChainIndex::FreeAll(const Node* root) {
  if (root == nullptr) {
    return;
  }
  for (uintptr_t entry : root->child) {
    if (entry == 0) {
      continue;
    }
    if (IsLeaf(entry)) {
      const Leaf* leaf = AsLeaf(entry);
      const ChainNode* cell = leaf->head;
      while (cell != nullptr) {
        const ChainNode* prev = cell->prev;
        delete cell;
        cell = prev;
      }
      delete leaf;
    } else {
      FreeAll(AsNode(entry));
    }
  }
  delete root;
}

}  // namespace provdb::provenance
