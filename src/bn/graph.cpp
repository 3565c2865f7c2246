#include "bn/graph.h"

#include <algorithm>
#include <cassert>
#include <deque>

namespace drivefi::bn {

NodeId Dag::add_node(std::string name) {
  assert(!index_.contains(name) && "duplicate node name");
  const NodeId id = names_.size();
  index_.emplace(name, id);
  names_.push_back(std::move(name));
  parents_.emplace_back();
  return id;
}

bool Dag::add_edge(NodeId parent, NodeId child) {
  if (parent == child) return false;
  if (has_edge(parent, child)) return false;
  // Adding parent->child creates a cycle iff child already reaches parent.
  if (reaches(child, parent)) return false;
  parents_[child].push_back(parent);
  return true;
}

void Dag::sever_parents(NodeId node) { parents_[node].clear(); }

std::optional<NodeId> Dag::find(const std::string& name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

std::vector<NodeId> Dag::children(NodeId id) const {
  std::vector<NodeId> out;
  for (NodeId n = 0; n < node_count(); ++n)
    if (has_edge(id, n)) out.push_back(n);
  return out;
}

bool Dag::has_edge(NodeId parent, NodeId child) const {
  const auto& p = parents_[child];
  return std::find(p.begin(), p.end(), parent) != p.end();
}

std::vector<NodeId> Dag::topological_order() const {
  const std::size_t n = node_count();
  std::vector<std::size_t> remaining_parents(n);
  std::vector<std::vector<NodeId>> children_of(n);
  for (NodeId c = 0; c < n; ++c) {
    remaining_parents[c] = parents_[c].size();
    for (NodeId p : parents_[c]) children_of[p].push_back(c);
  }
  std::deque<NodeId> ready;
  for (NodeId i = 0; i < n; ++i)
    if (remaining_parents[i] == 0) ready.push_back(i);
  std::vector<NodeId> order;
  order.reserve(n);
  while (!ready.empty()) {
    const NodeId next = ready.front();
    ready.pop_front();
    order.push_back(next);
    for (NodeId c : children_of[next])
      if (--remaining_parents[c] == 0) ready.push_back(c);
  }
  assert(order.size() == n && "graph must be acyclic");
  return order;
}

bool Dag::reaches(NodeId from, NodeId to) const {
  if (from == to) return true;
  // Search `to`'s ancestors along the parent lists, which the DAG stores:
  // one look at each edge, where a search of `from`'s descendants would
  // scan every node for children at each step.
  std::vector<bool> visited(node_count(), false);
  std::vector<NodeId> pending{to};
  visited[to] = true;
  while (!pending.empty()) {
    const NodeId cur = pending.back();
    pending.pop_back();
    for (NodeId p : parents_[cur]) {
      if (p == from) return true;
      if (visited[p]) continue;
      visited[p] = true;
      pending.push_back(p);
    }
  }
  return false;
}

}  // namespace drivefi::bn
