#include "join/twig.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "base/metrics.h"
#include "join/structural_join.h"

namespace xqp {

int TwigPattern::Add(std::string local, int parent, bool child_edge) {
  PNode node;
  node.local = std::move(local);
  node.parent = parent;
  node.child_edge = child_edge;
  int index = static_cast<int>(nodes.size());
  nodes.push_back(std::move(node));
  if (parent >= 0) nodes[parent].children.push_back(index);
  return index;
}

bool TwigPattern::IsPath() const {
  for (const PNode& n : nodes) {
    if (n.children.size() > 1) return false;
  }
  return true;
}

std::string TwigPattern::ToString() const {
  // Recursive render: //a[//b]/c style.
  std::string out;
  std::vector<std::string> rendered(nodes.size());
  for (size_t i = nodes.size(); i-- > 0;) {
    std::string s = nodes[i].local;
    if (static_cast<int>(i) == output) s += "*";
    for (int c : nodes[i].children) {
      s += nodes[c].child_edge ? "[/" : "[//";
      s += rendered[c];
      s += "]";
    }
    rendered[i] = std::move(s);
  }
  return "//" + rendered[0];
}

namespace {

constexpr NodeIndex kInf = UINT32_MAX;

/// Per-pattern-node cursor into its posting list.
struct Cursor {
  const std::vector<NodeIndex>* list = nullptr;
  size_t pos = 0;

  NodeIndex NextStart() const {
    return (list == nullptr || pos >= list->size()) ? kInf : (*list)[pos];
  }
  void Advance() { ++pos; }
  bool Exhausted() const { return NextStart() == kInf; }
};

struct StackEntry {
  NodeIndex node;
  int parent_top;  // Index into parent stack at push time; -1 for root.
};

bool EdgeSatisfied(const Document& doc, NodeIndex parent, NodeIndex child,
                   bool child_edge) {
  if (!child_edge) return true;
  return doc.node(child).level == doc.node(parent).level + 1;
}

/// Per-pattern-node posting lists (nullptr for names absent from the
/// document). Factored out of TwigMachine so callers can substitute
/// filtered lists (TwigStackMatchWithLists).
using PostingLists = std::vector<const std::vector<NodeIndex>*>;

PostingLists LookupPostings(const TagIndex& index, const TwigPattern& pattern) {
  PostingLists lists(pattern.nodes.size());
  for (size_t q = 0; q < pattern.nodes.size(); ++q) {
    lists[q] = index.Lookup(pattern.nodes[q].uri, pattern.nodes[q].local);
  }
  return lists;
}

/// Shared driver over the posting cursors: runs the TwigStack control loop
/// and invokes `on_leaf_push(q)` whenever a leaf pattern node is pushed
/// (i.e., a root-to-leaf path solution exists on the stacks).
class TwigMachine {
 public:
  TwigMachine(const Document& doc, const TwigPattern& pattern,
              const PostingLists& lists)
      : doc_(doc), pattern_(pattern) {
    cursors_.resize(pattern.nodes.size());
    stacks_.resize(pattern.nodes.size());
    for (size_t q = 0; q < pattern.nodes.size(); ++q) {
      cursors_[q].list = lists[q];
    }
  }

  const Document& doc() const { return doc_; }
  const std::vector<StackEntry>& stack(int q) const { return stacks_[q]; }

  template <typename OnLeafPush>
  void Run(OnLeafPush on_leaf_push) {
    while (true) {
      int q = GetNext(0);
      NodeIndex start = cursors_[q].NextStart();
      if (start == kInf) break;
      const auto& pn = pattern_.nodes[q];
      if (pn.parent >= 0) {
        CleanStack(pn.parent, start);
      }
      if (pn.parent < 0 || !stacks_[pn.parent].empty()) {
        CleanStack(q, start);
        int parent_top = pn.parent < 0
                             ? -1
                             : static_cast<int>(stacks_[pn.parent].size()) - 1;
        stacks_[q].push_back(StackEntry{start, parent_top});
        cursors_[q].Advance();
        if (pn.children.empty()) {
          on_leaf_push(q);
          stacks_[q].pop_back();
        }
      } else {
        cursors_[q].Advance();
      }
    }
  }

 private:
  /// The getNext of the paper: returns the pattern node whose head element
  /// is guaranteed to participate (or be safely skippable) next.
  int GetNext(int q) {
    const auto& pn = pattern_.nodes[q];
    if (pn.children.empty()) return q;
    NodeIndex min_start = kInf;
    NodeIndex max_start = 0;
    int qmin = q;
    for (int c : pn.children) {
      int n = GetNext(c);
      if (n != c) return n;
      NodeIndex s = cursors_[c].NextStart();
      if (s < min_start) {
        min_start = s;
        qmin = c;
      }
      if (s != kInf && s > max_start) max_start = s;
    }
    if (min_start == kInf) return q;  // A branch is exhausted.
    // Skip q elements that end before the farthest child head.
    while (cursors_[q].NextStart() != kInf &&
           doc_.node(cursors_[q].NextStart()).end < max_start) {
      cursors_[q].Advance();
    }
    NodeIndex qs = cursors_[q].NextStart();
    // Ties (same element heading several same-tag pattern nodes, as in
    // recursive //b/b/b chains) must resolve to the parent: its occurrence
    // has to be on the stack before the child cursor moves past it.
    if (qs != kInf && qs <= min_start) return q;
    return qmin;
  }

  void CleanStack(int q, NodeIndex next_start) {
    auto& stack = stacks_[q];
    while (!stack.empty() && doc_.node(stack.back().node).end < next_start) {
      stack.pop_back();
    }
  }

  const Document& doc_;
  const TwigPattern& pattern_;
  std::vector<Cursor> cursors_;
  std::vector<std::vector<StackEntry>> stacks_;
};

/// PathStackMatch over explicit posting lists.
Result<std::vector<NodeIndex>> PathStackMatchLists(const Document& doc,
                                                   const TwigPattern& pattern,
                                                   const PostingLists& lists,
                                                   TwigStats* stats) {
  if (!pattern.IsPath()) {
    return Status::InvalidArgument("PathStack requires a linear pattern");
  }
  std::set<NodeIndex> matched;
  TwigMachine machine(doc, pattern, lists);
  // Pattern node chain root..leaf.
  std::vector<int> chain;
  {
    int q = 0;
    chain.push_back(0);
    while (!pattern.nodes[q].children.empty()) {
      q = pattern.nodes[q].children[0];
      chain.push_back(q);
    }
  }
  int output_depth = 0;
  for (size_t i = 0; i < chain.size(); ++i) {
    if (chain[i] == pattern.output) output_depth = static_cast<int>(i);
  }

  machine.Run([&](int leaf_q) {
    // A root-to-leaf solution may exist through any combination of stack
    // positions; greedy walks miss chains on recursive data, so both
    // passes carry full frontiers.
    int depth = static_cast<int>(chain.size()) - 1;
    const auto& leaf_stack = machine.stack(chain[depth]);

    // Up-pass: positions reachable from the just-pushed leaf entry.
    std::vector<std::vector<int>> frontier(chain.size());
    frontier[depth] = {static_cast<int>(leaf_stack.size()) - 1};
    for (int level = depth; level > 0; --level) {
      const auto& cur = machine.stack(chain[level]);
      const auto& up = machine.stack(chain[level - 1]);
      bool child_edge = pattern.nodes[chain[level]].child_edge;
      std::vector<int>& next = frontier[level - 1];
      for (int p : frontier[level]) {
        int ptr = std::min(cur[p].parent_top,
                           static_cast<int>(up.size()) - 1);
        for (int k = 0; k <= ptr; ++k) {
          if (up[k].node < cur[p].node &&
              EdgeSatisfied(doc, up[k].node, cur[p].node, child_edge)) {
            next.push_back(k);
          }
        }
      }
      std::sort(next.begin(), next.end());
      next.erase(std::unique(next.begin(), next.end()), next.end());
      if (next.empty()) return;  // No full root chain for this leaf.
    }

    // Down-pass: restrict to positions on a complete root-to-leaf chain,
    // stopping at the output level.
    std::vector<int> reach = frontier[0];
    for (int level = 1; level <= output_depth; ++level) {
      const auto& cur = machine.stack(chain[level]);
      const auto& up = machine.stack(chain[level - 1]);
      bool child_edge = pattern.nodes[chain[level]].child_edge;
      std::vector<int> next;
      for (int p : frontier[level]) {
        int ptr = std::min(cur[p].parent_top,
                           static_cast<int>(up.size()) - 1);
        for (int q : reach) {
          if (q <= ptr && up[q].node < cur[p].node &&
              EdgeSatisfied(doc, up[q].node, cur[p].node, child_edge)) {
            next.push_back(p);
            break;
          }
        }
      }
      std::sort(next.begin(), next.end());
      next.erase(std::unique(next.begin(), next.end()), next.end());
      reach = std::move(next);
      if (reach.empty()) return;
    }
    const auto& out_stack = machine.stack(chain[output_depth]);
    for (int p : reach) matched.insert(out_stack[p].node);
  });
  std::vector<NodeIndex> out(matched.begin(), matched.end());
  if (stats != nullptr) stats->output_matches = out.size();
  return out;
}

Result<std::vector<NodeIndex>> TwigStackMatchLists(const Document& doc,
                                                   const TwigPattern& pattern,
                                                   const PostingLists& lists,
                                                   TwigStats* stats) {
  if (pattern.nodes.size() == 1) {
    std::vector<NodeIndex> out =
        lists[0] ? *lists[0] : std::vector<NodeIndex>{};
    if (stats != nullptr) stats->output_matches = out.size();
    return out;
  }
  if (pattern.IsPath()) return PathStackMatchLists(doc, pattern, lists, stats);

  // Edge-pair sets recorded from path solutions; keyed by child pattern
  // node (each non-root node has exactly one incoming edge).
  std::vector<std::set<std::pair<NodeIndex, NodeIndex>>> edge_pairs(
      pattern.nodes.size());

  TwigMachine machine(doc, pattern, lists);
  machine.Run([&](int leaf_q) {
    // Record pairs along the root-to-leaf chain of leaf_q, for every
    // compatible stack combination (bounded by parent pointers).
    int q = leaf_q;
    const auto& leaf_stack = machine.stack(q);
    std::vector<int> frontier{static_cast<int>(leaf_stack.size()) - 1};
    while (pattern.nodes[q].parent >= 0) {
      int p = pattern.nodes[q].parent;
      const auto& cur_stack = machine.stack(q);
      const auto& parent_stack = machine.stack(p);
      bool child_edge = pattern.nodes[q].child_edge;
      std::vector<int> next_frontier;
      for (int cp : frontier) {
        int ptr = cur_stack[cp].parent_top;
        for (int k = 0; k <= ptr && k < static_cast<int>(parent_stack.size());
             ++k) {
          if (parent_stack[k].node < cur_stack[cp].node &&
              EdgeSatisfied(doc, parent_stack[k].node, cur_stack[cp].node,
                            child_edge)) {
            edge_pairs[q].emplace(parent_stack[k].node, cur_stack[cp].node);
            next_frontier.push_back(k);
          }
        }
      }
      std::sort(next_frontier.begin(), next_frontier.end());
      next_frontier.erase(
          std::unique(next_frontier.begin(), next_frontier.end()),
          next_frontier.end());
      frontier = std::move(next_frontier);
      q = p;
    }
  });

  if (stats != nullptr) {
    for (const auto& pairs : edge_pairs) {
      stats->intermediate_pairs += pairs.size();
    }
  }

  // Merge phase: bottom-up validity, then top-down reachability.
  size_t n = pattern.nodes.size();
  std::vector<std::set<NodeIndex>> valid(n);
  // Process nodes in reverse index order — parents precede children by
  // construction, so reverse order is bottom-up.
  for (size_t qi = n; qi-- > 0;) {
    const auto& pn = pattern.nodes[qi];
    std::set<NodeIndex> cand;
    if (pn.parent >= 0) {
      for (const auto& [a, d] : edge_pairs[qi]) cand.insert(d);
    } else {
      for (int c : pn.children) {
        for (const auto& [a, d] : edge_pairs[c]) cand.insert(a);
      }
    }
    for (NodeIndex nidx : cand) {
      bool ok = true;
      for (int c : pn.children) {
        bool has = false;
        for (const auto& [a, d] : edge_pairs[c]) {
          if (a == nidx && valid[c].count(d) > 0) {
            has = true;
            break;
          }
        }
        if (!has) {
          ok = false;
          break;
        }
      }
      if (ok) valid[qi].insert(nidx);
    }
  }
  std::vector<std::set<NodeIndex>> reach(n);
  reach[0] = valid[0];
  for (size_t qi = 1; qi < n; ++qi) {
    int p = pattern.nodes[qi].parent;
    for (const auto& [a, d] : edge_pairs[qi]) {
      if (reach[p].count(a) > 0 && valid[qi].count(d) > 0) {
        reach[qi].insert(d);
      }
    }
  }
  std::vector<NodeIndex> out(reach[pattern.output].begin(),
                             reach[pattern.output].end());
  if (stats != nullptr) stats->output_matches = out.size();
  return out;
}

}  // namespace

Result<std::vector<NodeIndex>> PathStackMatch(const TagIndex& index,
                                              const TwigPattern& pattern,
                                              TwigStats* stats) {
  static metrics::OpMetrics m("twig.path_stack");
  metrics::ScopedTimer timer(metrics::Enabled() ? m.wall_ns : nullptr);
  auto result = PathStackMatchLists(index.doc(), pattern,
                                    LookupPostings(index, pattern), stats);
  if (metrics::Enabled()) {
    m.calls->Increment();
    if (result.ok()) m.items->Add(result.value().size());
  }
  return result;
}

Result<std::vector<NodeIndex>> TwigStackMatch(const TagIndex& index,
                                              const TwigPattern& pattern,
                                              TwigStats* stats) {
  static metrics::OpMetrics m("twig.twig_stack");
  metrics::ScopedTimer timer(metrics::Enabled() ? m.wall_ns : nullptr);
  auto result = TwigStackMatchLists(index.doc(), pattern,
                                    LookupPostings(index, pattern), stats);
  if (metrics::Enabled()) {
    m.calls->Increment();
    if (result.ok()) m.items->Add(result.value().size());
  }
  return result;
}

Result<std::vector<NodeIndex>> TwigStackMatchWithLists(
    const Document& doc, const TwigPattern& pattern,
    const std::vector<const std::vector<NodeIndex>*>& lists,
    TwigStats* stats) {
  static metrics::OpMetrics m("twig.twig_stack_lists");
  metrics::ScopedTimer timer(metrics::Enabled() ? m.wall_ns : nullptr);
  if (lists.size() != pattern.nodes.size()) {
    return Status::InvalidArgument("one posting list per pattern node");
  }
  for (const auto* l : lists) {
    if (l == nullptr) return Status::InvalidArgument("null posting list");
  }
  auto result = TwigStackMatchLists(doc, pattern, lists, stats);
  if (metrics::Enabled()) {
    m.calls->Increment();
    if (result.ok()) m.items->Add(result.value().size());
  }
  return result;
}

Result<std::vector<NodeIndex>> BinaryJoinMatch(const TagIndex& index,
                                               const TwigPattern& pattern,
                                               TwigStats* stats) {
  const Document& doc = index.doc();
  size_t n = pattern.nodes.size();
  // Full pair lists per edge (the materialized intermediate results a
  // binary plan pays for).
  std::vector<std::vector<JoinPair>> edge_pairs(n);
  std::vector<const std::vector<NodeIndex>*> postings(n);
  static const std::vector<NodeIndex> kEmpty;
  for (size_t q = 0; q < n; ++q) {
    postings[q] = index.Lookup(pattern.nodes[q].uri, pattern.nodes[q].local);
    if (postings[q] == nullptr) postings[q] = &kEmpty;
  }
  for (size_t q = 1; q < n; ++q) {
    int p = pattern.nodes[q].parent;
    edge_pairs[q] = StackTreeDesc(doc, *postings[p], *postings[q],
                                  pattern.nodes[q].child_edge);
    if (stats != nullptr) stats->intermediate_pairs += edge_pairs[q].size();
  }
  // Same merge as the holistic variant, over the (larger) pair lists.
  std::vector<std::set<NodeIndex>> valid(n);
  for (size_t qi = n; qi-- > 0;) {
    const auto& pn = pattern.nodes[qi];
    std::set<NodeIndex> cand;
    if (pn.parent >= 0) {
      for (const auto& pr : edge_pairs[qi]) cand.insert(pr.descendant);
    } else {
      cand.insert(postings[qi]->begin(), postings[qi]->end());
    }
    for (NodeIndex nidx : cand) {
      bool ok = true;
      for (int c : pn.children) {
        bool has = false;
        for (const auto& pr : edge_pairs[c]) {
          if (pr.ancestor == nidx && valid[c].count(pr.descendant) > 0) {
            has = true;
            break;
          }
        }
        if (!has) {
          ok = false;
          break;
        }
      }
      if (ok) valid[qi].insert(nidx);
    }
  }
  std::vector<std::set<NodeIndex>> reach(n);
  reach[0] = valid[0];
  for (size_t qi = 1; qi < n; ++qi) {
    int p = pattern.nodes[qi].parent;
    for (const auto& pr : edge_pairs[qi]) {
      if (reach[p].count(pr.ancestor) > 0 && valid[qi].count(pr.descendant) > 0) {
        reach[qi].insert(pr.descendant);
      }
    }
  }
  std::vector<NodeIndex> out(reach[pattern.output].begin(),
                             reach[pattern.output].end());
  if (stats != nullptr) stats->output_matches = out.size();
  return out;
}

namespace {

/// Does `node` match pattern node `q` including its whole subtree
/// (existential descendant checks)?
bool SubtreeMatches(const Document& doc, const TwigPattern& pattern, int q,
                    NodeIndex node, std::vector<uint32_t>& name_ids) {
  for (int c : pattern.nodes[q].children) {
    bool found = false;
    const NodeRecord& r = doc.node(node);
    for (NodeIndex d = node + 1; d <= r.end; ++d) {
      const NodeRecord& dn = doc.node(d);
      if (dn.kind != NodeKind::kElement || dn.name_id != name_ids[c]) continue;
      if (pattern.nodes[c].child_edge && dn.parent != node) continue;
      if (SubtreeMatches(doc, pattern, c, d, name_ids)) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

void CollectOutput(const Document& doc, const TwigPattern& pattern, int q,
                   NodeIndex node, std::vector<uint32_t>& name_ids,
                   std::set<NodeIndex>* out) {
  if (!SubtreeMatches(doc, pattern, q, node, name_ids)) return;
  if (q == pattern.output) {
    out->insert(node);
    return;
  }
  // Descend towards the output node.
  for (int c : pattern.nodes[q].children) {
    // Only the branch containing the output node matters for collection.
    // Determine membership by walking up from output.
    int cur = pattern.output;
    bool on_branch = false;
    while (cur >= 0) {
      if (cur == c) {
        on_branch = true;
        break;
      }
      cur = pattern.nodes[cur].parent;
    }
    if (!on_branch) continue;
    const NodeRecord& r = doc.node(node);
    for (NodeIndex d = node + 1; d <= r.end; ++d) {
      const NodeRecord& dn = doc.node(d);
      if (dn.kind != NodeKind::kElement || dn.name_id != name_ids[c]) continue;
      if (pattern.nodes[c].child_edge && dn.parent != node) continue;
      CollectOutput(doc, pattern, c, d, name_ids, out);
    }
  }
}

}  // namespace

Result<std::vector<NodeIndex>> NavigationMatch(const Document& doc,
                                               const TwigPattern& pattern,
                                               TwigStats* stats) {
  std::vector<uint32_t> name_ids(pattern.nodes.size());
  for (size_t q = 0; q < pattern.nodes.size(); ++q) {
    name_ids[q] = doc.FindNameId(pattern.nodes[q].uri, pattern.nodes[q].local);
    if (name_ids[q] == kNoName) return std::vector<NodeIndex>{};
  }
  std::set<NodeIndex> out;
  for (NodeIndex i = 0; i < doc.NumNodes(); ++i) {
    const NodeRecord& n = doc.node(i);
    if (n.kind != NodeKind::kElement || n.name_id != name_ids[0]) continue;
    CollectOutput(doc, pattern, 0, i, name_ids, &out);
  }
  std::vector<NodeIndex> result(out.begin(), out.end());
  if (stats != nullptr) stats->output_matches = result.size();
  return result;
}

}  // namespace xqp
